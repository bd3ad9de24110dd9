"""Convolution primitives: im2col/col2im, Conv2d and ConvTranspose2d.

The paper's three subnets are built from strided convolutions (downsampling),
strided transposed convolutions (upsampling), and stride-1 convolutions with
*replication* padding for conv layers and *zero* padding for deconv layers
(Sec. 3.4.1).  These primitives are implemented with the standard
im2col/col2im formulation so that the heavy lifting is a single matrix
product per layer.  The one exception is the transposed convolution's
forward fold: :func:`fold_transposed` splits the output into its
``stride**2`` phases and sums each one in a small contiguous buffer (the
sub-pixel view of a strided transposed convolution, Shi et al.,
arXiv:1609.07009), bit-identical to ``col2im`` plus crop but without the
strided scatter-add over a padded buffer.

Array layout is NCHW throughout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import kernels
from repro.nn.kernels import release_workspace, take_workspace
from repro.nn.tensor import Context, Function, Tensor, grad_enabled

#: Padding modes supported by :class:`Conv2dFunction`.
PADDING_MODES = ("zeros", "replicate")

# The im2col workspace pool lives in :mod:`repro.nn.kernels` (keyed by
# (shape, dtype), recency-ordered eviction).  Ownership is exclusive between
# take and release, so a buffer saved for a backward pass can never be
# overwritten by a concurrent forward; a graph can consequently only be
# backpropagated once through a convolution (the standard contract — the
# workspace is recycled during backward).


def pad_input(x: np.ndarray, padding: int, mode: str) -> np.ndarray:
    """Pad the two spatial axes of an NCHW array.

    Built from slice copies rather than ``np.pad``, whose per-call overhead
    dominates on the small maps a chunked forward pass pads many times.
    """
    if padding == 0:
        return x
    if mode not in PADDING_MODES:
        raise ValueError(f"unknown padding mode {mode!r}; expected one of {PADDING_MODES}")
    batch, channels, height, width = x.shape
    shape = (batch, channels, height + 2 * padding, width + 2 * padding)
    if mode == "zeros":
        padded = np.zeros(shape, dtype=x.dtype)
        padded[:, :, padding:-padding, padding:-padding] = x
        return padded
    padded = np.empty(shape, dtype=x.dtype)
    # Centre rows with their left/right edge columns, then the top/bottom
    # borders as copies of the first/last full padded row.
    rows = padded[:, :, padding:-padding]
    rows[:, :, :, padding:-padding] = x
    rows[:, :, :, :padding] = x[:, :, :, :1]
    rows[:, :, :, -padding:] = x[:, :, :, -1:]
    padded[:, :, :padding] = padded[:, :, padding : padding + 1]
    padded[:, :, -padding:] = padded[:, :, -padding - 1 : -padding]
    return padded


def unpad_gradient(grad_padded: np.ndarray, padding: int, mode: str) -> np.ndarray:
    """Adjoint of :func:`pad_input`: fold border gradients back into the crop."""
    if padding == 0:
        return grad_padded
    core = grad_padded[:, :, padding:-padding, padding:-padding].copy()
    if mode == "zeros":
        return core
    if mode == "replicate":
        # Replication padding copies edge pixels outward, so the adjoint adds
        # the border gradients back onto the edge rows/columns they came from.
        top = grad_padded[:, :, :padding, padding:-padding].sum(axis=2)
        bottom = grad_padded[:, :, -padding:, padding:-padding].sum(axis=2)
        core[:, :, 0, :] += top
        core[:, :, -1, :] += bottom
        left = grad_padded[:, :, padding:-padding, :padding].sum(axis=3)
        right = grad_padded[:, :, padding:-padding, -padding:].sum(axis=3)
        core[:, :, :, 0] += left
        core[:, :, :, -1] += right
        # The four corner blocks replicate the corner pixels.
        core[:, :, 0, 0] += grad_padded[:, :, :padding, :padding].sum(axis=(2, 3))
        core[:, :, 0, -1] += grad_padded[:, :, :padding, -padding:].sum(axis=(2, 3))
        core[:, :, -1, 0] += grad_padded[:, :, -padding:, :padding].sum(axis=(2, 3))
        core[:, :, -1, -1] += grad_padded[:, :, -padding:, -padding:].sum(axis=(2, 3))
        return core
    raise ValueError(f"unknown padding mode {mode!r}; expected one of {PADDING_MODES}")


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution."""
    return (size + 2 * padding - kernel) // stride + 1


def conv_transpose_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a transposed convolution."""
    return (size - 1) * stride - 2 * padding + kernel


def im2col(
    x_padded: np.ndarray, kernel: int, stride: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Unfold sliding windows into columns (via the active kernel backend).

    Parameters
    ----------
    x_padded:
        Padded input, shape ``(N, C, H, W)``.
    kernel / stride:
        Square kernel size and stride.
    out:
        Optional preallocated C-contiguous destination of shape
        ``(N, C * kernel * kernel, OH * OW)`` (e.g. a pooled workspace);
        allocated when omitted.

    Returns
    -------
    Array of shape ``(N, C * kernel * kernel, OH * OW)`` (``out`` if given).
    """
    return kernels.im2col(x_padded, kernel, stride, out=out)


def col2im(
    columns: np.ndarray,
    padded_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` (via the active kernel backend)."""
    return kernels.col2im(columns, padded_shape, kernel, stride)


def _tap_span(tap: int, phase: int, padding: int, stride: int, phase_size: int, in_size: int):
    """Where kernel tap ``tap`` lands in output phase ``phase`` along one axis.

    Returns ``(lo, hi, offset)``: phase positions ``lo:hi`` receive input
    positions ``lo + offset : hi + offset``; ``None`` if the tap misses the
    phase.
    """
    if (phase + padding - tap) % stride:
        return None
    offset = (phase + padding - tap) // stride
    lo, hi = max(0, -offset), min(phase_size, in_size - offset)
    return (lo, hi, offset) if hi > lo else None


def fold_transposed(
    columns: np.ndarray,
    in_size: tuple[int, int],
    out_size: tuple[int, int],
    kernel: int,
    stride: int,
    padding: int,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fold transposed-convolution GEMM columns into the cropped output.

    Equivalent to ``col2im`` on the padded shape, a crop of ``padding`` and
    a bias add, without the strided scatter-add over the padded buffer.
    Output pixel ``y`` only receives taps ``kh`` with
    ``kh = y + padding (mod stride)``, so the output splits into ``stride**2``
    disjoint phases ``(dh, dw)`` (the sub-pixel view of a strided transposed
    convolution).  Each phase is summed in one reused contiguous buffer,
    adding its taps in ``col2im``'s ``(kh, kw)`` order so every pixel sums the
    same terms in the same order (bit-identical), and is then written into
    its strided slot of the output.  A phase that no tap reaches (kernel
    smaller than stride) is zero plus bias.

    ``columns`` is ``(N, C * kernel * kernel, H * W)``; the result is a fresh
    C-contiguous ``(N, C, OH, OW)`` array.
    """
    in_h, in_w = in_size
    out_h, out_w = out_size
    batch = columns.shape[0]
    channels = columns.shape[1] // (kernel * kernel)
    taps = columns.reshape(batch, channels, kernel, kernel, in_h, in_w)
    dtype = columns.dtype if bias is None else np.result_type(columns, bias)
    output = np.empty((batch, channels, out_h, out_w), dtype=dtype)
    buffer = take_workspace(
        (batch, channels, -(-out_h // stride), -(-out_w // stride)), dtype=columns.dtype
    )
    for dh in range(stride):
        rows = len(range(dh, out_h, stride))
        row_spans = [_tap_span(kh, dh, padding, stride, rows, in_h) for kh in range(kernel)]
        for dw in range(stride):
            cols = len(range(dw, out_w, stride))
            col_spans = [_tap_span(kw, dw, padding, stride, cols, in_w) for kw in range(kernel)]
            phase = buffer[:, :, :rows, :cols]
            phase.fill(0)
            for kh, row_span in enumerate(row_spans):
                if row_span is None:
                    continue
                r0, r1, r_off = row_span
                for kw, col_span in enumerate(col_spans):
                    if col_span is None:
                        continue
                    c0, c1, c_off = col_span
                    phase[:, :, r0:r1, c0:c1] += taps[
                        :, :, kh, kw, r0 + r_off : r1 + r_off, c0 + c_off : c1 + c_off
                    ]
            slot = output[:, :, dh::stride, dw::stride]
            if bias is None:
                np.copyto(slot, phase)
            else:
                np.add(phase, bias.reshape(1, -1, 1, 1), out=slot)
    release_workspace(buffer)
    return output


class Conv2dFunction(Function):
    """2-D convolution (NCHW) with stride, padding and padding-mode support."""

    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 0,
        padding_mode: str = "zeros",
    ) -> np.ndarray:
        out_channels, in_channels, kernel, _ = weight.shape
        if x.ndim != 4 or x.shape[1] != in_channels:
            raise ValueError(
                f"input shape {x.shape} incompatible with weight shape {weight.shape}"
            )
        x_padded = pad_input(x, padding, padding_mode)
        out_h = conv_output_size(x.shape[2], kernel, stride, padding)
        out_w = conv_output_size(x.shape[3], kernel, stride, padding)
        workspace = take_workspace(
            (x.shape[0], in_channels * kernel * kernel, out_h * out_w),
            dtype=x_padded.dtype,
        )
        columns = im2col(x_padded, kernel, stride, out=workspace)
        weight_matrix = weight.reshape(out_channels, -1)
        # matmul broadcasts (O, F) @ (N, F, P) -> (N, O, P) straight into
        # batched GEMM; unlike einsum there is no per-call path search, which
        # matters when serving many small maps.
        output = kernels.matmul(weight_matrix, columns)
        output = output.reshape(x.shape[0], out_channels, out_h, out_w)
        if bias is not None:
            output = output + bias.reshape(1, -1, 1, 1)
        if grad_enabled():
            # The unfolded columns are by far the largest forward buffer;
            # the backward pass recycles them into the workspace pool, so
            # inference (no_grad) batches must not keep them alive either.
            ctx.save(columns, weight, x_padded.shape)
        else:
            release_workspace(columns)
        ctx.attrs.update(
            stride=stride,
            padding=padding,
            padding_mode=padding_mode,
            has_bias=bias is not None,
            input_shape=x.shape,
        )
        return output

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        if ctx.attrs.get("workspace_recycled"):
            raise RuntimeError(
                "cannot backpropagate through the same convolution twice: "
                "its im2col workspace was recycled by the first backward pass"
            )
        columns, weight, padded_shape = ctx.saved
        stride = ctx.attrs["stride"]
        padding = ctx.attrs["padding"]
        padding_mode = ctx.attrs["padding_mode"]
        out_channels, in_channels, kernel, _ = weight.shape

        batch = grad.shape[0]
        grad_flat = grad.reshape(batch, out_channels, -1)  # (N, O, OH*OW)

        weight_matrix = weight.reshape(out_channels, -1)
        # (N, O, P) x (N, P, F) batched GEMM summed over the batch — same
        # contraction as einsum("nop,nfp->of") without the per-call path
        # search overhead.
        grad_weight = (
            kernels.matmul(grad_flat, columns.swapaxes(1, 2)).sum(axis=0).reshape(weight.shape)
        )
        grad_bias = grad_flat.sum(axis=(0, 2)) if ctx.attrs["has_bias"] else None

        # The saved columns are no longer needed past the weight gradient;
        # hand the buffer back to the pool for the next step's forward pass.
        ctx.saved = ()
        ctx.attrs["workspace_recycled"] = True
        release_workspace(columns)
        del columns

        needs = ctx.needs_input_grad
        if needs and not needs[0]:
            # Nobody consumes the input gradient (first-layer convolutions on
            # the minibatch itself) — skip the fold entirely.
            return None, grad_weight, grad_bias

        # Plain matmul (no out=) — numpy's out= variant takes a slower
        # buffered path; the transient result is parked in the pool instead.
        grad_columns = kernels.matmul(weight_matrix.T, grad_flat)
        grad_padded = col2im(grad_columns, padded_shape, kernel, stride)
        release_workspace(grad_columns)
        grad_input = unpad_gradient(grad_padded, padding, padding_mode)
        return grad_input, grad_weight, grad_bias


class ConvTranspose2dFunction(Function):
    """2-D transposed convolution (NCHW), the adjoint of :class:`Conv2dFunction`.

    Weight layout follows the PyTorch convention ``(C_in, C_out, k, k)``.
    Only zero padding is supported, matching the paper's deconvolution layers.
    """

    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        in_channels, out_channels, kernel, _ = weight.shape
        if x.ndim != 4 or x.shape[1] != in_channels:
            raise ValueError(
                f"input shape {x.shape} incompatible with weight shape {weight.shape}"
            )
        batch, _, in_h, in_w = x.shape
        out_h = conv_transpose_output_size(in_h, kernel, stride, padding)
        out_w = conv_transpose_output_size(in_w, kernel, stride, padding)
        padded_shape = (batch, out_channels, out_h + 2 * padding, out_w + 2 * padding)

        x_flat = x.reshape(batch, in_channels, in_h * in_w)
        weight_matrix = weight.reshape(in_channels, out_channels * kernel * kernel)
        # Plain matmul (no out=) — numpy's out= variant takes a slower
        # buffered path; the transient result is parked in the pool instead.
        columns = kernels.matmul(weight_matrix.T, x_flat)
        output = fold_transposed(
            columns, (in_h, in_w), (out_h, out_w), kernel, stride, padding, bias
        )
        release_workspace(columns)
        if grad_enabled():
            ctx.save(x_flat, weight, padded_shape)
        ctx.attrs.update(
            stride=stride, padding=padding, has_bias=bias is not None, input_shape=x.shape
        )
        return output

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x_flat, weight, padded_shape = ctx.saved
        stride = ctx.attrs["stride"]
        padding = ctx.attrs["padding"]
        in_channels, out_channels, kernel, _ = weight.shape
        batch = grad.shape[0]

        if padding > 0:
            grad_padded = np.zeros(padded_shape, dtype=grad.dtype)
            grad_padded[:, :, padding:-padding, padding:-padding] = grad
        else:
            grad_padded = grad
        in_h, in_w = ctx.attrs["input_shape"][2:]
        workspace = take_workspace(
            (batch, out_channels * kernel * kernel, in_h * in_w),
            dtype=grad_padded.dtype,
        )
        grad_columns = im2col(grad_padded, kernel, stride, out=workspace)  # (N, O*k*k, H*W)

        weight_matrix = weight.reshape(in_channels, out_channels * kernel * kernel)
        needs = ctx.needs_input_grad
        if needs and not needs[0]:
            grad_x = None
        else:
            # Batched GEMM replacements for einsum("if,nfp->nip") — no
            # per-call contraction-path search.
            grad_x = kernels.matmul(weight_matrix, grad_columns).reshape(ctx.attrs["input_shape"])

        grad_weight = (
            kernels.matmul(x_flat, grad_columns.swapaxes(1, 2)).sum(axis=0).reshape(weight.shape)
        )
        release_workspace(grad_columns)
        grad_bias = grad.sum(axis=(0, 2, 3)) if ctx.attrs["has_bias"] else None
        return grad_x, grad_weight, grad_bias


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    padding_mode: str = "zeros",
) -> Tensor:
    """Functional 2-D convolution on :class:`~repro.nn.tensor.Tensor` inputs."""
    if bias is None:
        return Conv2dFunction.apply(
            x, weight, stride=stride, padding=padding, padding_mode=padding_mode
        )
    return Conv2dFunction.apply(
        x, weight, bias, stride=stride, padding=padding, padding_mode=padding_mode
    )


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Functional 2-D transposed convolution on :class:`Tensor` inputs."""
    if bias is None:
        return ConvTranspose2dFunction.apply(x, weight, stride=stride, padding=padding)
    return ConvTranspose2dFunction.apply(x, weight, bias, stride=stride, padding=padding)
