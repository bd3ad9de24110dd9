"""Computed counts on tiny shapes, and the span wrappers around real calls."""

import numpy as np
import pytest
import scipy.sparse as sp

from tracing import (
    Boundaries,
    Tracer,
    backsub_flops,
    col2im_bytes,
    covered_seconds,
    factor_nnz,
    im2col_bytes,
    layer_metrics,
    matmul_flops,
    self_times,
    unattributed_seconds,
)


def _loop_matmul_flops(a, b):
    """Count the multiply-adds of a triple loop over a (batched) matmul."""
    flops = 0
    for batch in np.ndindex(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])):
        for _ in range(a.shape[-2]):
            for _ in range(b.shape[-1]):
                for _ in range(a.shape[-1]):
                    flops += 2
    return flops


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 3), (3, 4)),
    ((5, 2, 3), (3, 4)),
    ((2, 3), (4, 3, 1)),
    ((3, 2, 2), (3, 2, 5)),
])
def test_matmul_flops_matches_a_loop_count(a_shape, b_shape):
    a, b = np.ones(a_shape), np.ones(b_shape)
    assert matmul_flops(a_shape, b_shape) == _loop_matmul_flops(a, b)


def test_matmul_flops_vector_operands():
    assert matmul_flops((3,), (3, 2)) == 2 * 3 * 2
    assert matmul_flops((4, 3), (3,)) == 2 * 4 * 3


def test_matmul_flops_rejects_misaligned_shapes():
    with pytest.raises(ValueError):
        matmul_flops((2, 3), (4, 5))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stride", [1, 2])
def test_im2col_and_col2im_bytes_match_the_kernels(dtype, stride):
    from repro.nn import kernels

    x = np.arange(2 * 3 * 7 * 7, dtype=dtype).reshape(2, 3, 7, 7)
    columns = kernels.im2col(x, 3, stride)
    assert im2col_bytes(x.shape, 3, stride, x.itemsize) == x.nbytes + columns.nbytes
    folded = kernels.col2im(columns, x.shape, 3, stride)
    assert col2im_bytes(columns.shape, x.shape, columns.itemsize) == (
        columns.nbytes + folded.nbytes
    )


def test_backsub_flops_from_factor_nnz():
    from repro.sim.linear import CholeskySolver, DirectSolver

    diagonal = sp.diags(np.arange(1.0, 6.0))
    # A diagonal matrix factors into a unit-diagonal L and a diagonal U.
    assert factor_nnz(DirectSolver(diagonal)) == 10
    assert backsub_flops(10, 3) == 60

    laplacian = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(6, 6))
    solver = CholeskySolver(laplacian)
    assert factor_nnz(solver) == solver._lu.L.nnz + solver._lu.U.nnz


def test_factor_nnz_of_an_unfactored_solver_is_zero():
    from repro.sim.linear import ConjugateGradientSolver

    assert factor_nnz(ConjugateGradientSolver(sp.identity(3))) == 0


def test_self_time_and_coverage():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 2.0},
        {"id": 3, "parent": 1, "start": 2.5, "end": 3.0},
        {"id": 4, "parent": None, "start": 3.5, "end": 6.0},
    ]
    assert self_times(spans) == {1: 2.5, 2: 1.0, 3: 0.5, 4: 2.5}
    assert covered_seconds([(0.0, 4.0), (3.5, 6.0)], (1.0, 10.0)) == 5.0
    assert unattributed_seconds(spans, (0.0, 10.0)) == 4.0


def test_boundaries_trace_a_training_step_and_restore_the_program():
    from repro.nn import Adam, conv, kernels
    from repro.nn.modules import Conv2d
    from repro.nn.tensor import Tensor

    originals = (kernels.matmul, conv.pad_input, Tensor.backward)
    tracer = Tracer()
    boundaries = Boundaries(tracer)
    boundaries.install()
    try:
        assert kernels.matmul is not originals[0]
        layer = Conv2d(2, 3, 3, padding=1)
        optimizer = Adam(layer.parameters())
        x = Tensor(np.ones((1, 2, 5, 5)), requires_grad=True)
        loss = layer(x).sum()
        loss.backward()
        optimizer.step()
    finally:
        boundaries.uninstall()
    assert (kernels.matmul, conv.pad_input, Tensor.backward) == originals

    metrics = layer_metrics(tracer.spans)
    assert metrics["core.steps"] == (1, "count")
    for kernel in ("matmul", "im2col", "col2im", "pad"):
        assert metrics[f"nn.{kernel}_calls"][0] >= 1
    assert metrics["nn.im2col_fwd_s"][0] > 0 and metrics["nn.im2col_bwd_s"][0] == 0
    assert metrics["nn.col2im_bwd_s"][0] > 0 and metrics["nn.col2im_fwd_s"][0] == 0
    assert metrics["nn.pad_bwd_s"][0] > 0
    # Forward GEMM (3, 18) @ (1, 18, 25), plus the two backward GEMMs.
    forward = matmul_flops((3, 18), (1, 18, 25))
    assert metrics["nn.matmul_flops_computed"][0] == forward + 2 * forward
