"""Per-design predictor registry.

One serving process handles *all* reference designs: each design has its own
trained :class:`~repro.core.inference.NoisePredictor` checkpoint on disk, and
the registry loads them on demand, keeps the hottest ones resident, and
evicts least-recently-used predictors once ``capacity`` is exceeded.  Loaded
models are frozen (:meth:`~repro.nn.modules.Module.freeze`) — a served model
never records the autograd graph.

The registry is thread-safe: resident-state mutations happen under an
internal lock, while checkpoint loads run *outside* it so a cold load for
one design never blocks lookups for designs that are already resident.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.core.inference import NoisePredictor
from repro.nn import kernels
from repro.utils import check_positive, get_logger

_LOG = get_logger("serving.registry")


@dataclass
class RegistryStats:
    """Counters describing registry activity."""

    hits: int = 0
    loads: int = 0
    evictions: int = 0


class PredictorRegistry:
    """Loads and evicts per-design predictor checkpoints.

    Parameters
    ----------
    root:
        Directory holding one ``<design_name>.npz`` checkpoint per design
        (created if missing).
    capacity:
        Maximum number of predictors kept in memory simultaneously.
    dtype:
        Optional serving-precision override (``"float32"``/``"float64"``)
        applied to every checkpoint this registry loads — any checkpoint
        directory can be served at float32 without rewriting checkpoints.
        ``None`` (default) keeps each checkpoint's recorded dtype.
    """

    def __init__(
        self, root: Union[str, Path], capacity: int = 4, dtype: Optional[str] = None
    ):
        check_positive(capacity, "capacity")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.capacity = int(capacity)
        self.dtype = kernels.dtype_name(dtype) if dtype is not None else None
        self._loaded: "OrderedDict[str, NoisePredictor]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = RegistryStats()

    # ------------------------------------------------------------------ #
    # locations
    # ------------------------------------------------------------------ #

    def checkpoint_path(self, design_name: str) -> Path:
        """On-disk checkpoint location for one design."""
        if not design_name or "/" in design_name or design_name.startswith("."):
            raise ValueError(f"invalid design name {design_name!r}")
        return self.root / f"{design_name}.npz"

    def available(self) -> tuple[str, ...]:
        """Design names with a checkpoint on disk (sorted)."""
        return tuple(sorted(path.stem for path in self.root.glob("*.npz")))

    def loaded(self) -> tuple[str, ...]:
        """Design names currently resident in memory (LRU order, oldest first)."""
        with self._lock:
            return tuple(self._loaded)

    def __contains__(self, design_name: str) -> bool:
        with self._lock:
            if design_name in self._loaded:
                return True
        return self.checkpoint_path(design_name).exists()

    # ------------------------------------------------------------------ #
    # registration / lookup
    # ------------------------------------------------------------------ #

    def register(
        self, design_name: str, predictor: NoisePredictor, persist: bool = True
    ) -> Path:
        """Add a predictor for a design (and by default write its checkpoint).

        Returns the checkpoint path.  Re-registering a design replaces the
        resident predictor, so rolled-out retrains take effect immediately.
        With ``persist=False`` the predictor only lives in memory and is lost
        if LRU capacity evicts it before it is saved.

        The caller's predictor object is served as-is (prediction runs under
        ``no_grad`` regardless); only checkpoints loaded from disk are frozen,
        so registering a mid-training snapshot never breaks the training loop
        still running on the same model object.
        """
        path = self.checkpoint_path(design_name)
        if persist:
            predictor.save(path)
        with self._lock:
            self._loaded[design_name] = predictor
            self._loaded.move_to_end(design_name)
            self._evict_over_capacity()
        _LOG.info("registered predictor for %s (%s)", design_name, path.name)
        return path

    def get(self, design_name: str) -> NoisePredictor:
        """The predictor serving ``design_name``, loading its checkpoint on miss."""
        with self._lock:
            resident = self._loaded.get(design_name)
            if resident is not None:
                self._loaded.move_to_end(design_name)
                self.stats.hits += 1
                return resident
        path = self.checkpoint_path(design_name)
        if not path.exists():
            raise KeyError(
                f"no predictor registered for design {design_name!r}; "
                f"available: {list(self.available())}"
            )
        # Load outside the lock: a slow cold load must not block lookups of
        # already-resident designs.  If two threads race on the same design,
        # the first inserted predictor wins and the duplicate load is dropped.
        predictor = NoisePredictor.load(path, dtype=self.dtype)
        predictor.model.freeze()
        with self._lock:
            resident = self._loaded.get(design_name)
            if resident is not None:
                self.stats.hits += 1
                return resident
            self._loaded[design_name] = predictor
            self.stats.loads += 1
            self._evict_over_capacity()
        _LOG.info("loaded predictor for %s from %s", design_name, path.name)
        return predictor

    def evict(self, design_name: str) -> bool:
        """Drop a resident predictor (its checkpoint stays on disk)."""
        with self._lock:
            if design_name in self._loaded:
                del self._loaded[design_name]
                self.stats.evictions += 1
                return True
            return False

    def clear(self) -> None:
        """Drop every resident predictor."""
        with self._lock:
            self.stats.evictions += len(self._loaded)
            self._loaded.clear()

    def _evict_over_capacity(self) -> None:
        # Caller holds self._lock.
        while len(self._loaded) > self.capacity:
            evicted, _ = self._loaded.popitem(last=False)
            self.stats.evictions += 1
            if not self.checkpoint_path(evicted).exists():
                # Registered with persist=False and never saved: eviction
                # destroys the only copy, so later get() calls will fail.
                _LOG.warning(
                    "evicted predictor for %s has no checkpoint on disk; "
                    "it cannot be reloaded (register with persist=True to keep it)",
                    evicted,
                )
            else:
                _LOG.info("evicted predictor for %s (capacity %d)", evicted, self.capacity)
