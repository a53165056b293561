"""Incremental algorithm kernels and the performance harness.

``repro.perf`` holds the engineering layer that makes the hot
simulation paths scale without changing a single bit of their output:

* :mod:`repro.perf.kernels` — incremental per-interval load stores
  (:class:`~repro.perf.kernels.IntervalLoads`) and the window
  evaluator (:class:`~repro.perf.kernels.WindowKernel`) the primal-dual
  water-filling prices jobs against;
* :mod:`repro.perf.epochs` — the block loop behind
  :meth:`~repro.core.pd.PDScheduler.arrive_many`, PD's one driver
  (:func:`~repro.perf.epochs.arrive_epochs`): blocks of consecutive
  arrivals consumed off the columnar job storage, run one by one
  through the scheduler's scalar path while they refine the grid and
  decided with vectorized order/window/screen passes once it has
  settled, bit-identical decisions;
* :mod:`repro.perf.energy` — batched multi-interval energy evaluation
  over a column-sparse view of the loads, O(nnz + N):
  :func:`~repro.perf.energy.schedule_energy` reads a schedule's
  :class:`~repro.model.schedule.ColumnLoads`,
  :func:`~repro.perf.energy.stores_energy` lays streaming
  ``IntervalLoads`` out the same way, and one kernel prices both;
* :mod:`repro.perf.reference` — the historical straight-line
  implementations (dense-matrix PD, per-column energy and realization),
  kept verbatim for differential ("bit parity") testing against the
  kernels;
* :mod:`repro.perf.bench` — named perf scenarios, the machine-readable
  ``BENCH_<scenario>.json`` emitter, and the baseline-comparison gate
  behind ``python -m repro bench``.

Every kernel is bit-parity-tested against the reference path: same
schedules, same costs, same certificates, same cache keys. Speed is an
execution strategy here, never a result change.
"""

from .energy import schedule_energy, stores_energy
from .epochs import DEFAULT_EPOCH_SIZE, arrive_epochs
from .kernels import IntervalLoads, WindowKernel

__all__ = [
    "DEFAULT_EPOCH_SIZE",
    "IntervalLoads",
    "WindowKernel",
    "arrive_epochs",
    "schedule_energy",
    "stores_energy",
]
