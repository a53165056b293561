"""PD at 100,000 jobs: columnar construction, epoch batching, streaming cost.

Ten times ``pd_10k_jobs.py``. At this scale three more pieces of the
performance model come into play:

* the instance is generated straight into a columnar
  :class:`~repro.model.job_arrays.JobArrays` block (the ``slotted``
  workload family) — no per-job ``Job`` objects are built up front;
* :meth:`PDScheduler.arrive_many` consumes the columns in **arrival
  epochs** (:mod:`repro.perf.epochs`): while arrivals still refine the
  grid they run one by one through the scalar path, and once the grid
  has settled on the slot boundaries whole blocks get the release-order
  check, window lookups and a cheap-reject pre-screen as batched numpy
  passes. The decisions are bit-identical to feeding the jobs one at a
  time — the differential suite (``tests/test_epochs.py``) asserts it
  against the dense per-arrival twin;
* cost is read off the scheduler's live per-interval stores with
  :meth:`PDScheduler.streaming_energy` / ``streaming_lost_value``
  instead of assembling the full ``(n, N)`` schedule matrix.

Run it:

    PYTHONPATH=src python examples/pd_100k_jobs.py

Expected: the pass completes in seconds and prints its cost breakdown.
"""

from __future__ import annotations

import time

from repro.core.pd import PDScheduler
from repro.workloads import slotted_instance


def main() -> None:
    t0 = time.perf_counter()
    inst = slotted_instance(100_000, slots=1000, m=4, alpha=3.0, seed=0)
    ordered = inst.sorted_by_release()
    arrays = ordered.arrays
    t_gen = time.perf_counter() - t0
    print(
        f"instance: {ordered.n} jobs over 1000 slots, m={ordered.m}, "
        f"alpha={ordered.alpha} (built columnar in {t_gen:.2f} s)"
    )

    # Streaming accessors only — finish() would assemble the dense
    # (n, N) matrix this example exists to avoid.
    sched = PDScheduler(m=ordered.m, alpha=ordered.alpha)
    t0 = time.perf_counter()
    sched.arrive_many(arrays)
    energy = sched.streaming_energy()
    lost = sched.streaming_lost_value()
    wall = time.perf_counter() - t0
    print(f"arrive_many: {wall:6.2f} s ({1e6 * wall / arrays.n:.0f} us/job)")
    print(
        f"cost {energy + lost:.1f} = energy {energy:.1f} "
        f"+ lost value {lost:.1f}"
    )
    print("100k-job streaming pipeline: done")


if __name__ == "__main__":
    main()
