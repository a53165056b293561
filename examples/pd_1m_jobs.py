"""PD at 1,000,000 jobs: the arrival-epoch block loop at full tier.

The million-job point of the ``pd-1m`` bench scenario, as a runnable
walkthrough. Pricing one job per Python ``arrive()`` call would cost
more in interpreter choreography around each call (window lookup,
kernel build, decision object) than in the water-filling arithmetic
itself. :meth:`PDScheduler.arrive_many` consumes the columnar job
stream in blocks (:mod:`repro.perf.epochs`): arrivals that still refine
the grid run one by one through the scalar path, and once the grid has
settled each block gets one vectorized release-order check, one batched
window lookup and a cheap-reject pre-screen, with only the jobs that
actually move water falling through to the scalar kernel. Decisions are
bit-identical to the per-arrival loop.

Run it:

    PYTHONPATH=src python examples/pd_1m_jobs.py

Expected: the million jobs finish in tens of seconds.
"""

from __future__ import annotations

import time

from repro.core.pd import PDScheduler
from repro.workloads import slotted_instance


def main() -> None:
    m, alpha = 4, 3.0

    t0 = time.perf_counter()
    big = slotted_instance(1_000_000, slots=1000, m=m, alpha=alpha, seed=0)
    arrays = big.sorted_by_release().arrays
    t_gen = time.perf_counter() - t0
    print(f"1M-job instance built columnar in {t_gen:.2f} s")

    sched = PDScheduler(m=m, alpha=alpha)
    t0 = time.perf_counter()
    sched.arrive_many(arrays)
    cost = sched.streaming_cost()
    wall = time.perf_counter() - t0
    print(
        f"arrive_many, 1M jobs: {wall:6.2f} s "
        f"({1e6 * wall / arrays.n:.1f} us/job), cost {cost:.1f}"
    )
    print("million-job pipeline: done")


if __name__ == "__main__":
    main()
