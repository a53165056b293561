"""Structured instance families with special window patterns.

Scheduling theory distinguishes instance classes by the structure of the
release/deadline windows; algorithms often behave very differently across
them, so the test- and benchmark-suites sweep all of these:

* **agreeable** — windows ordered the same way by release and deadline
  (``r_i <= r_j  =>  d_i <= d_j``); the "easy" online case.
* **laminar** — windows nested like parentheses; the hierarchical case
  produced by fork-join workloads.
* **batch** — everything released together with a common deadline; the
  pure load-balancing case where Chen et al.'s partition does all the
  work (this is the shape of the paper's Figure 2 example).
* **tight** — windows barely longer than the work at unit speed; the
  high-pressure case where rejections dominate.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidParameterError
from ..model.job import Instance, Job
from ..model.job_arrays import JobArrays
from ..model.power import optimal_constant_speed_energy
from ..types import Seed
from .registry import register_workload

__all__ = [
    "agreeable_instance",
    "laminar_instance",
    "batch_instance",
    "tight_instance",
    "bursty_instance",
    "slotted_instance",
]


def _rng(seed: Seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _value(rng: np.random.Generator, alpha: float, w: float, span: float,
           value_ratio: tuple[float, float]) -> float:
    solo = optimal_constant_speed_energy(alpha, w, span)
    return float(rng.uniform(*value_ratio)) * solo


@register_workload(
    "agreeable",
    summary="releases and deadlines increase together (FIFO-like windows)",
)
def agreeable_instance(
    n: int,
    *,
    m: int = 1,
    alpha: float = 3.0,
    value_ratio: tuple[float, float] = (0.2, 5.0),
    seed: Seed = None,
) -> Instance:
    """Releases and deadlines increase together (FIFO-like windows)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    rng = _rng(seed)
    releases = np.sort(rng.uniform(0.0, 10.0, size=n))
    spans = rng.uniform(1.0, 3.0, size=n)
    deadlines = releases + spans
    deadlines = np.maximum.accumulate(deadlines)  # enforce agreeability
    jobs = []
    for i in range(n):
        w = float(rng.uniform(0.2, 1.5))
        span = float(deadlines[i] - releases[i])
        jobs.append(
            Job(float(releases[i]), float(deadlines[i]), w,
                _value(rng, alpha, w, span, value_ratio))
        )
    return Instance(tuple(jobs), m=m, alpha=alpha)


def laminar_instance(
    depth: int,
    *,
    branching: int = 2,
    m: int = 1,
    alpha: float = 3.0,
    value_ratio: tuple[float, float] = (0.2, 5.0),
    seed: Seed = None,
) -> Instance:
    """Nested windows: one job per node of a ``branching``-ary tree.

    The root spans ``[0, 2**depth)``; each child splits its parent's
    window. Total jobs: ``(branching**depth - 1) / (branching - 1)`` for
    ``branching >= 2``.
    """
    if depth < 1:
        raise InvalidParameterError(f"need depth >= 1, got {depth}")
    if branching < 2:
        raise InvalidParameterError(f"need branching >= 2, got {branching}")
    rng = _rng(seed)
    jobs: list[Job] = []

    def recurse(lo: float, hi: float, level: int) -> None:
        span = hi - lo
        w = float(rng.uniform(0.2, 0.8)) * span
        jobs.append(Job(lo, hi, w, _value(rng, alpha, w, span, value_ratio)))
        if level + 1 >= depth:
            return
        step = span / branching
        for b in range(branching):
            recurse(lo + b * step, lo + (b + 1) * step, level + 1)

    recurse(0.0, float(2**depth), 0)
    return Instance(tuple(jobs), m=m, alpha=alpha)


@register_workload(
    "batch",
    summary="all jobs released at 0 with a common deadline (Figure 2)",
    params={"deadline": float},
)
def batch_instance(
    n: int,
    *,
    m: int = 4,
    alpha: float = 3.0,
    deadline: float = 1.0,
    value_ratio: tuple[float, float] = (0.2, 5.0),
    seed: Seed = None,
) -> Instance:
    """All jobs released at 0 with a common deadline (Figure 2's shape)."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    rng = _rng(seed)
    jobs = []
    for _ in range(n):
        w = float(rng.uniform(0.1, 2.0))
        jobs.append(
            Job(0.0, deadline, w, _value(rng, alpha, w, deadline, value_ratio))
        )
    return Instance(tuple(jobs), m=m, alpha=alpha)


@register_workload(
    "tight",
    summary="windows barely longer than the work at unit speed",
    params={"slack": float},
)
def tight_instance(
    n: int,
    *,
    m: int = 1,
    alpha: float = 3.0,
    slack: float = 1.2,
    value_ratio: tuple[float, float] = (0.2, 5.0),
    seed: Seed = None,
) -> Instance:
    """Windows only ``slack`` times longer than the work at unit speed."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if slack <= 1.0:
        raise InvalidParameterError(f"slack must be > 1, got {slack}")
    rng = _rng(seed)
    jobs = []
    t = 0.0
    for _ in range(n):
        t += float(rng.exponential(0.5))
        w = float(rng.uniform(0.2, 1.5))
        span = w * slack
        jobs.append(Job(t, t + span, w, _value(rng, alpha, w, span, value_ratio)))
    return Instance(tuple(jobs), m=m, alpha=alpha)


@register_workload(
    "bursty",
    summary="unit must-finish jobs with periodically tightened windows",
    params={"burstiness": float, "spike_period": int, "base_span": float},
    classical=True,
)
def bursty_instance(
    n: int,
    *,
    burstiness: float = 4.0,
    spike_period: int = 4,
    m: int = 1,
    alpha: float = 3.0,
    base_span: float = 2.0,
    seed: Seed = None,
) -> Instance:
    """Unit jobs with every ``spike_period``-th window tightened.

    ``burstiness = 1`` gives identical relaxed windows (flat load);
    larger values squeeze one job in ``spike_period`` into a window
    ``burstiness`` times shorter, concentrating work into spikes. The
    family parametrizes the value-of-speed-scaling experiment (E13): a
    fixed-frequency machine must provision for the spike speed and then
    pays it on *all* its work, so its energy ratio against the offline
    optimum climbs towards the work-concentration factor
    ``spike_period`` as spikes sharpen.

    Jobs are must-finish (classical), so the family also composes with
    the classical algorithm zoo.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if burstiness < 1.0:
        raise InvalidParameterError(
            f"burstiness must be >= 1, got {burstiness}"
        )
    if spike_period < 2:
        raise InvalidParameterError(
            f"spike_period must be >= 2, got {spike_period}"
        )
    if not 0.0 < base_span < math.inf:
        raise InvalidParameterError(
            f"base_span must be finite and > 0, got {base_span!r}"
        )
    rng = _rng(seed)
    rows = []
    t = 0.0
    for i in range(n):
        span = (
            base_span / burstiness
            if i % spike_period == spike_period - 1
            else base_span
        )
        rows.append((t, t + span, 1.0))
        t += float(rng.uniform(0.25 * base_span, 0.5 * base_span))
    return Instance.classical(rows, m=m, alpha=alpha)


@register_workload(
    "laminar",
    summary="nested windows from a branching-ary tree (fork-join shape)",
    params={"branching": int},
)
def _laminar_family(n, *, branching=2, m=1, alpha=3.0, seed=0):
    """Adapter: :func:`laminar_instance` is parameterized by tree depth,
    not job count — map ``n`` to the deepest ``branching``-ary tree whose
    node count (``(branching**depth - 1) / (branching - 1)``) is at most
    ``n`` (depth at least 1), so the registry's uniform contract "about
    n jobs" holds and never overshoots."""
    if branching < 2:
        raise InvalidParameterError(f"need branching >= 2, got {branching}")
    depth, width, nodes = 1, 1, 1
    while nodes + width * branching <= n:
        width *= branching
        nodes += width
        depth += 1
    return laminar_instance(depth, branching=branching, m=m, alpha=alpha, seed=seed)


@register_workload(
    "slotted",
    summary="slotted request stream: releases on a bounded slot grid, "
    "built columnar (the large-n fast path)",
    params={"slots": int, "span_max": int},
)
def slotted_instance(
    n: int,
    *,
    slots: int = 400,
    span_max: int = 6,
    m: int = 1,
    alpha: float = 3.0,
    value_ratio: tuple[float, float] = (0.05, 8.0),
    seed: Seed = None,
) -> Instance:
    """A slotted request stream: ``n`` jobs over ``slots`` time slots.

    Releases snap to slot boundaries and windows span 1 to ``span_max``
    slots, so the number of distinct event times — and with it the
    atomic-interval grid every algorithm works on — is bounded by the
    slot count, not the job count. This is the shape of a datacenter
    request stream batched per scheduling quantum, and the instance
    family the large-scale benches (100k–1M jobs) sweep.

    Unlike the other families, generation is fully vectorized into a
    :class:`~repro.model.job_arrays.JobArrays` column block and the
    instance is built with :meth:`Instance.from_arrays` — no per-job
    ``Job`` objects exist until something asks for them, which is what
    keeps million-job construction at milliseconds.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if slots < 1:
        raise InvalidParameterError(f"need slots >= 1, got {slots}")
    if span_max < 1:
        raise InvalidParameterError(f"need span_max >= 1, got {span_max}")
    rng = _rng(seed)
    releases = np.sort(rng.integers(0, slots, size=n)).astype(np.float64)
    spans = rng.integers(1, span_max + 1, size=n).astype(np.float64)
    workloads = rng.exponential(1.0, size=n) + 1e-3
    values = rng.uniform(*value_ratio, size=n) * workloads
    arrays = JobArrays(
        releases=releases,
        deadlines=releases + spans,
        workloads=workloads,
        values=values,
    )
    return Instance.from_arrays(arrays, m=m, alpha=alpha)
