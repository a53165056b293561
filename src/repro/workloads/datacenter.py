"""A synthetic diurnal data-center trace.

The paper's introduction motivates the model with data centers: jobs of
different sizes and values arrive over time, and the operator trades
energy against lost revenue. No real trace ships with the paper (it has
no experiments), so this module builds the closest synthetic equivalent:
a day of requests whose arrival intensity follows a two-peak diurnal
curve, with a mix of short interactive jobs (high value density, tight
deadlines) and long batch jobs (lower value density, loose deadlines).

The generator is deterministic given the seed and is the workload behind
the ``datacenter_profit`` example and parts of experiments E1/E8.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidParameterError
from ..model.job import Instance, Job
from ..model.power import optimal_constant_speed_energy
from ..types import Seed
from .registry import register_workload

__all__ = ["diurnal_instance", "diurnal_intensity"]


def diurnal_intensity(t: float, *, day: float = 24.0) -> float:
    """Two-peak daily arrival intensity in [0.15, 1.0] (arbitrary units)."""
    x = 2.0 * math.pi * (t % day) / day
    # Morning and evening peaks with a night trough.
    raw = 0.5 + 0.35 * math.sin(x - 0.8) + 0.25 * math.sin(2.0 * x + 0.6)
    return max(0.15, min(1.0, raw))


@register_workload(
    "diurnal",
    summary="a day of data-center requests under a two-peak arrival curve",
    params={
        "day": float,
        "interactive_fraction": float,
        "base_rate": float,
    },
)
def diurnal_instance(
    n: int,
    *,
    m: int = 4,
    alpha: float = 3.0,
    day: float = 24.0,
    interactive_fraction: float = 0.7,
    base_rate: float = 8.0,
    seed: Seed = None,
) -> Instance:
    """Generate ``n`` jobs over one day on ``m`` processors.

    Interactive jobs: workload ~ Exp(0.3), window 0.1–0.5 h, value 2–8 x
    solo energy (rejecting them is usually a mistake). Batch jobs:
    workload ~ Exp(3.0), window 2–8 h, value 0.3–2 x solo energy (some
    are not worth their energy at peak load).
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if not (0.0 <= interactive_fraction <= 1.0):
        raise InvalidParameterError("interactive_fraction must be in [0, 1]")
    for name, positive in (("day", day), ("base_rate", base_rate)):
        if not 0.0 < positive < math.inf:
            raise InvalidParameterError(
                f"{name} must be finite and > 0, got {positive!r}"
            )
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed

    # Thinning: sample candidate arrival times against the diurnal curve.
    releases: list[float] = []
    t = 0.0
    while len(releases) < n:
        t += float(rng.exponential(1.0 / base_rate))
        if t >= day:
            t = t % day  # wrap; ordering restored below
        if rng.uniform() <= diurnal_intensity(t, day=day):
            releases.append(t)
    releases.sort()

    jobs: list[Job] = []
    for i, r in enumerate(releases):
        interactive = rng.uniform() < interactive_fraction
        if interactive:
            w = float(rng.exponential(0.3)) + 0.02
            span = float(rng.uniform(0.1, 0.5))
            ratio = float(rng.uniform(2.0, 8.0))
            name = f"web{i}"
        else:
            w = float(rng.exponential(3.0)) + 0.1
            span = float(rng.uniform(2.0, 8.0))
            ratio = float(rng.uniform(0.3, 2.0))
            name = f"batch{i}"
        solo = optimal_constant_speed_energy(alpha, w, span)
        jobs.append(Job(r, r + span, w, ratio * solo, name=name))
    return Instance(tuple(jobs), m=m, alpha=alpha)
