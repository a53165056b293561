"""Random instance families for stress-testing and benchmarks.

All generators take an explicit seed (or ``numpy.random.Generator``) and
are fully deterministic given it. Values are parameterized by a
*value-to-energy ratio* knob: a job's value is drawn as a multiple of its
solo energy (constant speed over its own window), which is the natural
scale at which accept/reject decisions flip — drawing values on any other
scale makes instances trivially all-accept or all-reject.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidParameterError
from ..model.job import Instance, Job
from ..model.power import optimal_constant_speed_energy
from ..types import Seed
from .registry import register_workload

__all__ = ["poisson_instance", "heavy_tail_instance", "uniform_instance"]


def _rng(seed: Seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _with_values(
    rows: list[tuple[float, float, float]],
    *,
    alpha: float,
    m: int,
    rng: np.random.Generator,
    value_ratio: tuple[float, float],
) -> Instance:
    """Attach values drawn as ``ratio * solo_energy`` per job."""
    lo, hi = value_ratio
    if not (0.0 < lo <= hi):
        raise InvalidParameterError(f"bad value_ratio range {value_ratio}")
    jobs = []
    for r, d, w in rows:
        solo = optimal_constant_speed_energy(alpha, w, d - r)
        ratio = float(rng.uniform(lo, hi))
        jobs.append(Job(r, d, w, ratio * solo))
    return Instance(tuple(jobs), m=m, alpha=alpha)


@register_workload(
    "poisson",
    summary="Poisson arrivals, exponential windows and workloads",
    params={"arrival_rate": float, "mean_span": float, "mean_workload": float},
)
def poisson_instance(
    n: int,
    *,
    m: int = 1,
    alpha: float = 3.0,
    arrival_rate: float = 1.0,
    mean_span: float = 2.0,
    mean_workload: float = 1.0,
    value_ratio: tuple[float, float] = (0.1, 10.0),
    seed: Seed = None,
) -> Instance:
    """Poisson arrivals, exponential windows and workloads.

    The canonical "data-center request stream" shape: memoryless arrivals
    with i.i.d. work. ``value_ratio`` spans two orders of magnitude by
    default, so a healthy mix of accepts and rejects occurs.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if not 0.0 < arrival_rate < math.inf:
        raise InvalidParameterError(
            f"arrival_rate must be finite and > 0, got {arrival_rate!r}"
        )
    for name, mean in (("mean_span", mean_span), ("mean_workload", mean_workload)):
        if not 0.0 <= mean < math.inf:
            raise InvalidParameterError(
                f"{name} must be finite and >= 0, got {mean!r}"
            )
    rng = _rng(seed)
    gaps = rng.exponential(1.0 / arrival_rate, size=n)
    releases = np.cumsum(gaps) - gaps[0]
    spans = rng.exponential(mean_span, size=n) + 1e-2
    workloads = rng.exponential(mean_workload, size=n) + 1e-3
    rows = [
        (float(releases[i]), float(releases[i] + spans[i]), float(workloads[i]))
        for i in range(n)
    ]
    return _with_values(rows, alpha=alpha, m=m, rng=rng, value_ratio=value_ratio)


@register_workload(
    "heavy-tail",
    summary="Pareto workloads, uniform arrivals: a few elephants, many mice",
    params={"pareto_shape": float, "horizon": float},
)
def heavy_tail_instance(
    n: int,
    *,
    m: int = 1,
    alpha: float = 3.0,
    pareto_shape: float = 1.5,
    horizon: float = 50.0,
    value_ratio: tuple[float, float] = (0.1, 10.0),
    seed: Seed = None,
) -> Instance:
    """Pareto workloads with uniform arrivals: a few elephants, many mice.

    Heavy tails are the adversarial regime for speed scaling — an elephant
    with a tight window forces either a large energy investment or a large
    value loss, which is exactly where the rejection policy earns its keep.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if not 0.0 < pareto_shape < math.inf:
        raise InvalidParameterError(
            f"pareto_shape must be finite and > 0, got {pareto_shape!r}"
        )
    if not (0.2 * horizon >= 0.5 and horizon < math.inf):
        raise InvalidParameterError(
            "horizon must be finite and >= 2.5 (window spans are drawn "
            f"from [0.5, 0.2 * horizon]), got {horizon!r}"
        )
    rng = _rng(seed)
    releases = np.sort(rng.uniform(0.0, horizon, size=n))
    spans = rng.uniform(0.5, 0.2 * horizon, size=n)
    workloads = rng.pareto(pareto_shape, size=n) + 0.05
    rows = [
        (float(releases[i]), float(releases[i] + spans[i]), float(workloads[i]))
        for i in range(n)
    ]
    return _with_values(rows, alpha=alpha, m=m, rng=rng, value_ratio=value_ratio)


@register_workload(
    "uniform",
    summary="everything uniform: the bland control family",
    params={"horizon": float},
)
def uniform_instance(
    n: int,
    *,
    m: int = 1,
    alpha: float = 3.0,
    horizon: float = 20.0,
    value_ratio: tuple[float, float] = (0.1, 10.0),
    seed: Seed = None,
) -> Instance:
    """Everything uniform: the bland control family."""
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if not (horizon * 0.3 >= 0.2 and horizon < math.inf):
        raise InvalidParameterError(
            "horizon must be finite and >= 2/3 (window spans are drawn "
            f"from [0.2, 0.3 * horizon]), got {horizon!r}"
        )
    rng = _rng(seed)
    releases = rng.uniform(0.0, horizon * 0.8, size=n)
    spans = rng.uniform(0.2, horizon * 0.3, size=n)
    workloads = rng.uniform(0.1, 2.0, size=n)
    rows = [
        (float(releases[i]), float(releases[i] + spans[i]), float(workloads[i]))
        for i in range(n)
    ]
    return _with_values(rows, alpha=alpha, m=m, rng=rng, value_ratio=value_ratio)
