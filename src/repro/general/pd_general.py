"""PD with an arbitrary convex power function.

The scheduler is literally the paper's: the same water-filling, the same
rejection rule shape (stop when the marginal price reaches the value),
the same never-revisit commitment discipline. Only the marginal-price
map ``s -> delta * w * P'(s)`` changes. What *no longer* comes for free
is Theorem 3's constant: ``alpha**alpha`` and the optimal
``delta = alpha**(1-alpha)`` are polynomial-specific. What survives —
provably, since it is nothing but convex weak duality — is the dual
lower bound ``g(lambda~) <= cost(OPT)`` computed by
:mod:`repro.general.duality`, so every generalized run still carries a
machine-checkable certificate of the form ``cost(PD) <= r * cost(OPT)``
with an *empirical* ``r = cost / g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..chen.interval_power import interval_energy
from ..core.pd import PDResult, PDScheduler, _run_ordered
from ..errors import InvalidParameterError
from ..model.job import Instance
from ..model.power import PowerFunction
from ..model.schedule import Schedule

__all__ = ["GeneralPDResult", "run_pd_general", "energy_with_power"]

_LOAD_EPS = 1e-12


def energy_with_power(schedule: Schedule, power: PowerFunction) -> float:
    """Total energy of a schedule's loads under an arbitrary power law.

    The dedicated/pool structure of the per-interval optimum is
    independent of the convex power function (the most balanced feasible
    load vector is optimal for every convex ``P`` by majorization), so
    re-pricing the same loads under a different ``P`` is exact, not a
    bound.
    """
    lengths = schedule.grid.lengths
    total = 0.0
    for k in range(schedule.grid.size):
        col = schedule.loads[:, k]
        if float(col.sum()) <= _LOAD_EPS:
            continue
        total += interval_energy(
            col, schedule.instance.m, float(lengths[k]), power
        )
    return total


@dataclass(frozen=True)
class GeneralPDResult:
    """A PD run whose energy accounting uses a custom power function.

    Attributes
    ----------
    inner:
        The raw PD run; its schedule's loads and acceptance decisions are
        authoritative, but its ``schedule.energy`` prices loads with the
        instance's *polynomial* power and must not be used here.
    power:
        The power function the run was priced and is billed with.
    delta:
        The aggressiveness parameter used.
    """

    inner: PDResult
    power: PowerFunction
    delta: float

    @property
    def schedule(self) -> Schedule:
        return self.inner.schedule

    @cached_property
    def energy(self) -> float:
        """Energy of the realized loads under ``power``."""
        return energy_with_power(self.inner.schedule, self.power)

    @property
    def lost_value(self) -> float:
        return self.inner.schedule.lost_value

    @property
    def cost(self) -> float:
        """Equation (1) with the generalized power function."""
        return self.energy + self.lost_value

    @property
    def accepted_mask(self) -> np.ndarray:
        return self.inner.accepted_mask

    @property
    def lambdas(self) -> np.ndarray:
        return self.inner.lambdas

    def summary(self) -> str:
        acc = int(self.accepted_mask.sum())
        return (
            f"General-power PD (delta={self.delta:g}): cost {self.cost:.6g} "
            f"= energy {self.energy:.6g} + lost {self.lost_value:.6g}; "
            f"accepted {acc}/{self.schedule.instance.n}"
        )


def run_pd_general(
    instance: Instance, power: PowerFunction, *, delta: float
) -> GeneralPDResult:
    """Run the paper's PD with marginals priced by an arbitrary ``power``.

    Parameters
    ----------
    instance:
        Jobs and machine count. The instance's ``alpha`` is ignored for
        pricing and billing (it only parametrizes the polynomial model).
    power:
        Any convex :class:`~repro.model.power.PowerFunction` with
        ``P(0) = 0`` — e.g. :class:`repro.general.powers.SumPower`.
    delta:
        Required explicitly: the polynomial optimum ``alpha**(1-alpha)``
        has no known analogue here. E16 ablates this choice empirically.
    """
    if delta is None or delta <= 0.0:
        raise InvalidParameterError(f"delta must be > 0, got {delta}")
    ordered = instance.sorted_by_release()
    scheduler = PDScheduler(
        m=ordered.m, alpha=ordered.alpha, delta=delta, power=power
    )
    inner = _run_ordered(scheduler, ordered)
    return GeneralPDResult(inner=inner, power=power, delta=delta)
