"""The interval power function ``P_k`` and its marginal structure.

``P_k(x_{1k}, ..., x_{nk})`` maps a work assignment for atomic interval
``T_k`` to the energy of Chen et al.'s energy-minimal schedule for it
(Equation (6) of the paper):

    ``P_k = sum_{j in psi(k)} l_k * P(u_j / l_k)
            + (m - |psi(k)|) * l_k * P(pool_load / ((m - |psi(k)|) l_k))``

where ``u_j = x_{jk} w_j``. We work throughout in *load space* (``u_j``
rather than ``x_{jk}``): by the chain rule the paper's gradient
``dP_k/dx_{jk} = w_j P'(s_{jk})`` (Proposition 1b) corresponds to
``dP_k/du_j = P'(s_{jk})`` in load space, with ``s_{jk}`` the speed the
schedule gives job ``j``.

Water-level view
----------------
Chen et al.'s partition is a *water-filling*: there is a level ``L`` (the
pool per-processor load) such that every job with load above ``L`` stands
alone on its own processor, and all remaining work fills the other
processors exactly to ``L``. This view yields closed forms for the two
queries the primal-dual algorithm hammers on:

* :func:`added_job_speed` — the speed a new job of load ``z`` would run at
  on top of a frozen existing assignment, and
* :func:`max_load_at_speed` — its monotone inverse: the largest ``z``
  whose speed stays at or below a target. With ``T = s_target * l_k`` and
  ``d = #{existing loads > T}`` the answer is simply
  ``clamp(T * (m - d) - suffix_d, 0, T)`` — see the function docstring
  for the derivation.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from ..model.power import PolynomialPower
from ..types import FloatArray
from .partition import IntervalPartition, partition_loads

__all__ = [
    "interval_energy",
    "interval_energy_from_partition",
    "interval_energy_gradient",
    "job_speeds",
    "pool_level",
    "added_job_speed",
    "max_load_at_speed",
]

_LOAD_EPS = 1e-15


def _check_length(length: float) -> None:
    if not (length > 0.0):
        raise InvalidParameterError(f"interval length must be > 0, got {length}")


def interval_energy(
    loads: FloatArray, m: int, length: float, power: PolynomialPower
) -> float:
    """Evaluate ``P_k`` (Equation (6)) for a load vector.

    This is the energy of the minimal-energy schedule processing
    ``loads[j]`` units of each job within an interval of ``length`` on
    ``m`` processors.
    """
    _check_length(length)
    part = partition_loads(loads, m)
    return interval_energy_from_partition(part, length, power)


def interval_energy_from_partition(
    part: IntervalPartition, length: float, power: PolynomialPower
) -> float:
    """Evaluate ``P_k`` when the partition has already been computed."""
    d = part.num_dedicated
    dedicated = part.sorted_loads[:d]
    energy = float(np.sum(power.power_array(dedicated / length))) * length
    if part.pool_load > _LOAD_EPS:
        pool_speed = part.pool_load_per_processor / length
        energy += part.num_pool_processors * length * power(pool_speed)
    return energy


def job_speeds(loads: FloatArray, m: int, length: float) -> FloatArray:
    """Per-job speeds ``s_{jk}`` under Chen et al.'s schedule.

    Jobs with zero load get speed 0; pool jobs all share the pool speed.
    """
    _check_length(length)
    arr = np.ascontiguousarray(loads, dtype=np.float64)
    part = partition_loads(arr, m)
    speeds = np.zeros(arr.size, dtype=np.float64)
    d = part.num_dedicated
    speeds[part.order[:d]] = part.sorted_loads[:d] / length
    pool_ids = part.pool_ids()
    speeds[pool_ids] = part.pool_load_per_processor / length
    return speeds


def interval_energy_gradient(
    loads: FloatArray, m: int, length: float, power: PolynomialPower
) -> FloatArray:
    """Gradient of ``P_k`` in load space: ``dP_k/du_j = P'(s_{jk})``.

    Proposition 1(b) of the paper shows ``P_k`` is differentiable with
    this gradient even where the dedicated set changes (one-sided
    derivatives agree). For a job with zero load the relevant
    right-derivative prices it at the *pool level* speed, because an
    infinitesimal new load always enters the pool.
    """
    _check_length(length)
    arr = np.ascontiguousarray(loads, dtype=np.float64)
    part = partition_loads(arr, m)
    speeds = np.empty(arr.size, dtype=np.float64)
    d = part.num_dedicated
    speeds[part.order[:d]] = part.sorted_loads[:d] / length
    if d < arr.size:
        # Pool jobs and zero-load jobs both price at the incremental pool
        # level (for a non-degenerate pool this equals the pool speed).
        level = pool_level(arr, m)
        speeds[part.order[d:]] = level / length
    return power.derivative_array(speeds)


def pool_level(existing_loads: FloatArray, m: int) -> float:
    """Limiting pool per-processor load as an infinitesimal job joins.

    When the existing partition already has a non-empty pool this is just
    its per-processor load. When *all* ``m`` processors are dedicated
    (possible with ``>= m`` positive loads), an arriving infinitesimal job
    forces a pool to form; the limit level ``L`` is the unique value with

        ``d = #{loads > L}``  and  ``L = suffix_d / (m - d)``,

    found by testing every candidate dedicated-count in one vectorized
    numpy scan (this query sits inside every price query of the
    primal-dual water-filling). Runs in O(p log p) for the sort,
    O(min(p, m)) for the scan.
    """
    arr = np.sort(np.ascontiguousarray(existing_loads, dtype=np.float64))[::-1]
    if m < 1:
        raise InvalidParameterError(f"m must be >= 1, got {m}")
    p = arr.size
    suffix = np.concatenate((np.cumsum(arr[::-1])[::-1], [0.0]))  # suffix[d] = sum arr[d:]
    limit = min(p, m - 1)  # candidate counts d = 0..limit inclusive
    ds = np.arange(limit + 1)
    levels = suffix[: limit + 1] / (m - ds)
    upper_ok = np.empty(limit + 1, dtype=bool)
    upper_ok[0] = True  # d == 0 has no load standing above the level
    if limit:
        upper_ok[1:] = arr[:limit] >= levels[1:] - _LOAD_EPS
    lower_ok = np.ones(limit + 1, dtype=bool)
    in_range = ds < p
    lower_ok[in_range] = arr[ds[in_range]] <= levels[in_range] + _LOAD_EPS
    hits = np.nonzero(upper_ok & lower_ok)[0]
    if hits.size:
        return max(float(levels[hits[0]]), 0.0)
    # Unreachable for valid inputs; kept as a loud guard.
    raise InvalidParameterError("no consistent pool level found")  # pragma: no cover


def added_job_speed(
    existing_loads: FloatArray, z: float, m: int, length: float
) -> float:
    """Speed of a *new* job of load ``z`` added to frozen ``existing_loads``.

    For ``z > 0`` this recomputes the partition on the extended load
    vector and reads off the new job's speed; at ``z == 0`` it returns the
    limiting pool-level speed (the right-derivative convention matching
    :func:`interval_energy_gradient`).
    """
    _check_length(length)
    if z < 0.0:
        raise InvalidParameterError(f"added load must be >= 0, got {z}")
    arr = np.ascontiguousarray(existing_loads, dtype=np.float64)
    if z <= _LOAD_EPS:
        return pool_level(arr, m) / length
    extended = np.append(arr, z)
    part = partition_loads(extended, m)
    return part.speed_of(int(arr.size), length)


def max_load_at_speed(
    existing_loads: FloatArray,
    target_speed: float,
    m: int,
    length: float,
) -> float:
    """Largest new-job load ``z`` with ``added_job_speed(z) <= target_speed``.

    Derivation of the closed form. Write ``T = target_speed * length`` and
    sort the existing loads descending. Key facts:

    * A job's speed is always at least ``z / length`` (dedicated jobs run
      at exactly that; a pool job's level exceeds every pool member's
      load). Hence no ``z > T`` qualifies.
    * At the answer, the new job either is dedicated with load exactly
      ``T`` or sits in a pool whose level is exactly ``T``. In the latter
      case the dedicated set consists of the ``d = #{loads > T}`` existing
      jobs standing above the water level, so the pool balance reads
      ``(suffix_d + z) = T * (m - d)``.

    Combining both regimes gives ``z* = clamp(T*(m - d) - suffix_d, 0, T)``
    (with ``z* = 0`` when ``d >= m``: every processor is already loaded
    above the target level). Monotonicity of the speed in ``z`` makes this
    the unique answer. O(p log p) for the sort; O(log p) with presorted
    loads via :class:`SortedLoads`.
    """
    _check_length(length)
    if target_speed <= 0.0:
        return 0.0
    arr = np.sort(np.ascontiguousarray(existing_loads, dtype=np.float64))[::-1]
    suffix = np.concatenate((np.cumsum(arr[::-1])[::-1], [0.0]))
    return _max_load_sorted(arr, suffix, target_speed * length, m)


def _max_load_sorted(
    sorted_desc: FloatArray, suffix: FloatArray, target_load: float, m: int
) -> float:
    """Closed-form core of :func:`max_load_at_speed` on presorted loads."""
    # Number of existing loads strictly above the water level T.
    d = int(np.searchsorted(-sorted_desc, -target_load, side="left"))
    if d >= m:
        return 0.0
    z = target_load * (m - d) - float(suffix[d])
    return float(min(max(z, 0.0), target_load))


class SortedLoads:
    """Cache of descending-sorted loads + suffix sums for repeated queries.

    The water-filling inner loop of the primal-dual algorithm evaluates
    :func:`max_load_at_speed` for many candidate prices against the *same*
    frozen assignment; this helper amortizes the sort.
    """

    __slots__ = ("m", "length", "_sorted", "_suffix")

    def __init__(self, existing_loads: FloatArray, m: int, length: float) -> None:
        _check_length(length)
        if m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {m}")
        self.m = m
        self.length = length
        arr = np.sort(np.ascontiguousarray(existing_loads, dtype=np.float64))[::-1]
        self._sorted = arr
        self._suffix = np.concatenate((np.cumsum(arr[::-1])[::-1], [0.0]))

    @property
    def sorted_loads(self) -> FloatArray:
        """The existing loads, descending."""
        return self._sorted

    @property
    def suffix(self) -> FloatArray:
        """Suffix sums: ``suffix[d] == sum(sorted_loads[d:])``."""
        return self._suffix

    def max_load_at_speed(self, target_speed: float) -> float:
        """See :func:`max_load_at_speed`; O(log p) per call."""
        if target_speed <= 0.0:
            return 0.0
        return _max_load_sorted(
            self._sorted, self._suffix, target_speed * self.length, self.m
        )

    def zero_load_speed(self) -> float:
        """Marginal speed of an infinitesimal new job (pool level / length)."""
        return pool_level(self._sorted, self.m) / self.length
