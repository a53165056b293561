"""Batched multi-interval energy evaluation (Equation (6), all columns).

``Schedule.energy`` historically walked the grid one column at a time:
per interval, drop the zeros, sort descending, run the dedication scan,
sum the dedicated powers, add the pool term. This module evaluates
*all* columns in a handful of vectorized passes over a column-sparse
view of the loads — :class:`~repro.model.schedule.ColumnLoads`, just the
nonzero loads grouped by interval — so its cost is O(nnz + N), not a
pass over the dense ``(n, N)`` matrix. It reproduces the reference loop
bit for bit (:func:`repro.perf.reference.schedule_energy_reference`,
asserted by the parity suite). The bit-parity obligations, and how each
is met:

* The emptiness gate is ``col.sum() <= 1e-12`` over the whole dense
  column — a pairwise sum whose tree includes the zeros. The view sums
  only the nonzeros, which can differ in the last bits; any two
  summation orders of ``p`` values differ by at most about
  ``p·eps·Σ|x|``, so a nonzero total farther than that (plus a 1e-9
  relative margin) from the gate is on the same side of it as the dense
  sum. The rare columns inside that margin — and any non-finite total —
  re-sum their dense column exactly as the reference does.
* The dedication scan consumes the *nonzero* loads of a column in
  descending stable order, and its float sequence (sort, tail-first
  suffix ``cumsum``, ``u * (m - j) >= suffix[j] - tol`` tests) depends
  on the nonzero count ``p``. Columns are therefore **grouped by p**:
  each group is gathered as one dense ``(g, p)`` matrix
  ``vals[indptr[ks, None] + arange(p)]`` (rows keep ascending job
  order, the stable-sort tie key), and every per-column operation maps
  to one row of it with identical per-element arithmetic (``cumsum``
  along an axis is the same sequential accumulation as the 1-D call).
* The dedicated energy term sums ``d`` power values pairwise, and the
  tree depends on ``d`` — so rows are **sub-grouped by d** and each
  sub-group is summed over a contiguous ``(g', d)`` slice.
* The pool term calls ``power(pool_speed)`` — Python scalar ``**``,
  which numpy's array ``**`` is not guaranteed to match in the last
  ulp — so pool contributions stay scalar, one Python call per
  multi-job column with a nonzero pool (rare: most pools are empty).
* The reference accumulates column energies into a Python float in
  ascending ``k``; skipped columns contribute nothing. Accumulating a
  per-column energy vector with ``cumsum`` (strictly sequential) is
  bitwise the same walk: skipped entries hold exact ``+0.0``, and
  ``t + 0.0`` is a bitwise no-op for every ``t >= 0.0``.

:func:`stores_energy` evaluates the same quantity straight off live
:class:`~repro.perf.kernels.IntervalLoads` stores — no dense ``(n, N)``
matrix — which is what lets the million-job PD bench report energy
without materializing a 30 GB schedule. It concatenates the stores into
the same column layout and calls the same kernel. The stores are
already descending-sorted, so the kernel's stable sort leaves them as
they are, and its suffix ``cumsum`` is the stores' own tail-first
accumulation. The one caveat is the emptiness gate: there is no dense
column to re-sum, so it reads the nonzero total ``suffix[0]``
(sequential) where the dense reference sums the whole zero-padded
column (pairwise). The two gate values agree unless a column total sits
within a few rounding steps of the ``1e-12`` gate — generic position,
asserted exactly on every differential workload.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from ..chen.partition import _LOAD_EPS as _PART_EPS
from ..errors import InvalidParameterError
from ..model.power import PowerFunction
from ..model.schedule import ColumnLoads
from ..types import BoolArray, FloatArray, IntArray
from .kernels import IntervalLoads

__all__ = ["schedule_energy", "stores_energy"]

#: Column emptiness gate — ``repro.model.schedule._LOAD_EPS``.
_GATE_EPS = 1e-12

#: Relative margin around the gate inside which a column's nonzero
#: total is not trusted and its dense column is re-summed.
_NEAR_GATE = 1e-9

_EPS = float(np.finfo(np.float64).eps)


def schedule_energy(
    loads: FloatArray,
    lengths: FloatArray,
    m: int,
    power: PowerFunction,
    *,
    columns: ColumnLoads | None = None,
) -> float:
    """Energy of a dense ``(n, N)`` load matrix, all columns batched.

    Bit-identical to the per-column reference loop (see module
    docstring for the argument). ``lengths`` are the grid interval
    lengths; ``power`` is any power function exposing ``power_array``
    and scalar ``__call__``. ``columns`` is the matrix's
    :class:`~repro.model.schedule.ColumnLoads` view when the caller
    already holds it (``Schedule.energy`` does); otherwise it is built
    here. The dense matrix is only read again for columns whose total
    sits at the emptiness gate.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 2:
        raise InvalidParameterError(
            f"loads must be 2-D, got shape {loads.shape}"
        )
    n, big_n = loads.shape
    if big_n == 0 or n == 0:
        return 0.0
    if columns is None:
        columns = ColumnLoads.from_dense(loads)
    indptr, vals = columns.indptr, columns.vals
    counts = np.diff(indptr)
    totals = np.zeros(big_n, dtype=np.float64)
    filled = np.flatnonzero(counts)
    if filled.size:
        # reduceat over the starts of nonempty columns only: an empty
        # column would read one stray value, a trailing one overrun.
        starts = indptr[filled]
        totals[filled] = np.add.reduceat(vals, starts)
        mags = totals[filled]
        if bool((vals < 0.0).any()):
            mags = np.add.reduceat(np.abs(vals), starts)
        slack = (_NEAR_GATE + 2.0 * _EPS * counts[filled]) * mags
        near = ~(np.abs(totals[filled] - _GATE_EPS) > slack)
        for k in filled[near].tolist():
            totals[k] = float(np.ascontiguousarray(loads[:, k]).sum())
    # ``~(t <= gate)``: a NaN total reads busy, as in the reference.
    return _columns_energy(indptr, vals, ~(totals <= _GATE_EPS), lengths, m, power)


def stores_energy(
    states: Sequence[IntervalLoads],
    lengths: FloatArray,
    m: int,
    power: PowerFunction,
) -> float:
    """Energy straight off live ``IntervalLoads`` stores (no dense matrix).

    ``states`` are per-interval stores as maintained by
    :class:`~repro.core.pd.PDScheduler` — loads descending with
    reference-bit suffix sums. Their loads are laid out as one column
    view and priced by the same kernel as :func:`schedule_energy`; see
    the module docstring for the emptiness-gate caveat.
    """
    big_n = len(states)
    if big_n == 0:
        return 0.0
    indptr = np.zeros(big_n + 1, dtype=np.int64)
    np.cumsum([len(state.loads) for state in states], out=indptr[1:])
    vals = np.fromiter(
        chain.from_iterable(state.loads for state in states),
        dtype=np.float64,
        count=int(indptr[-1]),
    )
    totals = np.fromiter(
        (state.suffix[0] for state in states), dtype=np.float64, count=big_n
    )
    return _columns_energy(indptr, vals, ~(totals <= _GATE_EPS), lengths, m, power)


def _columns_energy(
    indptr: IntArray,
    vals: FloatArray,
    busy: BoolArray,
    lengths: FloatArray,
    m: int,
    power: PowerFunction,
) -> float:
    """Σ_k P_k over the ``busy`` columns of a column view.

    Column ``k`` holds ``vals[indptr[k]:indptr[k + 1]]`` (nonzero loads;
    their order only breaks sort ties). Columns outside ``busy`` failed
    the emptiness gate and contribute nothing.
    """
    if not busy.any():
        return 0.0
    lengths = np.asarray(lengths, dtype=np.float64)
    counts = np.diff(indptr)
    energies = np.zeros(counts.size, dtype=np.float64)

    # --- single-active columns: elementwise, no partition machinery ---
    ones = np.flatnonzero(busy & (counts == 1))
    if ones.size:
        single = vals[indptr[ones]]
        keep = single > _PART_EPS
        if keep.any():
            ones, single = ones[keep], single[keep]
            lens = lengths[ones]
            energies[ones] = power.power_array(single / lens) * lens

    # --- multi-active columns: grouped by nonzero count p ---
    multi = np.flatnonzero(busy & (counts >= 2))
    if multi.size:
        negative = np.flatnonzero(vals < -_PART_EPS)
        if negative.size:
            owners = np.searchsorted(indptr, negative, side="right") - 1
            if bool(np.isin(owners, multi).any()):
                # partition_loads would reject the first such column.
                raise InvalidParameterError("loads must be non-negative")
        multi = multi[np.argsort(counts[multi], kind="stable")]
        cuts = np.flatnonzero(np.diff(counts[multi])) + 1
        for ks in np.split(multi, cuts):
            p = int(counts[ks[0]])
            # Rows in ascending job order — the stable-sort tie key.
            active = vals[indptr[ks, None] + np.arange(p)]
            order = np.argsort(-active, axis=1, kind="stable")
            srt = np.take_along_axis(active, order, axis=1)
            suffix = np.concatenate(
                (
                    np.cumsum(srt[:, ::-1], axis=1)[:, ::-1],
                    np.zeros((ks.size, 1)),
                ),
                axis=1,
            )
            tol = _PART_EPS * np.maximum(1.0, suffix[:, 0])
            d = np.zeros(ks.size, dtype=np.int64)
            alive = np.ones(ks.size, dtype=bool)
            for j in range(1, min(p, m) + 1):
                u = srt[:, j - 1]
                alive = alive & (u > _PART_EPS)
                alive = alive & (u * (m - j) >= suffix[:, j] - tol)
                d[alive] = j
            pool = np.maximum(suffix[np.arange(ks.size), d], 0.0)
            lens = lengths[ks]
            ded = np.zeros(ks.size, dtype=np.float64)
            for dv in np.unique(d).tolist():
                if dv == 0:
                    continue  # empty dedicated sum is exactly 0.0 * length
                sel = d == dv
                block_d = np.ascontiguousarray(srt[sel, :dv])
                ded[sel] = (
                    np.sum(
                        power.power_array(block_d / lens[sel, None]), axis=1
                    )
                    * lens[sel]
                )
            energies[ks] = ded
            # Pool terms: scalar, to match power()'s Python ** bits.
            for i in np.nonzero(pool > _PART_EPS)[0].tolist():
                num_pool = m - int(d[i])
                pool_load = float(pool[i])
                if num_pool == 0 or pool_load <= _PART_EPS:
                    per_proc = 0.0
                else:
                    per_proc = pool_load / num_pool
                length = float(lens[i])
                energies[ks[i]] += num_pool * length * power(per_proc / length)

    return float(np.cumsum(energies)[-1])
