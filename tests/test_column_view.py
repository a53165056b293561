"""Column-sparse schedule view (``Schedule.columns``) vs the dense scans.

``Schedule.energy``, ``Schedule.realize`` and
``Schedule.processor_speed_matrix`` read the nonzero loads grouped by
interval instead of scanning the dense ``(n, N)`` load matrix. Every
test here holds them **bit-identical** to the dense per-column loops
they replaced (``repro.perf.reference.schedule_energy_reference``,
``repro.perf.reference.realize_reference`` and the full-column
``partition_loads`` loop below), on PD, YDS, OA and offline schedules
and on hand-made load matrices with ties, dust, exact zeros, ``-0.0``
and columns whose total sits at the emptiness gate.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chen.partition import partition_loads
from repro.classical.oa import run_oa
from repro.classical.yds import yds
from repro.core.pd import run_pd
from repro.errors import InvalidParameterError
from repro.model.intervals import Grid
from repro.model.job import Instance
from repro.model.schedule import ColumnLoads, Schedule
from repro.perf.energy import schedule_energy
from repro.perf.reference import realize_reference, schedule_energy_reference
from repro.workloads import heavy_tail_instance, poisson_instance, uniform_instance

#: ``repro.model.schedule._LOAD_EPS`` — the column emptiness gate.
GATE = 1e-12


def speed_matrix_dense(schedule: Schedule) -> np.ndarray:
    """The historical ``processor_speed_matrix``: one full-column
    ``partition_loads`` (an argsort of all ``n`` loads) per interval."""
    m = schedule.instance.m
    out = np.zeros((m, schedule.grid.size), dtype=np.float64)
    lengths = schedule.grid.lengths
    for k in range(schedule.grid.size):
        part = partition_loads(schedule.loads[:, k], m)
        out[:, k] = part.processor_loads() / float(lengths[k])
    return out


def outcome(fn, *args):
    """A call's value, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


def assert_same_realization(got, want) -> None:
    if isinstance(want, type):
        assert got is want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.start, a.end) == (b.start, b.end)
        assert a.segments == b.segments
        assert a.energy == b.energy
        assert a.partition.m == b.partition.m
        assert a.partition.num_dedicated == b.partition.num_dedicated
        assert a.partition.pool_load == b.partition.pool_load
        assert np.array_equal(a.partition.order, b.partition.order)
        assert np.array_equal(a.partition.sorted_loads, b.partition.sorted_loads)


def assert_view_parity(schedule: Schedule) -> None:
    """Every column-view consumer equals its dense twin, bit for bit."""
    fresh = Schedule(schedule.instance, schedule.grid, schedule.loads, schedule.finished)
    assert outcome(lambda: fresh.energy) == outcome(
        schedule_energy_reference, fresh
    )
    assert_same_realization(
        outcome(fresh.realize), outcome(realize_reference, fresh)
    )
    got = outcome(fresh.processor_speed_matrix)
    want = outcome(speed_matrix_dense, fresh)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array_equal(got, want)


def synthetic(loads, *, m: int = 2, lengths=None) -> Schedule:
    """A schedule carrying an arbitrary load matrix (every job spans the
    horizon; ``Schedule`` does not validate loads on construction)."""
    loads = np.asarray(loads, dtype=np.float64)
    n, big_n = loads.shape
    if lengths is None:
        lengths = np.ones(big_n)
    bounds = np.concatenate(([0.0], np.cumsum(lengths)))
    inst = Instance.from_tuples(
        [(0.0, float(bounds[-1]), 1.0, 1.0)] * n, m=m, alpha=3.0
    )
    return Schedule(inst, Grid(bounds), loads, np.zeros(n, dtype=bool))


def pd_schedules():
    for family, n, m in (
        (poisson_instance, 40, 1),
        (poisson_instance, 40, 4),
        (heavy_tail_instance, 32, 2),
        (uniform_instance, 24, 3),
    ):
        for alpha in (2.0, 3.0):
            yield run_pd(family(n, m=m, alpha=alpha, seed=9)).schedule


def classical_instance(n: int, seed: int, m: int = 1) -> Instance:
    return Instance.classical(
        [
            (j.release, j.deadline, j.workload)
            for j in poisson_instance(n, m=m, alpha=3.0, seed=seed).jobs
        ],
        m=m,
        alpha=3.0,
    )


class TestColumnLoads:
    def test_matches_per_column_nonzero_scan(self):
        for schedule in pd_schedules():
            view = schedule.columns
            assert view.indptr.shape == (schedule.grid.size + 1,)
            for k in range(schedule.grid.size):
                col = schedule.loads[:, k]
                rows = np.nonzero(col != 0.0)[0]
                lo, hi = view.indptr[k], view.indptr[k + 1]
                assert np.array_equal(view.rows[lo:hi], rows)
                assert np.array_equal(view.vals[lo:hi], col[rows])

    def test_drops_both_zeros_and_keeps_dust(self):
        loads = np.array([[0.0, -0.0, 1e-13], [2.0, 0.0, -0.0], [2.0, 5e-16, 0.0]])
        view = ColumnLoads.from_dense(loads)
        assert view.indptr.tolist() == [0, 2, 3, 4]
        assert view.rows.tolist() == [1, 2, 2, 0]
        assert view.vals.tolist() == [2.0, 2.0, 5e-16, 1e-13]

    def test_empty_shapes(self):
        for shape in ((0, 3), (3, 0), (0, 0)):
            view = ColumnLoads.from_dense(np.zeros(shape))
            assert view.indptr.tolist() == [0] * (shape[1] + 1)
            assert view.rows.size == 0 and view.vals.size == 0

    def test_view_stays_out_of_payloads(self):
        from repro.io.serialize import schedule_to_dict

        schedule = next(pd_schedules())
        before = schedule_to_dict(schedule)
        schedule.columns  # noqa: B018 - build the cached view
        schedule.realize()
        assert schedule_to_dict(schedule) == before
        assert "columns" not in before


class TestRealizeParity:
    def test_pd_schedules(self):
        for schedule in pd_schedules():
            assert_view_parity(schedule)

    def test_pd_schedules_with_ties_dust_and_signed_zeros(self):
        """Perturbed PD loads: equal loads inside a column (the stable
        tie order), dust on both sides of ``_LOAD_EPS``, and ``-0.0``."""
        rng = np.random.default_rng(3)
        for schedule in pd_schedules():
            loads = schedule.loads.copy()
            nz = np.argwhere(loads > 0.0)
            for j, k in nz[rng.random(len(nz)) < 0.3]:
                others = np.nonzero(loads[:, k] > 0.0)[0]
                loads[j, k] = loads[others[0], k]
            zero = np.argwhere(loads == 0.0)
            picks = zero[rng.random(len(zero)) < 0.05]
            dust = rng.choice([-0.0, 1e-16, 5e-13, 1e-12, 2e-12], len(picks))
            loads[picks[:, 0], picks[:, 1]] = dust
            assert_view_parity(
                Schedule(schedule.instance, schedule.grid, loads, schedule.finished)
            )

    def test_yds_oa_and_offline_schedules(self):
        from repro.offline.convex import solve_min_energy

        for n, seed in ((24, 0), (50, 1)):
            inst = classical_instance(n, seed)
            assert_view_parity(yds(inst).schedule)
            assert_view_parity(run_oa(inst).schedule)
        assert_view_parity(solve_min_energy(classical_instance(10, 2, m=2)).schedule)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 8),
        big_n=st.integers(1, 5),
        m=st.integers(1, 4),
    )
    def test_random_matrices(self, data, n, big_n, m):
        cell = st.one_of(
            st.sampled_from([0.0, 0.0, -0.0, 1e-16, 5e-13, 1e-12, 2e-12, 0.5, 0.5, 1.0]),
            st.floats(1e-3, 10.0),
        )
        loads = np.array(
            data.draw(st.lists(cell, min_size=n * big_n, max_size=n * big_n))
        ).reshape(n, big_n)
        lengths = data.draw(
            st.lists(st.floats(0.1, 4.0), min_size=big_n, max_size=big_n)
        )
        assert_view_parity(synthetic(loads, m=m, lengths=lengths))


class TestEnergyEdges:
    # Three loads whose sum lands on either side of the gate depending
    # on the summation order: ``(a + b) + c`` versus ``a + (b + c)``.
    # Spread over a 16-row column, the dense pairwise sum and the
    # nonzero total need not agree. Exact bit patterns, found by search.
    BELOW = ("0x1.11600145a0e7fp-41", "0x1.780b1cb240d5ap-42", "0x1.9636821befbdbp-43")
    ABOVE = ("0x1.3a46c9b4895d9p-42", "0x1.ffd9be875973ep-42", "0x1.2bc5d80f97b2fp-42")

    @pytest.mark.parametrize("bits", [BELOW, ABOVE], ids=["below", "above"])
    def test_column_total_at_the_gate(self, bits):
        a, b, c = (float.fromhex(h) for h in bits)
        assert ((a + b) + c <= GATE) != (a + (b + c) <= GATE)
        loads = np.zeros((16, 4))
        loads[[0, 8, 13], 1] = (a, b, c)
        schedule = synthetic(loads, m=2)
        # Nothing else in the schedule, so a wrongly gated column shows
        # as 0.0 versus a tiny positive energy.
        assert schedule.energy == schedule_energy_reference(schedule)

    def test_totals_one_ulp_around_the_gate(self):
        for total in (np.nextafter(GATE, 0.0), GATE, np.nextafter(GATE, 1.0)):
            for split in (1, 2, 5):
                loads = np.zeros((6, 3))
                loads[:split, 1] = total / split
                schedule = synthetic(loads, m=2)
                assert schedule.energy == schedule_energy_reference(schedule)

    def test_leading_trailing_and_inner_empty_columns(self):
        loads = np.zeros((5, 7))
        loads[[0, 3], 1] = (0.5, 0.25)
        loads[2, 3] = 1.5
        loads[[1, 2, 4], 4] = (0.75, 0.75, 0.1)
        schedule = synthetic(loads, m=2, lengths=np.linspace(0.5, 2.0, 7))
        assert np.diff(schedule.columns.indptr).tolist() == [0, 2, 0, 1, 3, 0, 0]
        assert schedule.energy == schedule_energy_reference(schedule)
        assert schedule.energy > 0.0

    def test_all_zero_and_empty_matrices(self):
        schedule = Schedule.empty(
            poisson_instance(5, m=2, alpha=3.0, seed=0),
            Grid(np.arange(6, dtype=float)),
        )
        assert schedule.energy == schedule_energy_reference(schedule) == 0.0
        power = schedule.instance.power
        for shape in ((0, 3), (3, 0), (3, 4)):
            assert schedule_energy(np.zeros(shape), np.ones(shape[1]), 2, power) == 0.0

    def test_negative_loads_raise_like_the_reference(self):
        loads = np.zeros((4, 3))
        loads[[0, 1], 1] = (1.0, -0.5)
        schedule = synthetic(loads, m=2)
        with pytest.raises(InvalidParameterError):
            schedule_energy_reference(schedule)
        with pytest.raises(InvalidParameterError):
            schedule.energy  # noqa: B018

    def test_negative_loads_in_gated_or_single_columns_pass(self):
        loads = np.zeros((4, 4))
        loads[[0, 1], 0] = (0.5, -0.5)  # total 0.0: gated out
        loads[2, 1] = -1.0  # single negative: gated out
        loads[[1, 3], 2] = (2.0, -1e-16)  # dust above -1e-15: kept
        loads[0, 3] = 1.0
        schedule = synthetic(loads, m=2)
        assert schedule.energy == schedule_energy_reference(schedule)


class TestSpeedMatrixParity:
    def test_pd_yds_oa_schedules(self):
        schedules = list(pd_schedules())
        for n, seed in ((24, 0), (50, 1)):
            inst = classical_instance(n, seed)
            schedules += [yds(inst).schedule, run_oa(inst).schedule]
        for schedule in schedules:
            assert np.array_equal(
                schedule.processor_speed_matrix(), speed_matrix_dense(schedule)
            )


def test_energy_and_realize_never_copy_the_dense_matrix():
    """Memory guard: pricing and realizing a 2000-job PD schedule stays
    well under one dense copy of its load matrix (the transposed copy
    the dense energy pass made was ``loads.nbytes`` on its own)."""
    result = run_pd(poisson_instance(2000, m=4, alpha=3.0, seed=0))
    schedule = Schedule(
        result.schedule.instance,
        result.schedule.grid,
        result.schedule.loads,
        result.schedule.finished,
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        schedule.energy  # noqa: B018
        realized = schedule.realize()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(realized) == schedule.grid.size
    assert peak < schedule.loads.nbytes / 4, (peak, schedule.loads.nbytes)
