"""Bit-parity suite for the incremental kernel layer (``repro.perf``).

The kernels promise that speed is an execution strategy, never a result
change: the incremental PD scheduler, the window evaluator, the
vectorized YDS scan, the inlined energy loop, and the vectorized
certificate helpers must produce **bitwise identical** outputs to the
historical implementations — same schedules, same costs, same
certificates, and therefore same cache keys (the engine's record
payloads hash identically, so every pre-kernel cache entry stays
valid). Each test here runs old and new side by side and compares with
exact equality, never tolerances — except ``TestExactWaterfill``, which
holds the exact water-fill to the stated tolerances of its contract
against the bisection it replaced (docs/architecture.md, "Kernel
invariants").
"""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.certificates import dual_certificate
from repro.chen.interval_power import SortedLoads
import repro.classical.oa as oa_module
from repro.classical.oa import oa_segments, run_oa
from repro.classical.yds import yds
from repro.core.pd import run_pd
from repro.core.waterfill import _WORK_TOL, waterfill_job, window_breakpoints
from repro.engine.runner import RECORD_VERSION, request_key
from repro.io.serialize import schedule_to_dict, stable_hash
from repro.model.intervals import Grid
from repro.model.job import Instance
from repro.model.power import PolynomialPower
from repro.perf.kernels import IntervalLoads, WindowKernel
from repro.perf.reference import (
    _critical_window_reference,
    oa_segments_reference,
    run_pd_reference,
    waterfill_job_reference,
)
from repro.workloads import (
    heavy_tail_instance,
    poisson_instance,
    uniform_instance,
)

# ``repro.classical`` re-exports the function ``yds``, which shadows the
# submodule of the same name as a package attribute.
yds_module = importlib.import_module("repro.classical.yds")

#: (family, n, m) — includes multiprocessor and heavy-tail shapes.
FAMILIES = [
    (poisson_instance, 40, 1),
    (poisson_instance, 40, 4),
    (heavy_tail_instance, 32, 2),
    (uniform_instance, 24, 3),
]


def degenerate_single_interval(n: int = 12, m: int = 2) -> Instance:
    """Every job shares one window: the grid never refines past one
    atomic interval — the degenerate shape the split-copy path never
    sees and the insertion path sees constantly."""
    rng = np.random.default_rng(5)
    jobs = [
        (0.0, 4.0, float(w), float(v))
        for w, v in zip(
            rng.exponential(1.0, n) + 1e-3, rng.uniform(0.05, 8.0, n)
        )
    ]
    return Instance.from_tuples(jobs, m=m, alpha=3.0)


def assert_pd_parity(instance: Instance) -> None:
    new = run_pd(instance)
    old = run_pd_reference(instance)
    assert np.array_equal(new.schedule.loads, old.schedule.loads)
    assert np.array_equal(new.planned_loads, old.planned_loads)
    assert np.array_equal(new.lambdas, old.lambdas)
    assert np.array_equal(new.schedule.finished, old.schedule.finished)
    assert new.decisions == old.decisions
    assert new.schedule.energy == old.schedule.energy
    assert new.cost == old.cost
    cert_new, cert_old = dual_certificate(new), dual_certificate(old)
    assert cert_new.g == cert_old.g
    assert cert_new.ratio == cert_old.ratio
    assert cert_new.contributors == cert_old.contributors
    assert np.array_equal(cert_new.s_hat, cert_old.s_hat)


class TestPDParity:
    @pytest.mark.parametrize("family,n,m", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_families_bitwise_identical(self, family, n, m, seed):
        assert_pd_parity(family(n, m=m, alpha=3.0, seed=seed))

    def test_degenerate_single_interval_grid(self):
        assert_pd_parity(degenerate_single_interval())

    def test_classical_infinite_values(self):
        base = poisson_instance(24, m=1, alpha=3.0, seed=2)
        inst = Instance.classical(
            [(j.release, j.deadline, j.workload) for j in base.jobs],
            m=1,
            alpha=3.0,
        )
        assert_pd_parity(inst)

    def test_sweep_cells_share_cache_identity(self):
        """The engine contract behind 'same cache keys': the record
        version is pinned, request keys depend only on inputs, and
        the serialized schedule payload — the record body that gets
        content-hashed — is byte-identical old vs new."""
        # Kernels never bump it; only a deliberate result change does
        # (3: the exact water-fill), since a bump cold-starts every cache.
        assert RECORD_VERSION == 3
        inst = poisson_instance(30, m=2, alpha=3.0, seed=1)
        assert request_key("pd", inst) == request_key("pd", inst)
        new = run_pd(inst)
        old = run_pd_reference(inst)
        assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
            schedule_to_dict(old.schedule)
        )


class TestKernelPrimitives:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_interval_loads_matches_sorted_loads(self, m):
        rng = np.random.default_rng(9)
        store = IntervalLoads()
        inserted: list[float] = []
        length = 0.75
        for job_id in range(40):
            load = float(rng.exponential(1.0) + 1e-6)
            store.insert(job_id, load)
            inserted.append(load)
            reference = SortedLoads(np.array(inserted), m, length)
            for speed in (0.0, 0.3, 1.0, 2.7, float(rng.uniform(0, 5))):
                assert store.max_load_at_speed(
                    speed, m, length
                ) == reference.max_load_at_speed(speed)

    def test_interval_loads_split_matches_rescaled_sort(self):
        rng = np.random.default_rng(4)
        store = IntervalLoads()
        loads = rng.exponential(1.0, 25) + 1e-6
        for job_id, load in enumerate(loads):
            store.insert(job_id, float(load))
        fraction = 0.37
        child = store.split(fraction)
        reference = SortedLoads(loads * fraction, 3, 0.5)
        for speed in np.linspace(0.0, 4.0, 23):
            assert child.max_load_at_speed(
                float(speed), 3, 0.5
            ) == reference.max_load_at_speed(float(speed))

    @pytest.mark.parametrize("k", [1, 3, 31, 32, 40])
    def test_window_kernel_matches_python_sum(self, k):
        """Narrow and wide windows alike must equal the reference's
        left-to-right Python sum over SortedLoads bit for bit."""
        rng = np.random.default_rng(k)
        m = 3
        stores, caches, lengths = [], [], []
        for _ in range(k):
            p = int(rng.integers(0, 9))
            loads = rng.exponential(1.0, p) + 1e-6
            length = float(rng.uniform(0.1, 2.0))
            store = IntervalLoads()
            for job_id, load in enumerate(loads):
                store.insert(job_id, float(load))
            stores.append(store)
            caches.append(SortedLoads(loads, m, length))
            lengths.append(length)
        kernel = WindowKernel(stores, lengths, m)
        for speed in [0.0, *np.linspace(0.01, 6.0, 37)]:
            speed = float(speed)
            expected_total = float(
                sum(c.max_load_at_speed(speed) for c in caches)
            )
            expected_loads = np.array(
                [c.max_load_at_speed(speed) for c in caches]
            )
            assert kernel.total_at_speed(speed) == expected_total
            assert np.array_equal(kernel.loads_at_speed(speed), expected_loads)

    def test_waterfill_accepts_kernel_and_caches_identically(self):
        rng = np.random.default_rng(7)
        m = 2
        stores, caches, lengths = [], [], []
        for _ in range(5):
            loads = rng.exponential(1.0, 4) + 1e-6
            length = float(rng.uniform(0.2, 1.5))
            store = IntervalLoads()
            for job_id, load in enumerate(loads):
                store.insert(job_id, float(load))
            stores.append(store)
            caches.append(SortedLoads(loads, m, length))
            lengths.append(length)
        power = PolynomialPower(3.0)
        for workload, value in [(0.7, 2.0), (3.0, 0.4), (1.2, np.inf)]:
            via_kernel = waterfill_job(
                WindowKernel(stores, lengths, m),
                workload=workload,
                value=value,
                delta=power.optimal_delta,
                power=power,
            )
            via_caches = waterfill_job(
                caches,
                workload=workload,
                value=value,
                delta=power.optimal_delta,
                power=power,
            )
            assert via_kernel.accepted == via_caches.accepted
            assert via_kernel.lam == via_caches.lam
            assert via_kernel.speed == via_caches.speed
            assert np.array_equal(via_kernel.loads, via_caches.loads)

    def test_interval_loads_rejects_nonpositive(self):
        store = IntervalLoads()
        with pytest.raises(Exception, match="> 0"):
            store.insert(0, 0.0)


class _CountingKernel(WindowKernel):
    """A window kernel that counts ``total_at_speed`` evaluations."""

    __slots__ = ("evals",)

    def __init__(self, stores, lengths, m):
        super().__init__(stores, lengths, m)
        self.evals = 0

    def total_at_speed(self, speed):
        self.evals += 1
        return super().total_at_speed(speed)


#: Loads and lengths keep every clearing speed >= ~0.2, where the
#: reference bisection's absolute bracket (1e-13) is < 1e-12 relative.
_LOAD = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.5]),  # duplicate loads
    st.floats(min_value=0.25, max_value=3.0),
)
_WINDOW = st.lists(
    st.tuples(
        st.lists(_LOAD, max_size=7),  # empty stores and p < m included
        st.floats(min_value=0.25, max_value=1.0),
    ),
    min_size=1,
    max_size=5,
)
_POWER = PolynomialPower(3.0)


def _build_window(window, m):
    stores, caches, lengths = [], [], []
    for loads, length in window:
        store = IntervalLoads()
        for job_id, load in enumerate(loads):
            store.insert(job_id, load)
        stores.append(store)
        caches.append(SortedLoads(np.array(loads, dtype=float), m, length))
        lengths.append(length)
    return _CountingKernel(stores, lengths, m), caches


def _assert_matches_reference(kernel, caches, m, workload, value):
    """The exact-solve contract against the bisection twin: identical
    accept/reject, speed within 1e-12 relative, loads summing to the
    workload, and at most ``ceil(log2(B+1)) + 3`` window evaluations."""
    kwargs = dict(
        workload=workload, value=value, delta=_POWER.optimal_delta, power=_POWER
    )
    new = waterfill_job(kernel, **kwargs)
    old = waterfill_job_reference(caches, **kwargs)
    assert new.accepted == old.accepted
    if new.accepted:
        assert new.speed == pytest.approx(old.speed, rel=1e-12, abs=0.0)
        assert abs(new.loads.sum() - workload) <= _WORK_TOL * workload
    else:
        assert new.speed == old.speed
        assert np.array_equal(new.loads, old.loads)
    breakpoints = len(window_breakpoints(kernel.rows, m, math.inf))
    assert kernel.evals <= math.ceil(math.log2(breakpoints + 1)) + 3
    return new


class TestExactWaterfill:
    @given(
        window=_WINDOW,
        m=st.integers(min_value=1, max_value=4),
        workload=st.floats(min_value=1.0, max_value=5.0),
        value=st.one_of(
            st.just(math.inf),  # no price cap: the closed-form bracket
            st.floats(min_value=0.05, max_value=60.0),
        ),
    )
    @example(window=[([1.0], 0.5), ([], 1.0)], m=4, workload=2.0, value=math.inf)
    @example(window=[([0.5] * 6, 1.0)], m=2, workload=1.5, value=math.inf)
    @example(window=[([], 0.25), ([2.5, 2.5], 0.5)], m=1, workload=1.0, value=9.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection_reference(self, window, m, workload, value):
        kernel, caches = _build_window(window, m)
        _assert_matches_reference(kernel, caches, m, workload, value)

    @given(
        window=_WINDOW,
        m=st.integers(min_value=1, max_value=4),
        pick=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_workload_exactly_at_a_breakpoint(self, window, m, pick):
        kernel, caches = _build_window(window, m)
        breakpoints = window_breakpoints(kernel.rows, m, math.inf)
        if not breakpoints:
            return  # every interval has a free processor: no bends
        speed = breakpoints[pick % len(breakpoints)]
        workload = kernel.total_at_speed(speed)
        if workload < 0.1:
            return  # the window barely opens there: no meaningful job
        kernel.evals = 0
        out = _assert_matches_reference(kernel, caches, m, workload, math.inf)
        assert out.speed == pytest.approx(speed, rel=1e-12, abs=0.0)

    def test_breakpoints_are_the_bends_of_the_total(self):
        """Between consecutive breakpoints the window total is linear:
        its midpoint equals the mean of its ends."""
        kernel, _ = _build_window(
            [([2.5, 1.0, 1.0, 0.5, 0.25], 0.5), ([1.0, 0.5], 1.0)], 3
        )
        speeds = [0.0, *window_breakpoints(kernel.rows, 3, math.inf), 20.0]
        assert len(speeds) > 3
        for a, b in zip(speeds, speeds[1:]):
            mid = kernel.total_at_speed(0.5 * (a + b))
            ends = 0.5 * (kernel.total_at_speed(a) + kernel.total_at_speed(b))
            assert mid == pytest.approx(ends, rel=1e-12, abs=1e-12)


class TestGridRefineParity:
    def _reference_refine(self, grid: Grid, new_points):
        """Transcription of the historical O(N log N) refine loop."""
        existing = grid.boundaries.tolist()
        eps = 1e-12
        fresh = [
            p
            for p in map(float, new_points)
            if not any(abs(p - b) <= eps for b in existing)
        ]
        merged: list[float] = []
        for p in sorted(set(fresh) | set(existing)):
            if not merged or p - merged[-1] > eps:
                merged.append(p)
        new = Grid(np.array(merged))
        parent = np.empty(new.size, dtype=np.int64)
        fraction = np.empty(new.size, dtype=np.float64)
        old_lo, old_hi = grid.span
        for k in range(new.size):
            a, b = new.interval(k)
            if a < old_lo - eps or b > old_hi + eps:
                parent[k] = -1
                fraction[k] = 1.0
                continue
            p = grid.locate(a)
            parent[k] = p
            fraction[k] = (b - a) / grid.length(p)
        return new, parent, fraction

    @pytest.mark.parametrize("seed", range(8))
    def test_random_refinements_bitwise_identical(self, seed):
        rng = np.random.default_rng(seed)
        boundaries = np.sort(rng.uniform(0.0, 10.0, 7))
        boundaries[0], boundaries[-1] = 0.0, 10.0
        grid = Grid(boundaries)
        points = rng.uniform(-2.0, 12.0, 5).tolist()
        points.append(float(boundaries[2]))  # exact boundary: must snap
        refinement = grid.refine(points)
        ref_grid, ref_parent, ref_fraction = self._reference_refine(
            grid, points
        )
        assert np.array_equal(refinement.grid.boundaries, ref_grid.boundaries)
        assert np.array_equal(refinement.parent, ref_parent)
        assert np.array_equal(refinement.fraction, ref_fraction)


class TestYdsOaParity:
    def classical(self, n, seed, family=poisson_instance):
        inst = family(n, m=1, alpha=3.0, seed=seed)
        return Instance.classical(
            [(j.release, j.deadline, j.workload) for j in inst.jobs],
            m=1,
            alpha=3.0,
        )

    def yds_reference(self, inst, monkeypatch):
        """YDS with its critical-window scan swapped for the literal one."""
        with monkeypatch.context() as patch:
            patch.setattr(
                yds_module, "_critical_window", _critical_window_reference
            )
            return yds(inst)

    def run_oa_reference(self, inst, monkeypatch):
        """``run_oa`` on the from-scratch replan instead of the lazy one."""
        with monkeypatch.context() as patch:
            patch.setattr(oa_module, "oa_segments", oa_segments_reference)
            return run_oa(inst)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "family", [poisson_instance, uniform_instance, heavy_tail_instance]
    )
    def test_yds_fast_scan_equals_reference(self, seed, family, monkeypatch):
        inst = self.classical(18, seed, family)
        fast = yds(inst)
        slow = self.yds_reference(inst, monkeypatch)
        assert np.array_equal(fast.schedule.loads, slow.schedule.loads)
        assert np.array_equal(fast.job_speeds, slow.job_speeds)
        assert fast.groups == slow.groups
        assert fast.segments == slow.segments
        assert fast.energy == slow.energy

    def test_yds_exact_intensity_ties(self, monkeypatch):
        """Symmetric windows with exactly equal critical intensities:
        the fast scan must keep the reference's first-wins tie rule."""
        inst = Instance.classical(
            [
                (0.0, 2.0, 1.0),
                (2.0, 4.0, 1.0),
                (4.0, 6.0, 1.0),
                (0.0, 6.0, 1.0),
                (1.0, 3.0, 1.0),
            ],
            m=1,
            alpha=3.0,
        )
        fast, slow = yds(inst), self.yds_reference(inst, monkeypatch)
        assert fast.groups == slow.groups
        assert np.array_equal(fast.schedule.loads, slow.schedule.loads)

    def test_yds_fully_frozen_windows_are_not_misread(self, monkeypatch):
        """Laminar (nested-window) instances freeze whole sub-windows in
        early rounds; removal dust in the float workload buckets must
        not make an emptied, fully-frozen window look occupied (which
        would raise a spurious SolverError). Regression test."""
        inst = Instance.classical(
            [
                (0.0, 8.0, 1.7),
                (0.0, 4.0, 2.3),
                (1.0, 3.0, 1.9),
                (1.5, 2.5, 0.6),
                (4.0, 8.0, 0.9),
                (5.0, 7.0, 1.1),
            ],
            m=1,
            alpha=3.0,
        )
        fast, slow = yds(inst), self.yds_reference(inst, monkeypatch)
        assert fast.groups == slow.groups
        assert np.array_equal(fast.schedule.loads, slow.schedule.loads)

    @pytest.mark.parametrize("seed", range(3))
    def test_oa_on_reference_plans_is_unchanged(self, seed, monkeypatch):
        """Three layers of OA parity at once: the incremental lazy-prefix
        replanner (default) vs the historical from-scratch replan, with
        the latter's YDS plans additionally pinned to the reference
        scan. Not one executed segment may differ across the stack."""
        inst = self.classical(24, seed)
        fast = run_oa(inst)
        monkeypatch.setattr(
            yds_module, "_critical_window", _critical_window_reference
        )
        slow = self.run_oa_reference(inst, monkeypatch)
        assert fast.segments == slow.segments
        assert np.array_equal(fast.schedule.loads, slow.schedule.loads)
        assert fast.energy == slow.energy

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "family", [poisson_instance, uniform_instance, heavy_tail_instance]
    )
    def test_oa_incremental_replan_equals_reference(
        self, seed, family, monkeypatch
    ):
        """The incremental OA replanner (lazy YDS prefix per epoch) must
        reproduce the from-scratch replan bit for bit on every existing
        differential case."""
        inst = self.classical(18, seed, family)
        _, exec_inc = oa_segments(inst)
        _, exec_ref = oa_segments_reference(inst)
        assert exec_inc == exec_ref
        fast = run_oa(inst)
        slow = self.run_oa_reference(inst, monkeypatch)
        assert fast.segments == slow.segments
        assert np.array_equal(fast.schedule.loads, slow.schedule.loads)
        assert fast.schedule.grid.same_as(slow.schedule.grid)
        assert fast.energy == slow.energy
        assert stable_hash(schedule_to_dict(fast.schedule)) == stable_hash(
            schedule_to_dict(slow.schedule)
        )

    def test_oa_incremental_slotted_ties(self):
        """Slotted instances maximize release ties and epoch reuse — the
        shape the incremental replanner is built for."""
        from repro.workloads import slotted_instance

        inst = slotted_instance(300, slots=60, m=1, alpha=3.0, seed=3)
        _, exec_inc = oa_segments(inst)
        _, exec_ref = oa_segments_reference(inst)
        assert exec_inc == exec_ref


class TestBatchedEnergyParity:
    """The all-columns energy kernel vs the retained per-column loop."""

    def _pd_schedules(self):
        for family, n, m in FAMILIES:
            for alpha in (2.0, 3.0):
                inst = family(n, m=m, alpha=alpha, seed=9)
                yield run_pd(inst).schedule

    def test_pd_schedules_bitwise_identical(self):
        from repro.perf.reference import schedule_energy_reference

        for schedule in self._pd_schedules():
            assert schedule.energy == schedule_energy_reference(schedule)

    def test_classical_schedules_bitwise_identical(self):
        from repro.perf.reference import schedule_energy_reference

        for n, seed in ((24, 0), (50, 1), (80, 2)):
            inst = Instance.classical(
                [
                    (j.release, j.deadline, j.workload)
                    for j in poisson_instance(n, m=1, alpha=3.0, seed=seed).jobs
                ],
                m=1,
                alpha=3.0,
            )
            for schedule in (run_oa(inst).schedule, yds(inst).schedule):
                assert schedule.energy == schedule_energy_reference(schedule)

    def test_degenerate_and_empty_columns(self):
        from repro.perf.energy import schedule_energy
        from repro.perf.reference import schedule_energy_reference

        sched = run_pd(degenerate_single_interval()).schedule
        assert sched.energy == schedule_energy_reference(sched)
        # all-zero matrix: exactly 0.0 either way
        empty = np.zeros((3, 4))
        assert (
            schedule_energy(empty, np.ones(4), 2, sched.instance.power) == 0.0
        )

    def test_stores_energy_matches_reference_loop(self):
        """``stores_energy`` off the live ``IntervalLoads`` states ==
        the historical per-column loop over the dense schedule, bit for
        bit — the kernel/reference differential pair ``repro lint``
        (RPR3xx) tracks by name."""
        from repro.core.pd import PDScheduler
        from repro.perf.energy import stores_energy
        from repro.perf.reference import schedule_energy_reference

        for family, n, m in FAMILIES:
            inst = family(n, m=m, alpha=3.0, seed=11)
            sched = PDScheduler(m=m, alpha=3.0)
            for job in inst.sorted_by_release().jobs:
                sched.arrive(job)
            live = stores_energy(
                sched._states, sched._grid.lengths, sched.m, sched.power
            )
            assert live == schedule_energy_reference(sched.finish().schedule)

    def test_streaming_stores_match_dense_finish(self):
        """PDScheduler.streaming_* off the live stores == the dense
        Schedule's cached properties, bit for bit."""
        from repro.core.pd import PDScheduler

        for family, n, m in FAMILIES:
            inst = family(n, m=m, alpha=3.0, seed=4)
            sched = PDScheduler(m=m, alpha=3.0)
            for job in inst.sorted_by_release().jobs:
                sched.arrive(job)
            energy = sched.streaming_energy()
            lost = sched.streaming_lost_value()
            cost = sched.streaming_cost()
            result = sched.finish()
            assert energy == result.schedule.energy
            assert lost == result.schedule.lost_value
            assert cost == result.schedule.cost


class TestCertificateHelpersParity:
    def test_contributing_jobs_matches_literal_rescan(self):
        from repro.analysis.certificates import contributing_jobs

        rng = np.random.default_rng(3)
        n, big_n, m = 30, 17, 3
        first = rng.integers(0, big_n - 1, n)
        width = rng.integers(1, 6, n)
        avail = np.zeros((n, big_n), dtype=bool)
        for j in range(n):
            avail[j, first[j] : min(big_n, first[j] + width[j])] = True
        s_hat = rng.exponential(1.0, n)
        s_hat[rng.random(n) < 0.2] = 0.0

        order_all = np.lexsort((np.arange(n), -s_hat))
        expected = []
        for k in range(big_n):
            picked = []
            for j in order_all:
                if len(picked) == m:
                    break
                if avail[j, k] and s_hat[j] > 0.0:
                    picked.append(int(j))
            expected.append(tuple(picked))
        assert contributing_jobs(avail, s_hat, m) == tuple(expected)

    def test_contributing_jobs_noncontiguous_fallback(self):
        from repro.analysis.certificates import contributing_jobs

        avail = np.array(
            [[True, False, True], [True, True, True]], dtype=bool
        )
        s_hat = np.array([2.0, 1.0])
        assert contributing_jobs(avail, s_hat, 1) == ((0,), (1,), (0,))

    def test_pool_level_matches_literal_scan(self):
        from repro.chen.interval_power import _LOAD_EPS, pool_level

        rng = np.random.default_rng(8)
        for m in (1, 2, 4, 9):
            for _ in range(30):
                p = int(rng.integers(0, 12))
                loads = rng.exponential(1.0, p)
                loads[rng.random(p) < 0.3] = 0.0
                arr = np.sort(loads)[::-1]
                suffix = np.concatenate(
                    (np.cumsum(arr[::-1])[::-1], [0.0])
                ) if p else np.zeros(1)
                expected = None
                for d in range(0, min(p, m - 1) + 1):
                    level = float(suffix[d]) / (m - d)
                    upper_ok = d == 0 or float(arr[d - 1]) >= level - _LOAD_EPS
                    lower_ok = d >= p or float(arr[d]) <= level + _LOAD_EPS
                    if upper_ok and lower_ok:
                        expected = max(level, 0.0)
                        break
                assert expected is not None
                assert pool_level(loads, m) == expected
