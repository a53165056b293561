"""Differential suite for PD's one driver, ``PDScheduler.arrive_many``.

``arrive_many`` consumes arrivals in blocks (:mod:`repro.perf.epochs`):
runs of grid-refining arrivals go one by one through the scheduler's
scalar routine, settled blocks are screened and decided with batched
numpy passes. It promises that choice is invisible: same decisions,
same stores, same planned loads, same payload hashes, same cache keys,
with :data:`repro.engine.runner.RECORD_VERSION` unchanged. Every test
here runs the production path against the dense per-arrival twin
(:class:`repro.perf.reference.PDSchedulerReference` /
:func:`repro.perf.reference.run_pd_reference`) and compares with exact
equality, never tolerances — for any block length
(:data:`repro.perf.epochs.DEFAULT_EPOCH_SIZE`, feeding
:func:`repro.perf.epochs.arrive_epochs`).
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

import repro.classical.oa as oa_module
import repro.core.pd as pd_module
import repro.perf.epochs as epochs
from repro.classical.oa import oa_segments, run_oa
from repro.classical.yds import yds
from repro.core.pd import PDScheduler, run_pd
from repro.engine.experiment import ExperimentSpec
from repro.engine.runner import (
    RECORD_VERSION,
    BatchRunner,
    RunRequest,
    evaluate_request,
    request_key,
)
from repro.errors import InvalidParameterError
from repro.general.pd_general import run_pd_general
from repro.general.powers import SumPower
from repro.io.cli import main as cli_main
from repro.io.serialize import schedule_to_dict, stable_hash
from repro.model.job import Instance
from repro.model.job_arrays import JobArrays
from repro.perf.epochs import DEFAULT_EPOCH_SIZE, arrive_epochs
from repro.perf.reference import (
    PDSchedulerReference,
    oa_segments_reference,
    run_pd_reference,
)
from repro.workloads import (
    diurnal_instance,
    heavy_tail_instance,
    poisson_instance,
    slotted_instance,
)

#: (family, n, m) across the workload shapes the driver must not
#: distort: slot-aligned streams (wide blocks, heavy screening),
#: heavy-tail elephants (grid churn), and the datacenter mix (dense
#: distinct releases — nearly every arrival refines the grid).
FAMILIES = [
    (slotted_instance, 300, 1),
    (slotted_instance, 300, 4),
    (heavy_tail_instance, 120, 1),
    (heavy_tail_instance, 120, 4),
    (diurnal_instance, 150, 1),
    (diurnal_instance, 150, 4),
]


def degenerate_single_interval(n: int = 16, m: int = 2) -> Instance:
    """Every job shares one window: the grid never refines past one
    atomic interval, so after the bootstrap arrival every block runs at
    full width against a single store."""
    rng = np.random.default_rng(5)
    jobs = [
        (0.0, 4.0, float(w), float(v))
        for w, v in zip(
            rng.exponential(1.0, n) + 1e-3, rng.uniform(0.05, 8.0, n)
        )
    ]
    return Instance.from_tuples(jobs, m=m, alpha=3.0)


def tie_at_epoch_boundary(n: int = 24) -> Instance:
    """Byte-identical jobs in one shared window: every price computation
    ties exactly, so any ordering slip between the batched and the
    sequential path would flip which job the tie-break admits. With a
    block length of 7 the tie pairs straddle block boundaries."""
    jobs = [(0.0, 3.0, 1.0, 2.5)] * n
    return Instance.from_tuples(jobs, m=2, alpha=3.0)


def assert_twin_parity(instance: Instance) -> None:
    """Full-result bitwise comparison of ``run_pd`` vs the dense twin."""
    new = run_pd(instance)
    old = run_pd_reference(instance)
    assert np.array_equal(new.schedule.loads, old.schedule.loads)
    assert np.array_equal(new.planned_loads, old.planned_loads)
    assert np.array_equal(new.lambdas, old.lambdas)
    assert np.array_equal(new.schedule.finished, old.schedule.finished)
    assert new.decisions == old.decisions
    assert new.schedule.instance.jobs == old.schedule.instance.jobs
    assert new.schedule.energy == old.schedule.energy
    assert new.cost == old.cost
    # The record body that gets content-hashed is byte-identical, so
    # cached records keep answering requests.
    assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
        schedule_to_dict(old.schedule)
    )


def assert_state_matches_twin(
    sched: PDScheduler, twin: PDSchedulerReference
) -> None:
    """Live stores, planned lists and caches against the dense twin."""
    sched._flush_suffixes()
    assert sched._count == len(twin._jobs)
    assert np.array_equal(sched._grid.boundaries, twin._grid.boundaries)
    assert np.array_equal(sched.snapshot_loads(), twin._loads)
    for k, store in enumerate(sched._states):
        col = twin._loads[:, k]
        ids = np.flatnonzero(col)
        order = np.argsort(-col[ids], kind="stable")
        assert store.ids == ids[order].tolist()
        assert store.loads == col[ids][order].tolist()
        assert store.neg == [-x for x in store.loads]
        suffix = [0.0] * (len(store.loads) + 1)
        for i in range(len(store.loads) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + store.loads[i]
        assert store.suffix == suffix
    planned = np.zeros_like(twin._planned)
    for k, entries in enumerate(sched._planned):
        for job_id, z in entries:
            planned[job_id, k] = z
    assert np.array_equal(planned, twin._planned)


def twin_fed(
    arrays: JobArrays, m: int, upto: int | None = None, **kwargs
) -> PDSchedulerReference:
    """The dense twin fed the first ``upto`` jobs (all by default);
    ``kwargs`` go to its constructor (``delta``, ``power``)."""
    twin = PDSchedulerReference(m=m, alpha=3.0, **kwargs)
    for i in range(arrays.n if upto is None else upto):
        twin.arrive(arrays.job(i))
    return twin


@pytest.fixture(params=[1, 7, 2048])
def epoch_size(request, monkeypatch):
    """The block length, patched where ``arrive_epochs`` reads it."""
    monkeypatch.setattr(epochs, "DEFAULT_EPOCH_SIZE", request.param)
    return request.param


class TestTwinParity:
    @pytest.mark.parametrize("family,n,m", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_families_bitwise_identical(self, family, n, m, seed):
        assert_twin_parity(family(n, m=m, alpha=3.0, seed=seed))

    def test_degenerate_single_interval_grid(self):
        assert_twin_parity(degenerate_single_interval())

    def test_exact_price_ties_across_epoch_boundaries(self, monkeypatch):
        monkeypatch.setattr(epochs, "DEFAULT_EPOCH_SIZE", 7)
        assert_twin_parity(tie_at_epoch_boundary())

    def test_block_length_invariant(self, epoch_size):
        """The block length is pure tuning: 1 (every block one job), a
        prime that misaligns with everything, and the default."""
        assert_twin_parity(
            slotted_instance(300, slots=40, m=4, alpha=3.0, seed=2)
        )
        assert_twin_parity(poisson_instance(120, m=2, alpha=3.0, seed=4))
        assert_twin_parity(tie_at_epoch_boundary())

    def test_default_epoch_size_is_sane(self):
        assert DEFAULT_EPOCH_SIZE >= 1

    def test_scheduler_state_identical(self, epoch_size):
        """Not just the results — the live stores themselves: loads,
        insertion-order ids, flushed suffixes, planned lists."""
        inst = slotted_instance(400, slots=60, m=4, alpha=3.0, seed=1)
        arrays = inst.sorted_by_release().arrays
        fast = PDScheduler(m=4, alpha=3.0)
        arrive_epochs(fast, arrays)
        twin = twin_fed(arrays, m=4)
        assert_state_matches_twin(fast, twin)
        result = twin.finish()
        assert fast.streaming_energy() == result.schedule.energy
        assert fast.streaming_lost_value() == result.schedule.lost_value
        assert fast.streaming_cost() == result.cost

    def test_arrive_loop_state_identical(self):
        inst = slotted_instance(300, slots=50, m=2, alpha=3.0, seed=9)
        arrays = inst.sorted_by_release().arrays
        sched = PDScheduler(m=2, alpha=3.0)
        for i in range(arrays.n):
            sched.arrive(arrays.job(i))
        twin = twin_fed(arrays, m=2)
        assert_state_matches_twin(sched, twin)
        assert sched.finish().decisions == twin.finish().decisions


class TestCustomPowerParity:
    """``run_pd_general`` drives the same ``arrive_many``. Settled blocks
    take the batched path's custom-power branch: no vectorized price
    cap, so every aligned job gets the exact zero-load confirmation."""

    POWER = SumPower([1.0, 0.5], [3.0, 1.0])
    DELTA = 3.0 ** (1.0 - 3.0)

    def test_run_pd_general_bitwise_identical(self, epoch_size):
        for inst in (
            slotted_instance(400, slots=40, m=4, alpha=3.0, seed=6),
            poisson_instance(120, m=2, alpha=3.0, seed=8),
            tie_at_epoch_boundary(),
        ):
            new = run_pd_general(inst, self.POWER, delta=self.DELTA).inner
            ordered = inst.sorted_by_release()
            old = twin_fed(
                ordered.arrays, ordered.m, delta=self.DELTA, power=self.POWER
            ).finish()
            assert np.array_equal(new.schedule.loads, old.schedule.loads)
            assert np.array_equal(new.planned_loads, old.planned_loads)
            assert np.array_equal(new.lambdas, old.lambdas)
            assert new.decisions == old.decisions
            assert new.schedule.instance.jobs == old.schedule.instance.jobs

    def test_confirmation_decides_settled_arrivals(self, monkeypatch):
        calls = [0]
        for module in (pd_module, epochs):
            original = module.waterfill_job

            def counting(*args, _original=original, **kwargs):
                calls[0] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "waterfill_job", counting)
        n = 2000
        inst = slotted_instance(n, slots=20, m=4, alpha=3.0, seed=0)
        arrays = inst.sorted_by_release().arrays
        sched = PDScheduler(
            m=4, alpha=3.0, delta=self.DELTA, power=self.POWER
        )
        sched.arrive_many(arrays)
        assert calls[0] < n / 2, f"{calls[0]} water-fills for {n} arrivals"
        monkeypatch.undo()
        twin = twin_fed(arrays, 4, delta=self.DELTA, power=self.POWER)
        assert_state_matches_twin(sched, twin)
        assert sched.finish().decisions == twin.finish().decisions


class TestNamedJobs:
    JOBS = [
        (0.0, 2.0, 1.0, 3.0, "first"),
        (0.5, 2.5, 0.5, 0.001, "junk"),
        (1.0, 3.0, 1.5, 5.0, "big"),
    ]

    def test_named_jobs_survive_run_pd(self):
        inst = Instance.from_tuples(self.JOBS, m=1, alpha=3.0)
        new = run_pd(inst)
        old = run_pd_reference(inst)
        assert [j.name for j in new.schedule.instance.jobs] == [
            "first", "junk", "big"
        ]
        assert new.schedule.instance.jobs == old.schedule.instance.jobs
        assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
            schedule_to_dict(old.schedule)
        )

    def test_named_jobs_survive_arrive(self):
        inst = Instance.from_tuples(self.JOBS, m=1, alpha=3.0)
        sched = PDScheduler(m=1, alpha=3.0)
        twin = PDSchedulerReference(m=1, alpha=3.0)
        for job in inst.jobs:
            assert sched.arrive(job) == twin.arrive(job)
        new = sched.finish()
        old = twin.finish()
        assert [j.name for j in new.schedule.instance.jobs] == [
            "first", "junk", "big"
        ]
        assert new.schedule.instance.jobs == old.schedule.instance.jobs
        assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
            schedule_to_dict(old.schedule)
        )


class TestMixedDrivers:
    def test_arrive_then_arrive_many(self, epoch_size):
        inst = slotted_instance(200, slots=30, m=2, alpha=3.0, seed=3)
        ordered = inst.sorted_by_release()
        split = 37
        sched = PDScheduler(m=2, alpha=3.0)
        for job in ordered.jobs[:split]:
            sched.arrive(job)
        sched.arrive_many(JobArrays.from_jobs(ordered.jobs[split:]))
        twin = twin_fed(ordered.arrays, m=2)
        assert_state_matches_twin(sched, twin)
        new = sched.finish()
        old = twin.finish()
        assert new.decisions == old.decisions
        assert new.schedule.instance.jobs == old.schedule.instance.jobs
        assert np.array_equal(new.planned_loads, old.planned_loads)

    def test_arrive_many_then_arrive(self):
        inst = slotted_instance(200, slots=30, m=2, alpha=3.0, seed=5)
        ordered = inst.sorted_by_release()
        sched = PDScheduler(m=2, alpha=3.0)
        sched.arrive_many(JobArrays.from_jobs(ordered.jobs[:150]))
        for job in ordered.jobs[150:]:
            sched.arrive(job)
        twin = twin_fed(ordered.arrays, m=2)
        assert_state_matches_twin(sched, twin)
        assert sched.finish().decisions == twin.finish().decisions


class TestEpochErrors:
    VIOLATION = JobArrays(
        releases=np.array([0.0, 1.0, 2.0, 0.5]),
        deadlines=np.array([2.0, 3.0, 4.0, 2.5]),
        workloads=np.ones(4),
        values=np.full(4, 2.0),
    )

    def test_release_order_violation_processes_prefix_first(self, epoch_size):
        """Mid-block violations must leave the scheduler exactly where
        the sequential loop would: valid prefix processed, then raise."""
        fast = PDScheduler(m=1, alpha=3.0)
        with pytest.raises(InvalidParameterError, match="release order"):
            fast.arrive_many(self.VIOLATION)
        assert fast._count == 3
        assert_state_matches_twin(fast, twin_fed(self.VIOLATION, m=1, upto=3))

    def test_release_order_violation_through_arrive(self):
        sched = PDScheduler(m=1, alpha=3.0)
        twin = PDSchedulerReference(m=1, alpha=3.0)
        for i in range(3):
            sched.arrive(self.VIOLATION.job(i))
            twin.arrive(self.VIOLATION.job(i))
        late = self.VIOLATION.job(3)
        with pytest.raises(InvalidParameterError, match="release order"):
            sched.arrive(late)
        with pytest.raises(InvalidParameterError, match="release order"):
            twin.arrive(late)
        assert sched._count == 3
        assert_state_matches_twin(sched, twin)

    def test_invalid_batch_rejected(self):
        # ``batch`` is inert but still validated.
        with pytest.raises(InvalidParameterError, match="batch"):
            PDScheduler(m=1, alpha=3.0, batch="bogus")
        a = PDScheduler(m=1, alpha=3.0, batch="epoch")
        b = PDScheduler(m=1, alpha=3.0, batch="arrival")
        arrays = slotted_instance(40, slots=8, seed=0).sorted_by_release().arrays
        a.arrive_many(arrays)
        b.arrive_many(arrays)
        assert a.streaming_cost() == b.streaming_cost()


    def test_removed_execution_knobs_are_rejected(self, capsys):
        """The knobs that picked a path by hand are gone, not silently
        swallowed: passing one fails loudly at every layer."""
        inst = slotted_instance(10, slots=4, m=1, alpha=3.0, seed=0)
        with pytest.raises(TypeError):
            run_pd(inst, batch="epoch")
        with pytest.raises(TypeError):
            run_pd(inst, epoch_size=64)
        with pytest.raises(TypeError):
            PDScheduler(m=1, alpha=3.0).arrive_many(
                inst.sorted_by_release().arrays, epoch_size=64
            )
        with pytest.raises(TypeError):
            RunRequest("pd", inst, batch="epoch")
        with pytest.raises(TypeError):
            ExperimentSpec(
                name="t",
                family="poisson",
                grid={"alpha": [3.0], "m": [1]},
                n=4,
                seeds=(0,),
                batch_mode="epoch",
            )
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "poisson", "--batch-mode", "epoch"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --batch-mode" in capsys.readouterr().err

    def test_removed_selector_knobs_are_rejected(self):
        """The result-wire and reference-twin selectors are gone too:
        the twins live in ``repro.perf.reference``, and pooled results
        always travel through the pool's own pipe."""
        inst = slotted_instance(10, slots=4, m=1, alpha=3.0, seed=0)
        with pytest.raises(TypeError):
            BatchRunner(workers=2, transport="pickle")
        with pytest.raises(TypeError):
            oa_segments(inst, replan="reference")
        with pytest.raises(TypeError):
            run_oa(inst, replan="reference")
        with pytest.raises(TypeError):
            yds(inst, scan="reference")


class TestOAParity:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_segments_bitwise_identical(self, seed):
        """OA's one replan loop (plain-set prefix execution) against the
        from-scratch reference replan on the shapes the deleted epoch
        loop was checked on."""
        for family, n in [
            (slotted_instance, 250),
            (heavy_tail_instance, 120),
            (diurnal_instance, 150),
        ]:
            inst = family(n, m=1, alpha=3.0, seed=seed)
            _, fast = oa_segments(inst)
            _, slow = oa_segments_reference(inst)
            assert fast == slow


class TestRegimeGuards:
    """Each guard fails on one of three measured regressions: a scalar
    run that ignores the block-start nearness cut and swallows the rest
    of the block, slot-mates the screen could have decided included
    (screens ~5% here), a fresh block scan after every refining
    arrival (one block per job), and an ``arrive()`` that stores a
    numpy chunk per job (~1.4 KB per arrival here)."""

    def test_settled_input_screens_most_arrivals(self, monkeypatch):
        calls = [0]

        def counting(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        # Both bindings: the scalar run prices through repro.core.pd's,
        # the batched path through repro.perf.epochs'.
        for module in (pd_module, epochs):
            monkeypatch.setattr(
                module, "waterfill_job", counting(module.waterfill_job)
            )
        # 200 jobs per slot: the grid settles on the slot boundaries
        # early and the screen decides ~62% of the arrivals.
        n = 20_000
        inst = slotted_instance(n, slots=100, m=4, alpha=3.0, seed=0)
        sched = PDScheduler(m=4, alpha=3.0)
        sched.arrive_many(inst.sorted_by_release().arrays)
        assert sched._count == n
        assert n - calls[0] >= 0.5 * n, f"{calls[0]} water-fills for {n} arrivals"

    def test_refining_input_runs_few_blocks(self, monkeypatch):
        blocks = [0]
        original = epochs._process_block

        def counting(*args):
            blocks[0] += 1
            return original(*args)

        monkeypatch.setattr(epochs, "_process_block", counting)
        n = 500
        inst = poisson_instance(n, m=4, alpha=3.0, seed=0)
        result = run_pd(inst)
        assert result.schedule.instance.n == n
        assert blocks[0] <= n / 8, f"{blocks[0]} blocks for {n} arrivals"

    def test_arrive_loop_storage_per_job(self):
        """Consecutive ``arrive()`` calls share one open list chunk: the
        scheduler retains ~370 B per arrival here, the caller's ``Job``
        (kept for ``finish()``) and the live stores included."""
        n = 20_000
        warm = 200
        inst = slotted_instance(n, slots=50, m=4, alpha=3.0, seed=0)
        arrays = inst.sorted_by_release().arrays
        sched = PDScheduler(m=4, alpha=3.0)
        for i in range(warm):
            sched.arrive(arrays.job(i))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(warm, n):
                sched.arrive(arrays.job(i))
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        per_job = grown / (n - warm)
        assert per_job < 500, f"{per_job:.0f} B retained per arrival"


class TestEngineCacheIdentity:
    def test_record_version_unbumped(self):
        # How PD's driver processes arrivals changes HOW results are
        # computed, never WHAT — the version stays where the solver put
        # it (3: the exact water-fill); a bump for an execution change
        # would cold-start every cache for nothing.
        assert RECORD_VERSION == 3

    def test_request_key_pinned(self):
        # Cells cached before PD had one driver keep answering: the key
        # folds in only the algorithm, the instance and the versions.
        inst = slotted_instance(30, slots=6, m=2, alpha=3.0, seed=1)
        assert request_key("pd", inst) == (
            "059d0ec06c73d6d269a206c6fccb3f211f808c6171bfd0df276802dbec6d7f72"
        )
        assert request_key("pd?delta=0.05", inst) == (
            "9211ea395d77f63a5f9cba4df29d2a4656ac8ddae3bfe76956f9e9eb5a5a2b33"
        )

    @pytest.mark.parametrize(
        "algorithm,module,name,twin",
        [
            ("pd", pd_module, "run_pd", run_pd_reference),
            ("oa", oa_module, "oa_segments", oa_segments_reference),
        ],
    )
    def test_evaluate_request_payload_identical(
        self, algorithm, module, name, twin, monkeypatch
    ):
        inst = slotted_instance(40, slots=8, m=1, alpha=3.0, seed=2)
        fast = evaluate_request(RunRequest(algorithm, inst))
        monkeypatch.setattr(module, name, twin)
        slow = evaluate_request(RunRequest(algorithm, inst))
        fast.pop("wall_time")
        slow.pop("wall_time")
        assert fast == slow
