"""Differential suite for arrival-epoch batched execution.

``repro.perf.epochs`` replays the per-arrival PD loop in vectorized
blocks — and promises the replay is invisible: same decisions, same
stores, same planned loads, same payload hashes, same cache keys, with
:data:`repro.engine.runner.RECORD_VERSION` unchanged. Every test here
runs the epoch path (:func:`repro.perf.epochs.arrive_epochs` and its
wrappers) against the per-arrival twin
(:func:`repro.perf.reference.arrive_epochs_reference` — one scalar
``arrive()`` per job) and compares with exact equality, never
tolerances. The OA epoch bookkeeping loop gets the same treatment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.classical.oa import oa_segments, run_oa
from repro.core.pd import PDScheduler, run_pd
from repro.engine.experiment import ExperimentSpec
from repro.engine.runner import (
    RECORD_VERSION,
    RunRequest,
    evaluate_request,
    request_key,
)
from repro.errors import InvalidParameterError
from repro.io.serialize import schedule_to_dict, stable_hash
from repro.model.job import Instance
from repro.perf.epochs import (
    DEFAULT_EPOCH_SIZE,
    arrive_epochs,
    batch_mode,
    current_batch_mode,
)
from repro.perf.reference import arrive_epochs_reference
from repro.workloads import (
    diurnal_instance,
    heavy_tail_instance,
    slotted_instance,
)

#: (family, n, m) across the workload shapes the epoch layer must not
#: distort: slot-aligned streams (wide blocks, heavy screening),
#: heavy-tail elephants (grid churn), and the datacenter mix (dense
#: distinct releases — blocks split at nearly every refinement).
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
    sequential path would flip which job the tie-break admits. With
    ``epoch_size=7`` the tie pairs straddle block boundaries."""
    jobs = [(0.0, 3.0, 1.0, 2.5)] * n
    return Instance.from_tuples(jobs, m=2, alpha=3.0)


def assert_epoch_parity(instance: Instance, **epoch_kwargs) -> None:
    """Full-result bitwise comparison of epoch vs per-arrival PD."""
    new = run_pd(instance, batch="epoch", **epoch_kwargs)
    old = run_pd(instance, batch="arrival")
    assert np.array_equal(new.schedule.loads, old.schedule.loads)
    assert np.array_equal(new.planned_loads, old.planned_loads)
    assert np.array_equal(new.lambdas, old.lambdas)
    assert np.array_equal(new.schedule.finished, old.schedule.finished)
    assert new.decisions == old.decisions
    assert new.schedule.instance.jobs == old.schedule.instance.jobs
    assert new.schedule.energy == old.schedule.energy
    assert new.cost == old.cost
    # The record body that gets content-hashed is byte-identical, so
    # cached pre-epoch records keep answering epoch-mode requests.
    assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
        schedule_to_dict(old.schedule)
    )


class TestPDEpochParity:
    @pytest.mark.parametrize("family,n,m", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_families_bitwise_identical(self, family, n, m, seed):
        assert_epoch_parity(family(n, m=m, alpha=3.0, seed=seed))

    def test_degenerate_single_interval_grid(self):
        assert_epoch_parity(degenerate_single_interval())

    def test_exact_price_ties_across_epoch_boundaries(self):
        assert_epoch_parity(tie_at_epoch_boundary(), epoch_size=7)

    @pytest.mark.parametrize("epoch_size", [1, 7, 300])
    def test_epoch_size_invariant(self, epoch_size):
        """The block length is pure tuning: size 1 (every job scalar),
        a prime that misaligns with everything, and n (one block)."""
        inst = slotted_instance(300, slots=40, m=4, alpha=3.0, seed=2)
        assert_epoch_parity(inst, epoch_size=epoch_size)

    def test_scheduler_state_identical(self):
        """Not just the results — the live stores themselves: loads,
        insertion-order ids, flushed suffixes, planned lists."""
        inst = slotted_instance(400, slots=60, m=4, alpha=3.0, seed=1)
        arrays = inst.sorted_by_release().arrays
        fast = PDScheduler(m=4, alpha=3.0, batch="epoch")
        arrive_epochs(fast, arrays, epoch_size=64)
        slow = PDScheduler(m=4, alpha=3.0)
        arrive_epochs_reference(slow, arrays)
        fast._flush_suffixes()
        assert np.array_equal(fast._grid.boundaries, slow._grid.boundaries)
        for fs, ss in zip(fast._states, slow._states):
            assert fs.loads == ss.loads
            assert fs.ids == ss.ids
            assert fs.suffix == ss.suffix
        assert fast._planned == slow._planned
        assert fast.streaming_cost() == slow.streaming_cost()
        assert fast.streaming_energy() == slow.streaming_energy()
        assert fast.streaming_lost_value() == slow.streaming_lost_value()
        assert np.array_equal(fast.snapshot_loads(), slow.snapshot_loads())

    def test_named_jobs_survive_epoch_runs(self):
        jobs = [
            (0.0, 2.0, 1.0, 3.0, "first"),
            (0.5, 2.5, 0.5, 0.001, "junk"),
            (1.0, 3.0, 1.5, 5.0, "big"),
        ]
        inst = Instance.from_tuples(jobs, m=1, alpha=3.0)
        new = run_pd(inst, batch="epoch")
        old = run_pd(inst, batch="arrival")
        assert [j.name for j in new.schedule.instance.jobs] == [
            j.name for j in old.schedule.instance.jobs
        ]
        assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
            schedule_to_dict(old.schedule)
        )


class TestEpochErrors:
    def test_epoch_size_must_be_positive(self):
        sched = PDScheduler(m=1, alpha=3.0, batch="epoch")
        arrays = slotted_instance(5, slots=3, seed=0).sorted_by_release().arrays
        with pytest.raises(InvalidParameterError, match="epoch_size"):
            arrive_epochs(sched, arrays, epoch_size=0)

    def test_cannot_mix_arrive_with_epoch_batches(self):
        inst = slotted_instance(6, slots=3, seed=0).sorted_by_release()
        sched = PDScheduler(m=1, alpha=3.0, batch="epoch")
        sched.arrive_many(inst.arrays)
        with pytest.raises(InvalidParameterError, match="cannot mix"):
            sched.arrive(inst.jobs[0])
        other = PDScheduler(m=1, alpha=3.0)
        other.arrive(inst.jobs[0])
        with pytest.raises(InvalidParameterError, match="cannot mix"):
            arrive_epochs(other, inst.arrays)

    def test_release_order_violation_processes_prefix_first(self):
        """Mid-block violations must leave the scheduler exactly where
        the sequential loop would: valid prefix processed, then raise."""
        from repro.model.job_arrays import JobArrays

        arrays = JobArrays(
            releases=np.array([0.0, 1.0, 2.0, 0.5]),
            deadlines=np.array([2.0, 3.0, 4.0, 2.5]),
            workloads=np.ones(4),
            values=np.full(4, 2.0),
        )
        fast = PDScheduler(m=1, alpha=3.0, batch="epoch")
        with pytest.raises(InvalidParameterError, match="release order"):
            arrive_epochs(fast, arrays, epoch_size=8)
        slow = PDScheduler(m=1, alpha=3.0)
        with pytest.raises(InvalidParameterError, match="release order"):
            arrive_epochs_reference(slow, arrays)
        assert fast._count == 3
        fast._flush_suffixes()
        for fs, ss in zip(fast._states, slow._states):
            assert fs.loads == ss.loads

    def test_invalid_batch_mode_rejected(self):
        inst = slotted_instance(4, slots=2, seed=0)
        with pytest.raises(InvalidParameterError, match="batch"):
            run_pd(inst, batch="bogus")
        with pytest.raises(InvalidParameterError, match="batch"):
            PDScheduler(m=1, alpha=3.0, batch="bogus")


class TestBatchModeContext:
    def test_default_is_arrival(self):
        assert current_batch_mode() == "arrival"

    def test_context_sets_and_restores(self):
        with batch_mode("epoch"):
            assert current_batch_mode() == "epoch"
            with batch_mode(None):  # None is a no-op wrap
                assert current_batch_mode() == "epoch"
            with batch_mode("arrival"):
                assert current_batch_mode() == "arrival"
            assert current_batch_mode() == "epoch"
        assert current_batch_mode() == "arrival"

    def test_invalid_mode_rejected(self):
        with pytest.raises(InvalidParameterError, match="batch"):
            with batch_mode("turbo"):
                pass  # pragma: no cover

    def test_run_pd_defers_to_ambient_mode(self):
        inst = slotted_instance(60, slots=10, m=2, alpha=3.0, seed=4)
        old = run_pd(inst)
        with batch_mode("epoch"):
            new = run_pd(inst)
        assert new.decisions == old.decisions
        assert new.cost == old.cost

    def test_default_epoch_size_is_sane(self):
        assert DEFAULT_EPOCH_SIZE >= 1


class TestOAEpochParity:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_segments_bitwise_identical(self, seed):
        for family, n in [
            (slotted_instance, 250),
            (heavy_tail_instance, 120),
            (diurnal_instance, 150),
        ]:
            inst = family(n, m=1, alpha=3.0, seed=seed)
            _, old = oa_segments(inst, batch="arrival")
            _, new = oa_segments(inst, batch="epoch")
            assert new == old

    def test_run_oa_schedule_identical(self):
        inst = slotted_instance(150, slots=25, m=1, alpha=3.0, seed=3)
        old = run_oa(inst, batch="arrival")
        new = run_oa(inst, batch="epoch")
        assert np.array_equal(new.schedule.loads, old.schedule.loads)
        assert new.segments == old.segments
        assert new.energy == old.energy
        assert stable_hash(schedule_to_dict(new.schedule)) == stable_hash(
            schedule_to_dict(old.schedule)
        )

    def test_reference_replan_excludes_epoch_batching(self):
        inst = slotted_instance(10, slots=4, m=1, alpha=3.0, seed=0)
        with pytest.raises(InvalidParameterError, match="replan"):
            oa_segments(inst, replan="reference", batch="epoch")

    def test_ambient_mode_reaches_oa(self):
        inst = slotted_instance(80, slots=12, m=1, alpha=3.0, seed=6)
        _, old = oa_segments(inst)
        with batch_mode("epoch"):
            _, new = oa_segments(inst)
        assert new == old


class TestEngineCacheIdentity:
    def test_record_version_unbumped(self):
        # Epoch batching changes HOW results are computed, never WHAT —
        # it leaves the version where the solver put it (3: the exact
        # water-fill); a bump for batching would cold-start every cache
        # for nothing.
        assert RECORD_VERSION == 3

    def test_request_key_ignores_batch(self):
        inst = slotted_instance(30, slots=6, m=2, alpha=3.0, seed=1)
        assert request_key("pd", inst) == request_key("pd", inst)
        ra = RunRequest("pd", inst, batch="arrival")
        re_ = RunRequest("pd", inst, batch="epoch")
        assert request_key(ra.algorithm, ra.instance) == request_key(
            re_.algorithm, re_.instance
        )

    @pytest.mark.parametrize("algorithm", ["pd", "oa"])
    def test_evaluate_request_payload_identical(self, algorithm):
        inst = slotted_instance(40, slots=8, m=1, alpha=3.0, seed=2)
        pa = evaluate_request(RunRequest(algorithm, inst, batch="arrival"))
        pe = evaluate_request(RunRequest(algorithm, inst, batch="epoch"))
        pa.pop("wall_time")
        pe.pop("wall_time")
        assert pa == pe

    def test_experiment_spec_threads_batch_mode(self):
        spec = ExperimentSpec(
            name="t",
            family="poisson",
            grid={"alpha": [3.0], "m": [1]},
            n=12,
            seeds=(0,),
            batch_mode="epoch",
        )
        assert all(r.batch == "epoch" for r in spec.requests())
        plain = ExperimentSpec(
            name="t",
            family="poisson",
            grid={"alpha": [3.0], "m": [1]},
            n=12,
            seeds=(0,),
        )
        assert all(r.batch is None for r in plain.requests())

    def test_experiment_spec_rejects_unknown_batch_mode(self):
        with pytest.raises(InvalidParameterError, match="batch_mode"):
            ExperimentSpec(name="t", family="poisson", batch_mode="turbo")
