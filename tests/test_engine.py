"""Tests for the experiment engine: registry, batch runner, experiments.

The load-bearing guarantee is *parity*: the engine is a pure
orchestration layer, so for every registered algorithm a
:class:`BatchRunner` — serial or parallel, cache cold or warm — must
return bit-identical costs and schedules to a direct
:func:`run_algorithm` call. Everything else (capability metadata,
cache accounting, declarative sweeps) builds on that.
"""

from __future__ import annotations

import math

import pytest

from repro.core.simulator import available_algorithms, run_algorithm
from repro.engine import (
    REGISTRY,
    BatchRunner,
    ExperimentSpec,
    ResultCache,
    RunRequest,
    run_experiment,
)
from repro.engine.runner import record_to_payload, request_key
from repro.errors import InvalidParameterError
from repro.io.serialize import schedule_to_dict, stable_hash
from repro.workloads import poisson_instance


def _canonical(record) -> dict:
    """A record's payload minus measurement and delivery provenance.

    ``wall_time`` is a measurement, ``cached`` says how the bytes were
    delivered, and NaN compares unequal to itself; none of them is
    record content.
    """
    out = record_to_payload(record)
    out.pop("wall_time", None)
    out.pop("cached", None)
    for key in ("certified_ratio", "dual_g"):
        if isinstance(out.get(key), float) and math.isnan(out[key]):
            out[key] = "NaN"
    return out


@pytest.fixture(scope="module")
def instance():
    # m=1 so every algorithm (including the single-processor ones) runs;
    # n=5 keeps the exact solver's enumeration fast.
    return poisson_instance(5, m=1, alpha=3.0, seed=7)


@pytest.fixture(scope="module")
def direct(instance):
    """Ground truth: one plain run_algorithm call per registered name."""
    return {
        name: run_algorithm(name, instance) for name in available_algorithms()
    }


def _assert_parity(records, direct, instance):
    for record in records:
        outcome = direct[record.algorithm]
        assert record.cost == outcome.schedule.cost, record.algorithm
        assert record.energy == outcome.schedule.energy, record.algorithm
        assert record.schedule == schedule_to_dict(outcome.schedule), (
            record.algorithm
        )


class TestBatchParity:
    """Satellite: engine output == direct output, in every mode."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parity_cold_and_warm(self, workers, instance, direct, tmp_path):
        requests = [RunRequest(name, instance) for name in available_algorithms()]
        runner = BatchRunner(workers=workers, cache=tmp_path / "cache")

        cold = runner.run(requests)
        _assert_parity(cold, direct, instance)
        assert all(not r.cached for r in cold)
        assert runner.stats.computed == len(requests)

        warm = runner.run(requests)
        _assert_parity(warm, direct, instance)
        assert all(r.cached for r in warm)
        assert runner.stats.computed == len(requests)  # nothing recomputed
        assert runner.stats.cache_hits == len(requests)

    def test_parity_without_cache(self, instance, direct):
        records = BatchRunner(workers=1).run(
            [RunRequest(name, instance) for name in available_algorithms()]
        )
        _assert_parity(records, direct, instance)

    def test_parallel_matches_serial_ordering(self, instance):
        insts = [poisson_instance(6, m=1, alpha=3.0, seed=s) for s in range(4)]
        requests = [
            RunRequest(a, i) for i in insts for a in ("pd", "cll", "oa")
        ]
        serial = BatchRunner(workers=1).run(requests)
        parallel = BatchRunner(workers=3).run(requests)
        assert [r.algorithm for r in serial] == [r.algorithm for r in parallel]
        assert [r.cost for r in serial] == [r.cost for r in parallel]
        assert [r.schedule for r in serial] == [r.schedule for r in parallel]
        # Whole records, as the cache stores them: only the measured
        # wall time may differ between the in-process and pooled paths.
        assert [r.key for r in serial] == [r.key for r in parallel]
        assert [_canonical(r) for r in serial] == [
            _canonical(r) for r in parallel
        ]


class TestCache:
    def test_warm_cache_skips_recomputation_call_count(
        self, instance, tmp_path, monkeypatch
    ):
        """The satellite's call-count check: zero evaluations when warm."""
        import repro.engine.runner as runner_mod

        calls = []
        real = runner_mod.evaluate_request

        def counting(request):
            calls.append(request.algorithm)
            return real(request)

        monkeypatch.setattr(runner_mod, "evaluate_request", counting)
        requests = [RunRequest(a, instance) for a in ("pd", "cll", "oa")]

        cold = BatchRunner(workers=1, cache=tmp_path / "c").run(requests)
        assert calls == ["pd", "cll", "oa"]
        warm = BatchRunner(workers=1, cache=tmp_path / "c").run(requests)
        assert calls == ["pd", "cll", "oa"]  # unchanged: no recomputation
        assert [r.cost for r in cold] == [r.cost for r in warm]

    def test_one_changed_cell_recomputes_only_that_cell(
        self, instance, tmp_path, monkeypatch
    ):
        import repro.engine.runner as runner_mod

        calls = []
        real = runner_mod.evaluate_request

        def counting(request):
            calls.append(request.algorithm)
            return real(request)

        monkeypatch.setattr(runner_mod, "evaluate_request", counting)
        requests = [RunRequest(a, instance) for a in ("pd", "cll", "oa")]
        BatchRunner(workers=1, cache=tmp_path / "c").run(requests)
        calls.clear()

        changed = instance.with_values([j.value * 2 for j in instance.jobs])
        requests[1] = RunRequest("cll", changed)
        records = BatchRunner(workers=1, cache=tmp_path / "c").run(requests)
        assert calls == ["cll"]
        assert [r.cached for r in records] == [True, False, True]

    def test_duplicates_computed_once(self, instance):
        runner = BatchRunner(workers=1)
        records = runner.run([RunRequest("pd", instance)] * 3)
        assert runner.stats.computed == 1
        assert runner.stats.deduplicated == 2
        assert runner.stats.cache_hits == 0  # no cache configured
        assert len({r.cost for r in records}) == 1
        assert [r.cached for r in records] == [False, True, True]

    def test_corrupt_entry_is_a_miss(self, instance, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = request_key("pd", instance)
        (tmp_path / "c" / f"{key}.json").write_text("{not json")
        runner = BatchRunner(workers=1, cache=cache)
        record = runner.run_one("pd", instance)
        assert not record.cached
        assert cache.get(key) is not None  # rewritten cleanly

    def test_key_stability(self, instance):
        key = request_key("pd", instance)
        assert key == request_key("pd", instance)
        assert key != request_key("cll", instance)
        bumped = instance.with_values([j.value * 2 for j in instance.jobs])
        assert key != request_key("pd", bumped)
        # hashing is key-order independent
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_invalid_workers_rejected(self):
        with pytest.raises(InvalidParameterError):
            BatchRunner(workers=0)


class TestRegistryCapabilities:
    def test_known_capabilities(self):
        info = REGISTRY.info("pd")
        assert info.profit_aware and info.online and info.multiprocessor
        assert info.produces_certificate
        assert REGISTRY.info("yds").capabilities() == frozenset({"offline"})
        assert not REGISTRY.info("oa").produces_certificate
        assert REGISTRY.info("cll").produces_certificate

    def test_single_processor_flags_match_behaviour(self):
        inst = poisson_instance(4, m=2, alpha=3.0, seed=0)
        for info in REGISTRY:
            if not info.multiprocessor:
                with pytest.raises(InvalidParameterError):
                    run_algorithm(info.name, inst)

    def test_select(self):
        certified = {
            i.name for i in REGISTRY.select(produces_certificate=True)
        }
        assert "pd" in certified and "cll" in certified
        assert "oa" not in certified
        offline = {i.name for i in REGISTRY.select(online=False)}
        assert {"yds", "exact", "offline-cp", "oracle-admission"} <= offline

    def test_unknown_name_lists_available(self):
        with pytest.raises(InvalidParameterError, match="available:"):
            REGISTRY.info("nope")

    def test_certified_ratio_only_for_capable_algorithms(self, instance):
        records = BatchRunner().run(
            [RunRequest(a, instance) for a in ("pd", "cll", "oa", "avr")]
        )
        by_name = {r.algorithm: r for r in records}
        assert by_name["pd"].certified_ratio <= 27.0 * (1 + 1e-7)
        assert by_name["cll"].certified_ratio > 0
        assert math.isnan(by_name["oa"].certified_ratio)
        assert math.isnan(by_name["avr"].certified_ratio)


class TestExperimentSpec:
    def test_grid_order_and_aggregation(self):
        spec = ExperimentSpec(
            name="t",
            family=poisson_instance,
            grid={"alpha": [2.0, 3.0], "m": [1, 2]},
            algorithms=("pd",),
            n=6,
            seeds=(0, 1),
        )
        cells = run_experiment(spec)
        assert [(c.params["alpha"], c.params["m"]) for c in cells] == [
            (2.0, 1),
            (2.0, 2),
            (3.0, 1),
            (3.0, 2),
        ]
        assert all(c.runs == 2 for c in cells)

    def test_named_family_resolution(self):
        spec = ExperimentSpec(
            name="t", family="poisson", grid={}, n=4, seeds=(0,)
        )
        cells = run_experiment(spec)
        assert len(cells) == 1 and cells[0].mean_cost > 0
        with pytest.raises(InvalidParameterError, match="unknown workload family"):
            run_experiment(
                ExperimentSpec(name="t", family="nope", n=4, seeds=(0,))
            )

    def test_skip_incapable_drops_single_proc_cells(self):
        spec = ExperimentSpec(
            name="t",
            family=poisson_instance,
            grid={"m": [1, 2]},
            algorithms=("pd", "cll"),
            n=5,
            seeds=(0,),
            skip_incapable=True,
        )
        cells = run_experiment(spec)
        combos = {(c.params["m"], c.algorithm) for c in cells}
        assert combos == {(1, "pd"), (1, "cll"), (2, "pd")}

    def test_value_x_axis_matches_manual_scaling(self):
        spec = ExperimentSpec(
            name="t",
            family=poisson_instance,
            grid={"value_x": [0.5]},
            algorithms=("pd",),
            n=6,
            seeds=(0,),
        )
        cell = run_experiment(spec)[0]
        base = poisson_instance(6, m=1, alpha=3.0, seed=0)
        manual = run_algorithm(
            "pd", base.with_values([j.value * 0.5 for j in base.jobs])
        )
        assert cell.mean_cost == manual.schedule.cost

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="exactly one"):
            ExperimentSpec(name="t")
        with pytest.raises(InvalidParameterError, match="seed"):
            ExperimentSpec(name="t", family=poisson_instance, seeds=())
        with pytest.raises(InvalidParameterError, match="algorithm"):
            ExperimentSpec(name="t", family=poisson_instance, algorithms=())


class TestSweepsOnEngine:
    """The public sweep helpers must behave identically on any runner."""

    def test_ratio_sweep_runner_equivalence(self, tmp_path):
        from repro.analysis.sweeps import ratio_sweep

        kwargs = dict(alphas=[2.0, 3.0], ms=[1, 2], n=6, seeds=[0, 1])
        plain = ratio_sweep(poisson_instance, **kwargs)
        cached = ratio_sweep(
            poisson_instance,
            runner=BatchRunner(workers=2, cache=tmp_path / "c"),
            **kwargs,
        )
        warm = ratio_sweep(
            poisson_instance,
            runner=BatchRunner(workers=1, cache=tmp_path / "c"),
            **kwargs,
        )
        assert plain == cached == warm

    def test_processor_scaling_curve_cll_gets_real_ratio(self):
        from repro.analysis.sweeps import processor_scaling_curve

        inst = poisson_instance(8, m=1, alpha=3.0, seed=2)
        (cell,) = processor_scaling_curve(inst, ms=[1], algorithm="cll")
        assert math.isfinite(cell.worst_certified_ratio)
        assert cell.worst_certified_ratio >= 1.0 - 1e-9
