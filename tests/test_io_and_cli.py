"""Tests for JSON serialization, the audit report, and the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.report import audit_run
from repro.core.pd import run_pd
from repro.errors import InvalidParameterError
from repro.io.cli import build_parser, main
from repro.io.serialize import (
    instance_from_dict,
    instance_to_dict,
    load_json,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.model.job import Instance
from repro.workloads import poisson_instance


class TestInstanceSerialization:
    def test_roundtrip(self):
        inst = poisson_instance(10, m=3, alpha=2.5, seed=0)
        back = instance_from_dict(instance_to_dict(inst))
        assert back.m == inst.m and back.alpha == inst.alpha
        assert back.jobs == inst.jobs

    def test_names_preserved(self):
        inst = Instance.from_tuples([(0.0, 1.0, 1.0, 1.0)]).with_values([2.0])
        payload = instance_to_dict(inst)
        assert "name" not in payload["jobs"][0]
        from repro.model.job import Job

        named = Instance((Job(0.0, 1.0, 1.0, 1.0, name="alpha"),))
        back = instance_from_dict(instance_to_dict(named))
        assert back[0].name == "alpha"

    def test_wrong_kind_rejected(self):
        inst = poisson_instance(3, seed=0)
        payload = instance_to_dict(inst)
        payload["kind"] = "schedule"
        with pytest.raises(InvalidParameterError):
            instance_from_dict(payload)

    def test_wrong_schema_rejected(self):
        payload = instance_to_dict(poisson_instance(3, seed=0))
        payload["schema"] = 999
        with pytest.raises(InvalidParameterError):
            instance_from_dict(payload)

    def test_json_file_roundtrip(self, tmp_path):
        inst = poisson_instance(5, seed=1)
        path = tmp_path / "inst.json"
        save_json(instance_to_dict(inst), path)
        assert instance_from_dict(load_json(path)).jobs == inst.jobs

    def test_stable_formatting(self, tmp_path):
        inst = poisson_instance(4, seed=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_json(instance_to_dict(inst), p1)
        save_json(instance_to_dict(inst), p2)
        assert p1.read_text() == p2.read_text()


class TestScheduleSerialization:
    def test_roundtrip_preserves_cost(self):
        inst = poisson_instance(8, m=2, alpha=3.0, seed=3)
        sched = run_pd(inst).schedule
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back.cost == pytest.approx(sched.cost, rel=1e-9)
        np.testing.assert_allclose(back.loads, sched.loads)
        np.testing.assert_array_equal(back.finished, sched.finished)

    def test_sparse_storage(self):
        inst = poisson_instance(8, m=2, alpha=3.0, seed=4)
        sched = run_pd(inst).schedule
        payload = schedule_to_dict(sched)
        dense = sched.loads.size
        assert len(payload["loads"]) < dense  # zeros are omitted

    def test_tampered_cost_detected(self):
        inst = poisson_instance(5, m=1, alpha=3.0, seed=5)
        payload = schedule_to_dict(run_pd(inst).schedule)
        payload["cost"] = payload["cost"] * 2 + 1
        with pytest.raises(InvalidParameterError):
            schedule_from_dict(payload)

    def test_payload_is_json_serializable(self):
        inst = poisson_instance(5, m=2, alpha=2.0, seed=6)
        payload = schedule_to_dict(run_pd(inst).schedule)
        json.dumps(payload)  # must not raise


class TestAuditReport:
    def test_clean_run_is_certified(self):
        result = run_pd(poisson_instance(12, m=2, alpha=3.0, seed=7))
        report = audit_run(result)
        assert report.ok
        assert "VERDICT: certified" in report.text
        assert sum(report.category_sizes) == 12

    def test_report_contains_key_numbers(self):
        result = run_pd(poisson_instance(8, m=1, alpha=2.0, seed=8))
        report = audit_run(result)
        assert f"{report.certificate.g:.6f}" in report.text
        assert "alpha^alpha" in report.text


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "poisson", "out.json", "-n", "5"])
        assert args.command == "generate" and args.n == 5

    def test_generate_and_run(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        assert main(["generate", "poisson", inst_path, "-n", "8", "--seed", "1"]) == 0
        assert main(["run", "pd", inst_path]) == 0
        out = capsys.readouterr().out
        assert "accepted" in out

    def test_run_saves_schedule(self, tmp_path):
        inst_path = str(tmp_path / "inst.json")
        sched_path = str(tmp_path / "sched.json")
        main(["generate", "uniform", inst_path, "-n", "6", "--seed", "2"])
        assert main(["run", "pd", inst_path, "--save-schedule", sched_path]) == 0
        payload = load_json(sched_path)
        assert payload["kind"] == "schedule"
        schedule_from_dict(payload)  # must round-trip

    def test_compare_skips_incompatible(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        main(["generate", "poisson", inst_path, "-n", "6", "-m", "2", "--seed", "3"])
        assert main(["compare", inst_path, "--algorithms", "pd,cll"]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out and "pd" in out

    def test_certify_exit_code(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        main(["generate", "tight", inst_path, "-n", "8", "--seed", "4"])
        assert main(["certify", inst_path]) == 0
        assert "VERDICT: certified" in capsys.readouterr().out

    def test_figures_render(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2a" in out and "Figure 3b" in out

    def test_missing_file_is_graceful(self, capsys):
        assert main(["run", "pd", "/nonexistent/inst.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_gantt_flag(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        main(["generate", "batch", inst_path, "-n", "5", "-m", "2", "--seed", "5"])
        assert main(["run", "pd", inst_path, "--gantt"]) == 0
        assert "CPU 1" in capsys.readouterr().out

    def test_lowerbound_generator(self, tmp_path):
        inst_path = str(tmp_path / "lb.json")
        assert main(["generate", "lowerbound", inst_path, "-n", "6"]) == 0
        inst = instance_from_dict(load_json(inst_path))
        assert inst.n == 6 and inst.m == 1


class TestNewSubcommands:
    """CLI coverage for the discrete / profit / adversary extensions."""

    def _instance(self, tmp_path, **kwargs):
        inst_path = str(tmp_path / "inst.json")
        main(["generate", "poisson", inst_path, "-n", "6", "--seed", "7"])
        return inst_path

    def test_discrete_default_menu(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["discrete", inst_path, "--levels", "6"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "envelope bound" in out

    def test_discrete_explicit_cap(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["discrete", inst_path, "--levels", "8", "--cap", "50"]) == 0
        assert "level" in capsys.readouterr().out

    def test_profit_plain(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["profit", inst_path]) == 0
        assert "profit" in capsys.readouterr().out

    def test_profit_augmented(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["profit", inst_path, "--epsilon", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "eps=0.25" in out

    def test_adversary_and_save(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        hard_path = str(tmp_path / "hard.json")
        assert (
            main(
                [
                    "adversary",
                    inst_path,
                    "--rounds",
                    "10",
                    "--seed",
                    "1",
                    "--save",
                    hard_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hardest certified ratio" in out
        hard = instance_from_dict(load_json(hard_path))
        assert hard.n >= 1

    def test_policy_algorithms_in_run(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["run", "solo-threshold", inst_path]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_variant_spec_in_run(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["run", "pd?delta=0.05", inst_path]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_unknown_algorithm_in_run_is_graceful(self, tmp_path, capsys):
        inst_path = self._instance(tmp_path)
        assert main(["run", "nope", inst_path]) == 2
        assert "unknown algorithm" in capsys.readouterr().err


class TestSweepSubcommand:
    """CLI coverage for sharding, cache backends, and variant axes."""

    BASE = [
        "sweep", "poisson", "-n", "5", "--alphas", "3.0", "--ms", "1",
        "--algorithms", "pd", "--seeds", "0,1",
    ]

    def test_sweep_with_variant_axis(self, tmp_path, capsys):
        out_path = str(tmp_path / "cells.json")
        argv = self.BASE + ["--variant", "delta=0.01,0.05", "--json", out_path]
        assert main(argv) == 0
        assert "pd?delta=0.01" in capsys.readouterr().out
        payload = load_json(out_path)
        assert [c["algorithm"] for c in payload["cells"]] == [
            "pd?delta=0.01", "pd?delta=0.05",
        ]
        assert payload["cells"][0]["params"]["delta"] == 0.01

    def test_sweep_sqlite_backend_caches(self, tmp_path, capsys):
        cache_path = str(tmp_path / "cache.db")
        argv = self.BASE + ["--cache", cache_path, "--cache-backend", "sqlite"]
        assert main(argv) == 0
        assert "2 cells computed, 0 served from cache" in capsys.readouterr().out
        assert main(argv) == 0
        assert "0 cells computed, 2 served from cache" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["dir", "sqlite"])
    def test_sharded_sweep_merges_byte_identical(self, backend, tmp_path, capsys):
        cache_path = str(
            tmp_path / ("cache.db" if backend == "sqlite" else "cache-dir")
        )
        caching = ["--cache", cache_path, "--cache-backend", backend]
        variants = ["--variant", "delta=0.01,0.05"]
        full, merged = str(tmp_path / "full.json"), str(tmp_path / "merged.json")
        shards = [str(tmp_path / f"s{i}.json") for i in range(2)]

        assert main(self.BASE + variants + caching + ["--json", full]) == 0
        for index, shard_path in enumerate(shards):
            argv = self.BASE + variants + caching + [
                "--shard", f"{index}/2", "--json", shard_path,
            ]
            assert main(argv) == 0
        assert main(["sweep", "poisson", "--merge", *shards, "--json", merged]) == 0
        capsys.readouterr()
        with open(full) as f_full, open(merged) as f_merged:
            assert f_full.read() == f_merged.read()

    def test_shard_requires_json(self, capsys):
        assert main(self.BASE + ["--shard", "0/2"]) == 2
        assert "--json" in capsys.readouterr().err

    def test_bad_shard_spec(self, capsys):
        assert main(self.BASE + ["--shard", "2", "--json", "x.json"]) == 2
        assert "I/K" in capsys.readouterr().err

    def test_merge_rejects_incomplete_shards(self, tmp_path, capsys):
        shard_path = str(tmp_path / "s0.json")
        argv = self.BASE + ["--shard", "0/2", "--json", shard_path]
        assert main(argv) == 0
        assert main(["sweep", "poisson", "--merge", shard_path]) == 2
        assert "missing shard" in capsys.readouterr().err

    def test_merge_rejects_non_shard_files(self, tmp_path, capsys):
        cells_path = str(tmp_path / "cells.json")
        assert main(self.BASE + ["--json", cells_path]) == 0
        assert main(["sweep", "poisson", "--merge", cells_path]) == 2
        assert "not a sweep shard file" in capsys.readouterr().err


class TestSweepWorkloadAxis:
    """CLI coverage for the workload axis, streaming, and shard files
    older builds wrote with the measured-cost (LPT) strategy."""

    def test_workload_axis_sweep(self, tmp_path, capsys):
        out_path = str(tmp_path / "cells.json")
        argv = [
            "sweep", "--workload", "poisson", "--workload",
            "heavy-tail?n=4&alpha=3.0", "-n", "5", "--algorithms", "pd",
            "--seeds", "0,1", "--json", out_path,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "workload" in out
        payload = load_json(out_path)
        assert [c["params"]["workload"] for c in payload["cells"]] == [
            "poisson", "heavy-tail?alpha=3.0&n=4",
        ]

    def test_workload_spelling_variants_share_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "c.db")
        base = ["sweep", "-n", "5", "--algorithms", "pd", "--seeds", "0",
                "--cache", cache, "--cache-backend", "sqlite"]
        out = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        assert main(
            base + ["--workload", "heavy-tail?n=6&alpha=3.0", "--json", out[0]]
        ) == 0
        assert "1 cells computed" in capsys.readouterr().out
        assert main(
            base + ["--workload", "heavy-tail?alpha=3&n=6", "--json", out[1]]
        ) == 0
        assert "0 cells computed, 1 served from cache" in capsys.readouterr().out
        # canonical labels make the cells JSON spelling-invariant too
        with open(out[0]) as a, open(out[1]) as b:
            assert a.read() == b.read()

    def test_family_and_workload_are_exclusive(self, capsys):
        assert main(["sweep", "poisson", "--workload", "uniform"]) == 2
        assert "one source" in capsys.readouterr().err
        assert main(["sweep"]) == 2
        assert "one source" in capsys.readouterr().err

    def test_unknown_workload_spec_is_graceful(self, capsys):
        assert main(["sweep", "--workload", "nope?n=4"]) == 2
        assert "unknown workload family" in capsys.readouterr().err

    def test_positional_family_spec_may_pin_alpha(self, capsys):
        # a parameterized positional family pinning alpha must not clash
        # with the default alpha grid axis...
        argv = ["sweep", "heavy-tail?alpha=2.5", "-n", "4",
                "--algorithms", "pd", "--seeds", "0"]
        assert main(argv) == 0
        assert "m=1" in capsys.readouterr().out
        # ...but an *explicit* --alphas against the pin still fails loudly
        assert main(argv + ["--alphas", "3.0"]) == 2
        assert "pinned" in capsys.readouterr().err

    def test_progress_ticker_on_stderr(self, capsys):
        argv = ["sweep", "poisson", "-n", "4", "--algorithms", "pd",
                "--seeds", "0,1", "--progress"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err and "pd" in err

    LPT_BASE = [
        "sweep", "poisson", "-n", "5", "--alphas", "3.0", "--ms", "1",
        "--algorithms", "pd,oa", "--seeds", "0,1",
    ]

    def _parent_lpt_shards(self, tmp_path, owned, assignments):
        """Shard files in the format older builds wrote for
        ``--shard-strategy lpt``: a non-round-robin split carried by
        ``positions``, stamped with an assignment fingerprint. Returns
        the paths plus the unsharded cells JSON path."""
        full = str(tmp_path / "full.json")
        assert main(self.LPT_BASE + ["--json", full]) == 0
        by_position = {}
        for index in range(2):
            path = str(tmp_path / f"rr{index}.json")
            argv = self.LPT_BASE + ["--shard", f"{index}/2", "--json", path]
            assert main(argv) == 0
            shard = load_json(path)
            by_position.update(zip(shard["positions"], shard["records"]))
        paths = []
        for index, (positions, fingerprint) in enumerate(
            zip(owned, assignments)
        ):
            path = str(tmp_path / f"lpt{index}.json")
            save_json(
                {
                    "schema": 1,
                    "kind": "sweep-shard",
                    "experiment": shard["experiment"],
                    "shard": [index, 2],
                    "strategy": "lpt",
                    "assignment": fingerprint,
                    "total": len(by_position),
                    "positions": positions,
                    "records": [by_position[p] for p in positions],
                },
                path,
            )
            paths.append(path)
        return paths, full

    def test_parent_lpt_shard_files_merge_byte_identical(self, tmp_path, capsys):
        shards, full = self._parent_lpt_shards(
            tmp_path, [[3, 0, 1], [2]], ["same", "same"]
        )
        merged = str(tmp_path / "merged.json")
        assert main(["sweep", "--merge", *shards, "--json", merged]) == 0
        capsys.readouterr()
        with open(full) as f_full, open(merged) as f_merged:
            assert f_full.read() == f_merged.read()

    def test_lpt_strategy_rejected_by_argparse(self, tmp_path, capsys):
        argv = self.LPT_BASE + [
            "--shard", "0/2", "--shard-strategy", "lpt",
            "--json", str(tmp_path / "s.json"),
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'lpt'" in capsys.readouterr().err

    def test_shard_index_validated(self, capsys):
        assert main([
            "sweep", "poisson", "--shard", "2/2", "--json", "x.json",
        ]) == 2
        assert "0 <= I < K" in capsys.readouterr().err

    def test_merge_diagnoses_divergent_lpt_assignments(self, tmp_path, capsys):
        """LPT shards an older build cut against a *live* shared cache
        disagree on the split (earlier shards wrote timings that changed
        later shards' cost vectors, so positions overlap); --merge must
        say so, not interleave garbage."""
        shards, _ = self._parent_lpt_shards(
            tmp_path, [[0, 1, 3], [1, 2]], ["split-a", "split-b"]
        )
        capsys.readouterr()
        assert main(["sweep", "--merge", *shards]) == 2
        assert "different shard assignments" in capsys.readouterr().err
