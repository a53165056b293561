"""Record the expected outputs of every pooled PD instance.

Writes ``perfbench/expected.json``: per workload and instance seed, the
cost and accepted count (and, for pd-settled, the lost value) that every
benchmark run checks its outputs against within the tolerances of
``manifest.json``. Re-record only when a change is meant to alter
results, and say so in the change. Run from the repository root::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def record_pd_refining(workload) -> dict:
    out = {}
    for key in range(workload.cfg["pool"]):
        result = workload.run(workload.setup(key)).output
        out[str(key)] = {"cost": result["cost"], "accepted": result["accepted"]}
        print(f"pd-refining {key}: {out[str(key)]}", flush=True)
    return out


def record_pd_settled(workload) -> dict:
    from tracing import Tracer, installed

    out = {}
    for key in range(workload.cfg["pool"]):
        arrays = workload.setup(key)
        tracer = Tracer()
        with installed(tracer):
            result = workload.run(arrays).output
        out[str(key)] = {
            "cost": result["cost"],
            "lost_value": result["lost_value"],
            "accepted": int(tracer.counters.get("pd.accepted", 0)),
        }
        print(f"pd-settled {key}: {out[str(key)]}", flush=True)
    return out


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    manifest = json.loads((HERE / "manifest.json").read_text())
    cfgs, tol = manifest["workloads"], manifest["tolerances"]
    expected = {
        "pd-refining": record_pd_refining(
            workloads.PDRefining(cfgs["pd-refining"], {}, tol, 0)
        ),
        "pd-settled": record_pd_settled(
            workloads.PDSettled(cfgs["pd-settled"], {}, tol, 0)
        ),
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
