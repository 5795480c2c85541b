"""conssent benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload toy-R1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

A single workload runs in this process with one BLAS thread (pinned here,
before numpy is imported, and read back through OpenBLAS). It prints its
metrics by name and unit, a ``report`` line with the environment, input
properties and check results, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones; both lists, with
units, come from BENCHMARK.json at the repository root. The exit code is
0 only when every output check passed.

``--workload all`` runs every workload in fresh processes: untraced twice,
with different hash seeds, failing unless both runs of a workload produced
the same outputs (``outputs_digest``); traced once.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("toy-R1", "long-C2", "long-probe")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import conssent from this checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import conssent
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import conssent from {src}: {exc}")
    if Path(conssent.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: conssent imported from {conssent.__file__}, not {src}")


def run_one(args, spec) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
    _import_package()
    import envinfo
    import tracing
    import workloads
    from conssent.errors import DataError, NumericError

    env = envinfo.environment(ROOT)
    w = workloads.WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    run = tracing.run_traced if args.trace else workloads.run_untraced
    tally = workloads.Tally()
    try:
        checks, values, report = run(w, args.seed, args.seconds, SCRATCH, tally)
    except (DataError, NumericError) as exc:
        # counted, and the run still reports; its metrics are missing
        tally.attempted += 1
        tally.fail(type(exc).__name__)
        checks, values, report = {"completed": False}, None, {}
    env["loadavg_end"] = list(os.getloadavg())
    checks["blas_pinned"] = envinfo.blas_pinned(env)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = values or {}
    missing = [m["name"] for m in declared if m["name"] not in values]
    checks["all_metrics_measured"] = not missing
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared if m["name"] in values
    }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    correct = all(checks.values())
    print("report " + json.dumps({
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "checks": checks, "missing": missing,
        "errors": dict(tally.errors), **report,
    }, sort_keys=True, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in fresh processes. Untraced, each runs twice with
    different hash seeds and both runs must give the same outputs."""
    ok = True
    repeats = ("1",) if args.trace else ("1", "2")
    for name in WORKLOAD_NAMES:
        digests = []
        for hash_seed in repeats:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            lines = proc.stdout.splitlines()
            for line in lines:
                if not line.startswith("report "):
                    print(line)
            report = next((json.loads(l[7:]) for l in lines if l.startswith("report ")), {})
            digests.append(report.get("outputs_digest"))
            if proc.returncode != 0:
                ok = False
                print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        if len(digests) == 2:
            same = digests[0] is not None and digests[0] == digests[1]
            print(f"{name}: two runs in fresh processes {'agree' if same else 'DIFFER'}")
            ok = ok and same
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
