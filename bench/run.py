"""Benchmark of opmc: one workload per process, stdlib only.

Run from the repository root:

    python3 bench/run.py --workload e2-twist --seed 1 --seconds 20 --trace 0

Workloads: e2-twist, e2-horns, linf-cli (see bench/README.md).  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it sets up once, runs one round under the per-layer tracer and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the same
object, with more detail, is written under bench/out/.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_program():
    """Import opmc from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "opmc" / "__init__.py").is_file():
        sys.exit(f"error: no opmc sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import opmc

    if Path(opmc.__file__).resolve().parent != (src / "opmc").resolve():
        sys.exit(f"error: opmc was imported from {opmc.__file__}, not {src}")


def make_workload(name, seed):
    from e2_horns import E2Horns
    from e2_twist import E2Twist
    from linf_cli import LinfCli

    return {"e2-twist": E2Twist, "e2-horns": E2Horns, "linf-cli": LinfCli}[name](
        ROOT, seed)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("e2-twist", "e2-horns", "linf-cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    load_program()

    import harness

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    w = make_workload(args.workload, args.seed)
    try:
        if args.trace:
            result = harness.run_traced(w, out_dir / f"trace-{tag}.json")
        else:
            result = harness.run_untraced(w, args.seconds)
    finally:
        close = getattr(w, "close", None)
        if close is not None:
            close()
    problems, attempted, failed, metrics, detail = result
    for problem in problems:
        print(f"set-up check failed: {problem}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(summary, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, detail=detail,
                  environment=harness.environment())
    kind = "trace-summary" if args.trace else "result"
    with open(out_dir / f"{kind}-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
