"""Self-test of the benchmark's correctness checks.

Run from the repository root:

    python3 bench/selftest.py

It runs one small round of each workload and confirms that every
operation passes its checks.  Then, for each kind of output, it spoils
one output and confirms that the checks count exactly the operation
that produced it as failed.  Exits 0 when every case behaves, 1 if not.
"""

import sys

from run import ROOT, load_program


def cases():
    from e2_horns import CORRUPTIONS as HORN_KINDS
    from e2_horns import E2Horns
    from e2_twist import CORRUPTIONS as TWIST_KINDS
    from e2_twist import E2Twist
    from linf_cli import CORRUPTIONS as CLI_KINDS
    from linf_cli import LinfCli

    return [
        (E2Twist(ROOT, 1, inputs=1), TWIST_KINDS),
        (E2Horns(ROOT, 1, dims=(1, 2), per_dim=1), HORN_KINDS),
        (LinfCli(ROOT, 1), CLI_KINDS),
    ]


def run_case(w, kinds):
    ok = True
    w.setup()
    try:
        problems = w.prepare()
        records = w.produce()
        w.check(records)
        clean = [rec["label"] for rec in records if rec["failure"]]
        if problems or clean:
            print(f"FAIL {w.name}: clean round reports {problems + clean}")
            return False
        for kind in kinds:
            spoiled = [dict(rec) for rec in records]
            index = w.corrupt(spoiled, kind)
            w.check(spoiled)
            failed = [i for i, rec in enumerate(spoiled) if rec["failure"]]
            good = failed == [index]
            ok = ok and good
            reason = spoiled[index]["failure"]
            print(f"{'pass' if good else 'FAIL'} {w.name}: corrupted {kind} -> "
                  f"failed operations {failed} ({reason})")
    finally:
        close = getattr(w, "close", None)
        if close is not None:
            close()
    return ok


def main():
    load_program()
    ok = all([run_case(w, kinds) for w, kinds in cases()])
    print("self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
