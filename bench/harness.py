"""Measuring one workload: the untraced run and the traced run."""

import platform
import resource
import sys
from statistics import median
from time import perf_counter

from speed import SAMPLER, Stopwatch
from tracer import Tracer


def _round(w):
    """One pass over the workload's fixed operation list, checked."""
    records = w.produce()
    w.check(records)
    return records


def _tally(records):
    failed = [rec for rec in records if rec["failure"]]
    for rec in failed[:3]:
        print(f"failed {rec['label']}: {rec['failure']}", file=sys.stderr)
    return len(records), len(failed)


def run_untraced(w, seconds):
    """Set up ``setup_repeats`` times, then repeat whole rounds for ``seconds``.

    The speed sampler runs throughout; every time metric is scaled to
    the reference speed (see speed.py), and the wall times go to the
    detail record.
    """
    SAMPLER.start()
    try:
        return _measure(w, seconds)
    finally:
        SAMPLER.stop()


def _measure(w, seconds):
    setups = []
    for _ in range(w.setup_repeats):
        sw = Stopwatch()
        w.setup()
        setups.append(sw.stop())
    problems = w.prepare()
    round_s, op_s, wall_ops = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        records = _round(w)
        a, f = _tally(records)
        attempted += a
        failed += f
        ops = [(rec["label"], rec["seconds"], rec["wall_s"]) for rec in records]
        # drop the outputs before the next round, so that peak memory is
        # that of one round however many rounds fit in the run
        del records
        round_s.append(sum(t for _, t, _ in ops))
        op_s.extend(t for _, t, _ in ops)
        wall_ops.extend(t for _, _, t in ops)
        if perf_counter() - start >= seconds:
            break
    metrics = {
        "setup_s": (median(s for s, _ in setups), "s"),
        "run_s": (median(round_s), "s"),
        "op_p50_s": (median(op_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    times = sorted(t for _, t in SAMPLER.samples)
    detail = {"setups_s": [s for s, _ in setups],
              "setups_wall_s": [t for _, t in setups],
              "rounds_s": round_s, "op_wall_p50_s": median(wall_ops),
              "speed_samples": len(times),
              "sample_p10_p50_p90_s": [times[len(times) // 10], median(times),
                                       times[9 * len(times) // 10]]
              if times else None,
              "last_round_ops": ops}
    return problems, attempted, failed, metrics, detail


def run_traced(w, spans_path):
    """Set up once and run one round under the tracer.

    The same round also runs once untraced, in between, so the run can
    state its own overhead; wrappers are installed only around the
    traced parts.  The checks run untraced unless the workload counts
    them as part of its operations.  A fixed amount of work keeps every
    count exact.
    """
    tracer = Tracer()
    tracer.install()
    try:
        w.setup()
        problems = w.prepare()
    finally:
        tracer.uninstall()
    plain = _round(w)
    tracer.install()
    try:
        records = w.produce()
        if w.checks_in_ops:
            w.check(records)
    finally:
        tracer.uninstall()
    if not w.checks_in_ops:
        w.check(records)
    attempted, failed = _tally(records)
    plain_s = sum(rec["seconds"] for rec in plain)
    traced_s = sum(rec["seconds"] for rec in records)
    metrics = tracer.metrics()
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    tracer.write_spans(spans_path)
    detail = {"untraced_round_s": plain_s, "traced_round_s": traced_s,
              "spans": len(tracer.spans), "spans_dropped": tracer.dropped}
    return problems, attempted, failed, metrics, detail


def environment():
    return {"python": platform.python_version(), "machine": platform.machine(),
            "processor": platform.processor(), "system": platform.platform()}
