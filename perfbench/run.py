"""Benchmark of the aml workbench: three seeded workloads, end to end or
traced layer by layer.

    python3 perfbench/run.py --workload corpus-audit --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Load is a closed loop: one caller in one thread, each op starting when the
previous one ends.  A workload's set-up builds a fixed list of ops from the
seed; a pass replays that list from a fresh set-up (fresh imports, so no
pass meets state another pass left behind) and checks every output after
the pass.  An untraced run (``--trace 0``) makes at least two passes, and
more while ``--seconds`` have not passed, and reports the end-to-end
metrics.  A traced run (``--trace 1``) makes three passes: untraced, with
every public library function wrapped, and untraced again.  Its counts
depend on the seed alone; it reports the per-layer metrics and, from the
three passes, the tracing overhead.  The last line of standard output is
one JSON object.

Times are kept at a reference host speed.  On a shared host the same
Python loop runs up to 1.6 times slower for tens of seconds at a time, which
no number of repeats inside a run averages out.  So the run probes the
host's speed between ops with a fixed piece of pure-Python work that
imports nothing from the package (``probe.py``), and scales each op's and
each set-up's measured time by PROBE_REFERENCE over the median probe near
it.  A change to the package moves the scaled times as it moves the
measured ones; a change in the host's speed moves the probe with them and
cancels out.  The table beside the JSON line also gives the measured
set-up time and throughput.

End-to-end metrics, per workload, over the ops of one pass (an op's time is
its median over the passes):

    setup_s           median time of one set-up: import, input reading and
                      generation, suite construction; sampled at every pass
                      and at even intervals between the ops of later passes
    throughput_ops_s  ops per second of op time
    latency_p50_ms    median time per op
    latency_tail_ms   time at the highest percentile that leaves at least
                      ten ops beyond it (the table gives which)
    holds_p50_ms      median time of ops with a positive verdict: consequence
                      holds, script accepted, pattern is a tautology
    fails_p50_ms      the same for negative verdicts
    peak_rss_mb       peak resident memory of this process up to the end
                      of its first pass

``error_rate`` (failed or wrong ops over ops attempted) is printed in the
table and carried by ``failed``/``attempted`` in the JSON line.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402

MIN_PASSES = 2
# Set-up samples an untraced run aims at, spread evenly over its seconds.
SETUP_SAMPLES = 16
TRACE_PASSES = 3
# The host's speed is probed at least this often between ops; an op's time
# is scaled by the probes within PROBE_WINDOW of it to the speed at which a
# probe takes PROBE_REFERENCE seconds.
PROBE_EVERY = 0.05
PROBE_WINDOW = 0.25
PROBE_REFERENCE = 0.003

RATIO_FIELDS = {"semantics.models": "true", "semantics.satisfies": "true"}
COUNT_FIELDS = {
    "semantics.consequence": "structures",
    "proof.audit_soundness": "lines_audited",
    "model.enumerate_structures": "structures",
    "model.subsets_of": "subsets",
    "semantics.fv_assignments": "valuations",
}


class Failed:
    """Output of an op that raised."""


def _ours(mod: str) -> bool:
    return mod == "aml" or mod.startswith("aml.") or mod in ("workloads", "oracle", "tracer")


def fresh_workload(name: str, seed: int):
    """One set-up: import the package and the workload code afresh, then
    build the workload's inputs.  Returns (seconds, workload)."""
    for mod in [m for m in sys.modules if _ours(m)]:
        del sys.modules[mod]
    gc.collect()
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name](ROOT, seed)
    elapsed = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(sys.modules["aml"].__file__).resolve().parents:
        raise ImportError(f"aml was imported from outside {src}")
    return elapsed, wl


def sample_setup(name: str, seed: int) -> float:
    """Time one set-up whose result is dropped, leaving the modules of the
    pass under way in place."""
    saved = {m: mod for m, mod in sys.modules.items() if _ours(m)}
    try:
        return fresh_workload(name, seed)[0]
    finally:
        for mod in [m for m in sys.modules if _ours(m)]:
            del sys.modules[mod]
        sys.modules.update(saved)
        gc.collect()


class Clock:
    """Probes of the host's speed taken through a run, and the scale that
    puts a time measured between them at the reference speed."""

    def __init__(self):
        self.at: list[float] = []  # the middle of each probe
        self.seconds: list[float] = []
        self.last = -math.inf

    def probe(self) -> None:
        t0 = time.perf_counter()
        seconds = probe.probe()
        self.at.append(t0 + seconds / 2)
        self.seconds.append(seconds)
        self.last = t0 + seconds

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY:
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_REFERENCE over the median probe within PROBE_WINDOW of
        [t0, t1], or of the nearest probe on each side if none is."""
        lo = bisect.bisect_left(self.at, t0 - PROBE_WINDOW)
        hi = bisect.bisect_right(self.at, t1 + PROBE_WINDOW)
        near = self.seconds[lo:hi] or self.seconds[max(lo - 1, 0):hi + 1]
        return PROBE_REFERENCE / statistics.median(near)


class Stats:
    """Per-op results over the passes of a run: each op's times and its
    verdict, which must be the same in every pass."""

    def __init__(self):
        self.times: dict[int, list[float]] = {}
        self.verdicts: dict[int, str | None] = {}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, wl, call, clock=None, between=None) -> float:
        """Run every op of ``wl`` through ``call`` timing each, calling
        ``between`` after each op, then check them all.  With a clock, an
        op's time is kept at the reference speed.  Returns the seconds
        spent inside ops, as measured."""
        done = []
        for op in wl.ops:
            t0 = time.perf_counter()
            try:
                out = call(op)
            except Exception:
                out = Failed()
                traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
            done.append((op, out, t0, t1))
            if clock:
                clock.maybe_probe()
            if between:
                between()
        if clock:
            clock.probe()
        for i, (op, out, t0, t1) in enumerate(done):
            self.times.setdefault(i, []).append((t1 - t0) * (clock.scale(t0, t1) if clock else 1))
            self.attempted += 1
            if not isinstance(out, Failed) and self.check(wl, i, op, out):
                continue
            self.failed += 1
            print(f"wrong output: {op!r:.200}", file=sys.stderr)
        return sum(t1 - t0 for _, _, t0, t1 in done)

    def check(self, wl, i, op, out) -> bool:
        try:
            verdict = wl.verdict(op, out)
            return wl.check(op, out) and self.verdicts.setdefault(i, verdict) == verdict
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False

    def per_op(self, verdict=None) -> list[float]:
        """Each op's median time over the passes."""
        return [
            statistics.median(ts) for i, ts in self.times.items()
            if verdict in (None, self.verdicts.get(i))
        ]


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a weighted mean of the
    order statistics, weights from the Beta((n+1)p, (n+1)(1-p))
    distribution of that quantile, here in its normal approximation.
    Unlike a single order statistic it does not jump across a gap in the
    distribution, as between the cheap and the costly corpus scripts."""
    ordered = sorted(values)
    n = len(ordered)
    scale = math.sqrt(2 * p * (1 - p) / (n + 2))

    def cdf(q: float) -> float:
        return 0.5 * (1 + math.erf((q - p) / scale))

    total = cdf(1.0) - cdf(0.0)
    return sum(x * (cdf((i + 1) / n) - cdf(i / n)) for i, x in enumerate(ordered)) / total


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def end_to_end(name: str, seed: int, seconds: float):
    stats = Stats()
    clock = Clock()
    setups: list[tuple[float, float, float]] = []  # (start, end, seconds)
    raw_busy = 0.0
    interval = seconds / SETUP_SAMPLES
    start = time.perf_counter()

    def timed_setup(setup):
        # A probe on each side, so the set-up has its own.
        clock.probe()
        t0 = time.perf_counter()
        result = setup()
        t1 = time.perf_counter()
        clock.probe()
        return t0, t1, result

    def between():
        nonlocal next_sample
        if time.perf_counter() >= next_sample:
            setups.append(timed_setup(lambda: sample_setup(name, seed)))
            next_sample = time.perf_counter() + interval

    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        t0, t1, (setup, wl) = timed_setup(lambda: fresh_workload(name, seed))
        setups.append((t0, t1, setup))
        # The first pass runs alone, so that the peak memory read after it
        # is that of one set-up and one pass.
        raw_busy += stats.run_pass(wl, wl.run, clock, between if passes else None)
        if not passes:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            next_sample = time.perf_counter() + interval
        passes += 1
    per_op = stats.per_op()
    n = len(per_op)
    tail = 100 * (n - 10) // n
    holds, fails = stats.per_op("holds"), stats.per_op("fails")
    metrics = {
        "setup_s": (median([dt * clock.scale(t0, t1) for t0, t1, dt in setups]), "s"),
        "throughput_ops_s": (n / sum(per_op), "ops/s"),
        "latency_p50_ms": (median(per_op) * 1e3, "ms"),
        "latency_tail_ms": (quantile(per_op, tail / 100) * 1e3, "ms"),
        "holds_p50_ms": (median(holds) * 1e3, "ms"),
        "fails_p50_ms": (median(fails) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    speed = statistics.median(clock.seconds)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; measured {median([dt for _, _, dt in setups]):.6g}",
        "throughput_ops_s": f"{n} ops, median time of each over {passes} passes; measured {n * passes / raw_busy:.6g}",
        "latency_tail_ms": f"p{tail}, {n - math.ceil(tail * n / 100)} of {n} ops beyond it",
        "holds_p50_ms": f"{len(holds)} holds verdicts",
        "fails_p50_ms": f"{len(fails)} fails verdicts",
    }
    print(
        f"host speed: {len(clock.seconds)} probes, median {speed * 1e3:.4g} ms; "
        f"times are scaled to a probe of {PROBE_REFERENCE * 1e3:.4g} ms"
    )
    return stats, metrics, notes


def layer_metrics(totals, overhead: float) -> dict:
    import tracer

    out = {}

    def put(key, unit):
        value = totals.get(key, 0.0)
        out[key] = (int(value) if unit == "count" else value, unit)

    for cls in tracer.EVAL_CLASSES:
        put(f"semantics.evaluate.{cls}.calls", "count")
        put(f"semantics.evaluate.{cls}.self_s", "s")
    for field, unit in (("calls", "count"), ("self_s", "s")):
        out[f"semantics.evaluate.{field}"] = (
            sum(out[f"semantics.evaluate.{c}.{field}"][0] for c in tracer.EVAL_CLASSES),
            unit,
        )
    timed = ("op",) + tracer.COARSE + tracer.COARSE_GENERATORS + tracer.HOT
    for name in (n for n in timed if n != "semantics.evaluate"):
        put(name + ".calls", "count")
        put(name + ".self_s", "s")
    for name in tracer.COUNT_ONLY:
        put(name + ".calls", "count")
    for name, field in COUNT_FIELDS.items():
        put(f"{name}.{field}", "count")
    for name, field in RATIO_FIELDS.items():
        calls = totals.get(name + ".calls", 0.0)
        out[f"{name}.{field}_ratio"] = (totals.get(f"{name}.{field}", 0.0) / calls if calls else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def traced(name: str, seed: int):
    # Three passes: untraced, traced, untraced.  Each starts from its own
    # fresh set-up, so none meets caches another has filled and the traced
    # counts depend on the seed alone.  Comparing the traced pass with the
    # untraced passes on both sides of it cancels a steady drift in the
    # host's speed out of the overhead ratio.
    stats = Stats()
    plain_busy = []
    for k in range(TRACE_PASSES):
        _, wl = fresh_workload(name, seed)
        if k != 1:
            plain_busy.append(stats.run_pass(wl, wl.run))
            continue
        import tracer

        tr = tracer.Tracer()
        ids = iter(range(len(wl.ops)))
        tr.install()
        try:
            traced_busy = stats.run_pass(wl, lambda op: tr.run_op(next(ids), wl.run, op))
        finally:
            tr.restore()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"trace-{name}-seed{seed}.json")
    n = len(stats.times)
    plain = sum(plain_busy) / len(plain_busy)
    print(
        f"tracing overhead: {n / traced_busy:.6g} ops/s traced, "
        f"{n / plain:.6g} ops/s untraced, each pass over the same {n} ops"
    )
    metrics = layer_metrics(tr.totals(), traced_busy / plain)
    fixpoints = sum(metrics[f"semantics.evaluate.{c}.self_s"][0] for c in ("fixpoint", "falsum"))
    print(
        f"semantics.evaluate fixpoint and falsum self time: {fixpoints:.6g} s, "
        f"{fixpoints / traced_busy:.3f} of the traced op time"
    )
    return stats, metrics, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus-audit", "consequence-mix", "frontend"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.trace:
        stats, metrics, notes = traced(args.workload, args.seed)
    else:
        stats, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
    attempted = stats.attempted
    print(f"{'error_rate':<44} {stats.failed / attempted:<14.6g} ratio  {stats.failed} of {attempted} ops failed or wrong")
    for key, (value, unit) in metrics.items():
        print(f"{key:<44} {value:<14.6g} {unit:<6} {notes.get(key, '')}")
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
