"""Record the benchmark's medians in a trajectory file, BENCH_<n>.json.

    python3 scripts/bench_record.py --out BENCH_10.json --parent ../parent-checkout

Runs `perfbench/run.py`, untraced, once per workload and seed, and traced
(``--trace 1``) once per workload on the first seed, on the checkout this
script belongs to and, with ``--parent``, on a checkout of another commit
(a `git clone` of the parent, say).  Each side runs from a fresh copy of
its checkout's committed files (``git archive HEAD``) in a temporary
directory of its own, so that neither side's untracked files, benchmark
output or ``__pycache__`` move its times.  It writes

    {commit, python, nproc, seeds, seconds, tree: {copy, src_pycache},
     workloads: {name: {metric: median}},
     traced: {name: {counter: value}},
     oneshot: {proof_check_audit_ms: median, consequence_ms: median,
               PYTHONDONTWRITEBYTECODE: value,
               pairs: {key: {median_diff_ms, q1_diff_ms, q3_diff_ms, wins,
                             count}}},
     acceptance: {criterion: seconds}}

where each median is over the seeds and ``traced`` holds the traced run's
per-layer counters: its call and outcome counts, which depend on the seed
alone.  ``tree`` says how the side was copied, and whether its copy's
``src/`` held a ``__pycache__`` when the measuring began and when it
ended.  ``oneshot`` holds wall times of fresh ``python3 -m aml.cli``
processes with the corpus-audit workload's suite options:
``proof_check_audit_ms`` of ``proof check --audit --json``, the median over
the 33 corpus scripts on each seed, and ``consequence_ms`` of
``consequence --json``, the median over the three kinds and the queries in
CONSEQUENCE (one that holds and sweeps the suite under two free variables,
one refuted early) on each seed; each then the median over the seeds,
beside the value of ``PYTHONDONTWRITEBYTECODE`` in the environment (unset:
None), which decides whether every process compiles ``src/`` again.  With
``--parent`` the file also holds the same for that checkout under
``parent``, and each one-shot command runs in the two checkouts one right
after the other, which goes first alternating from command to command:
``oneshot.pairs`` gives per key the median and quartiles over every
command and seed of the change's time minus the parent's, and on how many
of the ``count`` pairs the change was faster (``wins``), since one
process's time varies with the machine far more than from one commit to
the next.
``acceptance`` holds the wall time of each of the nine acceptance criteria
(set-up, call and teardown, to 10 ms) from one ``pytest --durations=0
tests/test_acceptance.py`` run in each checkout.
The two checkouts take turns on each seed, the first to run alternating
from seed to seed, and the table printed at the end gives, per workload and
metric, each side's median and quartiles and on how many seeds the change
won (ties count for neither), so that a claimed gain can be read off it,
then the one-shot times and each criterion's time, and then the traced
counters that differ between the two.  The one-shot processes run after
the workloads, and the acceptance runs take one more turn after them.
Each untraced run takes ``--seconds``; a run that reports wrong outputs
stops the script.
"""

from __future__ import annotations

import argparse
import io
import json
import operator
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus-audit", "consequence-mix", "frontend")
# The direction in which each end-to-end metric improves.
BETTER = {
    m["name"]: m["better"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
# One-shot `aml consequence` queries over the signature `c`: conclusions.
CONSEQUENCE = {"holds.pat": "x0 X0 -> x0 X0", "fails.pat": "c c -> c"}
ONESHOT_KEYS = ("proof_check_audit_ms", "consequence_ms")


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run: its metrics, by name; traced, only its counts."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    ).stdout
    doc = json.loads(out.strip().splitlines()[-1])
    if not doc["correct"]:
        wrong = f"{doc['failed']} of {doc['attempted']} ops wrong"
        raise SystemExit(f"{tree}: {workload} seed {seed}: {wrong}")
    return {name: m["value"] for name, m in doc["metrics"].items()
            if not trace or m["unit"] == "count"}


def src_env(tree: Path) -> dict:
    """The environment with ``tree``'s ``src/`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    return env


def turn(trees: dict, i: int) -> list:
    """The order in which the checkouts run on turn ``i``."""
    return list(trees) if i % 2 == 0 else list(trees)[::-1]


def oneshot(trees: dict, seed: int) -> dict:
    """Wall times, in ms, of fresh processes, ``{side: {key: [ms, ...]}}``:
    under ``proof_check_audit_ms`` one `proof check --audit` per corpus
    script, under ``consequence_ms`` one `consequence` per kind and query.
    Each command runs in every checkout of ``trees``, with that checkout's
    ``src/`` first on the path, one right after the other, and which goes
    first alternates from command to command, so that each command gives a
    pair of times taken moments apart."""
    envs = {side: src_env(tree) for side, tree in trees.items()}
    suite = ["--sig", "corpus/sig.txt", "--max-size", "3", "--samples", "200", "--seed", str(seed)]

    def wall(side: str, argv: list) -> float:
        t0 = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-m", "aml.cli", *argv], cwd=trees[side], env=envs[side],
            stdout=subprocess.DEVNULL,
        ).returncode
        if code not in (0, 1):
            raise SystemExit(f"{trees[side]}: {' '.join(argv)}: exit {code}")
        return (time.perf_counter() - t0) * 1e3

    times = {side: {key: [] for key in ONESHOT_KEYS} for side in trees}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        for name, text in CONSEQUENCE.items():
            (Path(tmp) / name).write_text(text + "\n")
        commands = [("proof_check_audit_ms",
                     ["proof", "check", "--audit", "--json", *suite, "--out", out,
                      str(script.relative_to(ROOT))])
                    for script in sorted((ROOT / "corpus" / "proofs").glob("*/*.prf"))]
        commands += [("consequence_ms",
                      ["consequence", "--json", "--kind", kind, *suite, "--out", out,
                       str(Path(tmp) / name)])
                     for kind in ("global", "local", "strong") for name in CONSEQUENCE]
        for i, (key, argv) in enumerate(commands, seed):
            for side in turn(trees, i):
                times[side][key].append(wall(side, argv))
    return times


def acceptance(tree: Path) -> dict:
    """Each acceptance criterion's wall time, in s, from one pytest run of
    ``tests/test_acceptance.py`` in ``tree``: the set-up, call and teardown
    times that ``--durations=0`` reports, summed."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
         "--durations-min=0", "tests/test_acceptance.py"],
        cwd=tree, env=src_env(tree), capture_output=True, text=True,
    )
    if done.returncode:
        raise SystemExit(f"{tree}: tests/test_acceptance.py fails")
    times: dict = {}
    phases = r"^(\d+\.\d+)s\s+(?:setup|call|teardown)\s+tests/test_acceptance\.py::(\w+)$"
    for seconds, name in re.findall(phases, done.stdout, re.M):
        times[name] = round(times.get(name, 0.0) + float(seconds), 2)
    if not times:
        raise SystemExit(f"{tree}: no criterion times in pytest's --durations report")
    return dict(sorted(times.items()))


def fresh_copy(tree: Path, into: Path) -> None:
    """Extract the files of ``tree``'s HEAD commit into ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", "HEAD"], cwd=tree, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def has_pycache(tree: Path) -> bool:
    return any((tree / "src").rglob("__pycache__"))


def commit(tree: Path) -> str:
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True, check=True,
    ).stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    ap.add_argument("--parent", type=Path, help="a checkout to measure against")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    sources = {"change": ROOT} | ({"parent": args.parent.resolve()} if args.parent else {})
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in sources}
        for side, tree in trees.items():
            fresh_copy(sources[side], tree)
        copies = {side: {"copy": "git archive HEAD",
                         "src_pycache": {"start": has_pycache(trees[side])}}
                  for side in sources}
        doc = measure(args, sources, trees, copies)
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def measure(args, sources: dict, trees: dict, copies: dict) -> dict:
    """Run every measurement on ``trees``, print the comparison table and
    return the document to write."""
    runs: dict = {side: {w: [] for w in WORKLOADS} for side in trees}

    for workload in WORKLOADS:
        for i, seed in enumerate(args.seeds):
            for side in turn(trees, i):
                runs[side][workload].append(run(trees[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side}: done", file=sys.stderr)
    traced = {side: {w: run(tree, w, args.seeds[0], args.seconds, trace=1) for w in WORKLOADS}
              for side, tree in trees.items()}
    shots: dict = {side: [] for side in trees}  # each seed's medians
    pairs: dict = {key: [] for key in ONESHOT_KEYS}  # change minus parent, per command
    for seed in args.seeds:
        times = oneshot(trees, seed)
        for side in trees:
            shots[side].append({key: statistics.median(t) for key, t in times[side].items()})
        if args.parent:
            for key in ONESHOT_KEYS:
                pairs[key] += map(operator.sub, times["change"][key], times["parent"][key])
        print(f"one-shot seed {seed}: done", file=sys.stderr)
    criteria = {side: acceptance(trees[side]) for side in turn(trees, len(args.seeds))}
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
    for side, tree in trees.items():
        copies[side]["src_pycache"]["end"] = has_pycache(tree)

    def medians(side: str) -> dict:
        return {
            w: {m: statistics.median(r[m] for r in rs) for m in rs[0]}
            for w, rs in runs[side].items()
        }

    def oneshots(side: str) -> dict:
        return {**{key: statistics.median(shot[key] for shot in shots[side])
                   for key in ONESHOT_KEYS},
                "PYTHONDONTWRITEBYTECODE": bytecode}

    doc = {
        "commit": commit(sources["change"]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "tree": copies["change"],
        "workloads": medians("change"),
        "traced": traced["change"],
        "oneshot": oneshots("change"),
        "acceptance": criteria["change"],
    }
    if args.parent:
        doc["oneshot"]["pairs"] = {
            key: dict(zip(("q1_diff_ms", "median_diff_ms", "q3_diff_ms"), quartiles(d)),
                      wins=sum(x < 0 for x in d), count=len(d))
            for key, d in pairs.items()
        }
        doc["parent"] = {
            "commit": commit(sources["parent"]),
            "tree": copies["parent"],
            "workloads": medians("parent"),
            "traced": traced["parent"],
            "oneshot": oneshots("parent"),
            "acceptance": criteria["parent"],
        }

    if args.parent:
        head = ("workload", "metric", "parent q1/median/q3", "change q1/median/q3")
        print(f"{head[0]:<16} {head[1]:<18} {head[2]:<32} {head[3]:<32} wins")
        for w in WORKLOADS:
            for m in runs["change"][w][0]:
                old = [r[m] for r in runs["parent"][w]]
                new = [r[m] for r in runs["change"][w]]
                sign = -1 if BETTER.get(m) == "lower" else 1
                wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
                fmt = "/".join(f"{v:.4g}" for v in quartiles(old))
                fmt_new = "/".join(f"{v:.4g}" for v in quartiles(new))
                print(f"{w:<16} {m:<18} {fmt:<32} {fmt_new:<32} {wins}/{len(new)}")
        for key in ONESHOT_KEYS:
            old, new = ([shot[key] for shot in shots[side]] for side in ("parent", "change"))
            wins = sum(b < a for a, b in zip(old, new))
            fmt, fmt_new = ("/".join(f"{v:.4g}" for v in quartiles(x)) for x in (old, new))
            print(f"{'one-shot':<16} {key:<18} {fmt:<32} {fmt_new:<32} {wins}/{len(new)}"
                  f"  (PYTHONDONTWRITEBYTECODE={bytecode})")
        for key, paired in doc["oneshot"]["pairs"].items():
            diffs = "/".join(f"{paired[q]:+.4g}" for q in
                             ("q1_diff_ms", "median_diff_ms", "q3_diff_ms"))
            print(f"{'one-shot pairs':<16} {key:<18} change - parent q1/median/q3 {diffs} ms, "
                  f"{paired['wins']}/{paired['count']} pairs won")
        print("\nacceptance criteria, s: parent -> change")
        for name, seconds in criteria["change"].items():
            print(f"{name:<44} {criteria['parent'].get(name)} -> {seconds}")
        print(f"\ntraced counts that differ, seed {args.seeds[0]}: parent -> change")
        for w in WORKLOADS:
            old, new = traced["parent"][w], traced["change"][w]
            for m in new:
                if old.get(m) != new[m]:
                    print(f"{w:<16} {m:<44} {old.get(m)} -> {new[m]}")
    return doc


if __name__ == "__main__":
    sys.exit(main())
