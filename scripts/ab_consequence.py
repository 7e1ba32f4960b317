"""Time `consequence`, or a generated suite, in two trees in one process, op by op.

    python3 scripts/ab_consequence.py --parent ../parent-checkout
    python3 scripts/ab_consequence.py --parent ../parent-checkout --seed 3 --rounds 15
    python3 scripts/ab_consequence.py --parent ../parent-checkout --suite --rounds 21

Loads the ``aml`` package and ``perfbench/workloads.py`` of the other tree
(``--parent``), then of the tree this script belongs to, one after the
other, so that both live in one process, each under its own module objects.
Each tree builds the consequence-mix workload's ops and suite from the same
seed with its own classes.  Every op then runs once per round in each tree,
one right after the other, which goes first alternating from op to op and
from round to round, and an op's time in a tree is its best over the
rounds.  Before timing, each tree's verdict on each op is checked as the
benchmark checks it, and the two trees' verdicts must agree: on holding, on
the refuted structure, its valuation and the failing conclusion.

The table gives, for each group of ops, the median over its ops of each
tree's best time, the change in that median, and on how many of the
group's ops the tree of this script was faster (``wins``; ties count for
neither).  The groups, by the verdict: refutations at the suite's first
structure, one group per kind; refutations at a later structure; and
verdicts that hold.  Timing one process, the pairs are moments apart, so
the host's drift moves both sides alike (Kalibera & Jones, "Rigorous
Benchmarking in Reasonable Time", ISMM 2013).  Nothing under ``perfbench/``
is changed, and no bytecode is written.

With ``--suite``, each tree instead makes fresh `model.Suite` objects from
the specs in SUITES, at ``--seed``: for each spec it times laying a fresh
suite out (`semantics._Layout`, the sample draw included) and listing a
fresh suite whole (``list(suite)``), after one untimed round that fills
the trees' lifetime caches.  In each round each tree runs each op
``REPEAT`` times one right after the other, which tree goes first
alternating from op to op and from round to round; the table gives each
tree's median over the rounds of its mean time per call, the change, and
in how many rounds the tree of this script was faster.  Both trees must
build the same structures and the same runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ours(mod: str) -> bool:
    return mod == "aml" or mod.startswith("aml.") or mod in ("workloads", "oracle")


def load(tree: Path, make):
    """What ``make()`` returns, called with ``tree``'s own ``aml`` and
    ``perfbench`` modules importable, which the result keeps alive; they
    leave ``sys.modules`` and ``sys.path`` as they found them."""
    for mod in [m for m in sys.modules if _ours(m)]:
        del sys.modules[mod]
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    try:
        made = make()
        if tree / "src" not in Path(sys.modules["aml"].__file__).resolve().parents:
            raise SystemExit(f"aml was imported from outside {tree / 'src'}")
    finally:
        del sys.path[:2]
        for mod in [m for m in sys.modules if _ours(m)]:
            del sys.modules[mod]
    return made


def load_workload(tree: Path, seed: int):
    """The consequence-mix workload of ``tree`` at ``seed``, built by that
    tree's own modules."""
    return load(tree, lambda: importlib.import_module("workloads").ConsequenceMix(tree, seed))


def load_aml(tree: Path):
    """``tree``'s own ``aml.model``, ``aml.semantics`` and ``aml.syntax``."""
    return load(tree, lambda: tuple(
        importlib.import_module(f"aml.{name}") for name in ("model", "semantics", "syntax")))


def outcome(q, v) -> tuple:
    """A verdict in terms that compare across trees: holding, the count of
    structures, the refuted structure's valuation and the failing
    conclusion's place among the conclusions."""
    if v.holds:
        return True, v.structures_checked
    valuation = dict(v.valuation.element), dict(v.valuation.sets)
    return False, v.structures_checked, valuation, q.delta.index(v.pattern)


def group(q, v) -> str:
    if v.holds:
        return "holds"
    if v.structures_checked == 1:
        return f"first-structure {q.kind}"
    return "later refutations"


def best_times(sides: dict, rounds: int) -> dict:
    """``{side: [seconds per op]}``: each op's best time over ``rounds``,
    the sides taking turns op by op."""
    names = list(sides)
    count = len(sides[names[0]].ops)
    best = {side: [float("inf")] * count for side in names}
    clock = time.perf_counter
    gc.disable()
    try:
        for r in range(rounds):
            for i in range(count):
                for side in names if (i + r) % 2 == 0 else names[::-1]:
                    wl = sides[side]
                    q = wl.ops[i]
                    t0 = clock()
                    wl.run(q)
                    t = clock() - t0
                    if t < best[side][i]:
                        best[side][i] = t
            gc.collect()
    finally:
        gc.enable()
    return best


# The suites that ``--suite`` times: the corpus-audit workload's (signature
# ``c``, max_size 3, 200 samples) and one of many short sample runs, of up to
# twelve elements.
SUITES = [(("c",), 3, 200), (("c", "d"), 12, 150)]
REPEAT = 5


def suite_ops(model, semantics, syntax, seed: int) -> list:
    """``(name, op)`` per spec in SUITES and per measure: a fresh suite laid
    out, and a fresh suite listed whole."""
    ops = []
    for names, max_size, samples in SUITES:
        spec = model.SuiteSpec(syntax.Signature(names), max_size, seed, samples)
        label = f"{' '.join(names)} max {max_size}, {samples} samples"
        ops.append((f"layout {label}", lambda spec=spec: semantics._Layout(spec.suite())))
        ops.append((f"list {label}", lambda spec=spec: list(spec.suite())))
    return ops


def suite_same(sides: dict, seed: int) -> None:
    """Exits unless both trees build the same structures and runs."""
    for (names, max_size, samples) in SUITES:
        seen = []
        for model, _, syntax in sides.values():
            suite = model.SuiteSpec(syntax.Signature(names), max_size, seed, samples).suite()
            runs = [(list(marks), [list(c) for c in cells], {k: list(c) for k, c in masks.items()})
                    for marks, cells, masks in suite.runs()]
            seen.append((runs, [(s.universe, s.rows, dict(s.masks)) for s in suite]))
        if seen[0] != seen[1]:
            raise SystemExit(f"{names} max {max_size}: the trees' suites differ")


def suite_main(args) -> int:
    sides = {"parent": load_aml(args.parent.resolve()), "change": load_aml(ROOT)}
    suite_same(sides, args.seed)
    ops = {side: suite_ops(*mods, args.seed) for side, mods in sides.items()}
    names = list(sides)
    times = {side: [[] for _ in ops[side]] for side in names}
    clock = time.perf_counter
    gc.disable()
    try:
        for r in range(args.rounds + 1):  # round 0 fills the caches, untimed
            for i in range(len(ops["change"])):
                for side in names if (i + r) % 2 == 0 else names[::-1]:
                    op = ops[side][i][1]
                    t0 = clock()
                    for _ in range(REPEAT):
                        op()
                    if r:
                        times[side][i].append((clock() - t0) / REPEAT)
                gc.collect()
    finally:
        gc.enable()
    print(f"fresh suites, seed {args.seed}, median of {args.rounds} rounds of {REPEAT} calls "
          f"per op (Python {platform.python_version()}, {os.cpu_count()} CPUs)")
    print(f"{'op':<40} {'parent µs':>10} {'change µs':>10} {'change':>8} {'wins':>5}")
    for i, (name, _) in enumerate(ops["change"]):
        parent, change = (statistics.median(times[side][i]) * 1e6 for side in names)
        wins = sum(c < p for p, c in zip(times["parent"][i], times["change"][i]))
        print(f"{name:<40} {parent:>10.1f} {change:>10.1f} "
              f"{100 * (change / parent - 1):>7.1f}% {wins:>5}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the other tree's root")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--suite", action="store_true",
                    help="time fresh suites' layouts and listings instead")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    if args.suite:
        return suite_main(args)
    sides = {"parent": load_workload(args.parent.resolve(), args.seed),
             "change": load_workload(ROOT, args.seed)}
    verdicts = {}
    for side, wl in sides.items():
        verdicts[side] = [wl.run(q) for q in wl.ops]
        wrong = sum(not wl.check(q, v) for q, v in zip(wl.ops, verdicts[side]))
        if wrong:
            raise SystemExit(f"{side}: {wrong} of {len(wl.ops)} verdicts wrong")
    groups: dict = {}
    for i, (q, v) in enumerate(zip(sides["parent"].ops, verdicts["parent"])):
        q2, v2 = sides["change"].ops[i], verdicts["change"][i]
        if outcome(q, v) != outcome(q2, v2):
            raise SystemExit(f"op {i}: the trees' verdicts differ")
        groups.setdefault(group(q, v), []).append(i)
    best = best_times(sides, args.rounds)
    print(f"consequence-mix seed {args.seed}, {len(sides['parent'].ops)} ops, best of "
          f"{args.rounds} rounds per op (Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs)")
    print(f"{'group':<24} {'ops':>4} {'parent µs':>10} {'change µs':>10} {'change':>8} {'wins':>5}")
    for name in sorted(groups, key=lambda g: (g == "holds", g.startswith("later"), g)):
        ops = groups[name]
        parent, change = (statistics.median(best[side][i] for i in ops) * 1e6 for side in sides)
        wins = sum(best["change"][i] < best["parent"][i] for i in ops)
        print(f"{name:<24} {len(ops):>4} {parent:>10.2f} {change:>10.2f} "
              f"{100 * (change / parent - 1):>7.1f}% {wins:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
