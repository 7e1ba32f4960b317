"""Time `consequence` in two trees in one process, op by op.

    python3 scripts/ab_consequence.py --parent ../parent-checkout
    python3 scripts/ab_consequence.py --parent ../parent-checkout --seed 3 --rounds 15

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


def load(tree: Path, seed: int):
    """The consequence-mix workload of ``tree`` at ``seed``, built by that
    tree's own ``aml`` and ``perfbench`` modules, which it keeps alive; they
    leave ``sys.modules`` and ``sys.path`` as they found them."""
    for mod in [m for m in sys.modules if _ours(m)]:
        del sys.modules[mod]
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    try:
        workloads = importlib.import_module("workloads")
        wl = workloads.ConsequenceMix(tree, seed)
        if tree / "src" not in Path(sys.modules["aml"].__file__).resolve().parents:
            raise SystemExit(f"aml was imported from outside {tree / 'src'}")
    finally:
        del sys.path[:2]
        for mod in [m for m in sys.modules if _ours(m)]:
            del sys.modules[mod]
    return wl


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the other tree's root")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sides = {"parent": load(args.parent.resolve(), args.seed), "change": load(ROOT, args.seed)}
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
