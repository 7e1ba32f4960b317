"""Per-layer tracing of the ``aml`` package from outside it.

`Tracer.install` wraps the package's public functions by rebinding every
``aml.*`` module attribute that refers to one of them (``aml.proof.consequence``
and ``aml.cli.consequence`` are separate bindings of one function), and
`Tracer.restore` puts every original binding back.

Coarse boundaries keep one span per call, with the span that caused it and
the op id.  Hot boundaries keep only per-op aggregates: calls and self time
(a call's duration minus the time spent in wrapped calls below it), plus a
few outcome counts.  Count-only boundaries are too hot to time and record
calls alone.  A call that re-enters a boundary it is already inside
(``free_vars`` and ``subst_free`` recurse through their public names) is
part of the outer call.  Everything stays in memory until `write`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from aml.syntax import Mu, SVar

COARSE = (
    "cli.main",
    "proof.audit_soundness",
    "semantics.consequence",
    "proof.check_proof",
)
HOT = (
    "semantics.evaluate",
    "semantics.models",
    "semantics.satisfies",
    "semantics.is_tautology",
    "syntax.parse_core",
    "syntax.render_core",
    "syntax.free_vars",
    "syntax.occurrence_kinds",
    "syntax.is_positive_in",
    "sugar.parse_sugar",
    "sugar.render_sugar",
    "substitution.subst_free",
    "substitution.is_free_for",
    "substitution.subst_capture_avoiding",
    "context.match_singleton",
    "proof.parse_proof",
    "proof.check_axiom",
    "proof.check_rule",
    "proof.derived_taut_equiv",
)
# Generators: a span covers the time spent producing their items.
COARSE_GENERATORS = ("model.enumerate_structures",)
COUNT_ONLY = ("model.subsets_of", "model.apply_sets", "semantics.fv_assignments")

EVAL_CLASSES = ("fixpoint", "falsum", "plain")


def pattern_class(p) -> str:
    """``fixpoint`` if ``p`` holds a ``mu`` other than ``mu X . X``,
    ``falsum`` if its only ``mu`` nodes are ``mu X . X``, else ``plain``."""
    seen_mu = False
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Mu):
            if q.body != SVar(q.var):
                return "fixpoint"
            seen_mu = True
        for child in ("left", "right", "body"):
            sub = getattr(q, child, None)
            if sub is not None:
                todo.append(sub)
    return "falsum" if seen_mu else "plain"


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "aml" or name.startswith("aml.")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.per_op: dict = {}
        self.cur = defaultdict(float)
        self.op_id = None
        self.stack: list[list] = []  # frames: [child seconds, span id or None]
        self.active: set = set()
        self._next_span = 0
        self._bindings: list[tuple] = []
        self._classes: dict = {}

    # -- spans ---------------------------------------------------------------

    def _new_span(self) -> int:
        self._next_span += 1
        return self._next_span

    def _parent(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as op ``op_id``: the root span of its calls."""
        self.op_id = op_id
        self.cur = self.per_op.setdefault(op_id, defaultdict(float))
        sid = self._new_span()
        frame = [0.0, sid]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.cur["op.calls"] += 1
            self.cur["op.self_s"] += t1 - t0 - frame[0]
            self.spans.append((sid, None, op_id, "op", t0, t1, t1 - t0 - frame[0]))

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, coarse, after=None, key_of=None):
        tr = self

        def wrapper(*args, **kwargs):
            if name in tr.active:
                return fn(*args, **kwargs)
            sid = tr._new_span() if coarse else None
            parent = tr._parent() if coarse else None
            frame = [0.0, sid]
            tr.active.add(name)
            tr.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                tr.active.discard(name)
                dur = t1 - t0
                if tr.stack:
                    tr.stack[-1][0] += dur
                key = key_of(args) if key_of else name
                cur = tr.cur
                cur[key + ".calls"] += 1
                cur[key + ".self_s"] += dur - frame[0]
                if coarse:
                    tr.spans.append((sid, parent, tr.op_id, name, t0, t1, dur - frame[0]))
            if after:
                after(tr.cur, result)
            return result

        return wrapper

    def _timed_generator(self, name, fn):
        tr = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            sid, parent, op_id, cur = tr._new_span(), tr._parent(), tr.op_id, tr.cur
            cur[name + ".calls"] += 1

            def steps():
                busy = child = 0.0
                first = last = None
                while True:
                    frame = [0.0, sid]
                    tr.stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        t1 = perf_counter()
                        tr.stack.pop()
                        if tr.stack:
                            tr.stack[-1][0] += t1 - t0
                        busy += t1 - t0
                        child += frame[0]
                        first = t0 if first is None else first
                        last = t1
                    cur[name + ".structures"] += 1
                    yield item
                cur[name + ".self_s"] += busy - child
                tr.spans.append((sid, parent, op_id, name, first, last, busy - child))

            return steps()

        return wrapper

    def _subsets_of(self, fn):
        tr = self

        def wrapper(universe):
            cur = tr.cur
            cur["model.subsets_of.calls"] += 1

            def counted():
                for s in fn(universe):
                    cur["model.subsets_of.subsets"] += 1
                    yield s

            return counted()

        return wrapper

    def _apply_sets(self, fn):
        tr = self

        def wrapper(structure, left, right):
            tr.cur["model.apply_sets.calls"] += 1
            return fn(structure, left, right)

        return wrapper

    def _fv_assignments(self, fn):
        tr = self

        def wrapper(structure, patterns):
            cur = tr.cur
            cur["semantics.fv_assignments.calls"] += 1

            def counted():
                for v in fn(structure, patterns):
                    cur["semantics.fv_assignments.valuations"] += 1
                    yield v

            return counted()

        return wrapper

    def _wrappers(self):
        classes = self._classes

        def eval_key(args):
            p = args[2]
            hit = classes.get(id(p))
            if hit is None:
                # Keep the pattern alive so its id is not reused.
                hit = classes[id(p)] = (p, pattern_class(p))
            return "semantics.evaluate." + hit[1]

        def count_true(name):
            def after(cur, result):
                if result:
                    cur[name + ".true"] += 1

            return after

        def add(name, field, attr):
            def after(cur, result):
                cur[name + "." + field] += getattr(result, attr)

            return after

        after = {
            "semantics.models": count_true("semantics.models"),
            "semantics.satisfies": count_true("semantics.satisfies"),
            "semantics.consequence": add("semantics.consequence", "structures", "structures_checked"),
            "proof.audit_soundness": add("proof.audit_soundness", "lines_audited", "lines_audited"),
        }
        made = {}
        for name in COARSE + HOT:
            made[name] = lambda fn, name=name: self._timed(
                name,
                fn,
                name in COARSE,
                after.get(name),
                eval_key if name == "semantics.evaluate" else None,
            )
        for name in COARSE_GENERATORS:
            made[name] = lambda fn, name=name: self._timed_generator(name, fn)
        made["model.subsets_of"] = self._subsets_of
        made["model.apply_sets"] = self._apply_sets
        made["semantics.fv_assignments"] = self._fv_assignments
        return made

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every ``aml.*`` reference to a traced function."""
        modules = _modules()
        by_name = {m.__name__: m for m in modules}
        for name, make in self._wrappers().items():
            module_name, attr = name.rsplit(".", 1)
            original = getattr(by_name["aml." + module_name], attr)
            wrapped = make(original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._bindings.append((m, key, original))
                        setattr(m, key, wrapped)

    def restore(self) -> None:
        for m, key, original in reversed(self._bindings):
            setattr(m, key, original)
        self._bindings.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        out = defaultdict(float)
        for agg in self.per_op.values():
            for key, val in agg.items():
                out[key] += val
        return out

    def write(self, path) -> None:
        doc = {
            "spans": [
                dict(zip(("id", "parent", "op", "name", "start", "end", "self_s"), s))
                for s in self.spans
            ],
            "per_op": {str(op): dict(agg) for op, agg in self.per_op.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
