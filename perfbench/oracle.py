"""Independent reference checks for the benchmark's outputs.

Nothing here imports ``aml.semantics``, ``aml.substitution`` or the parsers:
patterns are read through their node classes only, so a fault in the
library's evaluator, skeleton, variable or polarity code cannot hide itself
by agreeing with its own copy.  The evaluator follows the definitions
directly, on frozensets: ``mu`` is the intersection of every subset the
body maps into itself.
"""

from __future__ import annotations

import itertools

from aml.syntax import Appl, Const, EVar, Exists, Imp, Mu, SVar


def all_subsets(universe):
    return [
        frozenset(c)
        for r in range(len(universe) + 1)
        for c in itertools.combinations(universe, r)
    ]


def value(s, elems, sets, p):
    """Denotation of ``p`` in structure ``s`` with element and set
    assignments ``elems``/``sets`` (dicts; defaults as in the library)."""
    if isinstance(p, EVar):
        return frozenset((elems.get(p.index, s.universe[0]),))
    if isinstance(p, SVar):
        return sets.get(p.index, frozenset())
    if isinstance(p, Const):
        return s.constants[p.name]
    if isinstance(p, Appl):
        left = value(s, elems, sets, p.left)
        right = value(s, elems, sets, p.right)
        out = frozenset()
        for a in left:
            for b in right:
                out |= s.app.get((a, b), frozenset())
        return out
    if isinstance(p, Imp):
        return (frozenset(s.universe) - value(s, elems, sets, p.left)) | value(
            s, elems, sets, p.right
        )
    if isinstance(p, Exists):
        out = frozenset()
        for a in s.universe:
            out |= value(s, {**elems, p.var: a}, sets, p.body)
        return out
    out = frozenset(s.universe)
    for b in all_subsets(s.universe):
        if value(s, elems, {**sets, p.var: b}, p.body) <= b:
            out &= b
    return out


def free_vars(p, bound_e=frozenset(), bound_s=frozenset()):
    """Free element and free set variable indices of ``p``."""
    if isinstance(p, EVar):
        return (set() if p.index in bound_e else {p.index}), set()
    if isinstance(p, SVar):
        return set(), (set() if p.index in bound_s else {p.index})
    if isinstance(p, Const):
        return set(), set()
    if isinstance(p, (Appl, Imp)):
        le, ls = free_vars(p.left, bound_e, bound_s)
        re_, rs = free_vars(p.right, bound_e, bound_s)
        return le | re_, ls | rs
    if isinstance(p, Exists):
        return free_vars(p.body, bound_e | {p.var}, bound_s)
    return free_vars(p.body, bound_e, bound_s | {p.var})


def token_count(p):
    if isinstance(p, (EVar, SVar, Const)):
        return 1
    if isinstance(p, (Appl, Imp)):
        return 1 + token_count(p.left) + token_count(p.right)
    return 2 + token_count(p.body)


def positive_in(p, var, negated=False):
    """Every free occurrence of ``X<var>`` sits under an even number of
    implication left operands."""
    if isinstance(p, SVar):
        return p.index != var or not negated
    if isinstance(p, (EVar, Const)):
        return True
    if isinstance(p, Imp):
        return positive_in(p.left, var, not negated) and positive_in(p.right, var, negated)
    if isinstance(p, Appl):
        return positive_in(p.left, var, negated) and positive_in(p.right, var, negated)
    if isinstance(p, Mu) and p.var == var:
        return True
    return positive_in(p.body, var, negated)


def _is_falsum(p):
    return isinstance(p, Mu) and p.body == SVar(p.var)


def tautology(p):
    """Brute-force truth table over the implication skeleton of ``p``."""
    atoms = {}

    def shape(q):
        if _is_falsum(q):
            return False
        if isinstance(q, Imp):
            return (shape(q.left), shape(q.right))
        return atoms.setdefault(q, len(atoms))

    tree = shape(p)

    def truth(node, row):
        if node is False:
            return False
        if isinstance(node, int):
            return row[node]
        return not truth(node[0], row) or truth(node[1], row)

    return all(
        truth(tree, row)
        for row in itertools.product((False, True), repeat=len(atoms))
    )


def valuations(s, patterns):
    """Every assignment of the patterns' free variables in ``s``."""
    evars, svars = set(), set()
    for p in patterns:
        fe, fs = free_vars(p)
        evars |= fe
        svars |= fs
    evars, svars = sorted(evars), sorted(svars)
    subsets = all_subsets(s.universe)
    for es in itertools.product(s.universe, repeat=len(evars)):
        for ss in itertools.product(subsets, repeat=len(svars)):
            yield dict(zip(evars, es)), dict(zip(svars, ss))


def _valid(s, p):
    full = frozenset(s.universe)
    return all(value(s, e, x, p) == full for e, x in valuations(s, [p]))


def counterexample(kind, gamma, s, elems, sets, p):
    """Whether ``(s, elems, sets, p)`` refutes the consequence ``kind``."""
    full = frozenset(s.universe)
    if kind == "global":
        return all(_valid(s, g) for g in gamma) and value(s, elems, sets, p) != full
    if kind == "local":
        return all(value(s, elems, sets, g) == full for g in gamma) and (
            value(s, elems, sets, p) != full
        )
    common = full
    for g in gamma:
        common &= value(s, elems, sets, g)
    return not common <= value(s, elems, sets, p)


def refuted_in(kind, gamma, delta, s):
    """Whether structure ``s`` holds a counterexample to the consequence."""
    if kind == "global":
        if not all(_valid(s, g) for g in gamma):
            return False
        return not all(_valid(s, p) for p in delta)
    return any(
        counterexample(kind, gamma, s, e, x, p)
        for e, x in valuations(s, list(gamma) + list(delta))
        for p in delta
    )
