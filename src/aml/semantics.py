"""Pattern semantics over finite structures, tautology and consequence checks.

Evaluation maps a pattern to the subset of the universe it stands for, given
a structure and a valuation.  Implication is relative complement, the
existential is a union over all reassignments of its variable, and ``mu`` is
the intersection of all closed sets of the induced operator.  One evaluator
serves every entry point; it works on the structure's own bitmask form
(element i is bit i, a subset is an ``int``) and names elements only on the
way in and out.

A ``mu`` whose body is positive in its variable (checked once per ``mu``
node per call) is evaluated by Kleene iteration from the empty set: a
positive body is monotone, even through nested ``mu`` that are not positive,
so the iteration reaches the least fixpoint, which is that intersection,
within |A| + 1 steps.  Any other body gets the intersection itself, over all
2^|A| subsets.  The canonical falsum ``mu X . X`` is the empty set at once.

Consequence comes in three strengths and is always decided relative to an
explicit suite of finite structures, so a "holds" verdict is an
under-approximation of validity; counterexamples, on the other hand, are
definitive and replayable.  All three are invariant under renaming the
universe, so a structure whose ``twin`` (see `model`) held earlier in the
call is skipped, though still counted in ``structures_checked``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from . import sugar
from .model import Structure, Valuation
from .syntax import (
    Appl,
    Const,
    DEFINEDNESS,
    EVar,
    Exists,
    Imp,
    Mu,
    Pattern,
    SVar,
    free_vars,
    is_positive_in,
)

__all__ = [
    "UnassignedConstant",
    "SkeletonTooLarge",
    "NotADefinednessStructure",
    "MAX_SKELETON_ATOMS",
    "evaluate",
    "satisfies",
    "models",
    "is_predicate",
    "fv_assignments",
    "is_tautology",
    "ConsequenceKind",
    "Verdict",
    "consequence",
    "eval_definedness",
]


class UnassignedConstant(ValueError):
    """The pattern uses a constant the structure does not interpret."""


class SkeletonTooLarge(ValueError):
    """Too many distinct propositional atoms for a truth-table check."""


class NotADefinednessStructure(ValueError):
    """The structure does not interpret ``def``."""


MAX_SKELETON_ATOMS = 20


def evaluate(structure: Structure, valuation: Valuation, p: Pattern) -> frozenset:
    """The subset of the universe denoted by ``p``."""
    ev, sv = _env(structure, valuation)
    return structure.subset(_ev(p, structure, ev, sv, {}))


def _env(s: Structure, valuation: Valuation) -> tuple[dict, dict]:
    """The valuation as masks: element variables to singletons, set
    variables to subsets."""
    ev = {i: s.mask((a,)) for i, a in valuation.element.items()}
    sv = {i: s.mask(b) for i, b in valuation.sets.items()}
    return ev, sv


def _ev(p: Pattern, s: Structure, ev: dict, sv: dict, pos: dict) -> int:
    """The mask denoted by ``p``.  Binders rebind ``ev``/``sv`` in place and
    restore them before returning; ``pos`` caches the positivity of each
    ``Mu`` node's body for the duration of one top-level call."""
    t = type(p)
    if t is Imp:
        left = _ev(p.left, s, ev, sv, pos)
        return (s.full ^ left) | _ev(p.right, s, ev, sv, pos)
    if t is SVar:
        return sv.get(p.index, 0)
    if t is EVar:
        return ev.get(p.index, s.singletons[0])
    if t is Appl:
        left = _ev(p.left, s, ev, sv, pos)
        return s.apply(left, _ev(p.right, s, ev, sv, pos))
    if t is Const:
        try:
            return s.masks[p.name]
        except KeyError:
            raise UnassignedConstant(f"constant {p.name!r} has no denotation") from None
    var, body = p.var, p.body
    if t is Exists:
        old = ev.get(var)
        out = 0
        for bit in s.singletons:
            ev[var] = bit
            out |= _ev(body, s, ev, sv, pos)
        _restore(ev, var, old)
        return out
    if type(body) is SVar and body.index == var:
        # Falsum, under every negation: Kleene would reach 0 too, but only
        # after a positivity check and one more step of evaluation.
        return 0
    positive = pos.get(id(p))
    if positive is None:
        positive = pos[id(p)] = is_positive_in(body, var)
    old = sv.get(var)
    if positive:
        # A positive body is monotone, so iterating from the empty set
        # reaches the least fixpoint within |A| + 1 steps.
        acc = 0
        while True:
            sv[var] = acc
            nxt = _ev(body, s, ev, sv, pos)
            if nxt == acc:
                break
            acc = nxt
    else:
        # Otherwise: the intersection of all closed sets.
        acc = s.full
        for b in range(s.full + 1):
            sv[var] = b
            if not _ev(body, s, ev, sv, pos) & ~b:
                acc &= b
    _restore(sv, var, old)
    return acc


def _restore(env: dict, var: int, old) -> None:
    if old is None:
        del env[var]
    else:
        env[var] = old


def satisfies(structure: Structure, valuation: Valuation, p: Pattern) -> bool:
    """The pattern denotes the whole universe under this valuation."""
    ev, sv = _env(structure, valuation)
    return _ev(p, structure, ev, sv, {}) == structure.full


def fv_assignments(
    structure: Structure, patterns: Iterable[Pattern]
) -> Iterator[Valuation]:
    """Every assignment of the free variables of ``patterns``, in a fixed
    deterministic order.  Variables outside the domain keep their defaults."""
    for ev, sv in _assignments(structure, _free_lists(patterns)):
        yield _valuation(structure, ev, sv)


def _free_lists(patterns: Iterable[Pattern]) -> tuple[list, list]:
    """Sorted free element and set variable indices of ``patterns``."""
    evars: set = set()
    svars: set = set()
    for p in patterns:
        fe, fs = free_vars(p)
        evars |= fe
        svars |= fs
    return sorted(evars), sorted(svars)


def _assignments(s: Structure, free: tuple[list, list]) -> Iterator[tuple[dict, dict]]:
    """Every assignment of the given free variables in mask form: element
    variables vary slowest, each over the universe in order, then set
    variables over the subsets in bitmask order.  The dicts are shared
    between steps, so a caller must copy what it keeps."""
    e_list, s_list = free
    subsets = range(s.full + 1)
    for elems in itertools.product(s.singletons, repeat=len(e_list)):
        ev = dict(zip(e_list, elems))
        for sets in itertools.product(subsets, repeat=len(s_list)):
            yield ev, dict(zip(s_list, sets))


def _valuation(s: Structure, ev: dict, sv: dict) -> Valuation:
    """The name-based valuation of one mask assignment."""
    return Valuation(
        {i: s.element(m) for i, m in ev.items()},
        {i: s.subset(m) for i, m in sv.items()},
    )


def _valid(s: Structure, p: Pattern, free: tuple[list, list], pos: dict) -> bool:
    full = s.full
    return all(_ev(p, s, ev, sv, pos) == full for ev, sv in _assignments(s, free))


def models(structure: Structure, p: Pattern) -> bool:
    """Validity in the structure: satisfied under every assignment of the
    pattern's free variables."""
    return _valid(structure, p, _free_lists([p]), {})


def is_predicate(structure: Structure, p: Pattern) -> bool:
    """The pattern denotes either nothing or everything, under every
    assignment of its free variables."""
    pos: dict = {}
    for ev, sv in _assignments(structure, _free_lists([p])):
        val = _ev(p, structure, ev, sv, pos)
        if val and val != structure.full:
            return False
    return True


# ---------------------------------------------------------------------------
# Tautology checking through the propositional skeleton.
#
# Evaluation sends falsum to the empty set and implication to relative
# complement, so for each single element a of the universe, "a is in the
# value" behaves exactly like a two-valued propositional assignment over the
# maximal non-implication subpatterns.  Conversely a one-element structure
# realises any two-valued assignment (its subsets are just false and true).
# Hence: a pattern denotes everything under every interpretation of its
# atoms if and only if its skeleton is a propositional tautology, which a
# truth table decides.  The table is evaluated over all rows at once: bit r
# of a value is its truth in row r, atom i is true in the rows whose index
# has bit i set, and implication is ``full ^ left | right``, as in `_ev`.
# The acceptance suite cross-checks this against brute force over one- and
# two-element powerset algebras.


def is_tautology(p: Pattern, max_atoms: int = MAX_SKELETON_ATOMS) -> bool:
    """The skeleton over maximal non-implication subpatterns (equal ones
    share a column) is a tautology; any ``mu X . X`` is falsum."""
    atoms: dict[Pattern, int] = {}
    leaves: list = []  # each leaf's atom index, or None for falsum

    def name(q: Pattern) -> None:
        if type(q) is Imp:
            name(q.left)
            name(q.right)
        elif sugar.is_bot_like(q):
            leaves.append(None)
        else:
            leaves.append(atoms.setdefault(q, len(atoms)))

    name(p)
    if len(atoms) > max_atoms:
        raise SkeletonTooLarge(
            f"{len(atoms)} distinct atoms exceed the limit of {max_atoms}"
        )
    rows, columns = 1, []
    for _ in atoms:
        columns = [c | c << rows for c in columns] + [((1 << rows) - 1) << rows]
        rows *= 2
    full = (1 << rows) - 1
    values = iter([0 if i is None else columns[i] for i in leaves])

    def value(q: Pattern) -> int:
        if type(q) is Imp:
            left = value(q.left)
            return full ^ left | value(q.right)
        return next(values)

    return value(p) == full


# ---------------------------------------------------------------------------
# Consequence relative to a model suite.


class ConsequenceKind(str, Enum):
    GLOBAL = "global"
    LOCAL = "local"
    STRONG = "strong"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a consequence check over a suite.

    ``holds`` means no counterexample was found in the suite.  Otherwise the
    structure, valuation and failing conclusion are enough to replay the
    violation with `evaluate`.
    """

    holds: bool
    kind: ConsequenceKind
    structures_checked: int
    structure: Structure | None = None
    valuation: Valuation | None = None
    pattern: Pattern | None = None
    note: str = ""
    structures_skipped: int = 0  # decided through an earlier twin


def consequence(
    kind: ConsequenceKind | str,
    gamma: Iterable[Pattern],
    delta: Iterable[Pattern],
    suite: Iterable[Structure],
) -> Verdict:
    """Decide whether every conclusion follows from ``gamma`` on every
    structure of the suite, in the requested sense.

    Global reads hypotheses as validities of the structure; local reads them
    pointwise per valuation; strong compares denotations by inclusion (with
    an empty ``gamma`` the intersection is the whole universe, so strong
    consequence from nothing is validity).
    """
    kind = ConsequenceKind(kind)
    gamma = list(gamma)
    delta = list(delta)
    pos: dict = {}
    if kind is ConsequenceKind.GLOBAL:
        gamma_free = [_free_lists([g]) for g in gamma]
        delta_free = [_free_lists([p]) for p in delta]
    else:
        free = _free_lists(gamma + delta)
    checked = skipped = 0
    decided: dict[int, Structure] = {}  # by id; holding them keeps ids unique
    for s in suite:
        checked += 1
        if s.twin is not None and id(s.twin) in decided:
            skipped += 1
            continue
        decided[id(s)] = s
        full = s.full
        if kind is ConsequenceKind.GLOBAL:
            if not all(_valid(s, g, f, pos) for g, f in zip(gamma, gamma_free)):
                continue
            for p, f in zip(delta, delta_free):
                for ev, sv in _assignments(s, f):
                    if _ev(p, s, ev, sv, pos) != full:
                        return Verdict(
                            False, kind, checked, s, _valuation(s, ev, sv), p,
                            "hypotheses are valid here but the conclusion is not", skipped,
                        )
        elif kind is ConsequenceKind.LOCAL:
            for ev, sv in _assignments(s, free):
                if not all(_ev(g, s, ev, sv, pos) == full for g in gamma):
                    continue
                for p in delta:
                    if _ev(p, s, ev, sv, pos) != full:
                        return Verdict(
                            False, kind, checked, s, _valuation(s, ev, sv), p,
                            "hypotheses are satisfied here but the conclusion is not", skipped,
                        )
        else:
            for ev, sv in _assignments(s, free):
                common = full
                for g in gamma:
                    common &= _ev(g, s, ev, sv, pos)
                for p in delta:
                    if common & ~_ev(p, s, ev, sv, pos):
                        return Verdict(
                            False, kind, checked, s, _valuation(s, ev, sv), p,
                            "the conclusion's value does not cover the "
                            "hypotheses' common value", skipped,
                        )
    return Verdict(True, kind, checked, structures_skipped=skipped)


# ---------------------------------------------------------------------------
# Definedness operators.


def eval_definedness(
    structure: Structure,
    valuation: Valuation,
    op: str,
    args: Sequence,
) -> frozenset:
    """Evaluate ``ceil``/``floor``/``eq``/``mem`` on a definedness structure.

    The desugared pattern and the two-valued closed form are both computed;
    they provably agree on structures applying ``def`` totally, and the
    check is cheap, so disagreement raises immediately.
    """
    if DEFINEDNESS not in structure.masks:
        raise NotADefinednessStructure("the structure does not interpret 'def'")
    ev, sv = _env(structure, valuation)
    pos: dict = {}

    def value(p: Pattern) -> int:
        return _ev(p, structure, ev, sv, pos)

    full = structure.full
    if op == "ceil":
        (phi,) = args
        desugared = sugar.ceil(phi)
        closed = full if value(phi) else 0
    elif op == "floor":
        (phi,) = args
        desugared = sugar.floor(phi)
        closed = full if value(phi) == full else 0
    elif op == "eq":
        phi, psi = args
        desugared = sugar.eq(phi, psi)
        closed = full if value(phi) == value(psi) else 0
    elif op == "mem":
        var, phi = args
        desugared = sugar.mem(var, phi)
        closed = full if ev.get(var, structure.singletons[0]) & value(phi) else 0
    else:
        raise ValueError(f"unknown definedness operator {op!r}")
    direct = value(desugared)
    if direct != closed:
        raise RuntimeError(
            f"definedness closed form for {op} disagrees with evaluation"
        )
    return structure.subset(direct)
