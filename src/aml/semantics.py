"""Pattern semantics over finite structures, tautology and consequence checks.

Evaluation maps a pattern to the subset of the universe it stands for, given
a structure and a valuation.  Implication is relative complement, the
existential is a union over all reassignments of its variable, and ``mu`` is
the intersection of all closed sets of the induced operator.

One evaluator, `_ev`, serves every entry point, and it evaluates a *lane
block*: structures of one universe size n and one set of constant names,
side by side in big integers.  This is bit slicing (Biham, "A Fast New DES
Implementation in Software", FSE 1997) over the broadword masks of Knuth,
TAOCP Vol. 4A, 7.1.3.  Structure k of a block holds bits [k*n, k*n + n) of
every value, element i of its universe being bit k*n + i.  A cell or a
constant is the concatenation of the lanes' masks; ``rep`` has bit 0 of
every lane set, so element i is ``rep << i`` in every lane and a subset b
of the lane universe is ``b * rep``.  Implication, ``full ^ left | right``,
and Kleene iteration then act on every lane at once.  Application spreads
each lane's bit i of the left value and bit j of the right one over the
lane and keeps cell (i, j) where both are set.  A ``mu`` whose body is not
positive keeps b in each lane where the body's value minus b is empty.
A `Structure` is the one-lane block (``rep`` is 1, nothing is packed), so
`evaluate`, `satisfies`, `models`, `is_predicate` and `eval_definedness`
read it directly, naming elements only on the way in and out.

*Valuation lanes.*  `consequence` slices a block of L lanes a second
time, along the assignments of the query's free variables: this is
pattern-parallel simulation (Waicukauski et al., "Fault Simulation for
Structured VLSI", VLSI Systems Design 1985).  The block's *wide* form holds
V copies of it side by side, copy a at bits [a*L*n, (a+1)*L*n), a
following the assignments' order.  A packed value is replicated into every
copy by shifting and OR-ing, which doubles the copies each step.  An
element variable is a vector holding assignment a's singleton in every
lane of copy a, a set variable one holding assignment a's subset there.
One evaluation of a pattern over the wide form then decides every
assignment in every lane.  The first failing structure is the lowest lane
of the union (OR-fold) of the copies of the failures; its first failing
assignment is the lowest copy with a failure in that lane.  The
assignments are cut into chunks of at most ``_WIDE_BITS`` bits of wide
form, decided in order.

A ``mu`` whose body is positive in its variable (checked once per ``mu``
node per call) is evaluated by Kleene iteration from the empty set: a
positive body is monotone, even through nested ``mu`` that are not positive,
so the iteration reaches the least fixpoint, which is that intersection,
within |A| + 1 steps.  Any other body gets the intersection itself, over all
2^|A| subsets.  The canonical falsum ``mu X . X`` is the empty set at once.

Consequence comes in three strengths and is always decided relative to an
explicit suite of finite structures, so a "holds" verdict is an
under-approximation of validity; counterexamples, on the other hand, are
definitive and replayable.  The suite is decided block by block over its
layout, which does not depend on the query.  One function decides every
block for all three relations, over its assignments in chunks: the copies of
its wide form for a block of several lanes, one assignment at a time for a
block of one lane, a `Structure`.  A miss in a block's first lane under a
chunk's first assignment is the first counterexample there can be, and ends
the decision at once.  The suite's first structure is a block alone, so a
refutation there, the commonest end of a random query, costs little more
than evaluating the query there.  Every other run of structures of one
size and one set of constant names is one block, the first run from its
second structure: deciding a block costs about as much whatever its lane
count, so a holding sweep pays per block.  It goes one assignment at a time
only on the first structure and on runs of a single structure.  A block
reports its lowest failing lane with that lane's first counterexample,
which is the first in suite order.  All three relations are invariant
under renaming the universe, so a structure whose ``twin`` (see `model`)
got a lane earlier gets none, though it still counts in
``structures_checked``.  A suite is laid out once, every block packed,
and the layout never changes after that.  A block is packed from its lanes'
masks in columns, one per application cell and one per constant, which come
from one of two sources.  A generated `model.Suite` gives them from its
structures' positions and drawn masks, its twins skipped by position, so
that no structure is built but the one-lane blocks' and a counterexample's;
the suite owns its layout, made on its first decision.  Any other suite is
read whole and its structures transposed; `consequence` keeps the last such
layout in a single slot, which threads share, and reuses it for the next
list or tuple that holds the same structure objects, checked by identity as
far as the decision goes, so that many queries of one suite pack it once.
The slot keeps the last list's structures alive.  Packed blocks never
change.  Each caches its wide forms and variable vectors, keyed by the
numbers of free element and set variables, on itself; the cache only adds
values that depend on the block and those counts alone, and each query maps
them to its own variable indices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, is_, itemgetter
from typing import Iterable, Iterator, Sequence

from . import sugar
from .model import Structure, Suite, Valuation
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


def _ev(p: Pattern, s, ev: dict, sv: dict, pos: dict) -> int:
    """The mask denoted by ``p`` in every lane of the block ``s``, a
    `Structure` or a `_Block`.  Binders rebind ``ev``/``sv`` in place and
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
        # Otherwise: the intersection of all closed sets, lane by lane.
        acc = s.full
        for b in s.subset_masks:
            sv[var] = b
            acc &= b | s.lanes(_ev(body, s, ev, sv, pos) & ~b)
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
    """Every assignment of the given free variables over the structure
    ``s``, in mask form: the ``ev`` and ``sv`` of the chunks of one copy
    that `_chunks` gives a `Structure`, in that order."""
    return ((ev, sv) for _, _, ev, sv, _ in _chunks(s, free))


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
# truth table decides.  One walk writes the skeleton as a postfix program,
# and a stack loop runs it over all rows at once: bit r of a value is its
# truth in row r, atom i is true in the rows whose index has bit i set, and
# implication is ``full ^ left | right``, as in `_ev`.
# The acceptance suite cross-checks this against brute force over one- and
# two-element powerset algebras.


def is_tautology(p: Pattern, max_atoms: int = MAX_SKELETON_ATOMS) -> bool:
    """The skeleton over maximal non-implication subpatterns (equal ones
    share a column) is a tautology; any ``mu X . X`` is falsum."""
    atoms: dict[Pattern, int] = {}
    program: list = []  # postfix: atom indices, -1 for falsum, None for imp

    def name(q: Pattern) -> None:
        if type(q) is Imp:
            name(q.left)
            name(q.right)
            program.append(None)
        elif type(q) is Mu and type(q.body) is SVar and q.body.index == q.var:
            program.append(-1)
        else:
            program.append(atoms.setdefault(q, len(atoms)))

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
    columns.append(0)  # falsum
    stack = []
    for op in program:
        if op is None:
            right = stack.pop()
            stack[-1] = full ^ stack[-1] | right
        else:
            stack.append(columns[op])
    return stack[0] == full


# ---------------------------------------------------------------------------
# Consequence relative to a model suite.


class ConsequenceKind(str, Enum):
    GLOBAL = "global"
    LOCAL = "local"
    STRONG = "strong"


@dataclass(frozen=True, init=False)
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

    def __init__(
        self, holds, kind, structures_checked, structure=None, valuation=None,
        pattern=None, note="", structures_skipped=0,
    ):
        # One store of the whole instance dict instead of the generated
        # frozen __init__'s eight ``object.__setattr__`` calls.
        object.__setattr__(self, "__dict__", {
            "holds": holds, "kind": kind, "structures_checked": structures_checked,
            "structure": structure, "valuation": valuation, "pattern": pattern,
            "note": note, "structures_skipped": structures_skipped,
        })


_NOTES = {
    ConsequenceKind.GLOBAL: "hypotheses are valid here but the conclusion is not",
    ConsequenceKind.LOCAL: "hypotheses are satisfied here but the conclusion is not",
    ConsequenceKind.STRONG: "the conclusion's value does not cover the hypotheses' common value",
}

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

    The suite is decided over its layout (see the module).  A `model.Suite`
    owns its layout: the first call on it makes the layout, later calls
    reuse it, and the slot below is neither read nor written.  Laying any
    other suite out reads it to its end, so an item that is not a
    `Structure` raises there, wherever it sits; a call that reuses the kept
    layout reads the suite only as far as its decision goes.  The layout of
    the last list or tuple laid out is kept in one slot and reused, blocks
    packed, by a call on a list or tuple of the same length holding the
    same structure objects in the same order (identical, not merely equal):
    checked a block at a time, per structure as far as the decision goes,
    and after a sweep, over the structures after the last block.  A block
    of several lanes that holds every constant of the query is decided
    first, then checked up to its refuted structure, or whole if it holds;
    any other block is checked before it is decided.  Where the check
    fails, the suite is laid out afresh, decided from its first structure
    and kept.  Any other iterable gets a layout of its own, which is not
    kept.  A kept layout never changes, so calls in several threads share
    it: its packed blocks never change, and the cache each block keeps of
    its wide forms only adds values that depend on the block and the
    query's variable counts alone.  One function decides every block (see
    the module).  The suite's first structure, a run of a single
    structure, and each lane of a block that lacks a constant of the query
    are decided as blocks of one lane, one assignment at a time.

    The slot keeps the last list or tuple's structures and packed blocks
    alive until the next call on a list or tuple replaces them; it holds a
    copy of the suite, not the list or tuple itself.
    """
    kind = ConsequenceKind(kind)
    gamma = list(gamma)
    delta = list(delta)
    if kind is ConsequenceKind.GLOBAL:
        free = (
            [(g, _free_lists([g])) for g in gamma],
            [(p, _free_lists([p])) for p in delta],
        )
    else:
        free = _free_lists(gamma + delta)
    pos: dict = {}
    # A list or tuple first: that check costs a list far less than the one
    # against the abstract `Sequence` under `Suite`.
    kept = isinstance(suite, (list, tuple))
    if not kept and isinstance(suite, Suite):
        layout = suite.layout
        if layout is None:
            layout = suite.layout = _Layout(suite)
        return _decide(kind, gamma, delta, free, pos, layout, suite)
    layout = _kept[0] if kept and _kept else None
    if layout is not None and len(layout.items) == len(suite):
        verdict = _decide(kind, gamma, delta, free, pos, layout, suite, check=True)
        if verdict is not None:
            return verdict
    layout = _Layout(suite)
    if kept:
        _kept[:] = [layout]
    return _decide(kind, gamma, delta, free, pos, layout, layout.items)


def _decide(kind, gamma, delta, free, pos, layout: _Layout, items: Sequence, check=False):
    """The verdict over ``layout``, whose lanes are the structures of
    ``items`` at their marks.  With ``check``, each block's span of
    ``items``, and the structures after the last block, are checked to be
    the layout's own: None where one is not.  A block of several lanes that
    holds every constant of the query is checked after its decision, up to
    its refuted structure or over its whole span; any other block before."""
    needed = None  # the query's constants, once a block of several lanes asks
    seen = given = 0  # the structures before the block, and the lanes they got
    for packed, marks in layout.blocks:
        end = marks[-1]
        blocks = ((packed, 0),)  # each with its first lane's index in the block
        deferred = False  # whether the span is checked after the decision
        if len(marks) > 1:
            if needed is None:
                needed = _constants(gamma + delta)
            if needed <= packed.masks.keys():
                # Deciding the layout's own lanes raises nothing, so the
                # span is checked only as far as the decision goes.
                deferred = check
            else:
                # A constant of the query is missing: decide each lane alone,
                # so that `UnassignedConstant` is raised exactly where one
                # structure by itself raises it.
                blocks = [(items[mark - 1], k) for k, mark in enumerate(marks)]
        if check and not deferred and not _same(items, layout.items, seen, end):
            return None
        for block, first in blocks:
            found = _failure(kind, block, gamma, delta, free, pos)
            if found:
                k = first + found[0]
                if deferred and not _same(items, layout.items, seen, marks[k]):
                    return None
                return _refutation(kind, found, items, marks[k], given + k)
        if deferred and not _same(items, layout.items, seen, end):
            return None
        seen = end
        given += len(marks)
    end = len(items)
    if check and not _same(items, layout.items, seen, end):
        return None
    return Verdict(True, kind, end, structures_skipped=end - given)


def _same(suite: Sequence, items: list, lo: int, hi: int) -> bool:
    """``suite``, as long as ``items``, holds the structures ``items`` holds
    at positions [lo, hi), the same objects."""
    if hi - lo == 1:  # one structure, as at the suite's start: no slices
        return suite[lo] is items[lo]
    return all(map(is_, suite[lo:hi], items[lo:hi]))


def _refutation(kind, found, items: Sequence, mark: int, given: int) -> Verdict:
    """The verdict on the structure ``items[mark - 1]``, refuted by
    ``found``, its block's first counterexample ``(k, ev, sv, p)`` as
    `_failure` gives it, the ``given`` lanes before its own having held."""
    _, ev, sv, p = found
    structure = items[mark - 1]
    return Verdict(
        False, kind, mark, structure, _valuation(structure, ev, sv), p,
        _NOTES[kind], mark - given - 1,
    )


def _failure(kind, block, gamma, delta, free, pos):
    """The first counterexample in the block ``block``, a `_Block` or a
    `Structure` (the one-lane block): ``(k, ev, sv, p)``, its lowest failing
    lane k with that lane's first counterexample in `_chunks` order,
    the assignment in mask form and the failing conclusion; None if every
    lane holds.  Each pattern is evaluated once per chunk of the assignments
    (see `_chunks`).  A miss in lane 0 of a chunk's first copy is the first
    counterexample there can be, so it is returned at once, the conclusions
    after the first one missing there left unevaluated, as deciding the
    lane's structure alone leaves them.  Once lane k fails, later chunks
    search only the lanes below it."""
    full = block.full
    n, width = len(block.singletons), full.bit_length()
    lane_full = (1 << n) - 1
    if kind is ConsequenceKind.GLOBAL:
        gamma_free, delta_free = free
        live = full  # the lanes where every hypothesis is valid
        for g, f in gamma_free:
            for wide, count, ev, sv, digits in _chunks(block, f):
                miss = wide.full & ~_ev(g, wide, ev, sv, pos)
                if miss:
                    live &= ~block.lanes(_fold(miss, width, count))
                    if not live:
                        return None
        found, limit = None, live
        for p, f in delta_free:
            for wide, count, ev, sv, digits in _chunks(block, f):
                need = wide.full if limit == full else _copies(limit, count, width)
                miss = need & ~_ev(p, wide, ev, sv, pos)
                if miss:
                    if miss & lane_full:
                        if digits is not None:
                            ev, sv = _decoded(f, digits[0])
                        return 0, ev, sv, p
                    k, a = _lowest(miss, block, count)
                    found = (k, *_decoded(f, digits[a]), p)
                    if not k:
                        return found
                    limit = live & (1 << k * n) - 1
        return found
    local = kind is ConsequenceKind.LOCAL
    found, limit = None, full
    for wide, count, ev, sv, digits in _chunks(block, free):
        need = wide.full if limit == full else _copies(limit, count, width)
        for g in gamma:
            value = _ev(g, wide, ev, sv, pos)
            if local:
                # The lanes where every hypothesis is satisfied.
                miss = need & ~value
                if miss:
                    need &= ~wide.lanes(miss)
                    if not need:
                        break
            else:
                need &= value
        else:
            misses = []  # the conclusions that miss somewhere, with their misses
            for p in delta:
                m = need & ~_ev(p, wide, ev, sv, pos)
                if m:
                    if m & lane_full:
                        if digits is not None:
                            ev, sv = _decoded(free, digits[0])
                        return 0, ev, sv, p
                    misses.append((p, m))
            if misses:
                miss = 0
                for _, m in misses:
                    miss |= m
                k, a = _lowest(miss, block, count)
                at = a * width + k * n
                p = next(p for p, m in misses if m >> at & lane_full)
                found = (k, *_decoded(free, digits[a]), p)
                if not k:
                    return found
                limit = full & (1 << k * n) - 1
    return found


def _fold(x: int, width: int, count: int) -> int:
    """The union of the ``count`` copies of ``width`` bits in ``x``, folding
    the upper half of the copies onto the lower half until one is left."""
    while count > 1:
        keep = count - count // 2
        x = x & (1 << keep * width) - 1 | x >> keep * width
        count = keep
    return x


def _lowest(miss: int, block: _Block, count: int) -> tuple[int, int]:
    """``(k, a)``: the lowest lane k of ``block`` with a bit of ``miss`` in
    any of its ``count`` copies in a wide form, and the first copy a with
    one there."""
    n, width = block.n, block.width
    low = _fold(miss, width, count)
    k = ((low & -low).bit_length() - 1) // n
    at = miss >> k * n & _copies(block.lane_full, count, width)
    return k, ((at & -at).bit_length() - 1) // width


def _decoded(free: tuple[list, list], digits: tuple) -> tuple[dict, dict]:
    """The assignment of the given free variables whose digits, element
    variables' first, are ``digits``, in mask form."""
    e_list, s_list = free
    ev = {i: 1 << d for i, d in zip(e_list, digits)}
    return ev, dict(zip(s_list, digits[len(e_list):]))


# The most bits of wide form in one chunk: L * V * n for V assignments over
# a block of L lanes of n bits, or one copy where a copy is wider.  Holding
# sweeps (consequence-mix's, and blocks of 3 to 8 elements under one or two
# set variables) took about as long at 2^13 as at 2^17 bits and 10-70%
# longer at 2^11 (best of 7, alternating in one process; 2 CPUs, Python
# 3.11).  The bound caps every value an evaluation over a wide form makes.
_WIDE_BITS = 1 << 15


def _chunks(block, free: tuple[list, list]) -> Iterator[tuple]:
    """The assignments of the given free variables over ``block`` in
    chunks, ``(wide, count, ev, sv, digits)`` per chunk, in order: element
    variables vary slowest, each over the universe in order, then set
    variables over the subsets in bitmask order.  A `Structure` gets one
    assignment per chunk: one copy, the structure itself, with ``ev`` and
    ``sv`` in mask form and no ``digits``.  A `_Block` gets chunks of at
    most ``_WIDE_BITS`` bits of its wide form.  Copy a of the chunk's
    ``count`` copies of the block holds bits [a*width, (a+1)*width) of
    ``wide``; ``ev`` and ``sv`` hold there the chunk's assignment a, keyed
    to the variables' own indices; ``digits[a]`` is that assignment's value
    per variable, as `_decoded` reads it.  The wide blocks and the vectors
    are made once per block and per count of element and set variables,
    and kept on the block."""
    e_list, s_list = free
    if type(block) is not _Block:
        return (
            (block, 1, dict(zip(e_list, e)), dict(zip(s_list, x)), None)
            for e in itertools.product(block.singletons, repeat=len(e_list))
            for x in itertools.product(block.subset_masks, repeat=len(s_list))
        )
    counts = (len(e_list), len(s_list))
    made = block.wide.get(counts)
    if made is None:
        # setdefault: of two threads making them at once, both keep the first.
        made = block.wide.setdefault(counts, _widen(block, *counts))
    return (
        (wide, count, dict(zip(e_list, e_vectors)), dict(zip(s_list, s_vectors)), digits)
        for wide, count, e_vectors, s_vectors, digits in made
    )


def _widen(block: _Block, elements: int, sets: int) -> list[tuple]:
    """`_chunks`'s chunks for ``elements`` element and ``sets`` set
    variables, with each chunk's vectors in variable order."""
    n = block.n
    assignments = itertools.product(*[range(n)] * elements, *[range(1 << n)] * sets)
    per = max(1, _WIDE_BITS // block.width)
    wides: dict = {}
    made = []
    while digits := list(itertools.islice(assignments, per)):
        count = len(digits)
        wide = wides.get(count)
        if wide is None:
            wide = wides[count] = block.widened(count)
        vectors = [
            _spread([1 << d for d in column] if t < elements else column, block)
            for t, column in enumerate(zip(*digits))
        ]
        made.append((wide, count, vectors[:elements], vectors[elements:], digits))
    return made


def _copies(x: int, count: int, width: int) -> int:
    """``count`` copies of the ``width`` bits ``x`` side by side, copy a at
    bits [a*width, (a+1)*width), by doubling: a multiplication by the
    copies' ones is an order of magnitude slower on wide forms."""
    out, have = x, 1
    while have * 2 <= count:
        out |= out << have * width
        have *= 2
    if have < count:
        out |= (out & (1 << (count - have) * width) - 1) << have * width
    return out


def _spread(masks: Sequence[int], block: _Block) -> int:
    """A vector over ``len(masks)`` copies of ``block``: ``masks[a]`` in
    every lane of copy a.  Spelt out in binary, each copy's lanes the same
    digits repeated."""
    lanes, n = block.width // block.n, block.n
    digits = {m: format(m, f"0{n}b") * lanes for m in set(masks)}
    return int("".join([digits[m] for m in reversed(masks)]), 2)


def _constants(patterns: Iterable[Pattern]) -> set:
    """The names of the constants occurring in ``patterns``, in one walk
    (`syntax.subpatterns` would hash every subpattern on the way)."""
    out, todo = set(), list(patterns)
    while todo:
        p = todo.pop()
        t = type(p)
        if t is Const:
            out.add(p.name)
        elif t is Appl or t is Imp:
            todo += (p.left, p.right)
        elif t is Exists or t is Mu:
            todo.append(p.body)
    return out


_MASKS, _ROWS = attrgetter("masks"), attrgetter("rows")
# Lane masks of up to five bits as base-32 digits, one character each.  This
# packs 10 to 20 times faster than spelling the lanes out in binary, which
# halves consequence-mix throughput when used for every size; `int` reads no
# base above 36, so wider lanes are still spelt out.
_DIGITS = bytes.maketrans(bytes(range(32)), b"0123456789abcdefghijklmnopqrstuv")


def _pack(lanes: tuple, n: int) -> int:
    """The masks of a block's lanes side by side, lane k at bits
    [k*n, k*n + n): read as the digits of one number in base 2^n, the last
    lane first.  Wider lanes are spelt out in binary."""
    if n <= 5:
        return int(bytes(lanes[::-1]).translate(_DIGITS), 1 << n)
    return int("".join([format(m, f"0{n}b") for m in reversed(lanes)]), 2)


class _Block:
    """Structures of one universe size n and one set of constant names,
    packed lane by lane (see the module) from their masks in columns, one
    per application cell, row by row, and one per constant name.  It offers
    what `_ev` reads of a `Structure`: ``full``, ``singletons``,
    ``subset_masks``, ``masks``, ``apply`` and ``lanes``.  A block never
    changes once packed; ``wide`` only gains `_chunks`' wide forms and
    vectors, which depend on the block and the variable counts alone."""

    __slots__ = (
        "n", "rep", "lane_full", "full", "singletons", "masks", "rows", "low", "high",
        "width", "wide",
    )

    def __init__(self, cells: Sequence[Sequence[int]], masks: dict) -> None:
        n = math.isqrt(len(cells))
        self._fill(
            n, _pack((1,) * len(cells[0]), n), [_pack(lanes, n) for lanes in cells],
            {name: _pack(lanes, n) for name, lanes in masks.items()},
        )
        self.width = self.full.bit_length()  # L * n, for L lanes

    def _fill(self, n: int, rep: int, cells: list, masks: dict) -> None:
        self.n = n
        self.rep = rep
        self.rows = [cells[i:i + n] for i in range(0, n * n, n)]
        self.masks = masks
        self.lane_full = (1 << n) - 1
        self.full = rep * self.lane_full
        self.singletons = tuple(rep << i for i in range(n))
        self.low = rep * ((1 << n - 1) - 1)  # every bit of every lane but its top one
        self.high = rep << n - 1  # the top bit of every lane
        self.wide = {}

    @property
    def subset_masks(self) -> Iterator[int]:
        """Every subset b of the lane universe as ``b * rep``, in bitmask
        order, made as iterated: a wide block's would be large to keep."""
        return map(self.rep.__mul__, range(1 << self.n))

    def widened(self, count: int) -> _Block:
        """This block's wide form of ``count`` copies side by side: the
        block of ``count`` * L lanes whose copy a, at bits
        [a*width, (a+1)*width), is this block; ``width`` stays one copy's."""
        if count == 1:
            return self
        width = self.width
        wide = _Block.__new__(_Block)
        wide._fill(
            self.n, _copies(self.rep, count, width),
            [_copies(c, count, width) for row in self.rows for c in row],
            {name: _copies(m, count, width) for name, m in self.masks.items()},
        )
        wide.width = width
        return wide

    def apply(self, left: int, right: int) -> int:
        """Application in every lane: the union of cell (i, j) over the
        lane's bits i of ``left`` and j of ``right``."""
        out = 0
        if left and right:
            rep, lane_full = self.rep, self.lane_full
            spread = [(right >> j & rep) * lane_full for j in range(self.n)]
            for i, row in enumerate(self.rows):
                mine = (left >> i & rep) * lane_full
                if mine:
                    for theirs, cell in zip(spread, row):
                        out |= mine & theirs & cell
        return out

    def lanes(self, x: int) -> int:
        """Every lane in which ``x`` is not empty, filled: adding ``low``
        carries into a lane's top bit exactly when a lower bit is set."""
        low = self.low
        return ((((x & low) + low | x) & self.high) >> self.n - 1) * self.lane_full


class _Layout:
    """A suite laid out in lane blocks as the module describes, whatever the
    query, and never changed: the suite's first structure alone, then each
    run as one block, the first from its second structure.  It holds
    ``items``, a copy of the suite, and ``blocks``, a ``(packed, marks)``
    pair per block in suite order.
    ``packed`` is the block's `_Block`, or its structure if it has one lane;
    a lane's mark counts the suite's structures up to and including it, so
    its structure is ``suite[mark - 1]``.  Packed blocks never change;
    each only adds to its cache of wide forms (`_chunks`) values that
    depend on it and the variable counts alone.  The layout of a `Suite`, which
    the suite owns, has no ``items``: were it to refer back to the suite,
    every dropped suite would wait for the cycle collector."""

    __slots__ = ("items", "blocks")

    def __init__(self, suite: Iterable[Structure]) -> None:
        if isinstance(suite, Suite):
            items, runs, self.items = suite, suite.runs(), None
        else:
            items = self.items = list(suite)
            runs = _runs(items)
        self.blocks: list[tuple] = []
        cut = 1  # the suite's first structure is a block alone
        for marks, cells, masks in runs:
            for lo, hi in ((0, cut), (cut, len(marks))):
                block = marks[lo:hi]
                if len(block) == 1:
                    packed = items[block[0] - 1]
                elif block:
                    packed = _Block(
                        [c[lo:hi] for c in cells], {k: c[lo:hi] for k, c in masks.items()}
                    )
                else:
                    continue
                self.blocks.append((packed, block))
            cut = 0


def _runs(items: list) -> Iterator[tuple]:
    """The runs of a list of structures, as `model.Suite.runs` gives a
    suite's: consecutive structures of one universe size and one set of
    constant names, a structure whose twin got a lane earlier getting none,
    and the lanes' masks in columns, by transposing the structures."""
    decided: set = set()  # ids; ``items`` keeps their structures alive
    runs: list = []  # each run's lanes and their marks
    full = names = None
    for mark, s in enumerate(items, 1):
        if s.twin is not None and id(s.twin) in decided:
            continue
        decided.add(id(s))
        if s.full != full or s.masks.keys() != names:
            full, names = s.full, s.masks.keys()
            lanes, marks = [], []
            runs.append((lanes, marks))
        lanes.append(s)
        marks.append(mark)
    for lanes, marks in runs:
        yield (marks, *_columns(lanes))


def _columns(structures: Sequence[Structure]) -> tuple[list, dict]:
    """The masks of ``structures`` in columns, as `_Block` packs them: one
    per application cell, row by row, and one per constant name."""
    masks = list(map(_MASKS, structures))
    # zip transposes: the rows of every lane, then each cell across lanes.
    cells = [lanes for row in zip(*map(_ROWS, structures)) for lanes in zip(*row)]
    return cells, {name: tuple(map(itemgetter(name), masks)) for name in masks[0]}


# The slot: the layout of the last list or tuple that `consequence`
# decided, if any; it keeps that suite's structures and blocks alive until
# the next such call replaces it (see there).
_kept: list[_Layout] = []


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
