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
layout, which does not depend on the query: within a run of structures of
one size and one set of constant names, blocks grow to 1, 8, 64, ... lanes,
so a refutation at the first structure costs what deciding that structure
alone costs.  A block reports its lowest failing lane with that lane's
first counterexample, which is the first in suite order.  All three
relations are invariant under renaming the universe, so a structure whose
``twin`` (see `model`) got a lane earlier gets none, though it still counts
in ``structures_checked``.  A suite is laid out once, every block packed,
and the layout never changes after that.  A block is packed from its lanes'
masks in columns, one per application cell and one per constant, which
come from one of two sources.  A generated `model.Suite` gives them from
its structures' positions and drawn masks, its twins skipped by position,
so that no structure is built but the one-lane blocks' and a
counterexample's; the suite owns its layout, made on its first decision.
Any other suite is read whole and its structures transposed; `consequence`
keeps the last such layout in a single slot, which threads share, and
reuses it for the next list or tuple that holds the same structure objects,
checked by identity as the decision goes, so that many queries of one
suite pack it once.  The slot keeps the last list's structures alive.
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


def _assignments(s, free: tuple[list, list]) -> Iterator[tuple[dict, dict]]:
    """Every assignment of the given free variables in mask form, the same
    in every lane of ``s``: element variables vary slowest, each over the
    universe in order, then set variables over the subsets in bitmask
    order.  One ``ev`` serves every step with the same elements; `_ev`
    restores what it rebinds, so a kept pair still holds its assignment."""
    e_list, s_list = free
    subsets = s.subset_masks
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

# Blocks within one run of same-size structures hold 1, 8, 64, ... lanes.
_BLOCK_GROWTH = 8


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
    checked a block at a time as the decision reaches it, and after a
    sweep, over the structures after the last block.  Where the check
    fails, the suite is laid out afresh, decided from its first structure
    and kept.  Any other
    iterable gets a layout of its own, which is not kept.  A kept layout
    never changes, so calls in several threads share it.

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
    ``items``, and the structures after the last block, are first checked
    to be the layout's own: None where one is not."""
    needed = None  # the query's constants, once a block of several lanes asks
    seen = given = 0  # the structures before the block, and the lanes they got
    for packed, marks in layout.blocks:
        end = marks[-1]
        if check and not _same(items, layout.items, seen, end):
            return None
        if len(marks) > 1 and needed is None:
            needed = _constants(gamma + delta)
        if len(marks) == 1 or needed <= packed.masks.keys():
            found = _first_failure(kind, packed, gamma, delta, free, pos)
            if found:
                return _refutation(kind, found, packed, items, marks, given)
        else:
            # A constant of the query is missing: decide each lane alone,
            # so that `UnassignedConstant` is raised exactly where one
            # structure by itself raises it.
            for k, mark in enumerate(marks):
                s = items[mark - 1]
                found = _first_failure(kind, s, gamma, delta, free, pos)
                if found:
                    return _refutation(kind, found, s, items, (mark,), given + k)
        seen = end
        given += len(marks)
    end = len(items)
    if check and not _same(items, layout.items, seen, end):
        return None
    return Verdict(True, kind, end, structures_skipped=end - given)


def _same(suite: Sequence, items: list, lo: int, hi: int) -> bool:
    """``suite``, as long as ``items``, holds the structures ``items`` holds
    at positions [lo, hi), the same objects."""
    if hi - lo == 1:  # one structure, as at the start of a run: no slices
        return suite[lo] is items[lo]
    return all(map(is_, suite[lo:hi], items[lo:hi]))


def _refutation(kind, found, packed, items: Sequence, marks: Sequence, given: int) -> Verdict:
    """The verdict on the lowest failing lane of the block ``packed``, whose
    lanes are the structures of ``items`` at ``marks``, the ``given`` lanes
    before them having held."""
    low, ev, sv, p = found
    k = 0
    if len(marks) > 1:
        shift = low.bit_length() - 1
        k = shift // packed.n
        full = packed.lane_full
        ev = {i: m >> shift & full for i, m in ev.items()}
        sv = {i: m >> shift & full for i, m in sv.items()}
    structure = items[marks[k] - 1]
    return Verdict(
        False, kind, marks[k], structure, _valuation(structure, ev, sv), p,
        _NOTES[kind], marks[k] - given - k - 1,
    )


def _first_failure(kind, s, gamma, delta, free, pos):
    """The lowest failing lane of the block ``s``, as its lowest bit, with
    that lane's first counterexample in the order one structure meets
    them: ``(low, ev, sv, p)``, the assignment in mask form and the failing
    conclusion; None if every lane holds.  Once a lane fails, only the lanes
    below it are still searched, so the search ends when none is left; in a
    one-lane block, at the first failure."""
    full, lanes = s.full, s.lanes
    found = None
    if kind is ConsequenceKind.GLOBAL:
        gamma_free, delta_free = free
        live = full  # the lanes where every hypothesis is valid
        for g, f in gamma_free:
            for ev, sv in _assignments(s, f):
                miss = live & ~_ev(g, s, ev, sv, pos)
                if miss:
                    live &= ~lanes(miss)
                    if not live:
                        return None
        for p, f in delta_free:
            for ev, sv in _assignments(s, f):
                miss = live & ~_ev(p, s, ev, sv, pos)
                if miss:
                    low = lanes(miss)
                    low &= -low
                    found, live = (low, ev, sv, p), live & low - 1
                    if not live:
                        return found
        return found
    limit = full
    for ev, sv in _assignments(s, free):
        need = limit
        if kind is ConsequenceKind.LOCAL:
            # The lanes where every hypothesis is satisfied.
            for g in gamma:
                miss = need & ~_ev(g, s, ev, sv, pos)
                if miss:
                    need &= ~lanes(miss)
                    if not need:
                        break
            if not need:
                continue
        else:
            # The hypotheses' common value.
            for g in gamma:
                need &= _ev(g, s, ev, sv, pos)
        for p in delta:
            miss = need & ~_ev(p, s, ev, sv, pos)
            if miss:
                low = lanes(miss)
                low &= -low
                found, limit = (low, ev, sv, p), low - 1
                if not limit:
                    return found
                need &= limit
    return found


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
    what `_ev` and `_assignments` read of a `Structure`: ``full``,
    ``singletons``, ``subset_masks``, ``masks``, ``apply`` and ``lanes``."""

    __slots__ = (
        "n", "rep", "lane_full", "full", "singletons", "subset_masks", "masks", "rows",
        "low", "high",
    )

    def __init__(self, cells: Sequence[Sequence[int]], masks: dict) -> None:
        n = math.isqrt(len(cells))
        self.n = n
        self.rep = rep = _pack((1,) * len(cells[0]), n)
        cells = [_pack(lanes, n) for lanes in cells]
        self.rows = [cells[i:i + n] for i in range(0, n * n, n)]
        self.masks = {name: _pack(lanes, n) for name, lanes in masks.items()}
        self.lane_full = (1 << n) - 1
        self.full = rep * self.lane_full
        self.singletons = tuple(rep << i for i in range(n))
        self.subset_masks = [b * rep for b in range(1 << n)]
        self.low = rep * ((1 << n - 1) - 1)  # every bit of every lane but its top one
        self.high = rep << n - 1  # the top bit of every lane

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
    query, and never changed: ``items``, a copy of the suite, and
    ``blocks``, a ``(packed, marks)`` pair per block in suite order.
    ``packed`` is the block's `_Block`, or its structure if it has one lane;
    a lane's mark counts the suite's structures up to and including it, so
    its structure is ``suite[mark - 1]``.  The layout of a `Suite`, which
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
        for marks, cells, masks in runs:
            lo, size = 0, 1
            while lo < len(marks):
                hi = lo + size
                block = marks[lo:hi]
                if len(block) == 1:
                    packed = items[block[0] - 1]
                else:
                    packed = _Block(
                        [c[lo:hi] for c in cells], {k: c[lo:hi] for k, c in masks.items()}
                    )
                self.blocks.append((packed, block))
                lo, size = hi, size * _BLOCK_GROWTH


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
