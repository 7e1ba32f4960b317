"""Independent reference implementations used to cross-check the package.

Everything here is deliberately slow and structured differently from the
code under test: scope boundaries come from re-parsing token slices,
polarity from a recursion over the tree instead of left-operand counting,
tautology from evaluation in genuine powerset structures and from a
row-by-row truth table over a skeleton tree, evaluation and
consequence from the original frozenset evaluator, which meets every ``mu``
with the intersection of all closed sets, the structure stream from the
original frozenset enumeration, and fixpoints of arbitrary set operators by
Knaster-Tarski enumeration, exact-fixpoint enumeration and Kleene iteration,
the sugar tokens by reading one token at a time from the left, and the
frontend walks as first written: the core parser recursing once per token,
the sugar parser descending through one method per precedence level, free
variables as a union of frozensets per node, substitution rebuilding every
node, and the sugar renderer joining its pieces at every node.
"""

from __future__ import annotations

import itertools
import random
import re

from aml.model import ENUMERATION_CAP, Structure, UniverseTooLarge, subsets_of
from aml.sugar import _LVL_BINDER, _TOKEN, _Parser, _lex, _shape, and_, eq, iff, mem, or_
from aml.substitution import VarRef, fresh_variables
from aml.syntax import (
    DEFINEDNESS,
    EVAR_TOKEN,
    MAX_DEPTH,
    SVAR_TOKEN,
    Appl,
    ArityError,
    Const,
    EVar,
    Exists,
    Imp,
    Malformed,
    Mu,
    ParseError,
    Pattern,
    SVar,
    Signature,
    TooDeep,
    UnknownSymbol,
    bound_binder_indices,
    check_depth,
    parse_core,
    tokens,
)


def parse_slice(toks: list[str], sig: Signature) -> Pattern | None:
    """Parse a token list as exactly one pattern, or give back None."""
    try:
        return parse_core(" ".join(toks), sig)
    except ParseError:
        return None


def scope_by_reparse(p: Pattern, i: int, sig: Signature) -> int:
    """Last token position of the binder at ``i``, found by trying every
    candidate end until the body slice parses."""
    toks = list(tokens(p))
    assert toks[i] in ("exists", "mu")
    for j in range(i + 2, len(toks)):
        if parse_slice(toks[i + 2 : j + 1], sig) is not None:
            return j
    raise AssertionError("no parseable body slice")


def binary_split_by_reparse(p: Pattern, i: int, sig: Signature) -> tuple[int, int]:
    """(last token of the first operand, last token of the whole node) for
    the binary node at ``i``, found by trying every slice split."""
    toks = list(tokens(p))
    assert toks[i] in ("appl", "imp")
    for j in range(i + 1, len(toks)):
        if parse_slice(toks[i + 1 : j + 1], sig) is None:
            continue
        for k in range(j + 1, len(toks)):
            if parse_slice(toks[j + 1 : k + 1], sig) is not None:
                return j, k
    raise AssertionError("no parseable operand split")


_WS = re.compile(r"\s*")


def lex_sequential(text: str) -> list[str]:
    """The sugar tokens of ``text``, read one at a time: skip whitespace,
    then take the token that starts there, or raise `Malformed` naming the
    column where none does."""
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        pos = _WS.match(text, pos).end()
        if pos >= n:
            break
        m = _TOKEN.match(text, pos)
        if not m:
            raise Malformed(f"cannot read input at column {pos + 1}: {text[pos:pos + 10]!r}")
        out.append(m.group(0))
        pos = m.end()
    return out


class _Descent(_Parser):
    """The sugar grammar as first written: one method per precedence level,
    loosest first, each calling the next tighter one for its operands."""

    def pattern(self) -> Pattern:
        left = self.imp()
        if self.toks[self.pos] == "<->":
            self.take()
            return iff(left, self.imp())
        return left

    def imp(self) -> Pattern:
        operands = [self.or_()]
        while self.toks[self.pos] == "->":
            self.take()
            operands.append(self.or_())
        acc = operands.pop()
        while operands:
            acc = Imp(operands.pop(), acc)
        return acc

    def or_(self) -> Pattern:
        acc = self.and_()
        while self.toks[self.pos] == "\\/":
            self.take()
            acc = or_(acc, self.and_())
        return acc

    def and_(self) -> Pattern:
        acc = self.eq()
        while self.toks[self.pos] == "/\\":
            self.take()
            acc = and_(acc, self.eq())
        return acc

    def eq(self) -> Pattern:
        left = self.mem()
        if self.toks[self.pos] == "=":
            self.take()
            self._need_def("=")
            return eq(left, self.mem())
        return left

    def mem(self) -> Pattern:
        left = self.neg()
        if self.toks[self.pos] == "in":
            self.take()
            if not isinstance(left, EVar):
                raise Malformed("left operand of 'in' must be an element variable")
            self._need_def("in")
            return mem(left.index, self.neg())
        return left


def parse_sugar_descent(text: str, sig: Signature, allow_hole: bool = False) -> Pattern:
    """`aml.sugar.parse_sugar` over the eight-method descent: `pattern`,
    `imp`, `or_`, `and_`, `eq` and `mem` here, `neg`, `app` and the atoms
    from the package's parser."""
    toks = _lex(text)
    if not toks:
        raise Malformed("empty input")
    parser = _Descent(toks, sig, allow_hole)
    p = parser.pattern()
    if parser.pos != len(toks):
        raise Malformed(
            f"pattern complete but {len(toks) - parser.pos} token(s) remain, "
            f"starting at {toks[parser.pos]!r}"
        )
    return check_depth(p)


def parse_core_recursive(text: str, sig: Signature) -> Pattern:
    """The core parser as first written: one recursive call per token, which
    checks the depth and bounds in each frame."""
    toks = text.split()
    if not toks:
        raise Malformed("empty input")
    p, end = _parse_at(toks, 0, sig, 0)
    if end != len(toks):
        raise Malformed(
            f"pattern complete at token {end} but {len(toks) - end} token(s) remain"
        )
    return p


def _parse_at(toks: list[str], i: int, sig: Signature, depth: int) -> tuple[Pattern, int]:
    if i >= len(toks):
        raise ArityError("pattern truncated, operand missing")
    if depth > MAX_DEPTH:
        raise TooDeep(f"token {i}: pattern nests deeper than {MAX_DEPTH} levels")
    t = toks[i]
    if t in ("appl", "imp"):
        left, j = _parse_at(toks, i + 1, sig, depth + 1)
        right, k = _parse_at(toks, j, sig, depth + 1)
        node = Appl(left, right) if t == "appl" else Imp(left, right)
        return node, k
    if t == "exists":
        if i + 1 >= len(toks):
            raise ArityError("exists is missing its variable")
        m = EVAR_TOKEN.match(toks[i + 1])
        if not m:
            raise Malformed(f"exists must bind an element variable, got {toks[i + 1]!r}")
        body, k = _parse_at(toks, i + 2, sig, depth + 1)
        return Exists(int(m.group(1)), body), k
    if t == "mu":
        if i + 1 >= len(toks):
            raise ArityError("mu is missing its variable")
        m = SVAR_TOKEN.match(toks[i + 1])
        if not m:
            raise Malformed(f"mu must bind a set variable, got {toks[i + 1]!r}")
        body, k = _parse_at(toks, i + 2, sig, depth + 1)
        return Mu(int(m.group(1)), body), k
    m = EVAR_TOKEN.match(t)
    if m:
        return EVar(int(m.group(1))), i + 1
    m = SVAR_TOKEN.match(t)
    if m:
        return SVar(int(m.group(1))), i + 1
    if t in sig:
        return Const(t), i + 1
    raise UnknownSymbol(
        f"token {i}: {t!r} is not a variable, a keyword, or a declared constant"
    )


def free_vars_by_union(p: Pattern) -> tuple[frozenset, frozenset]:
    """Free element and set variable indices, two frozensets per node."""
    if isinstance(p, EVar):
        return frozenset((p.index,)), frozenset()
    if isinstance(p, SVar):
        return frozenset(), frozenset((p.index,))
    if isinstance(p, Const):
        return frozenset(), frozenset()
    if isinstance(p, (Appl, Imp)):
        le, ls = free_vars_by_union(p.left)
        re_, rs = free_vars_by_union(p.right)
        return le | re_, ls | rs
    if isinstance(p, Exists):
        be, bs = free_vars_by_union(p.body)
        return be - {p.var}, bs
    be, bs = free_vars_by_union(p.body)
    return be, bs - {p.var}


def subst_free_rebuild(phi: Pattern, v: VarRef, delta: Pattern) -> Pattern:
    """Textual substitution of ``delta`` for the free ``v``, every node
    built anew."""
    if isinstance(phi, EVar):
        return delta if v.kind == "element" and phi.index == v.index else phi
    if isinstance(phi, SVar):
        return delta if v.kind == "set" and phi.index == v.index else phi
    if isinstance(phi, Const):
        return phi
    if isinstance(phi, Appl):
        return Appl(subst_free_rebuild(phi.left, v, delta), subst_free_rebuild(phi.right, v, delta))
    if isinstance(phi, Imp):
        return Imp(subst_free_rebuild(phi.left, v, delta), subst_free_rebuild(phi.right, v, delta))
    if isinstance(phi, Exists):
        if v.kind == "element" and phi.var == v.index:
            return phi
        return Exists(phi.var, subst_free_rebuild(phi.body, v, delta))
    if v.kind == "set" and phi.var == v.index:
        return phi
    return Mu(phi.var, subst_free_rebuild(phi.body, v, delta))


def _subb_rebuild(phi: Pattern, v: VarRef, w: VarRef) -> Pattern:
    """Rename the bound occurrences of ``v`` to ``w``, innermost first."""
    if isinstance(phi, (EVar, SVar, Const)):
        return phi
    if isinstance(phi, Appl):
        return Appl(_subb_rebuild(phi.left, v, w), _subb_rebuild(phi.right, v, w))
    if isinstance(phi, Imp):
        return Imp(_subb_rebuild(phi.left, v, w), _subb_rebuild(phi.right, v, w))
    renamed = (Exists if v.kind == "element" else Mu) is type(phi) and phi.var == v.index
    body = _subb_rebuild(phi.body, v, w)
    if renamed:
        return type(phi)(w.index, subst_free_rebuild(body, v, w.as_pattern()))
    return type(phi)(phi.var, body)


def _captures(v: VarRef, delta_e, delta_s, phi: Pattern, captured: bool) -> bool:
    """Some free ``v`` in ``phi`` sits under a binder on a free variable of
    ``delta`` (``captured``: a binder above ``phi`` does)."""
    if isinstance(phi, (EVar, SVar)):
        kind = "element" if isinstance(phi, EVar) else "set"
        return captured and v.kind == kind and phi.index == v.index
    if isinstance(phi, Const):
        return False
    if isinstance(phi, (Appl, Imp)):
        return _captures(v, delta_e, delta_s, phi.left, captured) or _captures(
            v, delta_e, delta_s, phi.right, captured
        )
    kind, heads = ("element", delta_e) if isinstance(phi, Exists) else ("set", delta_s)
    if v.kind == kind and v.index == phi.var:
        return False
    return _captures(v, delta_e, delta_s, phi.body, captured or phi.var in heads)


def subst_capture_avoiding_rebuild(phi: Pattern, v: VarRef, delta: Pattern) -> Pattern:
    """Capture-avoiding substitution over the rebuilding walks above: when
    ``delta`` would be captured, every bound variable of ``phi`` that also
    occurs in ``delta`` is renamed to a fresh index first, innermost last."""
    delta_e, delta_s = free_vars_by_union(delta)
    if not _captures(v, delta_e, delta_s, phi, False):
        return subst_free_rebuild(phi, v, delta)
    bound_e, bound_s = bound_binder_indices(phi)
    free_e, free_s = free_vars_by_union(phi)
    delta_bound_e, delta_bound_s = bound_binder_indices(delta)
    occ_e, occ_s = delta_e | delta_bound_e, delta_s | delta_bound_s
    clash_e = sorted(bound_e & occ_e)
    clash_s = sorted(bound_s & occ_s)
    fresh_e = fresh_variables(max(bound_e | free_e | occ_e, default=-1), len(clash_e), "element")
    fresh_s = fresh_variables(max(bound_s | free_s | occ_s, default=-1), len(clash_s), "set")
    theta = phi
    for old, new in reversed(list(zip(clash_e, fresh_e))):
        theta = _subb_rebuild(theta, VarRef.element(old), new)
    for old, new in reversed(list(zip(clash_s, fresh_s))):
        theta = _subb_rebuild(theta, VarRef.set(old), new)
    return subst_free_rebuild(theta, v, delta)


def render_sugar_joined(p: Pattern, require: int = 0, tail: bool = True) -> str:
    """The sugar rendering of ``p`` over `aml.sugar._shape`, each node's
    pieces joined into a string of their own."""
    level, pieces = _shape(p)
    if level == _LVL_BINDER:
        wrap = require > 0 and not tail
    else:
        wrap = level < require
    inner_tail = True if wrap else tail
    s = "".join(
        piece if isinstance(piece, str)
        else render_sugar_joined(piece[0], piece[1], inner_tail if piece[2] is None else piece[2])
        for piece in pieces
    )
    return f"({s})" if wrap else s


def positive_rec(p: Pattern, v: int) -> bool:
    """Recursive polarity: every free occurrence of ``X<v>`` guarded by an
    even number of implication left sides."""
    if isinstance(p, (EVar, Const)):
        return True
    if isinstance(p, SVar):
        return True
    if isinstance(p, Appl):
        return positive_rec(p.left, v) and positive_rec(p.right, v)
    if isinstance(p, Imp):
        return negative_rec(p.left, v) and positive_rec(p.right, v)
    if isinstance(p, Exists):
        return positive_rec(p.body, v)
    if isinstance(p, Mu):
        if p.var == v:
            return True
        return positive_rec(p.body, v)
    raise AssertionError(p)


def negative_rec(p: Pattern, v: int) -> bool:
    if isinstance(p, (EVar, Const)):
        return True
    if isinstance(p, SVar):
        return p.index != v
    if isinstance(p, Appl):
        return negative_rec(p.left, v) and negative_rec(p.right, v)
    if isinstance(p, Imp):
        return positive_rec(p.left, v) and negative_rec(p.right, v)
    if isinstance(p, Exists):
        return negative_rec(p.body, v)
    if isinstance(p, Mu):
        if p.var == v:
            return True
        return negative_rec(p.body, v)
    raise AssertionError(p)


def occurrence_table(p: Pattern) -> list[tuple[str, str]]:
    """(token, classification) pairs built by a recursion that tracks the
    bound-variable environment explicitly."""
    out: list[tuple[str, str]] = []

    def walk(q: Pattern, be: frozenset, bs: frozenset) -> None:
        if isinstance(q, EVar):
            out.append((f"x{q.index}", "bound" if q.index in be else "free"))
        elif isinstance(q, SVar):
            out.append((f"X{q.index}", "bound" if q.index in bs else "free"))
        elif isinstance(q, Const):
            out.append((q.name, "constant"))
        elif isinstance(q, Appl):
            out.append(("appl", "operator"))
            walk(q.left, be, bs)
            walk(q.right, be, bs)
        elif isinstance(q, Imp):
            out.append(("imp", "operator"))
            walk(q.left, be, bs)
            walk(q.right, be, bs)
        elif isinstance(q, Exists):
            out.append(("exists", "operator"))
            out.append((f"x{q.var}", "bound"))
            walk(q.body, be | {q.var}, bs)
        elif isinstance(q, Mu):
            out.append(("mu", "operator"))
            out.append((f"X{q.var}", "bound"))
            walk(q.body, be, bs | {q.var})
        else:
            raise AssertionError(q)

    walk(p, frozenset(), frozenset())
    return out


# ---------------------------------------------------------------------------
# Random pattern generation for the bulk suites (plain `random`, so the
# acceptance module controls its own budget instead of hypothesis).


def random_pattern(
    rng: random.Random,
    sig: Signature,
    max_depth: int = 5,
    evars: int = 3,
    svars: int = 2,
) -> Pattern:
    leaf_kinds = ["evar", "svar"] + (["const"] if sig.constants else [])
    if max_depth <= 0:
        kind = rng.choice(leaf_kinds)
    else:
        kind = rng.choice(leaf_kinds + ["appl", "imp", "imp", "exists", "mu"])
    if kind == "evar":
        return EVar(rng.randrange(evars))
    if kind == "svar":
        return SVar(rng.randrange(svars))
    if kind == "const":
        return Const(rng.choice(sig.constants))
    if kind == "appl":
        return Appl(
            random_pattern(rng, sig, max_depth - 1, evars, svars),
            random_pattern(rng, sig, max_depth - 1, evars, svars),
        )
    if kind == "imp":
        return Imp(
            random_pattern(rng, sig, max_depth - 1, evars, svars),
            random_pattern(rng, sig, max_depth - 1, evars, svars),
        )
    if kind == "exists":
        return Exists(
            rng.randrange(evars), random_pattern(rng, sig, max_depth - 1, evars, svars)
        )
    return Mu(
        rng.randrange(svars), random_pattern(rng, sig, max_depth - 1, evars, svars)
    )


def random_positive_pattern(
    rng: random.Random,
    sig: Signature,
    set_index: int,
    max_depth: int = 4,
    evars: int = 2,
    svars: int = 2,
) -> Pattern:
    """A pattern guaranteed positive in ``X<set_index>`` by construction:
    the marked variable is only planted in positive slots."""

    def build(depth: int, polarity: bool) -> Pattern:
        choices = ["evar", "const"] if sig.constants else ["evar"]
        if polarity:
            choices.append("svar")
        if depth > 0:
            choices += ["appl", "imp", "exists", "mu"]
        kind = rng.choice(choices)
        if kind == "evar":
            return EVar(rng.randrange(evars))
        if kind == "const":
            return Const(rng.choice(sig.constants))
        if kind == "svar":
            return SVar(set_index)
        if kind == "appl":
            return Appl(build(depth - 1, polarity), build(depth - 1, polarity))
        if kind == "imp":
            return Imp(build(depth - 1, not polarity), build(depth - 1, polarity))
        if kind == "exists":
            return Exists(rng.randrange(evars), build(depth - 1, polarity))
        other = set_index + 1 + rng.randrange(svars)
        return Mu(other, build(depth - 1, polarity))

    return build(max_depth, True)


def structure_from_cells(universe, app=None, constants=None):
    """A `Structure` from cells and constants named by elements: ``app`` maps
    a pair of elements to a set of elements, unlisted cells are empty, and
    ``constants`` maps a name to a set of elements."""
    bit = {e: 1 << i for i, e in enumerate(universe)}
    app = app or {}

    def mask(subset) -> int:
        return sum(bit[e] for e in set(subset))

    rows = tuple(tuple(mask(app.get((a, b), ())) for b in universe) for a in universe)
    masks = {name: mask(val) for name, val in (constants or {}).items()}
    return Structure(tuple(universe), rows, masks)


# ---------------------------------------------------------------------------
# Tautology oracle: unfold a skeleton into a pattern over set variables and
# evaluate it in actual powerset structures of size one and two.


def random_skeleton(rng: random.Random, atoms: int, max_depth: int = 5) -> Pattern:
    """A propositional shape over ``SVar(0..atoms-1)`` and falsum."""

    def build(depth: int) -> Pattern:
        if depth <= 0 or rng.random() < 0.3:
            if rng.random() < 0.15:
                return Mu(0, SVar(0))
            return SVar(rng.randrange(atoms))
        return Imp(build(depth - 1), build(depth - 1))

    return build(max_depth)


def _plain_structure(size: int):
    return structure_from_cells(tuple(str(i) for i in range(size)))


_ORACLE_STRUCTURES = [_plain_structure(1), _plain_structure(2)]


def tautology_by_evaluation(p: Pattern) -> bool:
    """Valid in every powerset algebra of size one and two, checked by
    exhaustive evaluation over set-variable assignments."""
    from aml.model import subsets_of
    from aml.semantics import evaluate
    from aml.model import Valuation
    from aml.syntax import free_vars

    _, set_vars = free_vars(p)
    order = sorted(set_vars)
    for structure in _ORACLE_STRUCTURES:
        carrier = structure.carrier
        for choice in itertools.product(
            list(subsets_of(structure.universe)), repeat=len(order)
        ):
            valuation = Valuation(sets=dict(zip(order, choice)))
            if evaluate(structure, valuation, p) != carrier:
                return False
    return True


def tautology_by_rows(p: Pattern) -> bool:
    """The truth table of the propositional skeleton, one row at a time:
    the skeleton is a tuple tree ``("bot",)``, ``("imp", l, r)`` or
    ``("atom", i)`` over the maximal non-implication subpatterns, and it is
    walked again for each row.  Any ``mu X . X`` counts as falsum."""
    atoms: dict = {}

    def skeleton(q: Pattern):
        if isinstance(q, Mu) and q.body == SVar(q.var):
            return ("bot",)
        if isinstance(q, Imp):
            return ("imp", skeleton(q.left), skeleton(q.right))
        return ("atom", atoms.setdefault(q, len(atoms)))

    def run(node, row) -> bool:
        if node[0] == "bot":
            return False
        if node[0] == "atom":
            return row[node[1]]
        return (not run(node[1], row)) or run(node[2], row)

    tree = skeleton(p)
    return all(
        run(tree, row) for row in itertools.product((False, True), repeat=len(atoms))
    )


# ---------------------------------------------------------------------------
# Evaluation and consequence as first written: subsets are frozensets of
# element names, and every ``mu`` walks all subsets of the universe.


def eval_frozenset(s, e, p: Pattern) -> frozenset:
    """The subset denoted by ``p``, with ``mu`` as the intersection of all
    closed sets of the induced operator."""
    from aml.model import apply_sets, subsets_of
    from aml.semantics import UnassignedConstant

    if isinstance(p, EVar):
        return frozenset((e.element_of(p.index, s),))
    if isinstance(p, SVar):
        return e.set_of(p.index)
    if isinstance(p, Const):
        try:
            return s.constants[p.name]
        except KeyError:
            raise UnassignedConstant(f"constant {p.name!r} has no denotation") from None
    if isinstance(p, Appl):
        return apply_sets(s, eval_frozenset(s, e, p.left), eval_frozenset(s, e, p.right))
    if isinstance(p, Imp):
        left = eval_frozenset(s, e, p.left)
        right = eval_frozenset(s, e, p.right)
        return (s.carrier - left) | right
    if isinstance(p, Exists):
        out = set()
        for a in s.universe:
            out |= eval_frozenset(s, e.with_element(p.var, a), p.body)
        return frozenset(out)
    acc = s.carrier
    for b in subsets_of(s.universe):
        if eval_frozenset(s, e.with_set(p.var, b), p.body) <= b:
            acc &= b
    return acc


def fv_assignments(s, patterns):
    """Every assignment of the free variables of ``patterns``: element
    variables vary slowest, each over the universe in order, then set
    variables over the subsets in bitmask order."""
    from aml.model import Valuation, subsets_of
    from aml.syntax import free_vars

    evars, svars = set(), set()
    for p in patterns:
        fe, fs = free_vars(p)
        evars |= fe
        svars |= fs
    e_list, s_list = sorted(evars), sorted(svars)
    subsets = list(subsets_of(s.universe))
    for elems in itertools.product(s.universe, repeat=len(e_list)):
        base = dict(zip(e_list, elems))
        for sets in itertools.product(subsets, repeat=len(s_list)):
            yield Valuation(base, dict(zip(s_list, sets)))


def consequence_by_frozensets(kind, gamma, delta, suite):
    """`aml.semantics.consequence` over `eval_frozenset` and the name-based
    `fv_assignments` above."""
    from aml.semantics import ConsequenceKind, Verdict

    kind = ConsequenceKind(kind)
    gamma = list(gamma)
    delta = list(delta)

    def sat(s, v, p):
        return eval_frozenset(s, v, p) == s.carrier

    def valid(s, p):
        return all(sat(s, v, p) for v in fv_assignments(s, [p]))

    checked = 0
    for s in suite:
        checked += 1
        if kind is ConsequenceKind.GLOBAL:
            if not all(valid(s, g) for g in gamma):
                continue
            for p in delta:
                for v in fv_assignments(s, [p]):
                    if not sat(s, v, p):
                        return Verdict(False, kind, checked, s, v, p)
        elif kind is ConsequenceKind.LOCAL:
            for v in fv_assignments(s, gamma + delta):
                if not all(sat(s, v, g) for g in gamma):
                    continue
                for p in delta:
                    if not sat(s, v, p):
                        return Verdict(False, kind, checked, s, v, p)
        else:
            for v in fv_assignments(s, gamma + delta):
                common = s.carrier
                for g in gamma:
                    common &= eval_frozenset(s, v, g)
                for p in delta:
                    if not common <= eval_frozenset(s, v, p):
                        return Verdict(False, kind, checked, s, v, p)
    return Verdict(True, kind, checked)


# ---------------------------------------------------------------------------
# Fixpoints of set operators on a finite universe, computed by brute force
# over every subset.  The package computes ``mu`` only inside evaluation;
# these take the operator as a plain function, so the tests can hold
# evaluation against the lattice-theoretic definitions.


class NonMonotoneDetected(ValueError):
    """Iteration decreased somewhere, so the operator is not monotone."""


def _subsets(universe):
    """Every subset, refusing a universe over the package's cap as the
    package does."""
    if len(universe) > ENUMERATION_CAP:
        raise UniverseTooLarge(
            f"universe of size {len(universe)} exceeds the enumeration cap "
            f"{ENUMERATION_CAP}"
        )
    return subsets_of(universe)


def kt_lfp(fn, universe) -> frozenset:
    """Least fixpoint of a monotone set operator, by the intersection of all
    closed sets (sets B with fn(B) contained in B)."""
    acc = frozenset(universe)
    for b in _subsets(universe):
        if fn(b) <= b:
            acc &= b
    return acc


def kt_gfp(fn, universe) -> frozenset:
    """Greatest fixpoint, by the union of all sets B contained in fn(B)."""
    acc = frozenset()
    for b in _subsets(universe):
        if b <= fn(b):
            acc |= b
    return acc


def exact_lfp(fn, universe) -> frozenset:
    """Intersection of the exact fixpoints only; for monotone operators this
    coincides with `kt_lfp`."""
    acc = frozenset(universe)
    for b in _subsets(universe):
        if fn(b) == b:
            acc &= b
    return acc


def exact_gfp(fn, universe) -> frozenset:
    acc = frozenset()
    for b in _subsets(universe):
        if fn(b) == b:
            acc |= b
    return acc


def kleene_lfp(fn, universe) -> frozenset:
    """Iterate fn from the empty set until stable.

    On a finite universe a monotone operator stabilises within |A| + 1 steps;
    a shrinking step means fn was not monotone after all.
    """
    _subsets(universe)  # for the cap check alone
    current = frozenset()
    for _ in range(len(universe) + 1):
        nxt = fn(current)
        if not current <= nxt:
            raise NonMonotoneDetected(
                f"iterate dropped from {sorted(current)} to {sorted(nxt)}"
            )
        if nxt == current:
            return current
        current = nxt
    nxt = fn(current)
    if nxt != current:
        raise NonMonotoneDetected("iteration failed to stabilise within |A|+1 steps")
    return current


def is_monotone(fn, universe) -> bool:
    """Check fn(B) is contained in fn(C) for every B contained in C."""
    subs = list(_subsets(universe))
    values = {b: fn(b) for b in subs}
    for b, c in itertools.combinations(subs, 2):
        if b <= c and not values[b] <= values[c]:
            return False
        if c <= b and not values[c] <= values[b]:
            return False
    return True


# ---------------------------------------------------------------------------
# The structure stream as first written: every subset, cell value and
# constant is a frozenset of element names, drawn in the same order as the
# package draws its masks.  Each structure comes out as a triple of its
# universe, its non-empty application cells and its constants.


def structures_by_frozensets(sig, max_size, *, seed=0, samples=0, defined=False):
    """`enumerate_structures` on frozensets, as ``(universe, app, constants)``."""
    names = list(sig.constants)
    if defined and DEFINEDNESS not in names:
        names = names + [DEFINEDNESS]

    def exhaustive(size):
        universe = tuple(str(i) for i in range(size))
        subsets = list(subsets_of(universe))
        cells = [(a, b) for a in universe for b in universe]
        free_cells, free_names = cells, names
        forced_app, forced_consts = {}, {}
        if defined:
            anchor = universe[0]
            forced_consts = {DEFINEDNESS: frozenset((anchor,))}
            forced_app = {(anchor, b): frozenset(universe) for b in universe}
            free_cells = [c for c in cells if c not in forced_app]
            free_names = [n for n in names if n != DEFINEDNESS]
        for app_choice in itertools.product(subsets, repeat=len(free_cells)):
            app = dict(forced_app)
            for cell, val in zip(free_cells, app_choice):
                if val:
                    app[cell] = val
            for const_choice in itertools.product(subsets, repeat=len(free_names)):
                constants = dict(forced_consts)
                constants.update(zip(free_names, const_choice))
                yield universe, app, constants

    def sample(rng, size):
        universe = tuple(str(i) for i in range(size))

        def random_subset():
            mask = rng.getrandbits(size)
            return frozenset(universe[i] for i in range(size) if mask >> i & 1)

        app = {}
        for a in universe:
            for b in universe:
                val = random_subset()
                if val:
                    app[(a, b)] = val
        constants = {name: random_subset() for name in names}
        if defined:
            anchor = universe[0]
            constants[DEFINEDNESS] = frozenset((anchor,)) | random_subset()
            for b in universe:
                app[(anchor, b)] = frozenset(universe)
        return universe, app, constants

    for size in range(1, min(max_size, 2) + 1):
        yield from exhaustive(size)
    if samples and max_size >= 3:
        rng = random.Random(seed)
        for _ in range(samples):
            yield sample(rng, rng.randint(3, max_size))
