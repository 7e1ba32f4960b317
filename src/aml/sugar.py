"""Sugared surface syntax: derived connectives, an infix grammar, resugaring.

Everything here expands into the four core constructors.  The canonical
falsum is ``mu X0 . X0``; negation, disjunction, conjunction, equivalence,
the universal quantifier and the greatest fixpoint are the usual
abbreviations on top of it.  The definedness notation (``ceil``, ``floor``,
``=``, ``in``) expands through the reserved constant ``def``.

Operator precedence, tightest first:

    application (juxtaposition, left assoc)
    !
    in            (no chaining)
    =             (no chaining)
    /\\            (left assoc)
    \\/            (left assoc)
    ->            (right assoc)
    <->           (no chaining)

Binders (``exists``, ``forall``, ``mu``, ``nu``) extend as far right as
possible.  The binary operators' levels are one table, `_BINARY`: the parser
climbs it in one loop, and the renderer derives from it the minimal
parentheses it emits, into one list joined once.  `parse` and `render`
round-trip exactly in both modes.
"""

from __future__ import annotations

import re

from .substitution import VarRef, subst_free
from .syntax import (
    Appl,
    ArityError,
    Const,
    DEFINEDNESS,
    EVar,
    Exists,
    Imp,
    MAX_DEPTH,
    Malformed,
    Mu,
    Pattern,
    SVar,
    Signature,
    TooDeep,
    UnknownSymbol,
    check_depth,
    parse_core,
    read_bound,
    read_leaf,
    render_core,
)

__all__ = [
    "BOT",
    "TOP",
    "bot",
    "top",
    "neg",
    "or_",
    "and_",
    "iff",
    "forall",
    "nu",
    "ceil",
    "floor",
    "eq",
    "mem",
    "fold_conj",
    "fold_disj",
    "EmptyList",
    "match_neg",
    "match_or_shape",
    "match_and",
    "match_iff",
    "match_forall",
    "match_nu",
    "match_ceil",
    "match_floor",
    "match_mem",
    "parse_sugar",
    "render_sugar",
    "parse",
    "render",
    "HOLE",
]


class EmptyList(ValueError):
    """Folding an empty list of conjuncts or disjuncts."""


BOT = Mu(0, SVar(0))
TOP = Imp(BOT, BOT)

# Sentinel constant the context module uses for `[]`; never a legal
# signature constant, so it cannot leak in from ordinary input.
HOLE = Const("[]")


def bot() -> Pattern:
    return BOT


def neg(p: Pattern) -> Pattern:
    return Imp(p, BOT)


def top() -> Pattern:
    return TOP


def or_(a: Pattern, b: Pattern) -> Pattern:
    return Imp(neg(a), b)


def and_(a: Pattern, b: Pattern) -> Pattern:
    return neg(or_(neg(a), neg(b)))


def iff(a: Pattern, b: Pattern) -> Pattern:
    return and_(Imp(a, b), Imp(b, a))


def forall(var: int, body: Pattern) -> Pattern:
    return neg(Exists(var, neg(body)))


def nu(var: int, body: Pattern) -> Pattern:
    # Greatest fixpoint by dualising mu.  Substituting !X for X never
    # captures, since X cannot occur free inside a mu that rebinds it.
    flipped = subst_free(body, VarRef.set(var), neg(SVar(var)))
    return neg(Mu(var, neg(flipped)))


def ceil(p: Pattern) -> Pattern:
    return Appl(Const(DEFINEDNESS), p)


def floor(p: Pattern) -> Pattern:
    return neg(ceil(neg(p)))


def eq(a: Pattern, b: Pattern) -> Pattern:
    return floor(iff(a, b))


def mem(var: int, p: Pattern) -> Pattern:
    return ceil(and_(EVar(var), p))


def fold_conj(parts: list) -> Pattern:
    """Left-nested conjunction of a nonempty list."""
    if not parts:
        raise EmptyList("no conjuncts")
    acc = parts[0]
    for p in parts[1:]:
        acc = and_(acc, p)
    return acc


def fold_disj(parts: list) -> Pattern:
    if not parts:
        raise EmptyList("no disjuncts")
    acc = parts[0]
    for p in parts[1:]:
        acc = or_(acc, p)
    return acc


# ---------------------------------------------------------------------------
# Shape matchers.  All of them are strict about the canonical falsum; only
# the tautology skeleton is lenient, and that lives in the semantics module.


def match_neg(p: Pattern):
    if type(p) is Imp and type(p.right) is Mu and p.right == BOT:
        return p.left
    return None


def match_or_shape(p: Pattern):
    """Structural disjunction match with no aesthetic exclusions: a falsum
    right operand is accepted, so double negation matches too.  The renderer
    prints that case as double negation itself; axiom matching must not
    refuse it."""
    if type(p) is Imp:
        inner = match_neg(p.left)
        if inner is not None:
            return inner, p.right
    return None


def match_and(p: Pattern):
    body = match_neg(p)
    if body is None:
        return None
    m = match_or_shape(body)
    if m is None:
        return None
    na, nb = m
    a = match_neg(na)
    b = match_neg(nb)
    if a is None or b is None:
        return None
    return a, b


def match_iff(p: Pattern):
    m = match_and(p)
    return None if m is None else _iff_sides(*m)


def _iff_sides(u: Pattern, v: Pattern):
    """``(a, b)`` when the conjuncts ``u``, ``v`` are ``a -> b`` and ``b -> a``."""
    if type(u) is Imp and type(v) is Imp and u.left == v.right and u.right == v.left:
        return u.left, u.right
    return None


def match_forall(p: Pattern):
    body = match_neg(p)
    if type(body) is Exists:
        inner = match_neg(body.body)
        if inner is not None:
            return body.var, inner
    return None


def _rewrite_subterm(p: Pattern, old: Pattern, new: Pattern) -> Pattern:
    t = type(p)
    if t is Appl or t is Imp:
        p = t(_rewrite_subterm(p.left, old, new), _rewrite_subterm(p.right, old, new))
    elif t is Exists or t is Mu:
        p = t(p.var, _rewrite_subterm(p.body, old, new))
    return new if p == old else p


def match_nu(p: Pattern):
    """Invert the greatest-fixpoint abbreviation, verifying by re-expansion."""
    outer = match_neg(p)
    if type(outer) is not Mu:
        return None
    inner = match_neg(outer.body)
    if inner is None:
        return None
    candidate = _rewrite_subterm(inner, neg(SVar(outer.var)), SVar(outer.var))
    if nu(outer.var, candidate) == p:
        return outer.var, candidate
    return None


def match_ceil(p: Pattern):
    if type(p) is Appl and type(p.left) is Const and p.left.name == DEFINEDNESS:
        return p.right
    return None


def match_floor(p: Pattern):
    body = match_neg(p)
    if body is None:
        return None
    arg = match_ceil(body)
    if arg is None:
        return None
    return match_neg(arg)


def match_mem(p: Pattern):
    arg = match_ceil(p)
    if arg is None:
        return None
    m = match_and(arg)
    if m is not None and type(m[0]) is EVar:
        return m[0].index, m[1]
    return None


# ---------------------------------------------------------------------------
# Lexer and parser for the infix grammar.

_TOKEN = re.compile(r"<->|->|/\\|\\/|\[\]|[().!=]|[A-Za-z_][A-Za-z0-9_]*")
# The longest prefix that reads as tokens and whitespace.
_READ = re.compile(rf"(?:\s*(?:{_TOKEN.pattern}))*\s*")

# The binary operators by level, loosest first: the one precedence table
# that the parser climbs and the renderer prints by.  `\/` and `/\` chain
# to the left and `->` to the right; `<->`, `=` and `in` do not chain.
_BINARY = {"<->": 1, "->": 2, "\\/": 3, "/\\": 4, "=": 5, "in": 6}
_LEFT = ("\\/", "/\\")
_JOIN = {"<->": iff, "\\/": or_, "/\\": and_, "=": eq}
# Binders display below the table; negation, application and atoms above it.
_LVL_BINDER = 0
_LVL_NEG = max(_BINARY.values()) + 1
_LVL_APP = _LVL_NEG + 1
_LVL_ATOM = _LVL_APP + 1

# Tokens that end an application: none of them can start an atom.
_NOT_ATOM = frozenset({")", ".", "!", *_BINARY})
_ENDS_APP = _NOT_ATOM | {None}


def _lex(text: str) -> list[str]:
    # `findall` skips whatever no token matches.  No token holds whitespace,
    # and `\s` is exactly what `str.split` splits on, so the tokens spell the
    # text without its whitespace exactly when nothing else was skipped.
    toks = _TOKEN.findall(text)
    if "".join(toks) != "".join(text.split()):
        pos = _READ.match(text).end()
        raise Malformed(f"cannot read input at column {pos + 1}: {text[pos:pos + 10]!r}")
    return toks


class _Parser:
    def __init__(self, toks: list[str], sig: Signature, allow_hole: bool):
        # None marks the end, so reading the next token needs no bounds check.
        self.toks = toks + [None]
        self.sig = sig
        self.allow_hole = allow_hole
        self.pos = 0
        self.depth = 0
        # The variable and constant leaves read so far, by token.
        self.leaves = {}

    def take(self):
        t = self.toks[self.pos]
        if t is None:
            raise ArityError("input ended inside a pattern")
        self.pos += 1
        return t

    def expect(self, tok: str):
        t = self.take()
        if t != tok:
            raise Malformed(f"expected {tok!r}, got {t!r}")

    def nested(self) -> Pattern:
        """A pattern inside parentheses or a binder body: the only place the
        parser recurses, so the only place its own depth can grow."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise TooDeep(f"parentheses and binders nest deeper than {MAX_DEPTH} levels")
        p = self.pattern()
        self.depth -= 1
        return p

    def pattern(self, least: int = 1) -> Pattern:
        """The longest pattern here whose binary operators all have level
        ``least`` or above, by precedence climbing over `_BINARY` (Pratt,
        "Top down operator precedence", POPL 1973).  A right operand holds
        only tighter operators; `->` folds its whole chain to the right."""
        acc = self.neg()
        most = _LVL_NEG - 1
        while True:
            op = self.toks[self.pos]
            level = _BINARY.get(op, 0)
            if level < least or level > most:
                return acc
            self.pos += 1
            most = level if op in _LEFT else level - 1
            if op == "->":
                operands = [acc, self.pattern(level + 1)]
                while self.toks[self.pos] == "->":
                    self.pos += 1
                    operands.append(self.pattern(level + 1))
                acc = operands.pop()
                while operands:
                    acc = Imp(operands.pop(), acc)
                continue
            if op == "in" and not isinstance(acc, EVar):
                raise Malformed("left operand of 'in' must be an element variable")
            if op == "=" or op == "in":
                self._need_def(op)
            right = self.pattern(level + 1)
            acc = mem(acc.index, right) if op == "in" else _JOIN[op](acc, right)

    def neg(self) -> Pattern:
        count = 0
        while self.toks[self.pos] == "!":
            self.take()
            count += 1
        acc = self.app()
        for _ in range(count):
            acc = neg(acc)
        return acc

    def app(self) -> Pattern:
        acc = self.atom()
        while self.toks[self.pos] not in _ENDS_APP:
            acc = Appl(acc, self.atom())
        return acc

    def atom(self) -> Pattern:
        t = self.take()
        leaf = self.leaves.get(t)
        if leaf is not None:
            return leaf
        if t == "(":
            p = self.nested()
            self.expect(")")
            return p
        if t == "[]":
            if not self.allow_hole:
                raise Malformed("'[]' is only meaningful in a context")
            return HOLE
        if t == "bot":
            return BOT
        if t == "top":
            return TOP
        if t in ("exists", "forall"):
            var = read_bound(t, self.take(), True)
            self.expect(".")
            body = self.nested()
            return Exists(var, body) if t == "exists" else forall(var, body)
        if t in ("mu", "nu"):
            var = read_bound(t, self.take(), False)
            self.expect(".")
            body = self.nested()
            # Check before nu's substitution walks the body.
            return Mu(var, body) if t == "mu" else nu(var, check_depth(body))
        if t in ("ceil", "floor"):
            self._need_def(t)
            self.expect("(")
            p = self.nested()
            self.expect(")")
            return ceil(p) if t == "ceil" else floor(p)
        leaf = read_leaf(t, self.sig)
        if leaf is None:
            if t in _NOT_ATOM:
                raise Malformed(f"unexpected {t!r}")
            raise UnknownSymbol(
                f"{t!r} is not a variable, a keyword, or a declared constant"
            )
        self.leaves[t] = leaf
        return leaf

    def _need_def(self, what: str) -> None:
        if DEFINEDNESS not in self.sig:
            raise UnknownSymbol(
                f"{what!r} needs the constant 'def' in the signature"
            )


def parse_sugar(text: str, sig: Signature, allow_hole: bool = False) -> Pattern:
    toks = _lex(text)
    if not toks:
        raise Malformed("empty input")
    parser = _Parser(toks, sig, allow_hole)
    p = parser.pattern()
    if parser.pos != len(toks):
        raise Malformed(
            f"pattern complete but {len(toks) - parser.pos} token(s) remain, "
            f"starting at {toks[parser.pos]!r}"
        )
    return check_depth(p)


# ---------------------------------------------------------------------------
# Renderer.  `_shape` maps a node to its display level and its pieces: literal
# text, or an operand with the level it requires and its trailing position
# (None inherits the node's own, False never takes it, True always does).
# `_render` wraps a node in parentheses when its level is below what its
# slot requires, and appends the pieces to one list that `render_sugar`
# joins once.  Binders count as level 0 and are left bare exactly in
# trailing positions, where the grammar would give them maximal scope anyway.
#
# Every derived form except disjunction is a negation, and the type of the
# negated operand says which one it can be: an application gives `=` or
# `floor`, an implication `<->` or `/\`, an existential `forall`, a fixpoint
# `nu`; whatever does not match prints as `!`.

# Each binary operator's level, the level its left operand needs, its text
# and the level its right operand needs: one above its own, except on the
# side it chains to.
_INFIX = {
    op: (level, level + (op not in _LEFT), f" {op} ", level + (op != "->"))
    for op, level in _BINARY.items()
}


def _shape(p: Pattern):
    t = type(p)
    if t is Imp:
        if type(p.right) is not Mu or p.right != BOT:
            a = match_neg(p.left)
            level, left, text, right = _INFIX["->" if a is None else "\\/"]
            return level, ((p.left if a is None else a, left, False), text, (p.right, right, None))
        q = p.left
        u = type(q)
        if u is Appl:
            f = match_floor(p)
            if f is not None:
                m = match_iff(f)
                if m is not None:
                    level, left, text, right = _INFIX["="]
                    return level, ((m[0], left, False), text, (m[1], right, None))
                return _LVL_ATOM, ("floor(", (f, 0, True), ")")
        elif u is Imp:
            m = match_and(p)
            if m is not None:
                e = _iff_sides(*m)
                level, left, text, right = _INFIX["/\\" if e is None else "<->"]
                a, b = m if e is None else e
                return level, ((a, left, False), text, (b, right, None))
        elif u is Exists:
            m = match_forall(p)
            if m is not None:
                return _LVL_BINDER, (f"forall x{m[0]} . ", (m[1], 0, True))
        elif u is Mu:
            if q == BOT:
                return _LVL_ATOM, ("top",)
            m = match_nu(p)
            if m is not None:
                return _LVL_BINDER, (f"nu X{m[0]} . ", (m[1], 0, True))
        return _LVL_NEG, ("!", (q, _LVL_NEG, None))
    if t is Appl:
        arg = match_ceil(p)
        if arg is None:
            return _LVL_APP, ((p.left, _LVL_APP, False), " ", (p.right, _LVL_ATOM, False))
        m = match_mem(p)
        if m is not None:
            level, _, text, right = _INFIX["in"]
            return level, (f"x{m[0]}{text}", (m[1], right, None))
        return _LVL_ATOM, ("ceil(", (arg, 0, True), ")")
    if t is Exists:
        return _LVL_BINDER, (f"exists x{p.var} . ", (p.body, 0, True))
    if t is Mu:
        if p == BOT:
            return _LVL_ATOM, ("bot",)
        return _LVL_BINDER, (f"mu X{p.var} . ", (p.body, 0, True))
    if t is EVar:
        return _LVL_ATOM, (f"x{p.index}",)
    if t is SVar:
        return _LVL_ATOM, (f"X{p.index}",)
    return _LVL_ATOM, (p.name,)


def render_sugar(p: Pattern) -> str:
    out: list[str] = []
    _render(p, 0, True, out)
    return "".join(out)


def _render(p: Pattern, require: int, tail: bool, out: list[str]) -> None:
    level, pieces = _shape(p)
    if level == _LVL_BINDER:
        wrap = require > 0 and not tail
    else:
        wrap = level < require
    if wrap:
        out.append("(")
        tail = True
    for piece in pieces:
        if type(piece) is str:
            out.append(piece)
        else:
            sub, need, trailing = piece
            _render(sub, need, tail if trailing is None else trailing, out)
    if wrap:
        out.append(")")


# ---------------------------------------------------------------------------
# Mode dispatch, the package-level entry points.


def parse(text: str, sig: Signature, mode: str = "core") -> Pattern:
    """Parse ``text`` as a pattern in ``mode`` (``core`` or ``sugar``)."""
    if mode == "core":
        return parse_core(text, sig)
    if mode == "sugar":
        return parse_sugar(text, sig)
    raise ValueError(f"unknown mode {mode!r}")


def render(p: Pattern, mode: str = "core") -> str:
    """Render ``p`` in ``mode``; `parse` gives back the identical tree."""
    if mode == "core":
        return render_core(p)
    if mode == "sugar":
        return render_sugar(p)
    raise ValueError(f"unknown mode {mode!r}")
