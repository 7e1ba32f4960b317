"""Core syntax of applicative matching logic patterns.

Patterns are built from indexed element variables (written ``x0``, ``x1``, ...),
indexed set variables (``X0``, ``X1``, ...), declared constants, two binary
forms (application and implication) and two binders: ``exists`` over an element
variable and ``mu`` over a set variable.

The canonical linear form is whitespace separated Polish notation with the
operator keywords ``appl``, ``imp``, ``exists``, ``mu``.  Polish form needs no
parentheses and is uniquely readable: a token string renders at most one
pattern, and no proper prefix of a pattern's token string is itself a pattern.
The positional analyses in this module (binder scopes, occurrence
classification, the left-implication counter `n_left` that defines polarity)
all lean on that property, and the test suite re-checks it against
brute-force oracles.  It also lets `parse_core` read the tokens in one
forward loop that keeps only a stack of the operators still open.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Union

__all__ = [
    "ParseError",
    "UnknownSymbol",
    "Malformed",
    "ArityError",
    "TooDeep",
    "MAX_DEPTH",
    "NotABinder",
    "NotABinary",
    "OutOfRange",
    "Signature",
    "load_signature",
    "EVar",
    "SVar",
    "Const",
    "Appl",
    "Imp",
    "Exists",
    "Mu",
    "Pattern",
    "tokens",
    "token_len",
    "parse_core",
    "render_core",
    "subpatterns",
    "free_vars",
    "bound_binder_indices",
    "binder_scope",
    "binary_scopes",
    "OccurrenceKind",
    "occurrence_kind",
    "occurrence_kinds",
    "n_left",
    "is_positive_in",
    "is_negative_in",
    "DEFINEDNESS",
]


class ParseError(ValueError):
    """Candidate pattern text was rejected."""


class UnknownSymbol(ParseError):
    """A token that is neither a variable, a keyword, nor a declared constant."""


class Malformed(ParseError):
    """The token sequence does not form exactly one pattern."""


class ArityError(ParseError):
    """An operator or binder ran out of operands."""


class TooDeep(ParseError):
    """The pattern nests deeper than `MAX_DEPTH` levels."""


class NotABinder(ValueError):
    """The addressed token position does not start a binder."""


class NotABinary(ValueError):
    """The addressed token position does not start an application or implication."""


class OutOfRange(IndexError):
    """A token position outside the pattern."""


CORE_KEYWORDS = ("appl", "imp", "exists", "mu")
SUGAR_KEYWORDS = ("bot", "top", "forall", "nu", "in", "ceil", "floor")
RESERVED = frozenset(CORE_KEYWORDS) | frozenset(SUGAR_KEYWORDS)

# Constant reserved for the definedness instrumentation of a structure.  It is
# an ordinary signature constant as far as parsing goes, but models declaring
# it must satisfy the definedness law and the ceil/floor/equality/membership
# notation expands through it.
DEFINEDNESS = "def"

# The deepest nesting either parser accepts, in tree levels below the root;
# sugar text also counts parentheses and binder bodies.  Every later layer
# (rendering, analysis, substitution, evaluation) recurses a few frames per
# level, so this keeps them all well inside the default recursion limit.
MAX_DEPTH = 64

# The variable token families; index digits are ASCII only.
EVAR_TOKEN = re.compile(r"\Ax([0-9]+)\Z")
SVAR_TOKEN = re.compile(r"\AX([0-9]+)\Z")
_NAME = re.compile(r"\A[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Signature:
    """Declared constant symbols.

    Variables need no declaration: the token families ``x<n>`` and ``X<n>``
    are always available, which is also why those spellings are rejected as
    constant names.
    """

    constants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for name in self.constants:
            if (
                not _NAME.match(name)
                or name in RESERVED
                or EVAR_TOKEN.match(name)
                or SVAR_TOKEN.match(name)
            ):
                raise ValueError(f"illegal constant name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate constant {name!r}")
            seen.add(name)

    def __contains__(self, name: object) -> bool:
        return name in self.constants


def load_signature(path: str | Path) -> Signature:
    """Read a signature file: one constant name per line, ``#`` comments."""
    names = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            names.append(line)
    return Signature(tuple(names))


def _node(cls):
    """``cls`` as a frozen dataclass with slots, whose ``__init__`` writes each
    field through its slot descriptor instead of ``object.__setattr__``.  The
    dataclass still makes ``__eq__``, ``__hash__`` (the hash of the field
    tuple), ``__repr__`` and ``__match_args__``, and assigning or deleting a
    field still raises ``FrozenInstanceError``.  Give ``cls`` a docstring:
    without one the dataclass writes it from ``inspect.signature``, which
    with ``init=False`` parses ``object.__init__``'s text signature, and that
    costs about 2 ms at import."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    env = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    body = "".join(f"\n    _set_{n}(self, {n})" for n in names)
    exec(f"def __init__(self, {', '.join(names)}):{body}", env)
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@_node
class EVar:
    """The element variable ``x<index>``."""

    index: int


@_node
class SVar:
    """The set variable ``X<index>``."""

    index: int


@_node
class Const:
    """A declared constant symbol."""

    name: str


@_node
class Appl:
    """Application of ``left`` to ``right``."""

    left: "Pattern"
    right: "Pattern"


@_node
class Imp:
    """Implication from ``left`` to ``right``."""

    left: "Pattern"
    right: "Pattern"


@_node
class Exists:
    """``exists x<var> . body``."""

    var: int
    body: "Pattern"


@_node
class Mu:
    """``mu X<var> . body``, the least fixpoint."""

    var: int
    body: "Pattern"


Pattern = Union[EVar, SVar, Const, Appl, Imp, Exists, Mu]


def tokens(p: Pattern) -> tuple[str, ...]:
    """Token string of ``p`` in Polish core form."""
    out: list[str] = []
    _emit(p, out)
    return tuple(out)


def _emit(p: Pattern, out: list[str]) -> None:
    t = type(p)
    if t is EVar:
        out.append(f"x{p.index}")
    elif t is SVar:
        out.append(f"X{p.index}")
    elif t is Const:
        out.append(p.name)
    elif t is Appl or t is Imp:
        out.append("appl" if t is Appl else "imp")
        _emit(p.left, out)
        _emit(p.right, out)
    elif t is Exists or t is Mu:
        out.append("exists" if t is Exists else "mu")
        out.append(f"x{p.var}" if t is Exists else f"X{p.var}")
        _emit(p.body, out)
    else:
        raise TypeError(f"not a pattern node: {p!r}")


def token_len(p: Pattern) -> int:
    if isinstance(p, (EVar, SVar, Const)):
        return 1
    if isinstance(p, (Appl, Imp)):
        return 1 + token_len(p.left) + token_len(p.right)
    return 2 + token_len(p.body)


def render_core(p: Pattern) -> str:
    return " ".join(tokens(p))


def read_digits(digits: str) -> int:
    """The number ASCII ``digits`` spell, or `Malformed` past ``int``'s digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise Malformed(f"a number of {len(digits)} digits is too long to read") from None


def read_leaf(t: str, sig: Signature):
    """The variable or constant that the token ``t`` spells, else None."""
    if m := EVAR_TOKEN.match(t):
        return EVar(read_digits(m.group(1)))
    if m := SVAR_TOKEN.match(t):
        return SVar(read_digits(m.group(1)))
    return Const(t) if t in sig else None


def read_bound(kw: str, t: str, element: bool) -> int:
    """The index of ``t``, the element or set variable that ``kw`` binds."""
    m = (EVAR_TOKEN if element else SVAR_TOKEN).match(t)
    if not m:
        what = "an element" if element else "a set"
        raise Malformed(f"{kw} must bind {what} variable, got {t!r}")
    return read_digits(m.group(1))


def parse_core(text: str, sig: Signature) -> Pattern:
    """Parse whitespace separated Polish core tokens against ``sig``, in one
    loop: ``ops`` holds the open operators, so its length is the depth, and
    ``firsts`` their first fields (None while a binary one lacks its left)."""
    toks = text.split()
    n = len(toks)
    if not n:
        raise Malformed("empty input")
    # The operators, and the leaves read so far, by token.
    leaves = {"appl": Appl, "imp": Imp, "exists": Exists, "mu": Mu}
    ops, firsts = [], []
    i = 0
    while True:
        if i >= n:
            raise ArityError("pattern truncated, operand missing")
        if len(ops) > MAX_DEPTH:
            raise TooDeep(f"token {i}: pattern nests deeper than {MAX_DEPTH} levels")
        t = toks[i]
        i += 1
        p = leaves.get(t)
        if p is Appl or p is Imp:
            ops.append(p)
            firsts.append(None)
            continue
        if p is Exists or p is Mu:
            if i >= n:
                raise ArityError(f"{t} is missing its variable")
            ops.append(p)
            firsts.append(read_bound(t, toks[i], p is Exists))
            i += 1
            continue
        if p is None:
            p = read_leaf(t, sig)
            if p is None:
                raise UnknownSymbol(
                    f"token {i - 1}: {t!r} is not a variable, a keyword, or a declared constant"
                )
            leaves[t] = p
        while ops and firsts[-1] is not None:
            p = ops.pop()(firsts.pop(), p)
        if ops:
            firsts[-1] = p
        elif i != n:
            raise Malformed(f"pattern complete at token {i} but {n - i} token(s) remain")
        else:
            return p


def check_depth(p: Pattern) -> Pattern:
    """``p`` itself, or `TooDeep` if it nests more than `MAX_DEPTH` levels."""
    if _deeper_than(p, MAX_DEPTH):
        raise TooDeep(f"pattern nests deeper than {MAX_DEPTH} levels")
    return p


def _deeper_than(p: Pattern, levels: int) -> bool:
    # Recurses at most ``levels`` + 1 deep, however deep ``p`` is.
    t = type(p)
    if t is Appl or t is Imp:
        return levels == 0 or _deeper_than(p.left, levels - 1) or _deeper_than(
            p.right, levels - 1
        )
    if t is Exists or t is Mu:
        return levels == 0 or _deeper_than(p.body, levels - 1)
    return False


def subpatterns(p: Pattern) -> frozenset:
    out = {p}
    if isinstance(p, (Appl, Imp)):
        out |= subpatterns(p.left) | subpatterns(p.right)
    elif isinstance(p, (Exists, Mu)):
        out |= subpatterns(p.body)
    return frozenset(out)


def free_vars(p: Pattern) -> tuple[frozenset, frozenset]:
    """Free element and set variable indices, as a pair of frozensets."""
    fe, fs = set(), set()
    _free(p, [], [], fe, fs)
    return frozenset(fe), frozenset(fs)


def _free(p: Pattern, be: list, bs: list, fe: set, fs: set) -> None:
    """Add to ``fe``, ``fs`` the indices free in ``p`` and unbound above it (``be``, ``bs``)."""
    t = type(p)
    if t is EVar:
        if p.index not in be:
            fe.add(p.index)
    elif t is SVar:
        if p.index not in bs:
            fs.add(p.index)
    elif t is Appl or t is Imp:
        _free(p.left, be, bs, fe, fs)
        _free(p.right, be, bs, fe, fs)
    elif t is Exists or t is Mu:
        bound = be if t is Exists else bs
        bound.append(p.var)
        _free(p.body, be, bs, fe, fs)
        bound.pop()


def bound_binder_indices(p: Pattern) -> tuple[frozenset, frozenset]:
    """Variables with at least one bound occurrence, i.e. the binder heads.

    Every bound occurrence's index is the head of the binder that binds it,
    so this and `free_vars` together cover every variable in ``p``."""
    if isinstance(p, (EVar, SVar, Const)):
        return frozenset(), frozenset()
    if isinstance(p, (Appl, Imp)):
        le, ls = bound_binder_indices(p.left)
        re_, rs = bound_binder_indices(p.right)
        return le | re_, ls | rs
    be, bs = bound_binder_indices(p.body)
    if isinstance(p, Exists):
        return be | {p.var}, bs
    return be, bs | {p.var}


def _node_at(p: Pattern, i: int):
    """The subpattern whose token string starts at position ``i``, else None.

    Binder head variable tokens are occurrences, not node starts.
    """
    if i == 0:
        return p
    if isinstance(p, (Appl, Imp)):
        ln = token_len(p.left)
        if 1 <= i <= ln:
            return _node_at(p.left, i - 1)
        return _node_at(p.right, i - 1 - ln)
    if isinstance(p, (Exists, Mu)):
        if i >= 2:
            return _node_at(p.body, i - 2)
        return None
    return None


def binder_scope(p: Pattern, i: int) -> int:
    """End position of the binder starting at token ``i``.

    Tokens ``i..j`` (binder keyword and head variable included) form the
    bound scope; ``j`` is returned.
    """
    n = token_len(p)
    if not 0 <= i < n:
        raise OutOfRange(f"position {i} outside pattern of length {n}")
    node = _node_at(p, i)
    if not isinstance(node, (Exists, Mu)):
        raise NotABinder(f"token {i} does not start a binder")
    return i + token_len(node) - 1


def binary_scopes(p: Pattern, i: int) -> tuple[int, int]:
    """Operand extents of the binary node at token ``i``.

    Returns ``(j, l)`` where tokens ``i+1..j`` are the first operand and
    ``j+1..l`` the second.
    """
    n = token_len(p)
    if not 0 <= i < n:
        raise OutOfRange(f"position {i} outside pattern of length {n}")
    node = _node_at(p, i)
    if not isinstance(node, (Appl, Imp)):
        raise NotABinary(f"token {i} does not start an application or implication")
    j = i + token_len(node.left)
    return j, i + token_len(node) - 1


class OccurrenceKind(Enum):
    FREE_ELEMENT = "free-element"
    BOUND_ELEMENT = "bound-element"
    FREE_SET = "free-set"
    BOUND_SET = "bound-set"
    NOT_A_VARIABLE = "not-a-variable"


_FREE_ELEMENT, _BOUND_ELEMENT, _FREE_SET, _BOUND_SET, _NOT_A_VARIABLE = OccurrenceKind


def occurrence_kinds(p: Pattern) -> tuple[OccurrenceKind, ...]:
    """Classification of every token position in one pass."""
    out, bound_e, bound_s = [], [], []  # and the binders above, by kind

    def walk(q: Pattern) -> None:
        t = type(q)
        if t is EVar:
            out.append(_BOUND_ELEMENT if q.index in bound_e else _FREE_ELEMENT)
        elif t is SVar:
            out.append(_BOUND_SET if q.index in bound_s else _FREE_SET)
        elif t is Appl or t is Imp:
            out.append(_NOT_A_VARIABLE)
            walk(q.left)
            walk(q.right)
        elif t is Exists or t is Mu:
            # The head variable token sits inside the binder's own scope, so
            # it is a bound occurrence.
            bound = bound_e if t is Exists else bound_s
            out.append(_NOT_A_VARIABLE)
            out.append(_BOUND_ELEMENT if t is Exists else _BOUND_SET)
            bound.append(q.var)
            walk(q.body)
            bound.pop()
        else:
            out.append(_NOT_A_VARIABLE)

    walk(p)
    return tuple(out)


def occurrence_kind(p: Pattern, k: int) -> OccurrenceKind:
    n = token_len(p)
    if not 0 <= k < n:
        raise OutOfRange(f"position {k} outside pattern of length {n}")
    return occurrence_kinds(p)[k]


def n_left(p: Pattern, set_index: int, k: int) -> int:
    """How many implication left operands enclose token position ``k``.

    The count restarts at zero below a ``mu`` binder on ``set_index`` itself
    (no free occurrence of that variable survives there), and positions
    outside the pattern count zero.  Parity of this number at the free
    occurrences of ``X<set_index>`` decides polarity.
    """
    if k < 0 or k >= token_len(p):
        return 0
    if isinstance(p, (EVar, SVar, Const)):
        return 0
    if isinstance(p, (Appl, Imp)):
        if k == 0:
            return 0
        ln = token_len(p.left)
        if k <= ln:
            inner = n_left(p.left, set_index, k - 1)
            return inner + 1 if isinstance(p, Imp) else inner
        return n_left(p.right, set_index, k - 1 - ln)
    if isinstance(p, Exists):
        return n_left(p.body, set_index, k - 2) if k >= 2 else 0
    if p.var == set_index:
        return 0
    return n_left(p.body, set_index, k - 2) if k >= 2 else 0


def is_positive_in(p: Pattern, set_index: int) -> bool:
    """Every free occurrence of ``X<set_index>`` sits under an even number of
    implication left operands.  Vacuously true when the variable is not free."""
    return _n_left_parity(p, set_index, False)


def is_negative_in(p: Pattern, set_index: int) -> bool:
    """Dual of :func:`is_positive_in`: every free occurrence under an odd count."""
    return _n_left_parity(p, set_index, True)


def _n_left_parity(p: Pattern, set_index: int, odd: bool) -> bool:
    """Every free occurrence of ``X<set_index>`` in ``p`` has an `n_left`
    count of parity ``odd``, counted from the root of ``p``.  One top-down
    walk: an implication's left operand flips the parity wanted below it."""
    t = type(p)
    if t is SVar:
        return not odd or p.index != set_index
    if t is Appl or t is Imp:
        return _n_left_parity(p.left, set_index, odd ^ (t is Imp)) and _n_left_parity(
            p.right, set_index, odd
        )
    if t is Exists or (t is Mu and p.var != set_index):
        return _n_left_parity(p.body, set_index, odd)
    return True
