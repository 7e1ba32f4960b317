"""Substitution of patterns for free variables, with and without capture.

`subst_free` is the plain textual operation: it replaces free occurrences and
is allowed to capture.  `subst_bound` renames a bound variable wholesale.
`subst_capture_avoiding` composes the two, renaming clashing bound variables
to fresh indices first, so that the usual semantic substitution equations
hold without side conditions.  Both substitutions share every subtree they
leave unchanged (nodes are immutable), so a pattern without a free
occurrence of the variable comes back itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .syntax import (
    Appl,
    EVar,
    Exists,
    Imp,
    Mu,
    Pattern,
    SVar,
    bound_binder_indices,
    free_vars,
)

__all__ = [
    "KindMismatch",
    "VarRef",
    "is_free_for",
    "subst_free",
    "subst_bound",
    "fresh_variables",
    "subst_capture_avoiding",
]

Kind = Literal["element", "set"]


class KindMismatch(ValueError):
    """An element variable where a set variable is required, or vice versa."""


@dataclass(frozen=True)
class VarRef:
    """A variable named by kind and index, independent of any occurrence."""

    kind: Kind
    index: int

    @classmethod
    def element(cls, index: int) -> "VarRef":
        return cls("element", index)

    @classmethod
    def set(cls, index: int) -> "VarRef":
        return cls("set", index)

    def as_pattern(self) -> Pattern:
        return EVar(self.index) if self.kind == "element" else SVar(self.index)

    def token(self) -> str:
        return ("x" if self.kind == "element" else "X") + str(self.index)


def is_free_for(v: VarRef, delta: Pattern, phi: Pattern) -> bool:
    """No free occurrence of ``v`` in ``phi`` sits under a binder on a free
    variable of ``delta``; substituting ``delta`` there captures nothing."""
    de, ds = free_vars(delta)
    return _free_for(v, de, ds, phi, False)


def _free_for(v: VarRef, delta_e, delta_s, phi: Pattern, captured: bool) -> bool:
    """One walk; ``captured`` says a binder above ``phi`` binds a free
    variable of ``delta``."""
    t = type(phi)
    if t is Appl or t is Imp:
        return _free_for(v, delta_e, delta_s, phi.left, captured) and _free_for(
            v, delta_e, delta_s, phi.right, captured
        )
    if t is Exists:
        if v.kind == "element" and v.index == phi.var:
            return True
        return _free_for(v, delta_e, delta_s, phi.body, captured or phi.var in delta_e)
    if t is Mu:
        if v.kind == "set" and v.index == phi.var:
            return True
        return _free_for(v, delta_e, delta_s, phi.body, captured or phi.var in delta_s)
    if t is EVar:
        return not (captured and v.kind == "element" and phi.index == v.index)
    if t is SVar:
        return not (captured and v.kind == "set" and phi.index == v.index)
    return True


def subst_free(phi: Pattern, v: VarRef, delta: Pattern) -> Pattern:
    """Replace every free occurrence of ``v`` in ``phi`` by ``delta``.

    Purely textual; capture is permitted.  Subtrees without a free
    occurrence of ``v`` are shared, not copied: ``phi`` itself comes back
    when ``v`` is not free in it.
    """
    t = type(phi)
    if t is Appl or t is Imp:
        left = subst_free(phi.left, v, delta)
        right = subst_free(phi.right, v, delta)
        return phi if left is phi.left and right is phi.right else t(left, right)
    if t is Exists or t is Mu:
        if phi.var == v.index and v.kind == ("element" if t is Exists else "set"):
            return phi
        body = subst_free(phi.body, v, delta)
        return phi if body is phi.body else t(phi.var, body)
    if t is EVar or t is SVar:
        if phi.index == v.index and v.kind == ("element" if t is EVar else "set"):
            return delta
    return phi


def subst_bound(phi: Pattern, v: VarRef, w: VarRef) -> Pattern:
    """Rename the bound occurrences of ``v`` in ``phi`` to ``w``.

    Free occurrences are left alone.  Identity when ``v == w``.
    """
    if v.kind != w.kind:
        raise KindMismatch(f"cannot rename {v.token()} to {w.token()}")
    if v == w:
        return phi
    return _subb(phi, v, w)


def _subb(phi: Pattern, v: VarRef, w: VarRef) -> Pattern:
    t = type(phi)
    if t is Appl or t is Imp:
        left = _subb(phi.left, v, w)
        right = _subb(phi.right, v, w)
        return phi if left is phi.left and right is phi.right else t(left, right)
    if t is Exists or t is Mu:
        body = _subb(phi.body, v, w)
        if phi.var == v.index and v.kind == ("element" if t is Exists else "set"):
            # Rename the binder itself, then redirect the occurrences it
            # used to bind.  Deeper binders on v were rewritten first.
            return t(w.index, subst_free(body, v, w.as_pattern()))
        return phi if body is phi.body else t(phi.var, body)
    return phi


def fresh_variables(used_max: int, count: int, kind: Kind) -> list[VarRef]:
    """``count`` variables of ``kind`` indexed from ``used_max + 1`` upward.

    ``used_max`` is the highest index already in use, or -1 if none is.
    """
    return [VarRef(kind, used_max + 1 + i) for i in range(count)]


def subst_capture_avoiding(phi: Pattern, v: VarRef, delta: Pattern) -> Pattern:
    """Substitute ``delta`` for free ``v`` in ``phi``, renaming first.

    When ``v`` is free for ``delta`` this is exactly `subst_free`.  Otherwise
    every variable bound in ``phi`` that also occurs in ``delta`` is renamed
    to a fresh index (above everything used by either input, per variable
    kind), element renamings innermost, and the plain substitution is applied
    to the renamed pattern.
    """
    delta_e, delta_s = free_vars(delta)
    if _free_for(v, delta_e, delta_s, phi, False):
        return subst_free(phi, v, delta)
    # Free indices and binder heads together are every variable occurring.
    bound_e, bound_s = bound_binder_indices(phi)
    free_e, free_s = free_vars(phi)
    delta_bound_e, delta_bound_s = bound_binder_indices(delta)
    occ_e, occ_s = delta_e | delta_bound_e, delta_s | delta_bound_s
    clash_e = sorted(bound_e & occ_e)
    clash_s = sorted(bound_s & occ_s)
    used_e = max(bound_e | free_e | occ_e, default=-1)
    used_s = max(bound_s | free_s | occ_s, default=-1)
    fresh_e = fresh_variables(used_e, len(clash_e), "element")
    fresh_s = fresh_variables(used_s, len(clash_s), "set")
    theta = phi
    for old, new in reversed(list(zip(clash_e, fresh_e))):
        theta = subst_bound(theta, VarRef.element(old), new)
    for old, new in reversed(list(zip(clash_s, fresh_s))):
        theta = subst_bound(theta, VarRef.set(old), new)
    return subst_free(theta, v, delta)
