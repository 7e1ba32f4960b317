"""Shared hypothesis strategies for pattern and structure generation."""

from __future__ import annotations

from hypothesis import strategies as st

from oracles import structure_from_cells
from aml import sugar
from aml.model import Structure, Valuation
from aml.syntax import Appl, Const, EVar, Exists, Imp, Mu, SVar, Signature

SIG = Signature(("c", "d"))

_evar = st.integers(0, 2).map(EVar)
_svar = st.integers(0, 2).map(SVar)
_const = st.sampled_from(SIG.constants).map(Const)


def patterns(max_leaves: int = 12):
    return st.recursive(
        st.one_of(_evar, _svar, _const),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Appl(*t)),
            st.tuples(inner, inner).map(lambda t: Imp(*t)),
            st.tuples(st.integers(0, 2), inner).map(lambda t: Exists(*t)),
            st.tuples(st.integers(0, 2), inner).map(lambda t: Mu(*t)),
        ),
        max_leaves=max_leaves,
    )


def sugared_patterns(max_leaves: int = 10):
    """Patterns built with the derived forms as well as the core ones, so
    that every sugar notation turns up, nested in every other."""
    index = st.integers(0, 2)
    return st.recursive(
        st.one_of(_evar, _svar, _const, st.sampled_from((sugar.BOT, sugar.TOP))),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Appl(*t)),
            st.tuples(inner, inner).map(lambda t: Imp(*t)),
            st.tuples(index, inner).map(lambda t: Exists(*t)),
            st.tuples(index, inner).map(lambda t: Mu(*t)),
            inner.map(sugar.neg),
            inner.map(sugar.ceil),
            inner.map(sugar.floor),
            st.tuples(inner, inner).map(lambda t: sugar.or_(*t)),
            st.tuples(inner, inner).map(lambda t: sugar.and_(*t)),
            st.tuples(inner, inner).map(lambda t: sugar.iff(*t)),
            st.tuples(inner, inner).map(lambda t: sugar.eq(*t)),
            st.tuples(index, inner).map(lambda t: sugar.mem(*t)),
            st.tuples(index, inner).map(lambda t: sugar.forall(*t)),
            st.tuples(index, inner).map(lambda t: sugar.nu(*t)),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def structures(draw, max_size: int = 3, constants: tuple[str, ...] = SIG.constants):
    """A small structure with arbitrary application table and constants."""
    size = draw(st.integers(1, max_size))
    universe = tuple(str(i) for i in range(size))
    members = st.frozensets(st.sampled_from(universe))
    app = {}
    for a in universe:
        for b in universe:
            row = draw(members)
            if row:
                app[(a, b)] = row
    consts = {name: draw(members) for name in constants}
    return structure_from_cells(universe, app, consts)


@st.composite
def valuations(draw, structure: Structure, evars: int = 3, svars: int = 3):
    members = st.frozensets(st.sampled_from(structure.universe))
    element = {i: draw(st.sampled_from(structure.universe)) for i in range(evars)}
    sets = {i: draw(members) for i in range(svars)}
    return Valuation(element, sets)


@st.composite
def structure_with_valuation(draw, max_size: int = 3):
    s = draw(structures(max_size=max_size))
    v = draw(valuations(s))
    return s, v
