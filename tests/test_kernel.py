"""The bitmask evaluator and `consequence` against the frozenset oracle.

`tests/oracles.py` keeps the original evaluator, which meets every ``mu``
with the intersection of all closed sets, and a `consequence` built on it.
Patterns are generated to reach the cases where the two fixpoint paths
differ: nested ``mu``, bodies that are not positive in their variable,
bodies where the variable is vacuous, and ``exists`` under ``mu``.

A metamorphic check backs the symmetry reduction in `consequence`: renaming
the universe by any permutation renames every value by it and leaves every
consequence verdict as it was.
"""

from functools import lru_cache

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import SIG, patterns, structures, valuations
from aml.model import SuiteSpec, Valuation
from aml.semantics import consequence, evaluate, fv_assignments
from aml.syntax import Appl, Const, EVar, Exists, Imp, Mu, SVar, free_vars, is_positive_in

_var = st.integers(0, 2)

# Node evaluations the frozenset oracle may spend on one example.  It walks
# all 2^|A| subsets at every ``mu``, so a few nested binders over four
# elements, or a sweep over many valuations, would take minutes.
ORACLE_BUDGET = 60_000


def oracle_cost(p, n: int) -> int:
    """Node evaluations the frozenset oracle spends on ``p`` over ``n`` elements."""
    if isinstance(p, (Appl, Imp)):
        return 1 + oracle_cost(p.left, n) + oracle_cost(p.right, n)
    if isinstance(p, Exists):
        return 1 + n * oracle_cost(p.body, n)
    if isinstance(p, Mu):
        return 1 + (1 << n) * oracle_cost(p.body, n)
    return 1


def sweep_cost(patterns, suite) -> int:
    """`oracle_cost` over every structure and every assignment of the free
    variables: an upper bound on what one consequence check costs it."""
    fe, fs = set(), set()
    for p in patterns:
        e, s = free_vars(p)
        fe |= e
        fs |= s
    total = 0
    for structure in suite:
        n = len(structure.universe)
        per = sum(oracle_cost(p, n) for p in patterns)
        total += n ** len(fe) * (1 << n) ** len(fs) * per
    return total


def _mu_forms(inner):
    return st.one_of(
        # Nested: the inner binder sits inside the outer body.
        st.tuples(_var, _var, inner, inner).map(
            lambda t: Mu(t[0], Appl(Mu(t[1], t[2]), t[3]))
        ),
        # Not positive: the bound variable under an implication's left side.
        st.tuples(_var, inner).map(lambda t: Mu(t[0], Imp(SVar(t[0]), t[1]))),
        # Vacuous: the bound variable is one the body cannot mention.
        st.tuples(inner).map(lambda t: Mu(7, t[0])),
        # An existential directly under the binder.
        st.tuples(_var, _var, inner).map(lambda t: Mu(t[0], Exists(t[1], t[2]))),
    )


def kernel_patterns(max_leaves: int = 8):
    return st.recursive(
        patterns(max_leaves=2),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Appl(*t)),
            st.tuples(inner, inner).map(lambda t: Imp(*t)),
            st.tuples(_var, inner).map(lambda t: Exists(*t)),
            st.tuples(_var, inner).map(lambda t: Mu(*t)),
            _mu_forms(inner),
        ),
        max_leaves=max_leaves,
    )


@lru_cache(maxsize=None)
def pool():
    """Every structure over ``c, d`` with at most two elements, then seeded
    samples with three and four elements."""
    return tuple(SuiteSpec(SIG, max_size=4, seed=5, samples=60).structures())


def _structure(draw):
    structures = pool()
    return structures[draw(st.integers(0, len(structures) - 1))]


@st.composite
def structure_valuation(draw):
    s = _structure(draw)
    return s, draw(valuations(s))


NESTED = Mu(0, Appl(Mu(1, Imp(SVar(1), Appl(SVar(0), EVar(0)))), Const("c")))
NOT_POSITIVE = Mu(0, Imp(SVar(0), Appl(Const("c"), SVar(0))))
VACUOUS = Mu(1, Appl(Const("d"), SVar(0)))
EXISTS_UNDER_MU = Mu(0, Exists(1, Imp(Const("c"), Appl(EVar(1), SVar(0)))))


def test_pinned_examples_take_both_fixpoint_paths():
    assert not is_positive_in(NOT_POSITIVE.body, 0)
    assert not is_positive_in(NESTED.body.left.body, 1)
    assert is_positive_in(NESTED.body, 0)
    assert is_positive_in(VACUOUS.body, 1)
    assert is_positive_in(EXISTS_UNDER_MU.body, 0)


@given(structure_valuation(), kernel_patterns())
@settings(max_examples=400, deadline=None)
@example((pool()[-1], Valuation()), NESTED)
@example((pool()[-1], Valuation()), NOT_POSITIVE)
@example((pool()[-1], Valuation()), VACUOUS)
@example((pool()[-1], Valuation()), EXISTS_UNDER_MU)
def test_evaluate_agrees_with_the_frozenset_oracle(sv, p):
    s, v = sv
    assume(oracle_cost(p, len(s.universe)) <= ORACLE_BUDGET)
    assert evaluate(s, v, p) == oracles.eval_frozenset(s, v, p)


@given(structure_valuation(), st.lists(kernel_patterns(max_leaves=4), max_size=2))
@settings(max_examples=100, deadline=None)
def test_fv_assignments_agree_with_the_oracle(sv, ps):
    s = sv[0]
    assume(sweep_cost(ps, [s]) <= ORACLE_BUDGET)
    assert list(fv_assignments(s, ps)) == list(oracles.fv_assignments(s, ps))


@st.composite
def queries(draw):
    gamma = draw(st.lists(kernel_patterns(max_leaves=5), max_size=2))
    delta = draw(st.lists(kernel_patterns(max_leaves=5), min_size=1, max_size=2))
    if gamma and draw(st.booleans()):
        # A conclusion that follows, so that some queries sweep the suite.
        delta.append(gamma[0])
    structures = pool()
    indices = draw(st.lists(st.integers(0, len(structures) - 1), min_size=1, max_size=8))
    return gamma, delta, [structures[i] for i in indices]


@given(st.sampled_from(("global", "local", "strong")), queries())
@settings(max_examples=200, deadline=None)
def test_consequence_agrees_with_the_frozenset_oracle(kind, query):
    gamma, delta, suite = query
    assume(sweep_cost(gamma + delta, suite) <= ORACLE_BUDGET)
    got = consequence(kind, gamma, delta, suite)
    want = oracles.consequence_by_frozensets(kind, gamma, delta, suite)
    assert (got.holds, got.kind, got.structures_checked) == (
        want.holds,
        want.kind,
        want.structures_checked,
    )
    assert got.structure is want.structure
    assert got.valuation == want.valuation
    assert got.pattern is want.pattern


@st.composite
def renamings(draw):
    """A structure, a permutation of its universe (as a dict), and the
    structure with every cell and constant renamed by it, built through
    `oracles.structure_from_cells`."""
    s = draw(structures())
    perm = dict(zip(s.universe, draw(st.permutations(s.universe))))
    app = {(perm[a], perm[b]): _image(perm, m) for (a, b), m in s.app.items()}
    constants = {name: _image(perm, m) for name, m in s.constants.items()}
    return s, perm, oracles.structure_from_cells(s.universe, app, constants)


def _image(perm, subset) -> frozenset:
    return frozenset(perm[a] for a in subset)


@given(renamings(), kernel_patterns(), st.data())
@settings(max_examples=300, deadline=None)
def test_evaluation_commutes_with_renaming_the_universe(renaming, p, data):
    s, perm, renamed = renaming
    v = data.draw(valuations(s))
    w = Valuation(
        {i: perm[a] for i, a in v.element.items()},
        {i: _image(perm, b) for i, b in v.sets.items()},
    )
    assert evaluate(renamed, w, p) == _image(perm, evaluate(s, v, p))


@given(
    st.lists(renamings(), min_size=1, max_size=4),
    st.lists(kernel_patterns(max_leaves=4), max_size=2),
    st.lists(kernel_patterns(max_leaves=4), min_size=1, max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_consequence_is_invariant_under_renaming_the_universe(triples, gamma, delta):
    suite = [s for s, _, _ in triples]
    renamed = [r for _, _, r in triples]
    for kind in ("global", "local", "strong"):
        got = consequence(kind, gamma, delta, renamed)
        want = consequence(kind, gamma, delta, suite)
        assert (got.holds, got.structures_checked) == (want.holds, want.structures_checked)
