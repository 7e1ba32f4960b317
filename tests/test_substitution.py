"""Free, bound, and capture-avoiding substitution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import SIG, patterns, structure_with_valuation
from aml.semantics import evaluate
from aml.substitution import (
    KindMismatch,
    VarRef,
    fresh_variables,
    is_free_for,
    subst_bound,
    subst_capture_avoiding,
    subst_free,
)
from aml.syntax import (
    Appl,
    Const,
    EVar,
    Exists,
    Imp,
    Mu,
    SVar,
    free_vars,
    tokens,
)

X0 = VarRef.set(0)
x0 = VarRef.element(0)
x1 = VarRef.element(1)
VARS = st.sampled_from([VarRef(kind, i) for kind in ("element", "set") for i in range(3)])


class TestFreeSubstitution:
    def test_replaces_free_occurrences(self):
        p = Imp(EVar(0), Exists(1, EVar(0)))
        got = subst_free(p, x0, Const("c"))
        assert got == Imp(Const("c"), Exists(1, Const("c")))

    def test_freezes_at_shadowing_binder(self):
        p = Imp(EVar(0), Exists(0, EVar(0)))
        got = subst_free(p, x0, Const("c"))
        assert got == Imp(Const("c"), Exists(0, EVar(0)))

    def test_capture_is_permitted(self):
        """This operation is textual: a variable of the replacement may be
        caught by a binder, which is exactly what free-for rules out."""
        p = Exists(1, Appl(EVar(0), EVar(1)))
        got = subst_free(p, x0, EVar(1))
        assert got == Exists(1, Appl(EVar(1), EVar(1)))

    def test_set_variable_substitution(self):
        p = Imp(SVar(0), Mu(0, SVar(0)))
        got = subst_free(p, X0, Const("c"))
        assert got == Imp(Const("c"), Mu(0, SVar(0)))

    def test_identity_when_absent(self):
        p = Appl(Const("c"), EVar(1))
        assert subst_free(p, x0, Const("d")) is p or subst_free(p, x0, Const("d")) == p

    def test_unchanged_subtrees_are_shared(self):
        """``phi`` itself comes back when ``v`` is not free in it, and every
        subtree without a free ``v`` is kept, not copied."""
        left = Appl(Const("c"), Exists(0, EVar(0)))
        for phi in (left, Mu(0, SVar(0)), Exists(0, Imp(EVar(0), SVar(1))), EVar(1), SVar(0)):
            assert subst_free(phi, x0, Const("d")) is phi
        got = subst_free(Imp(left, EVar(0)), x0, Const("d"))
        assert got == Imp(left, Const("d")) and got.left is left
        got = subst_free(Imp(EVar(0), left), x0, Const("d"))
        assert got == Imp(Const("d"), left) and got.right is left

    @given(patterns(max_leaves=24), VARS, patterns(max_leaves=4))
    @settings(max_examples=300)
    def test_matches_the_rebuilding_oracle(self, p, v, delta):
        assert subst_free(p, v, delta) == oracles.subst_free_rebuild(p, v, delta)


class TestFreeFor:
    def test_no_binders_is_always_free_for(self):
        p = Imp(EVar(0), Appl(EVar(0), SVar(0)))
        assert is_free_for(x0, Appl(EVar(1), EVar(2)), p)

    def test_capture_detected(self):
        p = Exists(1, EVar(0))
        assert not is_free_for(x0, EVar(1), p)

    def test_capture_survives_an_inner_binder(self):
        """A capturing binder stays capturing below a harmless one."""
        p = Exists(1, Exists(2, EVar(0)))
        assert not is_free_for(x0, EVar(1), p)
        assert not is_free_for(X0, SVar(1), Mu(1, Mu(2, SVar(0))))

    def test_shadowed_occurrences_do_not_count(self):
        """Occurrences under a binder on the variable itself are not free."""
        p = Exists(1, Exists(0, EVar(0)))
        assert is_free_for(x0, EVar(1), p)

    def test_set_variable_capture_by_mu(self):
        p = Mu(1, SVar(0))
        assert not is_free_for(X0, SVar(1), p)
        assert is_free_for(X0, SVar(2), p)

    def test_element_capture_by_mu_binder_is_impossible(self):
        """mu binds set variables only, so element replacements pass."""
        p = Mu(0, EVar(0))
        assert is_free_for(x0, EVar(1), p)


class TestBoundSubstitution:
    def test_renames_binder_and_occurrences(self):
        p = Exists(0, Appl(EVar(0), EVar(2)))
        got = subst_bound(p, x0, x1)
        assert got == Exists(1, Appl(EVar(1), EVar(2)))

    def test_outer_binder_only(self):
        """Renaming the outer binder only; inner binders are untouched."""
        p = Exists(1, Appl(EVar(0), EVar(1)))
        got = subst_bound(p, x1, VarRef.element(2))
        assert got == Exists(2, Appl(EVar(0), EVar(2)))

    def test_identity_rename(self):
        p = Exists(0, EVar(0))
        assert subst_bound(p, x0, x0) == p

    def test_deep_rename(self):
        p = Imp(Exists(0, EVar(0)), Exists(0, EVar(0)))
        got = subst_bound(p, x0, x1)
        assert got == Imp(Exists(1, EVar(1)), Exists(1, EVar(1)))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            subst_bound(Exists(0, EVar(0)), x0, X0)

    def test_mu_rename(self):
        p = Mu(0, Imp(SVar(0), SVar(1)))
        got = subst_bound(p, X0, VarRef.set(2))
        assert got == Mu(2, Imp(SVar(2), SVar(1)))

    @given(patterns(), structure_with_valuation())
    @settings(max_examples=60, deadline=None)
    def test_semantics_preserved_for_unused_target(self, p, sv):
        """Renaming a bound variable to one not occurring anywhere keeps the
        evaluation unchanged."""
        structure, valuation = sv
        fresh = VarRef.element(7)
        q = subst_bound(p, x0, fresh)
        assert evaluate(structure, valuation, q) == evaluate(structure, valuation, p)


class TestFreshVariables:
    def test_sequence_above_max(self):
        got = fresh_variables(3, 2, "element")
        assert [v.index for v in got] == [4, 5]
        assert all(v.kind == "element" for v in got)

    def test_set_kind(self):
        got = fresh_variables(0, 3, "set")
        assert [v.index for v in got] == [1, 2, 3]
        assert all(v.kind == "set" for v in got)


class TestCaptureAvoiding:
    def test_plain_case_matches_free_substitution(self):
        p = Imp(EVar(0), Const("c"))
        delta = EVar(1)
        assert subst_capture_avoiding(p, x0, delta) == subst_free(p, x0, delta)

    def test_forced_capture_renames(self):
        """The binder that would capture gets a fresh index first."""
        p = Exists(1, Appl(EVar(0), EVar(1)))
        got = subst_capture_avoiding(p, x0, EVar(1))
        assert got == Exists(2, Appl(EVar(1), EVar(2)))

    def test_bound_variables_of_delta_also_clash(self):
        """Every variable of ``delta``, bound ones included, counts as in use:
        x2 is bound in both inputs and is renamed along with x1."""
        p = Exists(2, Exists(1, EVar(0)))
        delta = Appl(EVar(1), Exists(2, EVar(2)))
        got = subst_capture_avoiding(p, x0, delta)
        assert got == Exists(4, Exists(3, delta))

    @given(patterns(max_leaves=16), VARS, patterns(max_leaves=6), st.booleans())
    @settings(max_examples=300)
    def test_matches_the_rebuilding_oracle(self, p, v, delta, under_binders):
        if under_binders:
            # A free v under binders on x0, x1, X0 and X1, which most
            # generated deltas use, so that most cases rename.
            p = Appl(p, v.as_pattern())
            for i in (0, 1):
                p = p if v == VarRef.element(i) else Exists(i, p)
                p = p if v == VarRef.set(i) else Mu(i, p)
        want = oracles.subst_capture_avoiding_rebuild(p, v, delta)
        assert subst_capture_avoiding(p, v, delta) == want

    def test_result_never_captures(self):
        p = Exists(1, Mu(0, Appl(EVar(0), Appl(EVar(1), SVar(0)))))
        delta = Appl(EVar(1), SVar(0))
        got = subst_capture_avoiding(p, x0, delta)
        fe, fs = free_vars(got)
        assert 1 in fe and 0 in fs

    @given(patterns(max_leaves=8), patterns(max_leaves=4), structure_with_valuation())
    @settings(max_examples=60, deadline=None)
    def test_semantic_substitution_lemma(self, p, delta, sv):
        """Substituting a set variable equals evaluating with the variable
        bound to the replacement's value, capture or not."""
        structure, valuation = sv
        value = evaluate(structure, valuation, delta)
        got = evaluate(structure, valuation, subst_capture_avoiding(p, X0, delta))
        want = evaluate(structure, valuation.with_set(0, value), p)
        assert got == want

    @given(patterns(max_leaves=8), structure_with_valuation())
    @settings(max_examples=60, deadline=None)
    def test_semantic_substitution_lemma_element(self, p, sv):
        structure, valuation = sv
        value = valuation.element_of(1, structure)
        got = evaluate(structure, valuation, subst_capture_avoiding(p, x0, EVar(1)))
        want = evaluate(structure, valuation.with_element(0, value), p)
        assert got == want
