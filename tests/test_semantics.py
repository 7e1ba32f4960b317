"""Evaluation, satisfaction, tautology checking, and the three consequence
relations, exercised against their defining identities."""

import contextlib
import dataclasses
import gc
import random
import sys
import threading
import weakref
from operator import is_
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import kt_gfp, kt_lfp, structure_from_cells
from strategies import patterns, structure_with_valuation, sugared_patterns
from aml.context import ApplL, ApplR, Box, plug
from aml.model import (
    Structure,
    Suite,
    SuiteSpec,
    UniverseTooLarge,
    Valuation,
    apply_sets,
    subsets_of,
    validate_structure,
)
from aml.semantics import (
    ConsequenceKind,
    NotADefinednessStructure,
    SkeletonTooLarge,
    UnassignedConstant,
    consequence,
    eval_definedness,
    evaluate,
    fv_assignments,
    is_predicate,
    is_tautology,
    models,
    satisfies,
)
# The block form the tests below hold lane by lane against `evaluate`, and
# the module whose kept layout they reset.
from aml.semantics import _Block, _columns, _ev
import aml.semantics as semantics
from aml.sugar import BOT, TOP, and_, ceil, eq, forall, iff, neg, nu, or_
from aml.syntax import (
    Appl,
    Const,
    EVar,
    Exists,
    Imp,
    Mu,
    SVar,
    Signature,
    free_vars,
)

X0, X1 = EVar(0), EVar(1)
C = Const("c")


def plain(universe=("0", "1"), app=(), constants=None):
    return validate_structure(
        {
            "universe": list(universe),
            "app": [dict(r) for r in app],
            "constants": dict(constants or {}),
        }
    )


class TestEvaluateBaseCases:
    def setup_method(self):
        self.s = plain(
            app=[{"left": "0", "right": "1", "result": ["0", "1"]}],
            constants={"c": ["1"]},
        )
        self.v = Valuation({0: "0", 1: "1"}, {0: frozenset({"1"})})

    def test_element_variable_is_a_singleton(self):
        assert evaluate(self.s, self.v, X0) == frozenset({"0"})
        assert evaluate(self.s, self.v, EVar(9)) == frozenset({"0"})

    def test_set_variable_reads_the_valuation(self):
        assert evaluate(self.s, self.v, SVar(0)) == frozenset({"1"})
        assert evaluate(self.s, self.v, SVar(9)) == frozenset()

    def test_constant_reads_the_structure(self):
        assert evaluate(self.s, self.v, C) == frozenset({"1"})
        with pytest.raises(UnassignedConstant):
            evaluate(self.s, self.v, Const("missing"))

    def test_application_unions_over_operand_pairs(self):
        got = evaluate(self.s, self.v, Appl(X0, X1))
        assert got == frozenset({"0", "1"})
        assert evaluate(self.s, self.v, Appl(X1, X0)) == frozenset()

    def test_implication_is_relative_complement(self):
        got = evaluate(self.s, self.v, Imp(C, X1))
        assert got == (self.s.carrier - frozenset({"1"})) | frozenset({"1"})

    def test_exists_unions_over_reassignments(self):
        p = Exists(0, Appl(X0, X1))
        want = set()
        for a in self.s.universe:
            want |= evaluate(self.s, self.v.with_element(0, a), Appl(X0, X1))
        assert evaluate(self.s, self.v, p) == frozenset(want)

    def test_mu_is_the_meet_of_closed_sets(self):
        body = or_(C, SVar(0))
        acc = self.s.carrier
        for b in subsets_of(self.s.universe):
            if evaluate(self.s, self.v.with_set(0, b), body) <= b:
                acc &= b
        assert evaluate(self.s, self.v, Mu(0, body)) == acc
        op = lambda b: evaluate(self.s, self.v.with_set(0, b), body)
        assert evaluate(self.s, self.v, Mu(0, body)) == kt_lfp(op, self.s.universe)

    def test_mu_on_a_non_monotone_body_still_means_closed_sets(self):
        # Only the whole carrier is closed under complement.
        assert evaluate(self.s, self.v, Mu(0, neg(SVar(0)))) == self.s.carrier

    def test_universe_cap(self):
        with pytest.raises(UniverseTooLarge):
            evaluate(structure_from_cells(tuple(str(i) for i in range(13))), Valuation(), BOT)


class TestDerivedValueLaws:
    """Set-level identities for the derived connectives."""

    @given(structure_with_valuation(), patterns(max_leaves=6), patterns(max_leaves=6))
    @settings(max_examples=120, deadline=None)
    def test_binary_connectives(self, sv, a, b):
        s, v = sv
        ea, eb = evaluate(s, v, a), evaluate(s, v, b)
        full = s.carrier
        assert evaluate(s, v, BOT) == frozenset()
        assert evaluate(s, v, TOP) == full
        assert evaluate(s, v, neg(a)) == full - ea
        assert evaluate(s, v, or_(a, b)) == ea | eb
        assert evaluate(s, v, and_(a, b)) == ea & eb
        assert evaluate(s, v, Imp(a, b)) == (full - ea) | eb
        assert evaluate(s, v, iff(a, b)) == full - (ea ^ eb)

    @given(structure_with_valuation(), patterns(max_leaves=6))
    @settings(max_examples=120, deadline=None)
    def test_forall_is_a_meet(self, sv, a):
        s, v = sv
        want = s.carrier
        for el in s.universe:
            want &= evaluate(s, v.with_element(1, el), a)
        assert evaluate(s, v, forall(1, a)) == want

    @given(structure_with_valuation(), patterns(max_leaves=6))
    @settings(max_examples=120, deadline=None)
    def test_nu_agrees_with_the_direct_greatest_fixpoint(self, sv, body):
        s, v = sv
        op = lambda b: evaluate(s, v.with_set(0, b), body)
        assert evaluate(s, v, nu(0, body)) == kt_gfp(op, s.universe)

    @given(structure_with_valuation(), patterns(max_leaves=8))
    @settings(max_examples=120, deadline=None)
    def test_value_depends_only_on_free_variables(self, sv, p):
        s, v = sv
        fe, fs = free_vars(p)
        scrambled = Valuation(
            {i: v.element[i] for i in v.element if i in fe},
            {i: v.sets[i] for i in v.sets if i in fs},
        )
        # Defaults fill unlisted variables; to really scramble, point every
        # non-free variable somewhere else.
        noisy = scrambled
        for i in range(3):
            if i not in fe:
                noisy = noisy.with_element(i, s.universe[-1])
            if i not in fs:
                noisy = noisy.with_set(i, s.carrier)
        e_default = Valuation({}, {}).element_of(99, s)
        fixed = v
        for i in fe:
            if i not in v.element:
                fixed = fixed.with_element(i, e_default)
        assert evaluate(s, noisy, p) == evaluate(s, fixed, p)


class TestSatisfactionLaws:
    """Pointwise satisfaction, reduced to statements about values."""

    def test_variables_and_constants(self):
        one = plain(universe=("a",), constants={"c": ["a"]})
        two = plain(constants={"c": ["0", "1"]})
        v = Valuation()
        assert satisfies(one, v, X0)
        assert not satisfies(two, v, X0)
        assert satisfies(one, v, C) and satisfies(two, v, C)
        assert not satisfies(two, v, Const("c")) or two.constants["c"] == two.carrier
        assert satisfies(two, v.with_set(0, two.carrier), SVar(0))
        assert not satisfies(two, v, SVar(0))
        assert not satisfies(two, v, BOT)
        assert satisfies(two, v, TOP)

    @given(structure_with_valuation(), patterns(max_leaves=6), patterns(max_leaves=6))
    @settings(max_examples=120, deadline=None)
    def test_connective_equivalences(self, sv, a, b):
        s, v = sv
        ea, eb = evaluate(s, v, a), evaluate(s, v, b)
        assert satisfies(s, v, neg(a)) == (ea == frozenset())
        assert satisfies(s, v, and_(a, b)) == (satisfies(s, v, a) and satisfies(s, v, b))
        assert satisfies(s, v, or_(a, b)) == (ea | eb == s.carrier)
        assert satisfies(s, v, Imp(a, b)) == (ea <= eb)
        assert satisfies(s, v, iff(a, b)) == (ea == eb)
        assert satisfies(s, v, iff(a, b)) == (
            satisfies(s, v, Imp(a, b)) and satisfies(s, v, Imp(b, a))
        )

    @given(structure_with_valuation(), patterns(max_leaves=6))
    @settings(max_examples=120, deadline=None)
    def test_quantifier_equivalences(self, sv, a):
        s, v = sv
        union = set()
        for el in s.universe:
            union |= evaluate(s, v.with_element(0, el), a)
        assert satisfies(s, v, Exists(0, a)) == (frozenset(union) == s.carrier)
        assert satisfies(s, v, forall(0, a)) == all(
            satisfies(s, v.with_element(0, el), a) for el in s.universe
        )

    @given(structure_with_valuation(), patterns(max_leaves=6))
    @settings(max_examples=100, deadline=None)
    def test_witness_satisfaction_implies_exists(self, sv, a):
        s, v = sv
        for el in s.universe:
            if satisfies(s, v.with_element(0, el), a):
                assert satisfies(s, v, Exists(0, a))
                break

    @given(structure_with_valuation(), patterns(max_leaves=5))
    @settings(max_examples=80, deadline=None)
    def test_satisfaction_under_every_set_implies_mu(self, sv, body):
        s, v = sv
        if all(
            satisfies(s, v.with_set(0, b), body) for b in subsets_of(s.universe)
        ):
            assert satisfies(s, v, Mu(0, body))


class TestPropagationLaws:
    """How application interacts with the lattice connectives."""

    @given(structure_with_valuation(), patterns(max_leaves=6))
    @settings(max_examples=100, deadline=None)
    def test_falsum_annihilates(self, sv, a):
        s, v = sv
        assert evaluate(s, v, Appl(a, BOT)) == frozenset()
        assert evaluate(s, v, Appl(BOT, a)) == frozenset()

    @given(
        structure_with_valuation(),
        patterns(max_leaves=5),
        patterns(max_leaves=5),
        patterns(max_leaves=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_disjunction_distributes(self, sv, a, b, c):
        s, v = sv
        left = evaluate(s, v, Appl(or_(a, b), c))
        assert left == evaluate(s, v, or_(Appl(a, c), Appl(b, c)))
        right = evaluate(s, v, Appl(c, or_(a, b)))
        assert right == evaluate(s, v, or_(Appl(c, a), Appl(c, b)))

    @given(structure_with_valuation(), patterns(max_leaves=5), patterns(max_leaves=5))
    @settings(max_examples=100, deadline=None)
    def test_exists_floats_out_of_application(self, sv, a, b):
        # Variable 5 is outside the generator's range, so it is not free in b.
        s, v = sv
        assert evaluate(s, v, Appl(Exists(5, a), b)) == evaluate(
            s, v, Exists(5, Appl(a, b))
        )
        assert evaluate(s, v, Appl(b, Exists(5, a))) == evaluate(
            s, v, Exists(5, Appl(b, a))
        )

    @given(
        structure_with_valuation(),
        patterns(max_leaves=5),
        patterns(max_leaves=5),
        patterns(max_leaves=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_conjunction_only_half_distributes(self, sv, a, b, c):
        s, v = sv
        assert evaluate(s, v, Appl(and_(a, b), c)) <= evaluate(
            s, v, and_(Appl(a, c), Appl(b, c))
        )
        assert evaluate(s, v, Appl(c, and_(a, b))) <= evaluate(
            s, v, and_(Appl(c, a), Appl(c, b))
        )

    @given(structure_with_valuation(), patterns(max_leaves=5), patterns(max_leaves=5))
    @settings(max_examples=100, deadline=None)
    def test_forall_only_floats_one_way(self, sv, a, b):
        s, v = sv
        assert evaluate(s, v, Appl(forall(5, a), b)) <= evaluate(
            s, v, forall(5, Appl(a, b))
        )
        assert evaluate(s, v, Appl(b, forall(5, a))) <= evaluate(
            s, v, forall(5, Appl(b, a))
        )

    def test_conjunction_distribution_is_strict_somewhere(self):
        s = plain(
            app=[
                {"left": "0", "right": "0", "result": ["0"]},
                {"left": "1", "right": "0", "result": ["0"]},
            ]
        )
        v = Valuation({}, {0: frozenset({"0"}), 1: frozenset({"1"})})
        a, b, c = SVar(0), SVar(1), EVar(0)
        lhs = evaluate(s, v, Appl(and_(a, b), c))
        rhs = evaluate(s, v, and_(Appl(a, c), Appl(b, c)))
        assert lhs < rhs


class TestContextLaws:
    """The same interaction laws, phrased through application contexts."""

    CONTEXTS = [
        Box(),
        ApplL(Box(), Appl(C, EVar(1))),
        ApplR(SVar(1), ApplL(Box(), EVar(0))),
    ]

    @given(structure_with_valuation(), patterns(max_leaves=5), patterns(max_leaves=5))
    @settings(max_examples=80, deadline=None)
    def test_holes_preserve_joins_and_halve_meets(self, sv, a, b):
        s, v = sv
        for ctx in self.CONTEXTS:
            assert evaluate(s, v, plug(ctx, BOT)) == frozenset()
            assert evaluate(s, v, plug(ctx, or_(a, b))) == evaluate(
                s, v, or_(plug(ctx, a), plug(ctx, b))
            )
            assert evaluate(s, v, plug(ctx, and_(a, b))) <= evaluate(
                s, v, and_(plug(ctx, a), plug(ctx, b))
            )

    @given(structure_with_valuation(), patterns(max_leaves=5))
    @settings(max_examples=80, deadline=None)
    def test_quantifiers_float_through_holes(self, sv, a):
        # Context side patterns only use variables 0..2, so 5 is fresh.
        s, v = sv
        for ctx in self.CONTEXTS:
            assert evaluate(s, v, plug(ctx, Exists(5, a))) == evaluate(
                s, v, Exists(5, plug(ctx, a))
            )
            assert evaluate(s, v, plug(ctx, forall(5, a))) <= evaluate(
                s, v, forall(5, plug(ctx, a))
            )


class TestAssignmentsAndValidity:
    def test_fv_assignments_order_and_count(self):
        s = plain()
        got = list(fv_assignments(s, [Appl(EVar(1), SVar(0))]))
        assert len(got) == 2 * 4
        assert got[0] == Valuation({1: "0"}, {0: frozenset()})
        assert got[1] == Valuation({1: "0"}, {0: frozenset({"0"})})
        assert got[4] == Valuation({1: "1"}, {0: frozenset()})
        assert got == list(fv_assignments(s, [Appl(EVar(1), SVar(0))]))

    def test_fv_assignments_of_a_closed_pattern(self):
        s = plain()
        got = list(fv_assignments(s, [Imp(C, C)]))
        assert got == [Valuation({}, {})]

    def test_models_quantifies_over_free_variables(self):
        s = plain(constants={"c": ["0", "1"]})
        assert models(s, Imp(X0, X0))
        assert models(s, C)
        assert not models(s, X0)
        assert models(s, Exists(0, X0))

    def test_is_predicate(self):
        s = plain(constants={"c": ["1"]})
        assert is_predicate(s, BOT)
        assert is_predicate(s, TOP)
        assert is_predicate(s, Imp(X0, X0))
        assert not is_predicate(s, X0)
        assert not is_predicate(s, C)
        one = plain(universe=("a",))
        assert is_predicate(one, X0)


class TestTautology:
    def test_skeleton_atoms_are_maximal_non_implication_subpatterns(self):
        # The implication inside the application is not split: alone, the
        # application is one opaque atom.
        assert is_tautology(Imp(C, Imp(Appl(Imp(C, C), C), C)))
        assert not is_tautology(Appl(Imp(C, C), C))

    def test_any_self_loop_counts_as_falsum(self):
        assert is_tautology(Imp(Mu(3, SVar(3)), X0))
        assert not is_tautology(Imp(Mu(0, SVar(1)), X0))

    def test_binders_are_opaque(self):
        assert not is_tautology(Exists(0, Imp(X0, X0)))

    def test_pinned_tautologies(self):
        a, b = SVar(0), SVar(1)
        for p in (
            Imp(a, a),
            Imp(a, Imp(b, a)),
            or_(a, neg(a)),
            Imp(Imp(Imp(a, b), a), a),
            iff(Imp(a, b), Imp(neg(b), neg(a))),
            Imp(BOT, a),
        ):
            assert is_tautology(p), p

    def test_pinned_non_tautologies(self):
        a, b = SVar(0), SVar(1)
        for p in (a, Imp(a, b), or_(a, b), Imp(Imp(a, b), b), neg(a)):
            assert not is_tautology(p), p

    def test_equal_atoms_share_a_column(self):
        # x -> x is a tautology only because both sides are the same atom.
        assert is_tautology(Imp(Appl(C, X0), Appl(C, X0)))
        assert not is_tautology(Imp(Appl(C, X0), Appl(C, X1)))

    def test_atom_limit(self):
        wide = SVar(0)
        for i in range(1, 22):
            wide = Imp(SVar(i), wide)
        with pytest.raises(SkeletonTooLarge):
            is_tautology(wide)
        assert is_tautology(wide, max_atoms=25) is False

    def test_twenty_atoms_are_decided_and_twenty_one_refused(self):
        atoms = [SVar(i) for i in range(21)]
        chain = atoms[0]
        for a in atoms[1:20]:
            chain = Imp(a, chain)
        assert is_tautology(chain) is False
        assert is_tautology(Imp(atoms[0], chain)) is True
        with pytest.raises(SkeletonTooLarge, match=r"^21 distinct atoms exceed the limit of 20$"):
            is_tautology(Imp(atoms[20], chain))

    def test_agrees_with_the_row_by_row_truth_table(self):
        import random

        from oracles import tautology_by_rows

        rng = random.Random(6)
        pool = [Const("c"), Const("d")] + [
            make(i)
            for i in range(4)
            for make in (
                EVar,
                SVar,
                lambda i: Appl(C, EVar(i)),
                lambda i: Exists(i, Imp(EVar(i), SVar(i))),
                lambda i: Mu(i, Appl(C, SVar(i))),
                lambda i: Mu(i, SVar(i + 1)),
                lambda i: Appl(Imp(C, C), SVar(i)),
            )
        ]

        def tree(leaves):
            if len(leaves) == 1:
                return leaves[0]
            cut = rng.randrange(1, len(leaves))
            return Imp(tree(leaves[:cut]), tree(leaves[cut:]))

        verdicts = []
        for j in range(480):
            atoms = rng.sample(pool, 1 + j % 12)
            leaves = atoms + rng.choices(atoms, k=rng.randrange(3))
            leaves += rng.choices((BOT, Mu(3, SVar(3))), k=rng.randrange(3))
            rng.shuffle(leaves)
            f = tree(leaves)
            g = tree(rng.sample(atoms, rng.randint(1, len(atoms))))
            p = (
                f,
                Imp(f, Imp(g, f)),
                Imp(neg(f), Imp(f, g)),
                Imp(Imp(Imp(f, g), f), f),
            )[j // 12 % 4]
            verdict = is_tautology(p)
            assert verdict == tautology_by_rows(p), p
            verdicts.append(verdict)
        assert 150 < sum(verdicts) < 450

    @given(sugared_patterns(max_leaves=5), sugared_patterns(max_leaves=5), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_truth_table_on_generated_patterns(self, f, g, shape):
        """Generated patterns, alone and in three tautology schemes."""
        from oracles import tautology_by_rows

        p = (f, Imp(f, Imp(g, f)), Imp(neg(f), Imp(f, g)), Imp(Imp(Imp(f, g), f), f))[shape]
        assert is_tautology(p) == tautology_by_rows(p)

    @given(st.integers(0, 10**9), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_powerset_evaluation(self, seed, atoms):
        import random

        from oracles import random_skeleton, tautology_by_evaluation

        p = random_skeleton(random.Random(seed), atoms)
        assert is_tautology(p) == tautology_by_evaluation(p)


def mini_suite():
    return list(SuiteSpec(Signature(()), max_size=2).structures())


# A spread of structures interpreting the generator signature, for the
# hypothesis-driven consequence tests.  Built once; consequence only reads it.
_RICH = list(SuiteSpec(Signature(("c", "d")), max_size=2).structures())[::205]


class TestConsequence:
    def test_global_holds_where_local_fails(self):
        gamma = [or_(X0, X1)]
        delta = [and_(X0, X1)]
        suite = mini_suite()
        g = consequence("global", gamma, delta, suite)
        assert g.holds and g.structures_checked == len(suite)
        l = consequence("local", gamma, delta, suite)
        assert not l.holds
        assert l.structures_checked == 3
        assert len(l.structure.universe) == 2
        assert l.valuation.element[0] != l.valuation.element[1]
        assert l.note

    def test_local_holds_where_strong_fails(self):
        suite = mini_suite()
        l = consequence("local", [X0], [X1], suite)
        assert l.holds
        s = consequence("strong", [X0], [X1], suite)
        assert not s.holds
        assert len(s.structure.universe) == 2
        assert evaluate(s.structure, s.valuation, X0) > frozenset()
        assert not (
            evaluate(s.structure, s.valuation, X0)
            <= evaluate(s.structure, s.valuation, X1)
        )

    def test_strong_from_nothing_is_validity(self):
        suite = mini_suite()
        assert consequence("strong", [], [Imp(X0, X0)], suite).holds
        v = consequence("strong", [], [X0], suite)
        assert not v.holds

    def test_strong_consequence_of_a_conjunct(self):
        suite = mini_suite()
        got = consequence("strong", [and_(SVar(0), SVar(1))], [SVar(0)], suite)
        assert got.holds

    def test_kind_round_trip(self):
        verdict = consequence(ConsequenceKind.LOCAL, [], [TOP], mini_suite()[:2])
        assert verdict.kind is ConsequenceKind.LOCAL
        with pytest.raises(ValueError):
            consequence("sideways", [], [TOP], [])

    def test_multiple_conclusions_all_checked(self):
        suite = mini_suite()
        got = consequence("global", [], [TOP, X0], suite)
        assert not got.holds and got.pattern == X0

    @given(patterns(max_leaves=4), patterns(max_leaves=4))
    @settings(max_examples=40, deadline=None)
    def test_strength_ordering(self, g, d):
        # Anything strong is local; anything local is global.
        suite = _RICH
        strong = consequence("strong", [g], [d], suite)
        local = consequence("local", [g], [d], suite)
        glob = consequence("global", [g], [d], suite)
        if strong.holds:
            assert local.holds
        if local.holds:
            assert glob.holds

    @given(patterns(max_leaves=4), patterns(max_leaves=4))
    @settings(max_examples=40, deadline=None)
    def test_counterexamples_replay(self, g, d):
        suite = _RICH
        for kind in ("global", "local", "strong"):
            got = consequence(kind, [g], [d], suite)
            if got.holds:
                continue
            s, v, p = got.structure, got.valuation, got.pattern
            assert p == d
            if kind == "global":
                assert models(s, g)
                assert not satisfies(s, v, p)
            elif kind == "local":
                assert satisfies(s, v, g)
                assert not satisfies(s, v, p)
            else:
                assert not (evaluate(s, v, g) <= evaluate(s, v, p))


KINDS = ("global", "local", "strong")
_C_SUITE = list(SuiteSpec(Signature(("c",)), max_size=2).structures())
_C_COPIES = [dataclasses.replace(s, twin=None) for s in _C_SUITE]


def _c_patterns(max_leaves: int = 4):
    """Patterns over the signature ``c`` whose free variables are among
    x0, x1 and X0, so that a sweep of the suite stays cheap."""
    return st.recursive(
        st.sampled_from((X0, X1, SVar(0), C)),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Appl(*t)),
            st.tuples(inner, inner).map(lambda t: Imp(*t)),
            st.tuples(st.integers(0, 1), inner).map(lambda t: Exists(*t)),
            st.tuples(st.integers(0, 1), inner).map(lambda t: Mu(*t)),
        ),
        max_leaves=max_leaves,
    )


class TestSymmetryReduction:
    """`consequence` skips a structure whose twin held earlier in the call.
    Deciding the same query over copies without twins, which skips
    nothing, must give the same verdict in every field but the skip count."""

    def agree(self, kind, gamma, delta, view=lambda suite: suite):
        suite, copies = view(_C_SUITE), view(_C_COPIES)
        got = consequence(kind, gamma, delta, suite)
        want = consequence(kind, gamma, delta, copies)
        assert want.structures_skipped == 0
        assert (got.holds, got.kind, got.structures_checked) == (
            want.holds, want.kind, want.structures_checked
        )
        assert (got.valuation, got.note) == (want.valuation, want.note)
        assert got.pattern is want.pattern
        if got.holds:
            assert got.structure is want.structure is None
        else:
            at = got.structures_checked - 1
            assert got.structure is suite[at] and want.structure is copies[at]
        return got

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_holding_sweep_skips_every_later_twin(self, kind):
        got = self.agree(kind, [C], [Imp(Appl(C, C), C)])
        assert got.holds
        assert (got.structures_checked, got.structures_skipped) == (1028, 496)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_failure_after_skipped_structures_is_the_first_one(self, kind):
        cc = Appl(C, C)
        got = self.agree(kind, [], [Imp(Appl(cc, C), cc)])
        assert not got.holds and got.structures_skipped > 0
        assert got.structures_checked == 139

    @pytest.mark.parametrize("kind", KINDS)
    def test_reordered_and_partial_suites_skip_only_decided_twins(self, kind):
        query = ([C], [Imp(Appl(C, C), C)])
        backwards = self.agree(kind, *query, view=lambda s: s[::-1])
        assert backwards.holds and backwards.structures_skipped == 0
        # Keep each twin only where the structure naming it is dropped.
        odd = self.agree(kind, *query, view=lambda s: s[1::2])
        assert odd.holds and 0 < odd.structures_skipped < 496

    @given(st.sampled_from(KINDS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_unreduced_decision(self, kind, data):
        gamma = data.draw(st.lists(_c_patterns(), max_size=2))
        delta = data.draw(st.lists(_c_patterns(), min_size=1, max_size=2))
        if gamma and data.draw(st.booleans()):
            # Conclusions that follow, so that some queries sweep the suite.
            delta = gamma[:1]
        self.agree(kind, gamma, delta)

    def test_the_corpus_suite_skips_496_of_1228(self):
        spec = SuiteSpec(Signature(("c",)), max_size=3, seed=1, samples=200)
        got = consequence("global", [], [Imp(C, C)], list(spec.structures()))
        assert (got.holds, got.structures_checked, got.structures_skipped) == (True, 1228, 496)


class TestDefinedness:
    def setup_method(self):
        self.suite = list(
            SuiteSpec(Signature(()), max_size=2, defined=True).structures()
        )

    def test_closed_forms(self):
        for s in self.suite:
            full, none = s.carrier, frozenset()
            for v in fv_assignments(s, [Appl(SVar(0), EVar(0))]):
                val = evaluate(s, v, SVar(0))
                assert eval_definedness(s, v, "ceil", [SVar(0)]) == (
                    full if val else none
                )
                assert eval_definedness(s, v, "floor", [SVar(0)]) == (
                    full if val == full else none
                )
                assert eval_definedness(s, v, "eq", [SVar(0), SVar(0)]) == full
                assert eval_definedness(s, v, "eq", [SVar(0), BOT]) == (
                    none if val else full
                )
                assert eval_definedness(s, v, "mem", [0, SVar(0)]) == (
                    full if v.element_of(0, s) in val else none
                )

    def test_definedness_of_a_variable_is_total(self):
        for s in self.suite:
            assert models(s, ceil(EVar(0)))

    def test_ceil_is_a_predicate(self):
        for s in self.suite[:4]:
            assert is_predicate(s, ceil(SVar(0)))

    def test_requires_the_constant(self):
        s = plain()
        with pytest.raises(NotADefinednessStructure):
            eval_definedness(s, Valuation(), "ceil", [TOP])

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            eval_definedness(self.suite[0], Valuation(), "sharp", [TOP])


# ---------------------------------------------------------------------------
# Lane blocks: `consequence` packs a run of same-size structures into one
# block and evaluates them all at once with `_ev`.


def _random_structure(rng, size, names=("c", "d")):
    rows = tuple(tuple(rng.getrandbits(size) for _ in range(size)) for _ in range(size))
    return Structure(
        tuple(str(i) for i in range(size)), rows, {n: rng.getrandbits(size) for n in names}
    )


_NESTED = Mu(0, Appl(Mu(1, Imp(SVar(1), Appl(SVar(0), EVar(0)))), C))
_NOT_POSITIVE = Mu(0, Imp(SVar(0), Appl(C, SVar(0))))
_EXISTS_UNDER_MU = Mu(0, Exists(1, Imp(Const("d"), Appl(EVar(1), SVar(0)))))
_PINNED = [_NESTED, _NOT_POSITIVE, _EXISTS_UNDER_MU]


class TestLaneBlocks:
    """Lane k of a block's value is the value on structure k alone."""

    def check_lanes(self, lanes, p, elements, sets):
        block = _Block(*_columns(lanes))
        ev = {i: block.singletons[e] for i, e in elements.items()}
        sv = {i: b * block.rep for i, b in sets.items()}
        value = _ev(p, block, ev, sv, {})
        n = len(lanes[0].universe)
        for k, s in enumerate(lanes):
            v = Valuation(
                {i: s.universe[e] for i, e in elements.items()},
                {i: s.subset(b) for i, b in sets.items()},
            )
            assert s.subset(value >> k * n & s.full) == evaluate(s, v, p), k

    @given(
        st.integers(1, 4),
        st.integers(1, 70),
        st.randoms(use_true_random=False),
        st.one_of(patterns(max_leaves=5), st.sampled_from(_PINNED)),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_lane_is_its_structure(self, size, count, rng, p):
        lanes = [_random_structure(rng, size) for _ in range(count)]
        elements = {i: rng.randrange(size) for i in range(3)}
        sets = {i: rng.getrandbits(size) for i in range(3)}
        self.check_lanes(lanes, p, elements, sets)

    @pytest.mark.parametrize("p", [*_PINNED, Exists(1, Appl(X1, C))])
    def test_lanes_wider_than_five_bits(self, p):
        # Lanes of six and seven elements are packed digit by digit in binary.
        rng = random.Random(6)
        for size in (6, 7):
            lanes = [_random_structure(rng, size) for _ in range(3)]
            self.check_lanes(lanes, p, {0: size - 1}, {0: 5, 1: 1 << size - 1})

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_lanes_reports_every_non_empty_lane(self, size):
        rng = random.Random(size)
        block = _Block(*_columns([_random_structure(rng, size) for _ in range(9)]))
        values = [rng.getrandbits(size) if k % 3 else 0 for k in range(9)]
        x = sum(v << k * size for k, v in enumerate(values))
        full = (1 << size) - 1
        assert block.lanes(x) == sum(full << k * size for k, v in enumerate(values) if v)


def _agrees_with_the_oracle(kind, gamma, delta, suite, structures=None):
    """`consequence` over ``suite`` against the frozenset oracle, over
    ``structures`` where ``suite`` is a generator of them."""
    structures = list(suite) if structures is None else structures
    got = consequence(kind, gamma, delta, suite)
    want = oracles.consequence_by_frozensets(kind, gamma, delta, structures)
    assert (got.holds, got.kind, got.structures_checked) == (
        want.holds, want.kind, want.structures_checked,
    )
    assert got.structures_skipped == _skipped(structures, got.structures_checked)
    assert got.structure is want.structure
    assert got.valuation == want.valuation
    assert got.pattern is want.pattern
    return got


def _skipped(suite, count):
    """How many of the first ``count`` structures have a twin that got a
    lane before them, the decision as the module describes it."""
    lanes, skipped = set(), 0
    for s in suite[:count]:
        if s.twin is not None and id(s.twin) in lanes:
            skipped += 1
        else:
            lanes.add(id(s))
    return skipped


# The lanes of each run's block in the suites below: the suite's first
# structure, a block alone, then three runs of two, three and two elements.
_RUN_LANES = 601


def _block_starts():
    """Where each block of a suite of one structure and three runs of
    ``_RUN_LANES`` lanes begins, and where the suite ends; the first
    structure and the first run's block make one run."""
    return [0, *range(1, 2 + 3 * _RUN_LANES, _RUN_LANES)]


# Every two-element structure over ``c``, without twins, so that a suite of
# them gives each structure a lane.
_PAIRS = [dataclasses.replace(s, twin=None) for s in _C_SUITE if len(s.universe) == 2]
# Three-element structures over ``c``, none a twin.
_TRIPLES = [_random_structure(random.Random(k), 3, ("c",)) for k in range(200)]
# Fails where c c ⊄ c; under a valuation, where c x0 ⊄ c.
_CLOSED = Imp(Appl(C, C), C)
_OPEN = Imp(Appl(C, X0), C)
# Where X0 x0 ⊄ c: the first failing valuation varies with the structure.
_MIXED = Imp(Appl(SVar(0), X0), C)


def _split(kind, gamma, delta, pool):
    """The structures of ``pool`` on which the query holds, and those on
    which it fails, each failing one with the valuation that refutes it."""
    holds, fails = [], []
    for s in pool:
        v = oracles.consequence_by_frozensets(kind, gamma, delta, [s])
        if v.holds:
            holds.append(s)
        else:
            fails.append((s, v.valuation))
    return holds, fails


def _late_and_early(kind, p):
    """A suite whose run's block has lanes 3 and 5 failing ``p``: lane 5
    fails first in valuation order, but lane 3 is the first failing
    structure.  With that structure and its first counterexample."""
    holds, fails = _split(kind, [], [p], _PAIRS)

    def rank(fail):
        s, v = fail
        return list(oracles.fv_assignments(s, [p])).index(v)

    late, early = max(fails, key=rank), min(fails, key=rank)
    assert rank(late) > rank(early)
    return holds[:4] + [late[0], holds[4], early[0]] + holds[5:20], *late


class TestBlockDifferential:
    """`consequence` over lane blocks against the frozenset oracle, which
    decides one structure at a time."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "block, lane",
        [
            (0, 0), (1, 0), (1, 7), (1, 8), (1, 63), (1, 64), (1, -1),
            (2, 8), (2, 63), (3, 64), (3, -1),
        ],
    )
    def test_the_first_failure_at_a_lane(self, kind, block, lane):
        starts = _block_starts()
        at = starts[block] + lane if lane >= 0 else starts[block + 1] - 1
        suite = []
        for pool, lo, hi in zip((_PAIRS, _TRIPLES, _PAIRS), [0, *starts[2:]], starts[2:]):
            holds, fails = _split(kind, [], [_CLOSED], pool)
            if lo <= at < hi:
                # Failures follow too, so the block holds more than one
                # failing lane.
                run = (holds * 10)[:at - lo] + [s for s, _ in fails] + holds * 10
            else:
                run = holds * 10
            suite += run[:hi - lo]
        suite = suite[:starts[block + 1]]
        semantics._kept.clear()
        got = _agrees_with_the_oracle(kind, [], [_CLOSED], suite)
        assert not got.holds and got.structures_checked == at + 1
        [layout] = semantics._kept
        assert [len(marks) for _, marks in layout.blocks] == [1, *[_RUN_LANES] * 3][:block + 1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_later_lane_failing_at_an_earlier_valuation(self, kind):
        for p in (_OPEN, _MIXED):
            suite, late, valuation = _late_and_early(kind, p)
            got = _agrees_with_the_oracle(kind, [], [p], suite)
            assert got.structure is late and got.valuation == valuation

    def test_global_hypotheses_valid_on_some_lanes_only(self):
        gamma = [Imp(C, Appl(C, C))]
        valid = [s for s in _PAIRS if models(s, gamma[0])]
        holding = [s for s in valid if models(s, _CLOSED)]
        refuted = [s for s in valid if not models(s, _CLOSED)]
        # Refuted by the conclusion, but not global counterexamples.
        skipped = [s for s in _PAIRS if not models(s, gamma[0]) and not models(s, _CLOSED)]
        assert holding and refuted and skipped
        suite = holding[:3] + skipped[:30] + refuted[:1] + skipped[30:60] + holding[3:40]
        got = _agrees_with_the_oracle("global", gamma, [_CLOSED], suite)
        assert got.structure is refuted[0] and got.structures_checked == 34
        assert _agrees_with_the_oracle("global", gamma, [_CLOSED], suite[:33] + holding).holds

    @given(
        st.sampled_from(KINDS),
        st.integers(0, 3),
        st.lists(_c_patterns(max_leaves=3), max_size=1),
        st.lists(_c_patterns(max_leaves=3), min_size=1, max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_sizes_three_and_four(self, kind, seed, gamma, delta):
        suite = list(SuiteSpec(Signature(("c",)), max_size=4, seed=seed, samples=24).structures())
        _agrees_with_the_oracle(kind, gamma, delta, suite[-24:])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "view", [lambda s: s[::-1], lambda s: s[1::2]], ids=["reversed", "every-other"]
    )
    def test_reordered_suites_with_twins(self, kind, view):
        suite = view(_C_SUITE)
        late = Imp(Appl(Appl(C, C), C), Appl(C, C))
        for gamma, delta in (([C], [_CLOSED]), ([], [_OPEN]), ([], [late])):
            _agrees_with_the_oracle(kind, gamma, delta, suite)


class TestUnassignedConstantInBlocks:
    """A structure lacking a constant of the query raises only where,
    deciding the suite one structure at a time, it would be reached."""

    D = Const("d")
    # c c ⊄ d where d is empty.
    QUERY = ([], [Imp(Appl(C, C), Const("d"))])

    def one(self, d):
        constants = {"c": ["0"]} if d is None else {"c": ["0"], "d": d}
        return plain(("0",), [{"left": "0", "right": "0", "result": ["0"]}], constants)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_refutation_before_the_structure_lacking_d_is_returned(self, kind):
        refuting, lacking = self.one([]), self.one(None)
        got = consequence(kind, *self.QUERY, [refuting, lacking])
        assert not got.holds and got.structure is refuting
        holding = self.one(["0"])
        got = consequence(kind, *self.QUERY, [holding] * 11 + [refuting] + [lacking] * 20)
        assert not got.holds and got.structures_checked == 12
        # A conclusion that refutes the first structure before one naming d.
        got = consequence(kind, [], [BOT, self.D], [lacking, holding])
        assert not got.holds and got.structure is lacking and got.pattern is BOT

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("count", [1, 20])
    def test_reaching_the_structure_lacking_d_raises(self, kind, count):
        holding, lacking = self.one(["0"]), self.one(None)
        with pytest.raises(UnassignedConstant, match="constant 'd' has no denotation"):
            consequence(kind, *self.QUERY, [holding] * count + [lacking] * 3)

    def test_a_block_lacking_d_is_decided_one_lane_at_a_time(self):
        # Local, x0 -> c as hypothesis, then c c under x0 and d -> d.  The
        # first structure satisfies the hypothesis nowhere.  The second
        # fails it at x0 = 0 and is refuted at x0 = 1 before d -> d is
        # reached.  The third satisfies it at x0 = 0, so all of its lanes
        # at once would evaluate d -> d there and raise.
        def pair(c, cell):
            return plain(constants={"c": c}, app=[{"left": "0", "right": "0", "result": cell}])

        first, second, third = pair([], []), pair(["1"], []), pair(["0"], ["0"])
        gamma = [Imp(X0, C)]
        delta = [Imp(X0, Appl(C, C)), Imp(self.D, self.D)]
        got = consequence("local", gamma, delta, [first, second, third])
        assert (got.holds, got.structures_checked) == (False, 2)
        assert got.structure is second and got.valuation.element == {0: "1"}
        assert got.pattern is delta[0]

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_kept_structure_lacking_d_is_not_decided(self, kind):
        # The kept layout's two one-lane blocks lack d.  A list of the same
        # length whose first structure is another is checked before the
        # kept structure there is decided, which would raise.
        refuting, lacking = self.one([]), self.one(None)
        assert consequence(kind, [], [C], [lacking, lacking]).holds
        got = consequence(kind, *self.QUERY, [refuting, lacking])
        assert not got.holds and got.structure is refuting

    def test_an_empty_common_value_still_evaluates_the_conclusions(self):
        lacking = self.one(None)
        with pytest.raises(UnassignedConstant):
            consequence("strong", [BOT], [self.D], [lacking])
        # Locally, a hypothesis that fails skips them.
        assert consequence("local", [BOT], [self.D], [lacking]).holds

    @given(
        st.sampled_from(KINDS),
        st.lists(patterns(max_leaves=3), max_size=2),
        st.lists(patterns(max_leaves=3), min_size=1, max_size=2),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_runs_lacking_d_agree_with_the_oracle(self, kind, gamma, delta, rng):
        # Two-element structures interpreting only c: where the query uses
        # d, each is decided alone, so the error comes exactly where the
        # oracle meets it, or not at all.
        suite = [_random_structure(rng, 2, ("c",)) for _ in range(12)]
        try:
            want = oracles.consequence_by_frozensets(kind, gamma, delta, suite)
        except UnassignedConstant:
            with pytest.raises(UnassignedConstant):
                consequence(kind, gamma, delta, suite)
            return
        got = consequence(kind, gamma, delta, suite)
        assert (got.holds, got.structures_checked, got.valuation) == (
            want.holds, want.structures_checked, want.valuation,
        )


# ---------------------------------------------------------------------------
# Valuation lanes: a block of several lanes is decided for every assignment
# of the query's free variables in one evaluation, over its wide form.

_LANE_VARIABLES = (X0, X1, EVar(2), SVar(0), SVar(1), SVar(2))


@st.composite
def _lane_queries(draw, size):
    """A query whose free variables are among one to three of x0, x1, x2,
    X0, X1 and X2; at most two set variables over three elements, so that
    the oracle's sweep stays cheap."""
    variables = draw(
        st.lists(st.sampled_from(_LANE_VARIABLES), min_size=1, max_size=3, unique=True)
        .filter(lambda vs: size < 3 or sum(type(v) is SVar for v in vs) < 3)
    )
    pattern = st.recursive(
        st.sampled_from((*variables, C)),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Appl(*t)),
            st.tuples(inner, inner).map(lambda t: Imp(*t)),
            st.tuples(st.integers(0, 2), inner).map(lambda t: Exists(*t)),
            st.tuples(st.integers(0, 2), inner).map(lambda t: Mu(*t)),
        ),
        max_leaves=4,
    )
    gamma = draw(st.lists(pattern, max_size=2))
    delta = draw(st.lists(pattern, min_size=1, max_size=2))
    if gamma and draw(st.booleans()):
        # A conclusion that follows, so that some queries sweep the suite.
        delta = [gamma[0], *delta[1:]]
    return gamma, delta


def _lane_suite(rng, size, lanes, query=None):
    """Structures of ``size`` elements over ``c`` laid out in a block of one
    lane, then one of 8 lanes, or of 72 if ``lanes`` is 64.  With a query
    ``(kind, gamma, delta)``, one of the first eight on which it holds, if
    any, comes first, so that more refutations come in blocks of several
    lanes."""
    suite = [_random_structure(rng, size, ("c",)) for _ in range(1 + 8 + (lanes == 64) * 64)]
    if query is not None:
        for i, s in enumerate(suite[:8]):
            if oracles.consequence_by_frozensets(*query, [s]).holds:
                suite.insert(0, suite.pop(i))
                break
    return suite


@contextlib.contextmanager
def _wide_bits(bits):
    """``semantics._WIDE_BITS`` at ``bits`` within the block, on fresh
    layouts: a block keeps the wide forms it made."""
    with mock.patch.object(semantics, "_WIDE_BITS", bits):
        semantics._kept.clear()
        try:
            yield
        finally:
            semantics._kept.clear()


class TestValuationLanes:
    """Every assignment of a block's lanes at once, in one or in several
    chunks, against the oracle, which decides one structure and one
    valuation at a time."""

    @given(
        st.sampled_from(KINDS),
        st.sampled_from([2, 3]),
        st.sampled_from([8, 64]),
        st.randoms(use_true_random=False),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_oracle(self, kind, size, lanes, rng, data):
        gamma, delta = data.draw(_lane_queries(size))
        suite = _lane_suite(rng, size, lanes, (kind, gamma, delta))
        _agrees_with_the_oracle(kind, gamma, delta, suite)

    @given(
        st.sampled_from(KINDS),
        st.sampled_from([2, 3]),
        st.randoms(use_true_random=False),
        st.sampled_from([1, 2, 3, 5]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_chunks_agree_with_the_oracle(self, kind, size, rng, copies, data):
        # Chunks of a few copies of the block of eight lanes each.
        gamma, delta = data.draw(_lane_queries(size))
        suite = _lane_suite(rng, size, 8, (kind, gamma, delta))
        with _wide_bits(copies * 8 * size):
            _agrees_with_the_oracle(kind, gamma, delta, suite)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p", [_OPEN, _MIXED], ids=["x0", "x0 and X0"])
    @pytest.mark.parametrize("bits", [1, 32])
    def test_a_lower_lane_failing_in_a_later_chunk(self, kind, p, bits):
        # One copy of the block per chunk, or two: lane 5 fails in an
        # earlier chunk than lane 3, which must still win.
        suite, late, valuation = _late_and_early(kind, p)
        with _wide_bits(bits):
            got = _agrees_with_the_oracle(kind, [], [p], suite)
        assert got.structure is late and got.valuation == valuation

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bits", [1, 32, None])
    def test_hypotheses_failing_in_a_later_chunk(self, kind, bits):
        # c X1 ⊆ c fails on ``late`` only at X1 = {1} or {0, 1}, in a later
        # chunk than X1 = {} and {0}, so that globally ``late`` is no
        # counterexample, though the conclusion x0 c ⊆ c fails there.
        gamma, delta = [Imp(Appl(C, SVar(1)), C)], [Imp(Appl(X0, C), C)]

        def under(s, x1):
            return s.apply(s.masks["c"], x1) & ~s.masks["c"] == 0

        refuted = [s for s in _PAIRS if not models(s, delta[0])]
        late = next(s for s in refuted if under(s, 1) and not under(s, 2))
        real = next(s for s in refuted if under(s, 3))
        holding = [s for s in _PAIRS if models(s, delta[0])]
        suite = holding[:3] + [late] + holding[3:6] + [real] + holding[6:20]
        with _wide_bits(bits or semantics._WIDE_BITS):
            got = _agrees_with_the_oracle(kind, gamma, delta, suite)
        assert got.structures_checked == (8 if kind == "global" else 4)

    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_counts_at_other_indices_on_one_layout(self, kind):
        # Both queries have one element and one set variable, x0 and X1,
        # then x3 and X0: the vectors a block keeps for the counts (1, 1)
        # must go to each query's own indices.  Only x3 = 1 refutes the
        # structure at lane 3 of the run's block.
        first = Imp(Appl(C, X0), SVar(1))
        second = Imp(Appl(C, EVar(3)), SVar(0))
        holds = [s for s in _PAIRS if not s.apply(s.masks["c"], 3)]
        fails = next(s for s in _PAIRS if not s.apply(s.masks["c"], 1) and s.apply(s.masks["c"], 2))
        suite = holds[:4] + [fails] + holds[4:20]
        semantics._kept.clear()
        for p in (first, second, first, second):
            got = _agrees_with_the_oracle(kind, [], [p], suite)
            assert got.structure is fails and got.structures_checked == 5
        [layout] = semantics._kept
        assert got.valuation == Valuation({3: "1"}, {0: frozenset()})
        assert consequence(kind, [], [first], suite).valuation == Valuation(
            {0: "1"}, {1: frozenset()}
        )
        assert semantics._kept == [layout]

    def test_a_global_valuation_holds_the_conclusions_variables_only(self):
        # The hypothesis has x1 and X1 free, the conclusion x0 only.
        gamma = [Imp(Appl(Appl(C, X1), SVar(1)), C)]
        delta = [Imp(Appl(X0, C), C)]
        valid = [s for s in _PAIRS if models(s, gamma[0])]
        holding = [s for s in valid if models(s, delta[0])]
        refuted = [s for s in valid if not models(s, delta[0])]
        skipped = [s for s in _PAIRS if not models(s, gamma[0]) and not models(s, delta[0])]
        assert holding and refuted and skipped
        suite = holding[:2] + skipped[:4] + refuted[:1] + skipped[4:10] + holding[2:]
        got = _agrees_with_the_oracle("global", gamma, delta, suite)
        assert got.structure is refuted[0] and got.structures_checked == 7
        assert set(got.valuation.element) == {0} and got.valuation.sets == {}

    @pytest.mark.parametrize("kind", KINDS)
    def test_large_universes_and_two_set_variables(self, kind):
        # Five elements and two set variables: 1,024 assignments, more
        # than one chunk for the block of eight.  X0 X1 ⊆ c X1 holds where
        # c is everything, on the first six structures.
        rng = random.Random(5)
        suite = [_random_structure(rng, 5, ("c",)) for _ in range(9)]
        suite[:6] = [dataclasses.replace(s, masks={"c": 31}) for s in suite[:6]]
        p = Imp(Appl(SVar(0), SVar(1)), Appl(C, SVar(1)))
        assert 1024 * 8 * 5 > semantics._WIDE_BITS
        semantics._kept.clear()
        got = _agrees_with_the_oracle(kind, [], [p], suite)
        assert not got.holds and got.structures_checked > 6


# ---------------------------------------------------------------------------
# Layout reuse: `consequence` keeps the layout of the last list or tuple it
# decided and reuses it while the next one holds the same structure objects.

# The first 200 structures over ``c``, twins among them.
_REUSE_POOL = _C_SUITE[:200]
_LATE = Imp(Appl(Appl(C, C), C), Appl(C, C))  # first fails at structure 139
_REUSE_QUERIES = [
    ("global", [], [C]),  # refuted by the first structure
    ("global", [C], [_CLOSED]),  # holds everywhere
    ("strong", [], [_LATE]),
    ("local", [], [_OPEN]),
    ("global", [], [_CLOSED]),
    ("local", [C], [_CLOSED]),
]
_FAILS_LATE = next(s for s in _PAIRS if not models(s, _LATE))


class TestLayoutReuse:
    """Every call on a reused, rebuilt or fresh layout agrees with the
    oracle, which decides the suite one structure at a time."""

    def setup_method(self):
        semantics._kept.clear()

    def sweep(self, suite):
        for query in _REUSE_QUERIES:
            _agrees_with_the_oracle(*query, suite)

    def test_the_same_list_queried_repeatedly(self):
        suite = list(_REUSE_POOL)
        self.sweep(suite)
        [layout] = semantics._kept
        self.sweep(suite)
        assert semantics._kept == [layout]

    @pytest.mark.parametrize("view", [list, tuple], ids=["copied list", "tuple"])
    def test_the_same_objects_in_another_sequence_reuse_it(self, view):
        suite = list(_REUSE_POOL)
        _agrees_with_the_oracle(*_REUSE_QUERIES[1], suite)
        [layout] = semantics._kept
        self.sweep(view(suite))
        assert semantics._kept == [layout]

    def test_equal_copies_are_not_the_same_objects(self):
        suite = list(_REUSE_POOL)
        self.sweep(suite)
        [layout] = semantics._kept
        copies = [dataclasses.replace(s) for s in suite]
        assert copies == suite
        self.sweep(copies)
        assert semantics._kept != [layout]

    def test_an_equal_copy_in_a_one_lane_block(self):
        # The first structure is a block alone, checked by one identity
        # test; an equal copy of it is not the same object either.
        suite = list(_REUSE_POOL)
        self.sweep(suite)
        [layout] = semantics._kept
        suite[0] = dataclasses.replace(suite[0])
        self.sweep(suite)
        assert semantics._kept != [layout]

    @pytest.mark.parametrize("at", [0, 5, 80, 138, 150, 199])
    def test_a_list_mutated_in_the_middle(self, at):
        suite = list(_REUSE_POOL)
        self.sweep(suite)
        [layout] = semantics._kept
        suite[at] = _FAILS_LATE
        got = _agrees_with_the_oracle("strong", [], [_LATE], suite)
        assert got.structures_checked == min(at, 138) + 1
        if at < 139:
            assert semantics._kept != [layout]
        suite[at] = dataclasses.replace(_REUSE_POOL[at])
        self.sweep(suite)
        del suite[at]
        self.sweep(suite)
        suite.insert(at, _REUSE_POOL[at])
        self.sweep(suite)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_refuting_block_is_checked_up_to_its_refutation(self, kind):
        # _LATE refutes structure 139, in the block of the two-element run,
        # whose span goes on to structure 196; twins that get no lane end
        # the suite.  An equal copy of a structure is not the same object,
        # so the kept layout is reused exactly where the copy comes after
        # structure 139.
        suite = list(_REUSE_POOL)
        _agrees_with_the_oracle(kind, [], [_LATE], suite)
        [layout] = semantics._kept
        assert layout.blocks[-1][1][-1] == 196
        for at in (0, 4, 100, 138, 139, 150, 195, 199):
            changed = list(suite)
            changed[at] = dataclasses.replace(suite[at])
            got = _agrees_with_the_oracle(kind, [], [_LATE], changed)
            fresh = consequence(kind, [], [_LATE], iter(changed))
            assert got == fresh and got.structures_checked == 139
            assert (semantics._kept[0] is layout) == (at >= 139)
            semantics._kept[:] = [layout]

    def test_a_holding_block_is_checked_whole(self):
        suite = list(_REUSE_POOL)
        query = _REUSE_QUERIES[1]  # holds everywhere
        assert _agrees_with_the_oracle(*query, suite).holds
        [layout] = semantics._kept
        for at in (0, 4, 100, 150, 195, 199):
            changed = list(suite)
            changed[at] = dataclasses.replace(suite[at])
            assert _agrees_with_the_oracle(*query, changed).holds
            assert semantics._kept[0] is not layout
            semantics._kept[:] = [layout]
        assert _agrees_with_the_oracle(*query, list(suite)).holds
        assert semantics._kept[0] is layout

    def test_a_list_appended_to_and_truncated(self):
        suite = list(_REUSE_POOL[:120])
        self.sweep(suite)
        suite.append(_FAILS_LATE)
        got = _agrees_with_the_oracle("strong", [], [_LATE], suite)
        assert got.structures_checked == 121
        suite += _REUSE_POOL[120:]
        self.sweep(suite)
        for end in (199, 150, 73, 72, 9, 1, 0):
            del suite[end:]
            self.sweep(suite)

    def test_two_suites_in_turn(self):
        a, b = list(_REUSE_POOL), list(_REUSE_POOL[::-1])
        self.sweep(a)
        self.sweep(b)
        self.sweep(a)
        [layout] = semantics._kept
        _agrees_with_the_oracle(*_REUSE_QUERIES[2], a)
        assert semantics._kept == [layout]

    def test_a_generator_gets_a_layout_that_is_not_kept(self):
        suite = list(_REUSE_POOL)
        self.sweep(suite)
        [layout] = semantics._kept
        for query in _REUSE_QUERIES:
            _agrees_with_the_oracle(*query, iter(suite), suite)
            _agrees_with_the_oracle(*query, (s for s in suite[::-1]), suite[::-1])
        assert semantics._kept == [layout]

    def test_repeated_structure_objects(self):
        suite = _REUSE_POOL[:30] * 4 + _REUSE_POOL[100:140] * 2
        self.sweep(suite)
        self.sweep(suite[::-1])
        self.sweep(suite)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_run_lacking_a_query_constant(self, kind):
        # The three structures of `TestUnassignedConstantInBlocks` lack d:
        # the second is refuted before d is reached, and the third, decided
        # at x0 = 0 with the other lanes, would raise.
        def pair(c, cell):
            return plain(constants={"c": c}, app=[{"left": "0", "right": "0", "result": cell}])

        first, second, third = pair([], []), pair(["1"], []), pair(["0"], ["0"])
        d = Const("d")
        gamma, delta = [Imp(X0, C)], [Imp(X0, Appl(C, C)), Imp(d, d)]
        suite = [first, second, third, third, first, third]
        for fresh in (True, False):
            if fresh:
                semantics._kept.clear()
            else:
                # Pack every block first, with a query that holds.
                assert consequence(kind, [], [Imp(C, C)], suite).holds
            if kind == "local":
                got = _agrees_with_the_oracle(kind, gamma, delta, suite)
                assert got.structure is second
            with pytest.raises(UnassignedConstant):
                oracles.consequence_by_frozensets(kind, [], [d], suite)
            with pytest.raises(UnassignedConstant):
                consequence(kind, [], [d], suite)

    @pytest.mark.parametrize("error", [AttributeError, KeyboardInterrupt])
    def test_a_suite_whose_reading_raises(self, error):
        # The suite is read whole before any structure is decided, so the
        # error comes first even where a structure before it refutes.
        class Junk:
            @property
            def twin(self):
                raise error

        refutes = next(s for s in _PAIRS if not models(s, _LATE))
        holds = next(s for s in _PAIRS if models(s, _LATE) and s.masks.keys() == refutes.masks.keys())
        for suite in ([refutes, Junk()], [holds, refutes, Junk()]):
            for _ in range(3):
                with pytest.raises(error):
                    consequence("strong", [], [_LATE], suite)
                assert semantics._kept == []
        del suite[2]
        _agrees_with_the_oracle("strong", [], [_LATE], suite)

    def test_the_callers_list_is_not_kept_alive(self):
        class Suite(list):  # a list that can be weakly referenced
            pass

        suite = Suite(_REUSE_POOL)
        ref = weakref.ref(suite)
        assert consequence(*_REUSE_QUERIES[0], suite).structures_checked == 1
        assert semantics._kept
        del suite
        gc.collect()
        assert ref() is None

    def test_the_structures_after_the_last_block(self):
        # The suite ends in a twin that got no lane, so no block's span
        # covers it: only the check after a sweep sees it replaced.
        end = max(i for i in range(139) if _C_SUITE[i].twin is not None)
        suite = _C_SUITE[:end + 1]
        assert _skipped(suite, end + 1) > _skipped(suite, end)
        assert _agrees_with_the_oracle("strong", [], [_LATE], suite).holds
        suite[end] = _FAILS_LATE
        got = _agrees_with_the_oracle("strong", [], [_LATE], suite)
        assert got.structure is _FAILS_LATE and got.structures_checked == end + 1

    def test_threads_deciding_at_once(self):
        # Four threads on two cores, switching as often as the interpreter
        # allows, sharing the kept layout and replacing it as they go, and
        # filling its blocks' caches of wide forms at once: queries with
        # free element and set variables in several counts and indices.
        suites = [list(_REUSE_POOL), _REUSE_POOL[::-1], _REUSE_POOL[:60]]
        queries = _REUSE_QUERIES + [
            ("strong", [], [_MIXED]),
            ("local", [], [Imp(Appl(C, EVar(3)), SVar(0))]),
            ("global", [Imp(Appl(C, SVar(1)), C)], [Imp(Appl(X0, X1), C)]),
            ("local", [Imp(X1, Appl(C, SVar(2)))], [Imp(Appl(X1, SVar(2)), C)]),
            ("strong", [Appl(SVar(1), X0)], [Appl(SVar(1), X0)]),  # holds everywhere
        ]
        want = {}
        for i, suite in enumerate(suites):
            for q, query in enumerate(queries):
                semantics._kept.clear()
                v = consequence(*query, suite)
                want[i, q] = (v.holds, v.structures_checked, v.structure, v.valuation)
        got, errors = [], []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(150):
                    i, q = rng.randrange(len(suites)), rng.randrange(len(queries))
                    v = consequence(*queries[q], suites[i])
                    got.append((v.holds, v.structures_checked, v.structure, v.valuation) == want[i, q])
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and got == [True] * 600

    @given(
        st.sampled_from(KINDS),
        st.lists(patterns(max_leaves=3), max_size=2),
        st.lists(patterns(max_leaves=3), min_size=1, max_size=2),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_runs_lacking_d_on_a_reused_layout(self, kind, gamma, delta, rng):
        suite = [_random_structure(rng, 2, ("c",)) for _ in range(12)]
        assert consequence("global", [], [Imp(C, C)], suite).holds
        try:
            oracles.consequence_by_frozensets(kind, gamma, delta, suite)
        except UnassignedConstant:
            with pytest.raises(UnassignedConstant):
                consequence(kind, gamma, delta, suite)
            return
        _agrees_with_the_oracle(kind, gamma, delta, suite)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_list_changed_at_random_between_calls(self, data):
        pool = _REUSE_POOL + _C_COPIES[:200]
        index = st.integers(0, len(pool) - 1)
        suite = [pool[i] for i in data.draw(st.lists(index, max_size=100))]
        queries = st.one_of(
            st.sampled_from(_REUSE_QUERIES),
            st.tuples(
                st.sampled_from(KINDS),
                st.lists(_c_patterns(max_leaves=3), max_size=1),
                st.lists(_c_patterns(max_leaves=3), min_size=1, max_size=2),
            ),
        )
        for _ in range(data.draw(st.integers(1, 5))):
            change = data.draw(st.sampled_from(["none", "set", "append", "cut", "copy"]))
            at = data.draw(st.integers(0, len(suite)))
            if change == "set" and at < len(suite):
                suite[at] = pool[data.draw(index)]
            elif change == "append":
                suite.append(pool[data.draw(index)])
            elif change == "cut":
                del suite[at:]
            elif change == "copy":
                suite = list(suite)
            _agrees_with_the_oracle(*data.draw(queries), suite)


# ---------------------------------------------------------------------------
# A generated `Suite` owns its layout, laid out from positions and drawn masks.

_SUITE_SPEC = SuiteSpec(Signature(("c",)), max_size=3, seed=3, samples=30)
# 66 exhaustive structures, then samples of sizes 3, 3, 4, 3, 3, 4, ...
_DEFINED_SPEC = SuiteSpec(Signature(("c",)), max_size=4, seed=2, samples=30, defined=True)
# Refuted at the second structure, where c is the whole one-element universe.
_SIZE_ONE = neg(C)
# x1 -> x0, valid exactly where the universe has one element.
_TWO = Imp(X1, X0)
# All samples of size 3, after 66 exhaustive structures; (!c) (c c) is valid
# on the first seven samples but not on the eighth.
_DEFINED_THREE = SuiteSpec(Signature(("c",)), max_size=3, seed=2, samples=30, defined=True)
_EIGHTH = Appl(neg(C), Appl(C, C))


def _pigeons(n):
    """Some two of x0, ..., x(n-1) are equal: valid exactly where the
    universe has fewer than n elements."""
    pigeons = [eq(EVar(i), EVar(j)) for i in range(n) for j in range(i + 1, n)]
    some = pigeons[0]
    for p in pigeons[1:]:
        some = or_(some, p)
    return some


def _block_of(layout, mark):
    """The index in ``layout.blocks`` of the block holding ``mark``."""
    return next(i for i, (_, marks) in enumerate(layout.blocks) if mark in marks)


def _lane_of(layout, mark):
    """The lane count of the block holding ``mark``, and the lane it has."""
    marks = list(layout.blocks[_block_of(layout, mark)][1])
    return len(marks), marks.index(mark)


def _suite_agrees(kind, gamma, delta, spec):
    """`consequence` over a fresh `Suite` of ``spec`` against the same call
    on ``list(suite)``, which takes the list path, and the frozenset
    oracle; with the structures the decision built."""
    suite = spec.suite()
    got = consequence(kind, gamma, delta, suite)
    built = list(suite.made.values())
    structures = list(suite)
    want = consequence(kind, gamma, delta, structures)
    oracle = oracles.consequence_by_frozensets(kind, gamma, delta, structures)
    for v in (want, oracle):
        assert (got.holds, got.kind, got.structures_checked) == (
            v.holds, v.kind, v.structures_checked,
        )
        assert got.valuation == v.valuation
        assert got.pattern is v.pattern
    assert got.structures_skipped == want.structures_skipped
    assert got.structures_skipped == _skipped(structures, got.structures_checked)
    assert got.note == want.note
    if got.holds:
        assert got.structure is want.structure is None
    else:
        k = got.structures_checked - 1
        assert got.structure is suite[k] is want.structure is oracle.structure
    return got, suite, built


class TestSuiteDifferential:
    """`consequence` on a `Suite` agrees, field by field, with the list of
    its structures and with the oracle, and builds only what it returns."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "gamma, delta, where",
        [
            ([], [_SIZE_ONE], 2),  # at size one
            ([], [_CLOSED], 11),  # early in the size-two run
            ([], [_OPEN], 11),
            ([], [_LATE], 139),  # late in it, after skipped twins
            ([C], [_CLOSED], None),  # holds everywhere
            ([], [Imp(C, C)], None),
        ],
    )
    def test_the_generated_suite(self, kind, gamma, delta, where):
        got, suite, built = _suite_agrees(kind, gamma, delta, _SUITE_SPEC)
        if where is None:
            assert got.holds and got.structures_checked == len(suite)
            assert got.structures_skipped == 496
        else:
            assert got.structures_checked == where
        # Only the suite's first structure, its one one-lane block, and the
        # counterexample.
        assert len(built) <= 2 and not any(s.twin for s in built)
        assert got.holds or got.structure in built

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "delta, spec, where, lane",
        [
            ([_TWO], _SUITE_SPEC, 5, 0),  # the head of the two-element run
            ([_pigeons(3)], _DEFINED_THREE, 67, 0),  # the first sample, its run's head
            ([or_(_pigeons(3), _EIGHTH)], _DEFINED_THREE, 74, 7),  # lane 7 of that block
        ],
    )
    def test_at_the_head_of_a_later_run(self, kind, delta, spec, where, lane):
        # Only the suite's first structure is a block alone: a later run
        # is one block, whatever its length.
        got, suite, _ = _suite_agrees(kind, [], delta, spec)
        assert not got.holds and got.structures_checked == where
        # 528 two-element structures get a lane; all 30 samples do.
        lanes = {5: 528, 67: 30, 74: 30}[where]
        assert _lane_of(suite.layout, where) == (lanes, lane)

    @pytest.mark.parametrize("kind", KINDS)
    def test_at_a_run_of_one_structure(self, kind):
        # The first four-element sample sits between samples of three, a
        # run of its own and still a block of one lane.
        got, suite, _ = _suite_agrees(kind, [], [_pigeons(4)], _DEFINED_SPEC)
        assert not got.holds and got.structures_checked == 69
        assert _lane_of(suite.layout, 69) == (1, 0)
        assert suite.layout.blocks[_block_of(suite.layout, 69)][0] is got.structure

    @pytest.mark.parametrize("kind, n", [*((kind, 3) for kind in KINDS), ("local", 4)])
    def test_at_a_sampled_structure_of_a_defined_suite(self, kind, n):
        # n elements, no two of them equal, exist only among the samples.
        got, suite, _ = _suite_agrees(kind, [], [_pigeons(n)], _DEFINED_SPEC)
        assert not got.holds and len(got.structure.universe) == n
        assert got.structures_checked == {3: 67, 4: 69}[n]
        _suite_agrees(kind, [], [Imp(ceil(C), C)], _DEFINED_SPEC)
        _suite_agrees(kind, [ceil(C)], [C], _DEFINED_SPEC)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "gamma, delta",
        [
            ([], [Const("d")]),  # raises at the first structure
            ([], [C, Const("d")]),  # refuted there before d is reached
            ([C], [Const("d")]),  # raises where c is everything, if at all
            ([Imp(X0, C)], [Imp(X0, Appl(C, C)), Imp(Const("d"), Const("d"))]),
        ],
    )
    def test_a_query_constant_the_suite_lacks(self, kind, gamma, delta):
        # Each structure is decided alone where d is missing, so the error
        # comes exactly where it comes deciding one structure at a time.
        structures = list(_SUITE_SPEC.suite())
        try:
            oracles.consequence_by_frozensets(kind, gamma, delta, structures)
        except UnassignedConstant:
            with pytest.raises(UnassignedConstant, match="constant 'd' has no denotation"):
                consequence(kind, gamma, delta, _SUITE_SPEC.suite())
            return
        _suite_agrees(kind, gamma, delta, _SUITE_SPEC)

    def test_two_suites_of_different_specs(self):
        # Each suite has a layout of its own.
        specs = [_SUITE_SPEC, SuiteSpec(Signature(("c",)), max_size=3, seed=4, samples=30),
                 SuiteSpec(Signature(("c",)), max_size=2), _DEFINED_SPEC]
        suites = [spec.suite() for spec in specs]
        for _ in range(2):
            for spec, suite in zip(specs, suites):
                for query in _REUSE_QUERIES:
                    got = consequence(*query, suite)
                    want = oracles.consequence_by_frozensets(*query, list(suite))
                    assert (got.holds, got.structures_checked, got.valuation) == (
                        want.holds, want.structures_checked, want.valuation,
                    )
                    assert got.structure is want.structure

    @given(st.sampled_from(KINDS), st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_queries(self, kind, data):
        gamma = data.draw(st.lists(_c_patterns(max_leaves=3), max_size=1))
        delta = data.draw(st.lists(_c_patterns(max_leaves=3), min_size=1, max_size=2))
        _suite_agrees(kind, gamma, delta, _SUITE_SPEC)


class TestSuiteLayout:
    """A `Suite` keeps its layout itself: the slot is left alone, and the
    layout goes with the suite."""

    @pytest.mark.parametrize("before", ["empty", "a list"])
    def test_the_slot_is_left_as_it_was(self, before):
        semantics._kept.clear()
        if before == "a list":
            consequence(*_REUSE_QUERIES[0], list(_REUSE_POOL))
        kept = list(semantics._kept)
        suite = _SUITE_SPEC.suite()
        for query in _REUSE_QUERIES:
            consequence(*query, suite)
        assert len(semantics._kept) == len(kept)
        assert all(map(is_, semantics._kept, kept))
        layout = suite.layout
        consequence(*_REUSE_QUERIES[1], suite)
        assert suite.layout is layout

    @pytest.mark.parametrize(
        "max_size, samples, lanes",
        [
            (3, 200, [1, 3, 528, 200]),
            (3, 40, [1, 3, 528, 40]),
            (2, 100, [1, 3, 528]),  # the command line's default suite
        ],
    )
    def test_only_the_first_structure_is_a_block_alone(self, max_size, samples, lanes):
        # Every later run is one block, and the first run one from its
        # second structure, through `Suite.runs` and through `_runs` on a
        # list alike.
        suite = SuiteSpec(Signature(("c",)), max_size, seed=1, samples=samples).suite()
        for layout in (semantics._Layout(suite), semantics._Layout(list(suite))):
            assert [len(marks) for _, marks in layout.blocks] == lanes
            assert [isinstance(packed, Structure) for packed, _ in layout.blocks] == [
                n == 1 for n in lanes
            ]

    def test_a_dropped_suite_is_freed_with_its_layout(self):
        suite = _SUITE_SPEC.suite()
        assert consequence("global", [C], [_CLOSED], suite).holds
        structure = weakref.ref(suite.layout.blocks[0][0])
        ref = weakref.ref(suite)
        del suite
        # At once: the layout does not refer back to the suite, so no cycle
        # waits for the collector.
        assert ref() is None and structure() is None
