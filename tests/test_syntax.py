"""Core syntax: parsing, rendering, scope location, occurrence analysis."""

import dataclasses

import pytest
from hypothesis import given, settings

import oracles
from strategies import SIG, patterns
from aml.syntax import (
    Appl,
    ArityError,
    Const,
    EVar,
    Exists,
    Imp,
    Malformed,
    Mu,
    NotABinary,
    NotABinder,
    OccurrenceKind,
    OutOfRange,
    SVar,
    Signature,
    UnknownSymbol,
    binary_scopes,
    binder_scope,
    bound_binder_indices,
    free_vars,
    is_negative_in,
    is_positive_in,
    load_signature,
    n_left,
    occurrence_kind,
    occurrence_kinds,
    parse_core,
    render_core,
    subpatterns,
    token_len,
    tokens,
)


class TestSignature:
    def test_accepts_ordinary_names(self):
        """Plain identifiers, including the definedness constant, are fine."""
        sig = Signature(("c", "def", "zero_1"))
        assert "def" in sig and "zero" not in sig

    def test_rejects_keywords(self):
        """Core and sugar keywords cannot be declared as constants."""
        for bad in ("imp", "mu", "bot", "forall", "in"):
            with pytest.raises(ValueError):
                Signature((bad,))

    def test_rejects_variable_spellings(self):
        """Names that look like variables would break unique readability."""
        with pytest.raises(ValueError):
            Signature(("x7",))
        with pytest.raises(ValueError):
            Signature(("X0",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Signature(("c", "c"))

    def test_load_signature(self, tmp_path):
        """Signature files are one name per line with comments."""
        f = tmp_path / "sig.txt"
        f.write_text("# two constants\nc\n\nd  # trailing\n")
        assert load_signature(f) == Signature(("c", "d"))


# One node of each class, with the field names its dataclass declares.
NODES = [
    (EVar(3), ("index",)),
    (SVar(2), ("index",)),
    (Const("c"), ("name",)),
    (Appl(EVar(0), Const("c")), ("left", "right")),
    (Imp(EVar(0), Mu(0, SVar(0))), ("left", "right")),
    (Exists(1, EVar(1)), ("var", "body")),
    (Mu(0, SVar(0)), ("var", "body")),
]


class TestNodes:
    @pytest.mark.parametrize("node, names", NODES, ids=[type(n).__name__ for n, _ in NODES])
    def test_contract(self, node, names):
        """Nodes are frozen, slotted dataclasses hashed by their field tuple."""
        assert tuple(f.name for f in dataclasses.fields(node)) == names
        assert type(node).__match_args__ == names
        values = tuple(getattr(node, n) for n in names)
        assert hash(node) == hash(values)
        assert node == type(node)(*values) and node is not type(node)(*values)
        assert not hasattr(node, "__dict__")
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, values[0])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        assert getattr(node, names[0]) == values[0]

    def test_keyword_construction(self):
        assert Exists(var=1, body=EVar(1)) == Exists(1, EVar(1))
        assert Imp(right=EVar(1), left=EVar(0)) == Imp(EVar(0), EVar(1))

    def test_repr(self):
        assert repr(Imp(EVar(0), Mu(0, SVar(0)))) == (
            "Imp(left=EVar(index=0), right=Mu(var=0, body=SVar(index=0)))"
        )
        assert repr(Appl(Const("c"), Exists(2, EVar(2)))) == (
            "Appl(left=Const(name='c'), right=Exists(var=2, body=EVar(index=2)))"
        )

    def test_classes_with_equal_fields_differ(self):
        assert Appl(EVar(0), EVar(1)) != Imp(EVar(0), EVar(1))
        assert Exists(0, SVar(0)) != Mu(0, SVar(0))
        assert EVar(0) != SVar(0)


class TestParseRender:
    @given(patterns())
    @settings(max_examples=300)
    def test_round_trip(self, p):
        """render then parse is the identity on trees."""
        assert parse_core(render_core(p), SIG) == p

    @given(patterns())
    @settings(max_examples=200)
    def test_no_proper_prefix_parses(self, p):
        """Prefix-freedom: no proper initial token segment is a pattern."""
        toks = list(tokens(p))
        for j in range(1, len(toks)):
            assert oracles.parse_slice(toks[:j], SIG) is None

    def test_token_len_matches_tokens(self):
        p = Exists(0, Imp(EVar(0), Appl(Const("c"), SVar(1))))
        assert token_len(p) == len(tokens(p)) == 7

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse_core("imp x0 q", SIG)

    def test_truncated_input(self):
        with pytest.raises(ArityError):
            parse_core("imp x0", SIG)

    def test_leftover_tokens(self):
        with pytest.raises(Malformed):
            parse_core("x0 x1", SIG)

    def test_binder_needs_right_kind(self):
        """exists binds an element variable, mu a set variable."""
        with pytest.raises(Malformed):
            parse_core("exists X0 x0", SIG)
        with pytest.raises(Malformed):
            parse_core("mu x0 X0", SIG)

    def test_empty_input(self):
        with pytest.raises(Malformed):
            parse_core("", SIG)


class TestScopes:
    def test_binder_scope_pinned_values(self):
        """Frozen expected values for the scope of a binder token."""
        p = Exists(0, Imp(EVar(0), EVar(1)))
        assert binder_scope(p, 0) == 4
        assert binder_scope(Mu(0, SVar(0)), 0) == 2
        q = Imp(Exists(0, EVar(0)), Const("c"))
        assert binder_scope(q, 1) == 3

    def test_binary_scopes_pinned_values(self):
        assert binary_scopes(Imp(EVar(0), EVar(1)), 0) == (1, 2)
        assert binary_scopes(Appl(Imp(EVar(0), EVar(1)), Const("c")), 0) == (3, 4)
        assert binary_scopes(Imp(EVar(0), Appl(EVar(1), EVar(2))), 2) == (3, 4)

    def test_binder_scope_wrong_position(self):
        p = Exists(0, Imp(EVar(0), EVar(1)))
        with pytest.raises(NotABinder):
            binder_scope(p, 2)
        with pytest.raises(OutOfRange):
            binder_scope(p, 99)

    def test_binary_scopes_wrong_position(self):
        p = Imp(EVar(0), EVar(1))
        with pytest.raises(NotABinary):
            binary_scopes(p, 1)
        with pytest.raises(OutOfRange):
            binary_scopes(p, -1)

    @given(patterns(max_leaves=6))
    @settings(max_examples=150)
    def test_scopes_match_reparse_oracle(self, p):
        """Scope finders agree with brute-force slice reparsing everywhere."""
        toks = list(tokens(p))
        for i, t in enumerate(toks):
            if t in ("exists", "mu"):
                assert binder_scope(p, i) == oracles.scope_by_reparse(p, i, SIG)
            elif t in ("appl", "imp"):
                mid, end = oracles.binary_split_by_reparse(p, i, SIG)
                assert binary_scopes(p, i) == (mid, end)


class TestOccurrences:
    def test_free_vars(self):
        p = Imp(Exists(0, Appl(EVar(0), EVar(1))), Mu(0, Appl(SVar(0), SVar(1))))
        assert free_vars(p) == (frozenset({1}), frozenset({1}))

    def test_bound_binder_indices(self):
        p = Exists(2, Mu(1, EVar(2)))
        assert bound_binder_indices(p) == (frozenset({2}), frozenset({1}))

    def test_binder_head_counts_as_bound(self):
        """The variable token right after a binder is a bound occurrence."""
        p = Exists(0, EVar(0))
        assert occurrence_kind(p, 1) is OccurrenceKind.BOUND_ELEMENT

    @given(patterns())
    @settings(max_examples=200)
    def test_kinds_match_recursive_oracle(self, p):
        """One-pass classification agrees with the environment recursion."""
        got = occurrence_kinds(p)
        want = oracles.occurrence_table(p)
        assert len(got) == len(want) == token_len(p)
        for kind, (tok, cls) in zip(got, want):
            if cls == "free":
                assert kind in (OccurrenceKind.FREE_ELEMENT, OccurrenceKind.FREE_SET)
                assert (kind is OccurrenceKind.FREE_SET) == tok.startswith("X")
            elif cls == "bound":
                assert kind in (OccurrenceKind.BOUND_ELEMENT, OccurrenceKind.BOUND_SET)
            else:
                assert kind is OccurrenceKind.NOT_A_VARIABLE

    def test_subpatterns_includes_all_nodes(self):
        p = Imp(EVar(0), Appl(EVar(0), Const("c")))
        assert set(subpatterns(p)) == {p, EVar(0), Appl(EVar(0), Const("c")), Const("c")}


FALSUM1 = Mu(1, SVar(1))


class TestPolarity:
    def test_left_count_first_example(self):
        """Both free occurrences sit under one implication left side."""
        p = Imp(SVar(0), Imp(SVar(0), FALSUM1))
        assert [n_left(p, 0, k) for k in range(token_len(p))] == [0, 1, 0, 1, 0, 0, 0]
        assert is_negative_in(p, 0) and not is_positive_in(p, 0)

    def test_left_count_second_example(self):
        """Two nested left sides make the occurrence positive again."""
        p = Imp(Imp(SVar(0), Const("c")), Const("c"))
        assert n_left(p, 0, 2) == 2
        assert is_positive_in(p, 0) and not is_negative_in(p, 0)

    def test_mixed_is_neither(self):
        p = Appl(
            Imp(SVar(0), Imp(SVar(0), FALSUM1)),
            Imp(Imp(SVar(0), Const("c")), Const("c")),
        )
        assert not is_positive_in(p, 0) and not is_negative_in(p, 0)

    def test_count_resets_under_own_mu(self):
        """A binder on the counted variable zeroes the count below it, so
        only enclosing implications contribute."""
        p = Imp(Mu(0, Imp(SVar(0), SVar(0))), Const("c"))
        assert [n_left(p, 0, k) for k in range(token_len(p))] == [0, 1, 1, 1, 1, 1, 0]
        assert Mu(0, Imp(SVar(0), SVar(0))) == p.left
        assert all(n_left(p.left, 0, k) == 0 for k in range(token_len(p.left)))

    def test_out_of_range_positions_count_zero(self):
        p = Imp(SVar(0), SVar(0))
        assert n_left(p, 0, -1) == 0 and n_left(p, 0, 99) == 0

    def test_vacuous_is_both(self):
        """No free occurrence means positive and negative at once."""
        p = Mu(0, SVar(0))
        assert is_positive_in(p, 0) and is_negative_in(p, 0)

    @given(patterns())
    @settings(max_examples=300)
    def test_positional_agrees_with_recursion(self, p):
        """The counting definition and the recursive one coincide."""
        for v in range(3):
            assert is_positive_in(p, v) == oracles.positive_rec(p, v)
            assert is_negative_in(p, v) == oracles.negative_rec(p, v)

    @given(patterns())
    @settings(max_examples=300)
    def test_polarity_is_the_parity_of_n_left(self, p):
        """Positive means an even `n_left` at every free ``X<i>`` position,
        negative an odd one; the positions come from the token string."""
        toks, kinds = tokens(p), occurrence_kinds(p)
        for i in range(3):
            counts = [
                n_left(p, i, k)
                for k, (t, kind) in enumerate(zip(toks, kinds))
                if t == f"X{i}" and kind is OccurrenceKind.FREE_SET
            ]
            assert is_positive_in(p, i) == all(n % 2 == 0 for n in counts)
            assert is_negative_in(p, i) == all(n % 2 == 1 for n in counts)
