"""Core syntax: parsing, rendering, scope location, occurrence analysis."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import SIG, patterns
from aml.syntax import (
    Appl,
    ArityError,
    Const,
    EVar,
    Exists,
    Imp,
    MAX_DEPTH,
    Malformed,
    Mu,
    NotABinary,
    NotABinder,
    OccurrenceKind,
    OutOfRange,
    ParseError,
    SVar,
    Signature,
    TooDeep,
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


# Tokens that edits put into a core token string: keywords, variables of
# both kinds (one spelled with a leading zero), constants declared and not,
# a bare variable letter, a sugar keyword and a non-ASCII digit.
_VOCAB = ("appl", "imp", "exists", "mu", "x0", "x1", "X0", "X1", "X01", "x12",
          "c", "d", "q", "x", "X", "bot", "x\u00b2")
# The ways to open one level: a prefix and the operand that closes it.
_LEVELS = (("imp c", ""), ("appl x1", ""), ("exists x0", ""), ("mu X1", ""),
           ("imp", "c"), ("appl", "X0"))


def _outcome(parse, text):
    """The tree ``parse`` reads from ``text``, or its error's class and message."""
    try:
        return parse(text, SIG)
    except ParseError as exc:
        return type(exc), str(exc)


def _edited(rng: random.Random, toks: list) -> str:
    """``toks`` after up to three deletions, insertions, replacements or cuts."""
    toks = list(toks)
    for _ in range(rng.randrange(4)):
        edit, pos = rng.randrange(4), rng.randrange(len(toks) + 1)
        if edit == 0:
            toks.insert(pos, rng.choice(_VOCAB))
        elif edit == 1:
            del toks[pos:]
        elif pos < len(toks):
            if edit == 2:
                del toks[pos]
            else:
                toks[pos] = rng.choice(_VOCAB)
    return " ".join(toks)


def _nested(rng: random.Random, levels: int, inner: list) -> list:
    """``inner`` under ``levels`` levels of operators drawn from `_LEVELS`."""
    opened = [rng.choice(_LEVELS) for _ in range(levels)]
    closing = [after for _, after in reversed(opened) if after]
    return " ".join(before for before, _ in opened).split() + inner + closing


class TestCoreParserOracle:
    """The one-loop `parse_core` against the recursive parser it replaced
    (`oracles.parse_core_recursive`): the same tree, or the same error class
    and message, on valid, edited, truncated and deeply nested tokens."""

    @given(patterns(), st.integers(0, 2**32 - 1))
    @settings(max_examples=400)
    def test_edited_token_strings(self, p, seed):
        rng = random.Random(seed)
        toks = list(tokens(p))
        for text in (" ".join(toks), _edited(rng, toks), _edited(rng, toks)):
            assert _outcome(parse_core, text) == _outcome(oracles.parse_core_recursive, text), text

    @pytest.mark.parametrize("levels", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 3000])
    @given(patterns(max_leaves=3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nested_token_strings(self, levels, p, seed):
        rng = random.Random(seed)
        toks = _nested(rng, levels, list(tokens(p)))
        for text in (" ".join(toks), _edited(rng, toks)):
            want = _outcome(oracles.parse_core_recursive, text)
            assert _outcome(parse_core, text) == want, text[:200]

    @pytest.mark.parametrize("levels", [MAX_DEPTH, MAX_DEPTH + 1, 3000])
    def test_depth_limit(self, levels):
        text = "imp c " * levels + "c"
        got = _outcome(parse_core, text)
        assert got == _outcome(oracles.parse_core_recursive, text)
        if levels == MAX_DEPTH:
            assert token_len(got) == 2 * levels + 1
        else:
            assert got == (TooDeep, f"token {2 * MAX_DEPTH + 1}: pattern nests deeper than {MAX_DEPTH} levels")

    def test_each_token_is_its_own_leaf(self):
        """Leaves are reused by whole token: ``x1`` and ``X1`` stay apart,
        in either order, and so do ``x1`` and ``x10``."""
        assert parse_core("imp X1 x1", SIG) == Imp(SVar(1), EVar(1))
        assert parse_core("imp x1 X1", SIG) == Imp(EVar(1), SVar(1))
        assert parse_core("appl x1 appl x10 x1", SIG) == Appl(EVar(1), Appl(EVar(10), EVar(1)))


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

    @given(patterns(max_leaves=24))
    @settings(max_examples=300)
    def test_free_vars_match_the_union_oracle(self, p):
        assert free_vars(p) == oracles.free_vars_by_union(p)

    @given(patterns(max_leaves=24))
    @settings(max_examples=300)
    def test_kinds_match_the_table_kind_by_kind(self, p):
        """Free or bound, element or set, as the environment recursion says."""
        kinds = {("free", "x"): OccurrenceKind.FREE_ELEMENT, ("free", "X"): OccurrenceKind.FREE_SET,
                 ("bound", "x"): OccurrenceKind.BOUND_ELEMENT, ("bound", "X"): OccurrenceKind.BOUND_SET}
        want = tuple(kinds.get((cls, tok[0]), OccurrenceKind.NOT_A_VARIABLE)
                     for tok, cls in oracles.occurrence_table(p))
        assert occurrence_kinds(p) == want

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
