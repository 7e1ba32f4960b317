"""Derived connectives, the human-readable syntax, and resugaring."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import SIG, patterns, sugared_patterns
from aml.substitution import VarRef, subst_free
from aml.sugar import (
    BOT,
    EmptyList,
    TOP,
    and_,
    ceil,
    eq,
    floor,
    fold_conj,
    fold_disj,
    forall,
    iff,
    match_and,
    match_forall,
    match_neg,
    match_nu,
    match_or_shape,
    mem,
    neg,
    nu,
    or_,
    parse,
    parse_sugar,
    render,
    render_sugar,
)
from aml.sugar import _lex
from aml.syntax import (
    Appl,
    ArityError,
    Const,
    EVar,
    Exists,
    Imp,
    Malformed,
    Mu,
    ParseError,
    SVar,
    Signature,
    TooDeep,
    UnknownSymbol,
)

DSIG = Signature(("c", "d", "def"))
C, D = Const("c"), Const("d")


class TestDerivedForms:
    def test_falsum_and_verum(self):
        assert BOT == Mu(0, SVar(0))
        assert TOP == Imp(BOT, BOT)

    def test_negation_and_disjunction(self):
        assert neg(C) == Imp(C, BOT)
        assert or_(C, D) == Imp(neg(C), D)

    def test_conjunction_de_morgan_shape(self):
        assert and_(C, D) == neg(or_(neg(C), neg(D)))

    def test_iff_is_both_directions(self):
        assert iff(C, D) == and_(Imp(C, D), Imp(D, C))

    def test_forall_dualizes_exists(self):
        assert forall(0, C) == neg(Exists(0, neg(C)))

    def test_nu_negates_the_variable_inside(self):
        body = Imp(SVar(1), SVar(0))
        got = nu(0, body)
        flipped = subst_free(body, VarRef.set(0), neg(SVar(0)))
        assert got == neg(Mu(0, neg(flipped)))

    def test_definedness_family(self):
        assert ceil(C) == Appl(Const("def"), C)
        assert floor(C) == neg(ceil(neg(C)))
        assert eq(C, D) == floor(iff(C, D))
        assert mem(0, C) == ceil(and_(EVar(0), C))

    def test_folds_nest_left(self):
        assert fold_disj([C, D, EVar(0)]) == or_(or_(C, D), EVar(0))
        assert fold_conj([C, D]) == and_(C, D)
        with pytest.raises(EmptyList):
            fold_disj([])


class TestMatchers:
    def test_neg_requires_canonical_falsum(self):
        assert match_neg(Imp(C, BOT)) == C
        assert match_neg(Imp(C, Mu(1, SVar(1)))) is None

    def test_or_hides_negation_spelling(self):
        """The disjunction shape matcher accepts a falsum right operand, so
        double negation matches; the renderer still prints it as two bangs
        (pinned in `TestRenderPins`)."""
        assert match_or_shape(neg(neg(C))) == (C, BOT)

    def test_and_round_trip(self):
        assert match_and(and_(C, D)) == (C, D)

    def test_forall_round_trip(self):
        assert match_forall(forall(2, Appl(C, EVar(2)))) == (2, Appl(C, EVar(2)))

    def test_nu_round_trip(self):
        body = or_(C, SVar(0))
        assert match_nu(nu(0, body)) == (0, body)

    def test_nu_rejects_near_miss(self):
        assert match_nu(Mu(0, SVar(0))) is None


class TestParsing:
    def cases(self):
        return [
            ("c", C),
            ("bot", BOT),
            ("top", TOP),
            ("!c", neg(C)),
            ("c \\/ d", or_(C, D)),
            ("c /\\ d", and_(C, D)),
            ("c -> d -> c", Imp(C, Imp(D, C))),
            ("c <-> d", iff(C, D)),
            ("c d x0", Appl(Appl(C, D), EVar(0))),
            ("exists x0 . x0 c", Exists(0, Appl(EVar(0), C))),
            ("forall x1 . c", forall(1, C)),
            ("mu X0 . c \\/ X0", Mu(0, or_(C, SVar(0)))),
            ("nu X0 . c /\\ X0", nu(0, and_(C, SVar(0)))),
            ("ceil(c)", ceil(C)),
            ("floor(c)", floor(C)),
            ("c = d", eq(C, D)),
            ("x0 in c", mem(0, C)),
            ("!c \\/ !d -> !(c /\\ d)", Imp(or_(neg(C), neg(D)), neg(and_(C, D)))),
        ]

    def test_pinned_cases(self):
        for text, want in self.cases():
            assert parse_sugar(text, DSIG) == want, text

    def test_binder_takes_maximal_scope(self):
        got = parse_sugar("exists x0 . x0 -> c", DSIG)
        assert got == Exists(0, Imp(EVar(0), C))

    def test_application_binds_tighter_than_negation(self):
        assert parse_sugar("!c d", DSIG) == neg(Appl(C, D))

    def test_iff_does_not_chain(self):
        with pytest.raises(Malformed):
            parse_sugar("c <-> d <-> c", DSIG)

    def test_membership_needs_element_variable(self):
        with pytest.raises(Malformed):
            parse_sugar("c in d", DSIG)

    def test_definedness_forms_need_the_constant(self):
        plain = Signature(("c",))
        for text in ("ceil(c)", "floor(c)", "c = c", "x0 in c"):
            with pytest.raises(UnknownSymbol):
                parse_sugar(text, plain)

    def test_stray_operator(self):
        with pytest.raises(Malformed):
            parse_sugar("-> c", DSIG)

    def test_unbalanced_parens(self):
        with pytest.raises(ArityError):
            parse_sugar("(c", DSIG)

    def test_mode_dispatch(self):
        assert parse("imp c d", DSIG, "core") == Imp(C, D)
        assert parse("c -> d", DSIG, "sugar") == Imp(C, D)
        with pytest.raises(ValueError):
            parse("c", DSIG, "latex")


# README's precedence table, loosest first, with the side each operator
# chains to; None where it does not chain.
_TABLE = (("<->", None), ("->", "right"), ("\\/", "left"), ("/\\", "left"), ("=", None), ("in", None))
_RANK = {op: rank for rank, (op, _) in enumerate(_TABLE)}
_CHAINS = dict(_TABLE)
_BUILD = {"<->": iff, "->": Imp, "\\/": or_, "/\\": and_, "=": eq, "in": lambda a, b: mem(a.index, b)}
_OP_IDS = {"<->": "iff", "->": "imp", "\\/": "or", "/\\": "and", "=": "eq", "in": "in"}

# The sugar vocabulary: the six operators, `!`, the punctuation, the binders
# and keywords, variables, the constants and a name no signature declares.
_VOCAB = (
    "<->", "->", "\\/", "/\\", "=", "in", "!", "(", ")", ".",
    "exists", "forall", "mu", "nu", "bot", "top", "ceil", "floor", "[]",
    "x0", "x1", "X0", "X1", "c", "d", "zebra",
)


def _outcome(parse, text, sig, allow_hole):
    """The tree ``parse`` gives, or the type and message of what it raises."""
    try:
        return parse(text, sig, allow_hole)
    except ParseError as e:
        return type(e), str(e)


_SUGARED = sugared_patterns(max_leaves=8)


@st.composite
def _near_sugar(draw):
    """A rendered sugared pattern with one token dropped, doubled or swapped
    for one from the vocabulary, or left as it is."""
    toks = _lex(render_sugar(draw(_SUGARED)))
    i = draw(st.integers(0, len(toks) - 1))
    edit = draw(st.sampled_from(("keep", "drop", "double", "swap")))
    if edit == "drop":
        del toks[i]
    elif edit == "double":
        toks.insert(i, toks[i])
    elif edit == "swap":
        toks[i] = draw(st.sampled_from(_VOCAB))
    return " ".join(toks)


class TestClimbing:
    """The one precedence-climbing loop against the eight-method descent it
    replaced, and the operator table it reads."""

    @given(
        st.one_of(st.lists(st.sampled_from(_VOCAB), max_size=14).map(" ".join), _near_sugar()),
        st.sampled_from((SIG, DSIG)),
        st.booleans(),
    )
    @settings(max_examples=1500)
    def test_matches_the_descent(self, text, sig, allow_hole):
        """The same tree, or the same exception with the same message."""
        want = _outcome(oracles.parse_sugar_descent, text, sig, allow_hole)
        assert _outcome(parse_sugar, text, sig, allow_hole) == want

    @pytest.mark.parametrize("op2", _BUILD, ids=_OP_IDS.get)
    @pytest.mark.parametrize("op1", _BUILD, ids=_OP_IDS.get)
    def test_operator_pair_groups_as_the_table_says(self, op1, op2):
        """``x0 op1 x1 op2 c`` groups by README's table, or stops after the
        first operator where the operator may not chain."""
        text = f"x0 {op1} x1 {op2} c"
        if op1 == op2 and _CHAINS[op1] is None:
            with pytest.raises(Malformed) as got:
                parse_sugar(text, DSIG)
            assert str(got.value) == f"pattern complete but 2 token(s) remain, starting at {op2!r}"
            return
        x0, x1 = EVar(0), EVar(1)
        if _RANK[op1] > _RANK[op2] or op1 == op2 and _CHAINS[op1] == "left":
            want = _BUILD[op2](_BUILD[op1](x0, x1), C)
        else:
            want = _BUILD[op1](x0, _BUILD[op2](x1, C))
        assert parse_sugar(text, DSIG) == want

    def test_every_operator_in_one_nest_is_too_deep(self):
        """Each operator's operand in turn, 64 parentheses deep, is a
        `TooDeep` error and not Python's recursion limit."""
        text = "c <-> c -> c \\/ c /\\ c = x0 in (" * 64 + "c" + ")" * 64
        with pytest.raises(TooDeep):
            parse_sugar(text, DSIG)


# Whole tokens, their characters alone and stray characters, and whitespace:
# ASCII, the separators `str.split` also splits on (\x1c, \x85) and Unicode
# spaces, beside U+200B, which is not whitespace.
_LEX_PIECES = (
    "<->", "->", "/\\", "\\/", "[]", "(", ")", ".", "!", "=",
    "x0", "x1", "x10", "X1", "c", "in", "mu", "_a9",
    "<", "-", ">", "/", "\\", "[", "]", "$", "\u200b", "1",
    " ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u3000",
)


class TestLexer:
    @given(st.lists(st.sampled_from(_LEX_PIECES), max_size=12).map("".join))
    @settings(max_examples=500)
    def test_one_call_matches_the_sequential_reading(self, text):
        """`_lex` gives the tokens of the one-at-a-time reference, or the
        same error, column included."""
        try:
            want = oracles.lex_sequential(text)
        except Malformed as e:
            with pytest.raises(Malformed) as got:
                _lex(text)
            assert str(got.value) == str(e)
        else:
            assert _lex(text) == want

    def test_whitespace_is_what_split_splits_on(self):
        """The premise of the one-call lexer: `\\s` and `str.split` agree on
        every code point."""
        text = "".join(map(chr, range(0x110000)))
        assert re.findall(r"\s", text) == [c for c in text if not c.split()]

    def test_unreadable_input_names_its_column(self):
        with pytest.raises(Malformed) as got:
            parse_sugar("x0 ->\u3000$ c", DSIG)
        assert str(got.value) == "cannot read input at column 7: '$ c'"

    def test_leaves_are_read_by_whole_token(self):
        """Repeated leaves come from one table per call, keyed by the whole
        token: ``x1`` after ``x10`` is still ``x1``."""
        got = parse_sugar("x10 x1 X10 X1 c x10 x1 X1", DSIG)
        want = (EVar(10), EVar(1), SVar(10), SVar(1), C, EVar(10), EVar(1), SVar(1))
        acc = want[0]
        for leaf in want[1:]:
            acc = Appl(acc, leaf)
        assert got == acc


class TestRendering:
    def test_pinned_renderings(self):
        cases = [
            (neg(neg(C)), "!!c"),
            (or_(or_(C, D), C), "c \\/ d \\/ c"),
            (or_(C, or_(D, C)), "c \\/ (d \\/ c)"),
            (Imp(C, Imp(D, C)), "c -> d -> c"),
            (Imp(Imp(C, D), C), "(c -> d) -> c"),
            (Appl(C, Appl(D, C)), "c (d c)"),
            (or_(or_(C, Exists(0, D)), C), "c \\/ (exists x0 . d) \\/ c"),
            (Exists(0, or_(EVar(0), C)), "exists x0 . x0 \\/ c"),
            (and_(mem(0, C), eq(C, D)), "x0 in c /\\ c = d"),
        ]
        for p, want in cases:
            assert render_sugar(p) == want, want

    def test_trailing_binder_prints_bare(self):
        p = Imp(C, Exists(0, EVar(0)))
        assert render_sugar(p) == "c -> exists x0 . x0"

    def test_applied_binder_is_parenthesized(self):
        p = Appl(Exists(0, EVar(0)), C)
        assert render_sugar(p) == "(exists x0 . x0) c"

    def test_a_binder_trails_inside_parentheses(self):
        """Parentheses end a trailing position of their own: a binder last
        inside them prints bare, wherever they stand."""
        assert render_sugar(Appl(Imp(C, Exists(0, C)), D)) == "(c -> exists x0 . c) d"
        assert render_sugar(Imp(Imp(C, Mu(0, SVar(1))), C)) == "(c -> mu X0 . X1) -> c"
        assert render_sugar(and_(or_(C, forall(0, C)), D)) == "(c \\/ forall x0 . c) /\\ d"

    @given(sugared_patterns())
    @settings(max_examples=400)
    def test_matches_the_joining_oracle(self, p):
        """One output list joined once gives what joining at every node did."""
        assert render_sugar(p) == oracles.render_sugar_joined(p)

    @given(patterns())
    @settings(max_examples=400)
    def test_sugar_round_trip(self, p):
        """Resugaring then reparsing gives back the identical tree."""
        assert parse_sugar(render_sugar(p), SIG) == p

    @given(patterns(max_leaves=6))
    @settings(max_examples=150)
    def test_derived_constructors_round_trip(self, p):
        """Wrapping any pattern in each derived form survives the trip."""
        for wrap in (
            neg(p),
            or_(p, C),
            and_(C, p),
            iff(p, C),
            forall(1, p),
            nu(1, p),
        ):
            assert parse_sugar(render_sugar(wrap), SIG) == wrap

    def test_render_mode_dispatch(self):
        assert render(Imp(C, D), "core") == "imp c d"
        assert render(Imp(C, D), "sugar") == "c -> d"
        with pytest.raises(ValueError):
            render(C, "latex")


# Every display form, alone and in each position an operand can take: the
# renderer's precedence and trailing-binder rules, pinned to exact strings.
_FORMS = {
    "bot": BOT,
    "top": TOP,
    "!": neg(C),
    "\\/": or_(C, D),
    "/\\": and_(C, D),
    "<->": iff(C, D),
    "=": eq(C, D),
    "in": mem(0, C),
    "ceil": ceil(C),
    "floor": floor(C),
    "forall": forall(0, C),
    "nu": nu(0, SVar(0)),
    "exists": Exists(0, C),
    "mu": Mu(0, Appl(C, SVar(0))),
    "app": Appl(C, D),
    "->": Imp(C, D),
}

_CONTEXTS = (
    lambda f: f,
    lambda f: Imp(f, C),
    lambda f: Imp(C, f),
    lambda f: and_(f, C),
    lambda f: and_(C, f),
    neg,
    lambda f: Appl(f, C),
    lambda f: Appl(C, f),
    lambda f: Exists(1, f),
)

# Columns follow _CONTEXTS: alone, left and right of ->, left and right of
# /\, under !, function, argument, binder body.  A negation on the left of
# -> makes a disjunction, and bot on its right a negation, so those columns
# show the parts of the disjunction or the negated operand.
_PINNED = {
    "bot": ("bot", "bot -> c", "!c", "bot /\\ c", "c /\\ bot", "top", "bot c", "c bot", "exists x1 . bot"),
    "top": ("top", "bot \\/ c", "c -> top", "top /\\ c", "c /\\ top", "!top", "top c", "c top", "exists x1 . top"),
    "!": ("!c", "c \\/ c", "c -> !c", "!c /\\ c", "c /\\ !c", "!!c", "(!c) c", "c (!c)", "exists x1 . !c"),
    "\\/": ("c \\/ d", "c \\/ d -> c", "c -> c \\/ d", "(c \\/ d) /\\ c", "c /\\ (c \\/ d)", "!(c \\/ d)", "(c \\/ d) c", "c (c \\/ d)", "exists x1 . c \\/ d"),
    "/\\": ("c /\\ d", "!c \\/ !d \\/ c", "c -> c /\\ d", "c /\\ d /\\ c", "c /\\ (c /\\ d)", "!(c /\\ d)", "(c /\\ d) c", "c (c /\\ d)", "exists x1 . c /\\ d"),
    "<->": ("c <-> d", "!(c -> d) \\/ !(d -> c) \\/ c", "c -> (c <-> d)", "(c <-> d) /\\ c", "c /\\ (c <-> d)", "!(c <-> d)", "(c <-> d) c", "c (c <-> d)", "exists x1 . c <-> d"),
    "=": ("c = d", "ceil(!(c <-> d)) \\/ c", "c -> c = d", "c = d /\\ c", "c /\\ c = d", "!(c = d)", "(c = d) c", "c (c = d)", "exists x1 . c = d"),
    "in": ("x0 in c", "x0 in c -> c", "c -> x0 in c", "x0 in c /\\ c", "c /\\ x0 in c", "floor(!x0 \\/ !c)", "(x0 in c) c", "c (x0 in c)", "exists x1 . x0 in c"),
    "ceil": ("ceil(c)", "ceil(c) -> c", "c -> ceil(c)", "ceil(c) /\\ c", "c /\\ ceil(c)", "!ceil(c)", "ceil(c) c", "c ceil(c)", "exists x1 . ceil(c)"),
    "floor": ("floor(c)", "ceil(!c) \\/ c", "c -> floor(c)", "floor(c) /\\ c", "c /\\ floor(c)", "!floor(c)", "floor(c) c", "c floor(c)", "exists x1 . floor(c)"),
    "forall": ("forall x0 . c", "(exists x0 . !c) \\/ c", "c -> forall x0 . c", "(forall x0 . c) /\\ c", "c /\\ forall x0 . c", "!forall x0 . c", "(forall x0 . c) c", "c (forall x0 . c)", "exists x1 . forall x0 . c"),
    "nu": ("nu X0 . X0", "(mu X0 . !!X0) \\/ c", "c -> nu X0 . X0", "(nu X0 . X0) /\\ c", "c /\\ nu X0 . X0", "!nu X0 . X0", "(nu X0 . X0) c", "c (nu X0 . X0)", "exists x1 . nu X0 . X0"),
    "exists": ("exists x0 . c", "(exists x0 . c) -> c", "c -> exists x0 . c", "(exists x0 . c) /\\ c", "c /\\ exists x0 . c", "!exists x0 . c", "(exists x0 . c) c", "c (exists x0 . c)", "exists x1 . exists x0 . c"),
    "mu": ("mu X0 . c X0", "(mu X0 . c X0) -> c", "c -> mu X0 . c X0", "(mu X0 . c X0) /\\ c", "c /\\ mu X0 . c X0", "!mu X0 . c X0", "(mu X0 . c X0) c", "c (mu X0 . c X0)", "exists x1 . mu X0 . c X0"),
    "app": ("c d", "c d -> c", "c -> c d", "c d /\\ c", "c /\\ c d", "!c d", "c d c", "c (c d)", "exists x1 . c d"),
    "->": ("c -> d", "(c -> d) -> c", "c -> c -> d", "(c -> d) /\\ c", "c /\\ (c -> d)", "!(c -> d)", "(c -> d) c", "c (c -> d)", "exists x1 . c -> d"),
}

# Shapes one step away from a derived form: they print as what they are.
_NEAR_MISSES = [
    (neg(Mu(0, Appl(C, SVar(0)))), "!mu X0 . c X0"),
    (neg(Mu(0, neg(Appl(C, SVar(0))))), "!mu X0 . !c X0"),
    (neg(Exists(0, C)), "!exists x0 . c"),
    (neg(ceil(C)), "!ceil(c)"),
    (neg(Imp(C, D)), "!(c -> d)"),
    (neg(or_(C, D)), "!(c \\/ d)"),
    (neg(or_(neg(C), D)), "!(!c \\/ d)"),
    (and_(Imp(C, D), Imp(C, D)), "(c -> d) /\\ (c -> d)"),
    (floor(and_(C, D)), "floor(c /\\ d)"),
    (ceil(and_(C, EVar(0))), "ceil(c /\\ x0)"),
    (Imp(C, Mu(1, SVar(1))), "c -> mu X1 . X1"),
    (Imp(neg(C), Mu(1, SVar(1))), "c \\/ mu X1 . X1"),
]


class TestRenderPins:
    @pytest.mark.parametrize("form", sorted(_FORMS))
    def test_form_in_every_position(self, form):
        got = tuple(render_sugar(ctx(_FORMS[form])) for ctx in _CONTEXTS)
        assert got == _PINNED[form]

    @pytest.mark.parametrize("p, want", _NEAR_MISSES)
    def test_near_miss_prints_plainly(self, p, want):
        assert render_sugar(p) == want

    def test_pins_read_back(self):
        """Each pinned string parses to the pattern it was printed from."""
        for form, row in _PINNED.items():
            for ctx, text in zip(_CONTEXTS, row):
                assert parse_sugar(text, DSIG) == ctx(_FORMS[form]), text
        for p, text in _NEAR_MISSES:
            assert parse_sugar(text, DSIG) == p, text


class TestDefinednessRendering:
    def test_definedness_round_trip(self):
        for p in (ceil(C), floor(neg(C)), eq(EVar(0), EVar(1)), mem(2, or_(C, D))):
            assert parse_sugar(render_sugar(p), DSIG) == p

    def test_raw_application_of_def_prints_as_ceil(self):
        p = Appl(Const("def"), C)
        assert render_sugar(p) == "ceil(c)"
