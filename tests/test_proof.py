"""Proof script parsing, line checking, the corpus, and the soundness audit."""

import re
from pathlib import Path

import pytest

from aml.model import SuiteSpec
from aml.proof import (
    AXIOM_KINDS,
    RULE_KINDS,
    ForwardReference,
    Justification,
    NotTautEquiv,
    ProofScript,
    ProofSyntaxError,
    UnknownHypothesis,
    audit_soundness,
    check_proof,
    classify_level,
    derived_taut_equiv,
    format_audit,
    format_report,
    parse_proof,
)
from aml.sugar import BOT, and_, neg, or_, parse_sugar
from aml.syntax import Const, EVar, Imp, Signature, load_signature

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SIG = load_signature(CORPUS / "sig.txt")
POSITIVE = sorted((CORPUS / "proofs" / "positive").glob("*.prf"))
NEGATIVE = sorted((CORPUS / "proofs" / "negative").glob("*.prf"))

LEVEL_BY_PREFIX = {"s": "strong", "l": "local", "g": "global"}


def read_script(path):
    return parse_proof(path.read_text(), SIG)


class TestParsing:
    def test_basic_script(self):
        text = "hyp h := c\n1: c ; hyp h\n2: c -> c \\/ c ; taut\n3: c \\/ c ; mp 1 2\n"
        script = parse_proof(text, SIG)
        assert script.hypotheses == {"h": Const("c")}
        assert [l.justification.kind for l in script.lines] == ["hyp", "taut", "mp"]
        assert script.lines[2].justification.refs == (1, 2)

    def test_comments_and_blank_lines(self):
        text = "# leading note\n\n1: c -> c ; taut # trailing note\n"
        script = parse_proof(text, SIG)
        assert len(script.lines) == 1

    def test_numbering_must_be_dense(self):
        with pytest.raises(ProofSyntaxError) as err:
            parse_proof("2: c -> c ; taut\n", SIG)
        assert "line 1" in str(err.value)
        with pytest.raises(ProofSyntaxError):
            parse_proof("1: c -> c ; taut\n3: c -> c ; taut\n", SIG)

    def test_hypotheses_must_lead(self):
        with pytest.raises(ProofSyntaxError):
            parse_proof("1: c -> c ; taut\nhyp h := c\n", SIG)

    def test_duplicate_hypothesis(self):
        with pytest.raises(ProofSyntaxError):
            parse_proof("hyp h := c\nhyp h := c -> c\n", SIG)

    def test_forward_reference(self):
        with pytest.raises(ForwardReference):
            parse_proof("1: c ; mp 1 2\n", SIG)

    def test_unknown_hypothesis_name(self):
        with pytest.raises(UnknownHypothesis):
            parse_proof("1: c ; hyp ghost\n", SIG)

    def test_missing_semicolon(self):
        with pytest.raises(ProofSyntaxError):
            parse_proof("1: c -> c\n", SIG)

    def test_unknown_justification(self):
        with pytest.raises(ProofSyntaxError):
            parse_proof("1: c -> c ; because\n", SIG)

    def test_aux_pattern_only_where_allowed(self):
        with pytest.raises(ProofSyntaxError):
            parse_proof("1: c -> c ; taut ; c\n", SIG)
        script = parse_proof(
            "1: !((x0 /\\ c) /\\ (x0 /\\ !c)) ; ax.singleton x0 ; c\n", SIG
        )
        assert script.lines[0].justification.aux == Const("c")

    def test_error_message_carries_the_line(self):
        err = ProofSyntaxError(7, "boom")
        assert str(err) == "line 7: boom"


# Every justification below sits on proof line 3 (text line 4), after the
# hypothesis h and two earlier lines, so lines 1 and 2 are citable.
PREAMBLE = "hyp h := c\n1: c ; taut\n2: c ; taut\n3: c ; "

WELL_FORMED = {
    "taut": Justification("taut"),
    "hyp h": Justification("hyp", name="h"),
    "ax.exists x0 x1": Justification("ax.exists", x=0, y=1),
    "ax.prop-bot-l": Justification("ax.prop-bot-l"),
    "ax.prop-bot-r": Justification("ax.prop-bot-r"),
    "ax.prop-or-l": Justification("ax.prop-or-l"),
    "ax.prop-or-r": Justification("ax.prop-or-r"),
    "ax.prop-exists-l": Justification("ax.prop-exists-l"),
    "ax.prop-exists-r": Justification("ax.prop-exists-r"),
    "ax.prefix": Justification("ax.prefix"),
    "ax.existence": Justification("ax.existence"),
    "ax.singleton x2 ; c": Justification("ax.singleton", x=2, aux=Const("c")),
    "mp 1 2": Justification("mp", refs=(1, 2)),
    "gen.exists 2": Justification("gen.exists", refs=(2,)),
    "frame.l 1": Justification("frame.l", refs=(1,)),
    "frame.r 2": Justification("frame.r", refs=(2,)),
    "subst.set 1 X3 ; c -> c": Justification(
        "subst.set", refs=(1,), set_var=3, aux=Imp(Const("c"), Const("c"))
    ),
    "kt 1": Justification("kt", refs=(1,)),
}

MALFORMED = {
    # One argument too many.
    "taut 1": "taut takes 0 argument(s), got 1",
    "hyp h h": "hyp takes 1 argument(s), got 2",
    "ax.exists x0 x1 x2": "ax.exists takes 2 argument(s), got 3",
    "ax.prop-bot-l x0": "ax.prop-bot-l takes 0 argument(s), got 1",
    "ax.prop-bot-r x0": "ax.prop-bot-r takes 0 argument(s), got 1",
    "ax.prop-or-l 1": "ax.prop-or-l takes 0 argument(s), got 1",
    "ax.prop-or-r 1": "ax.prop-or-r takes 0 argument(s), got 1",
    "ax.prop-exists-l x0": "ax.prop-exists-l takes 0 argument(s), got 1",
    "ax.prop-exists-r x0": "ax.prop-exists-r takes 0 argument(s), got 1",
    "ax.prefix X0": "ax.prefix takes 0 argument(s), got 1",
    "ax.existence x0": "ax.existence takes 0 argument(s), got 1",
    "ax.singleton x0 x1 ; c": "ax.singleton takes 1 argument(s), got 2",
    "mp 1 2 2": "mp takes 2 argument(s), got 3",
    "gen.exists 1 2": "gen.exists takes 1 argument(s), got 2",
    "frame.l 1 2": "frame.l takes 1 argument(s), got 2",
    "frame.r 1 2": "frame.r takes 1 argument(s), got 2",
    "subst.set 1 X0 X1 ; c": "subst.set takes 2 argument(s), got 3",
    "kt 1 2": "kt takes 1 argument(s), got 2",
    # Too few, and none.
    "mp 1": "mp takes 2 argument(s), got 1",
    "hyp": "hyp takes 1 argument(s), got 0",
    "": "empty justification",
    "because": "unknown justification 'because'",
    # An auxiliary pattern where none belongs; checked before the kind.
    "taut ; c": "taut takes no auxiliary pattern",
    "hyp h ; c": "hyp takes no auxiliary pattern",
    "mp 1 2 ; c": "mp takes no auxiliary pattern",
    "ax.exists x0 x1 ; c": "ax.exists takes no auxiliary pattern",
    "kt 1 ;": "kt takes no auxiliary pattern",
    "because ; c": "because takes no auxiliary pattern",
    # A missing auxiliary pattern.
    "ax.singleton x0": "ax.singleton needs '; <pattern>'",
    "ax.singleton x0 ;  ": "ax.singleton needs '; <pattern>'",
    "subst.set 1 X0": "subst.set needs '; <pattern>'",
    "subst.set 1 X0 ;": "subst.set needs '; <pattern>'",
    # Line references.
    "mp a 1": "bad line reference 'a'",
    "mp 1 0": "bad line reference '0'",
    "kt \u00b2": "bad line reference '\u00b2'",
    "frame.l -1": "bad line reference '-1'",
    "mp 9 a": "line 3 cannot cite line 9",
    "kt 3": "line 3 cannot cite line 3",
    "subst.set 04 x0 ; c": "line 3 cannot cite line 4",
    # Element and set variables swapped.
    "ax.exists X0 x1": "expected an element variable, got 'X0'",
    "ax.exists x0 X1": "expected an element variable, got 'X1'",
    "ax.singleton X0 ; c": "expected an element variable, got 'X0'",
    "ax.singleton c": "expected an element variable, got 'c'",
    "subst.set 1 x0 ; c": "expected a set variable, got 'x0'",
    "subst.set 1 x0": "expected a set variable, got 'x0'",
    "subst.set x0 X0 ; c": "bad line reference 'x0'",
    # Hypothesis names.
    "hyp ghost": "no hypothesis named 'ghost'",
}

MALFORMED_TYPES = {"hyp ghost": UnknownHypothesis}
MALFORMED_TYPES.update(
    {text: ForwardReference for text, message in MALFORMED.items() if "cannot cite" in message}
)


class TestJustifications:
    def test_every_kind_has_a_well_formed_case(self):
        kinds = {j.kind for j in WELL_FORMED.values()}
        assert kinds == AXIOM_KINDS | RULE_KINDS | {"hyp"}

    def test_axiom_and_rule_kinds(self):
        assert RULE_KINDS == {"mp", "gen.exists", "frame.l", "frame.r", "subst.set", "kt"}
        assert AXIOM_KINDS == {
            "taut", "ax.exists", "ax.prop-bot-l", "ax.prop-bot-r", "ax.prop-or-l",
            "ax.prop-or-r", "ax.prop-exists-l", "ax.prop-exists-r", "ax.prefix",
            "ax.existence", "ax.singleton",
        }

    @pytest.mark.parametrize("text", sorted(WELL_FORMED))
    def test_well_formed(self, text):
        script = parse_proof(PREAMBLE + text + "\n", SIG)
        assert script.lines[2].justification == WELL_FORMED[text]

    @pytest.mark.parametrize("text", sorted(MALFORMED))
    def test_malformed(self, text):
        with pytest.raises(ProofSyntaxError) as err:
            parse_proof(PREAMBLE + text + "\n", SIG)
        assert type(err.value) is MALFORMED_TYPES.get(text, ProofSyntaxError)
        assert str(err.value) == f"line 4: {MALFORMED[text]}"
        assert err.value.line == 4


class TestCorpus:
    def test_corpus_is_populated(self):
        assert len(POSITIVE) >= 15
        assert len(NEGATIVE) >= 10

    @pytest.mark.parametrize("path", POSITIVE, ids=lambda p: p.stem)
    def test_positive_scripts_are_accepted(self, path):
        script = read_script(path)
        report = check_proof(script)
        assert report.ok, format_report(report)
        assert report.level == LEVEL_BY_PREFIX[path.stem[0]]

    @pytest.mark.parametrize("path", NEGATIVE, ids=lambda p: p.stem)
    def test_negative_scripts_fail_where_annotated(self, path):
        header = re.search(
            r"# expect-reject: (\d+) ([a-z.-]+)", path.read_text()
        )
        assert header, "negative script lacks an expect-reject header"
        want_line, want_code = int(header.group(1)), header.group(2)
        report = check_proof(read_script(path))
        assert not report.ok
        failed = {v.number: v.code for v in report.verdicts if not v.ok}
        assert failed == {want_line: want_code}

    def test_every_justification_kind_appears_in_the_corpus(self):
        used = set()
        for path in POSITIVE:
            for line in read_script(path).lines:
                used.add(line.justification.kind)
        assert AXIOM_KINDS <= used
        assert RULE_KINDS <= used


class TestChecking:
    def test_rejected_lines_still_serve_as_premises(self):
        text = (
            "1: c ; taut\n"
            "2: c -> c \\/ c ; taut\n"
            "3: c \\/ c ; mp 1 2\n"
        )
        report = check_proof(parse_proof(text, SIG))
        codes = [v.code for v in report.verdicts]
        assert codes == ["taut.not-tautology", None, None]
        assert not report.ok

    def test_level_classification(self):
        assert classify_level([]) == "strong"
        assert classify_level(["taut", "mp"]) == "strong"
        assert classify_level(["taut", "frame.l"]) == "local"
        assert classify_level(["kt", "gen.exists"]) == "global"
        assert classify_level(["subst.set"]) == "global"
        assert classify_level(["hyp", "frame.r", "because"]) == "local"
        assert classify_level(["because"]) == "strong"

    def test_format_report_layout(self):
        text = "1: c \\/ c ; taut\n2: c -> c ; taut\n"
        report = check_proof(parse_proof(text, SIG))
        lines = format_report(report).splitlines()
        assert lines[0].startswith("   1: REJECTED [taut.not-tautology]")
        assert lines[1] == "   2: ok"
        assert lines[2] == "LEVEL: strong"
        assert lines[3] == "RESULT: rejected"


class TestDerivedRule:
    def test_replacement_by_tautological_equivalence(self):
        script = parse_proof("1: c \\/ !c ; taut\n", SIG)
        replacement = parse_sugar("!c \\/ c \\/ bot", SIG)
        extended = derived_taut_equiv(script, 1, replacement)
        assert len(extended.lines) == 5
        assert extended.lines[-1].pattern == replacement
        report = check_proof(extended)
        assert report.ok and report.level == "strong"

    def test_rejects_a_non_equivalence(self):
        script = parse_proof("1: c -> c ; taut\n", SIG)
        with pytest.raises(NotTautEquiv):
            derived_taut_equiv(script, 1, Const("c"))

    def test_rejects_a_missing_line(self):
        script = parse_proof("1: c -> c ; taut\n", SIG)
        with pytest.raises(ValueError):
            derived_taut_equiv(script, 9, Const("c"))

    def test_extension_preserves_earlier_verdicts(self):
        path = CORPUS / "proofs" / "positive" / "s01-excluded-middle.prf"
        script = read_script(path)
        target = script.lines[0].pattern
        extended = derived_taut_equiv(script, 1, or_(neg(neg(target)), BOT))
        assert check_proof(extended).ok


class TestAudit:
    def suite(self):
        return list(SuiteSpec(SIG, max_size=2).structures())[::17]

    def test_accepted_scripts_have_clean_audits(self):
        suite = self.suite()
        for path in (
            CORPUS / "proofs" / "positive" / "s03-exists-intro.prf",
            CORPUS / "proofs" / "positive" / "l04-fixpoint-unfolding.prf",
            CORPUS / "proofs" / "positive" / "g02-set-instantiation.prf",
        ):
            script = read_script(path)
            audit = audit_soundness(script, suite)
            assert audit.ok, format_audit(audit)
            assert audit.structures == len(suite)
            assert audit.lines_audited == len(script.lines)

    def test_rejected_lines_are_not_audited(self):
        text = "1: c ; taut\n2: c -> c ; taut\n"
        script = parse_proof(text, SIG)
        audit = audit_soundness(script, self.suite())
        assert audit.lines_audited == 1 and audit.ok

    def test_hypotheses_enter_the_audit(self):
        # From the hypothesis c, the line c is sound at every level.
        text = "hyp h := c\n1: c ; hyp h\n"
        audit = audit_soundness(parse_proof(text, SIG), self.suite())
        assert audit.ok and audit.kind.value == "strong"

    def test_an_unsound_accepted_line_is_flagged(self):
        # Force a bogus acceptance by auditing a hand-built script whose
        # checker verdicts are supplied from a doctored report.
        from aml.proof import CheckReport, LineVerdict, ProofLine

        bogus = ProofScript(
            {},
            (ProofLine(1, EVar(0), Justification("taut")),),
        )
        doctored = CheckReport((LineVerdict(1, True),), "strong", True)
        audit = audit_soundness(bogus, self.suite(), report=doctored)
        assert not audit.ok
        assert audit.violations[0].line == 1
        text = format_audit(audit)
        assert "VIOLATION" in text

    def test_a_suite_is_audited_as_it_is(self):
        # A `Suite` is decided over its own layout, without being read into
        # a list: only the structure of its one one-lane block, the suite's
        # first, is built.
        script = read_script(CORPUS / "proofs" / "positive" / "s03-exists-intro.prf")
        spec = SuiteSpec(SIG, max_size=3, seed=1, samples=40)
        suite = spec.suite()
        got = audit_soundness(script, suite)
        assert len(suite.made) == 1
        for other in (list(spec.structures()), spec.structures()):
            want = audit_soundness(script, other)
            assert (got.structures, got.lines_audited, got.violations) == (
                want.structures, want.lines_audited, want.violations,
            )
        assert got.ok and got.structures == len(suite)

    def test_format_audit_clean(self):
        text = "1: c -> c ; taut\n"
        audit = audit_soundness(parse_proof(text, SIG), self.suite()[:3])
        out = format_audit(audit)
        assert out.splitlines()[0].startswith("AUDIT: 1 line(s) x 3 structure(s)")
        assert out.splitlines()[1] == "no violations"
