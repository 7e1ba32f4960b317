"""Hilbert-style proof scripts: parsing, checking, and the soundness audit.

A script declares named hypotheses, then numbered lines, each a pattern with
a justification: an axiom-scheme instance, a hypothesis, or a rule applied
to earlier lines.  The checker validates every line independently and
classifies the whole script by the strongest consequence guarantee its rule
set preserves:

    strong  - axiom instances, hypotheses, modus ponens
    local   - additionally framing and the fixpoint rule
    global  - additionally the existential rule and set substitution

The audit replays every accepted line against a model suite with the
matching consequence check; any violation would expose an unsound step and
comes with a replayable counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import sugar
from .context import match_singleton
from .semantics import (
    ConsequenceKind,
    SkeletonTooLarge,
    Verdict,
    consequence,
    is_tautology,
)
from .substitution import VarRef, is_free_for, subst_free
from .syntax import (
    Appl,
    EVAR_TOKEN,
    EVar,
    Exists,
    Imp,
    Mu,
    ParseError,
    Pattern,
    SVAR_TOKEN,
    Signature,
    free_vars,
    is_positive_in,
    read_digits,
)

__all__ = [
    "ProofSyntaxError",
    "ForwardReference",
    "UnknownHypothesis",
    "NotTautEquiv",
    "Justification",
    "ProofLine",
    "ProofScript",
    "LineVerdict",
    "CheckReport",
    "parse_proof",
    "check_axiom",
    "check_rule",
    "check_proof",
    "format_report",
    "derived_taut_equiv",
    "AuditViolation",
    "AuditReport",
    "audit_soundness",
    "format_audit",
    "AXIOM_KINDS",
    "RULE_KINDS",
]


class ProofSyntaxError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ForwardReference(ProofSyntaxError):
    pass


class UnknownHypothesis(ProofSyntaxError):
    pass


class NotTautEquiv(ValueError):
    """The two patterns are not related by a tautological equivalence."""


@dataclass(frozen=True)
class Justification:
    kind: str
    refs: tuple[int, ...] = ()
    name: str | None = None
    x: int | None = None
    y: int | None = None
    set_var: int | None = None
    aux: Pattern | None = None


@dataclass(frozen=True)
class ProofLine:
    number: int
    pattern: Pattern
    justification: Justification


@dataclass(frozen=True)
class ProofScript:
    hypotheses: Mapping[str, Pattern] = field(default_factory=dict)
    lines: tuple[ProofLine, ...] = ()


@dataclass(frozen=True)
class LineVerdict:
    number: int
    ok: bool
    code: str | None = None
    message: str = ""


@dataclass(frozen=True)
class CheckReport:
    verdicts: tuple[LineVerdict, ...]
    level: str
    ok: bool


class _Kind(NamedTuple):
    """How a justification kind is written and what it preserves."""

    words: tuple[str, ...] = ()  # the Justification field each argument fills
    aux: bool = False  # takes '; <pattern>', read into Justification.aux
    level: str = "strong"  # the strongest consequence level it preserves


_KINDS = {
    "hyp": _Kind(("name",)),
    "taut": _Kind(),
    "ax.exists": _Kind(("x", "y")),
    "ax.prop-bot-l": _Kind(),
    "ax.prop-bot-r": _Kind(),
    "ax.prop-or-l": _Kind(),
    "ax.prop-or-r": _Kind(),
    "ax.prop-exists-l": _Kind(),
    "ax.prop-exists-r": _Kind(),
    "ax.prefix": _Kind(),
    "ax.existence": _Kind(),
    "ax.singleton": _Kind(("x",), aux=True),
    "mp": _Kind(("refs", "refs")),
    "gen.exists": _Kind(("refs",), level="global"),
    "frame.l": _Kind(("refs",), level="local"),
    "frame.r": _Kind(("refs",), level="local"),
    "subst.set": _Kind(("refs", "set_var"), aux=True, level="global"),
    "kt": _Kind(("refs",), level="local"),
}
_LEVELS = ("strong", "local", "global")

# Rules cite earlier lines; axiom schemes cite neither lines nor hypotheses.
RULE_KINDS = frozenset(k for k, spec in _KINDS.items() if "refs" in spec.words)
AXIOM_KINDS = frozenset(_KINDS) - RULE_KINDS - {"hyp"}


# ---------------------------------------------------------------------------
# Parsing.


def parse_proof(text: str, sig: Signature) -> ProofScript:
    """Parse a proof script: ``hyp <name> := <pattern>`` headers, then lines
    ``<n>: <pattern> ; <justification>`` numbered densely from 1.  Patterns
    are in sugar syntax and ``#`` starts a comment."""
    hypotheses: dict[str, Pattern] = {}
    lines: list[ProofLine] = []
    expected = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            if stripped.startswith("hyp "):
                if lines:
                    raise ProofSyntaxError(
                        lineno, "hypotheses must come before the numbered lines"
                    )
                name, sep, pat_text = stripped[4:].partition(":=")
                name = name.strip()
                if not sep:
                    raise ProofSyntaxError(lineno, "hypothesis needs ':='")
                if not name.isidentifier():
                    raise ProofSyntaxError(lineno, f"bad hypothesis name {name!r}")
                if name in hypotheses:
                    raise ProofSyntaxError(lineno, f"duplicate hypothesis {name!r}")
                hypotheses[name] = sugar.parse_sugar(pat_text.strip(), sig)
                continue
            num_text, sep, rest = stripped.partition(":")
            if not sep or not _is_number(num_text.strip()):
                raise ProofSyntaxError(
                    lineno, "expected '<number>: <pattern> ; <justification>'"
                )
            number = read_digits(num_text.strip())
            if number != expected:
                raise ProofSyntaxError(
                    lineno, f"lines must be numbered densely: expected {expected}, got {number}"
                )
            pat_text, sep, just_text = rest.partition(";")
            if not sep:
                raise ProofSyntaxError(lineno, "missing ';' before the justification")
            pattern = sugar.parse_sugar(pat_text.strip(), sig)
            just = _parse_justification(just_text.strip(), sig, lineno, number, hypotheses)
            lines.append(ProofLine(number, pattern, just))
            expected += 1
        except ParseError as exc:
            raise ProofSyntaxError(lineno, str(exc)) from exc
    return ProofScript(hypotheses, tuple(lines))


def _is_number(text: str) -> bool:
    """ASCII digits only: `str.isdigit` also accepts digits `int` rejects."""
    return text.isascii() and text.isdigit()


def _parse_justification(
    text: str, sig: Signature, lineno: int, number: int, hypotheses: Mapping[str, Pattern]
) -> Justification:
    head, sep, extra = text.partition(";")
    words = head.split()
    if not words:
        raise ProofSyntaxError(lineno, "empty justification")
    kind, args = words[0], words[1:]
    spec = _KINDS.get(kind)
    if sep and not (spec and spec.aux):
        raise ProofSyntaxError(lineno, f"{kind} takes no auxiliary pattern")
    if spec is None:
        raise ProofSyntaxError(lineno, f"unknown justification {kind!r}")
    if len(args) != len(spec.words):
        raise ProofSyntaxError(
            lineno, f"{kind} takes {len(spec.words)} argument(s), got {len(args)}"
        )
    fields: dict = {"refs": ()}
    for word, tok in zip(spec.words, args):
        if word == "refs":
            ref = read_digits(tok) if _is_number(tok) else 0
            if ref < 1:
                raise ProofSyntaxError(lineno, f"bad line reference {tok!r}")
            if ref >= number:
                raise ForwardReference(lineno, f"line {number} cannot cite line {ref}")
            fields["refs"] += (ref,)
        elif word == "name":
            if tok not in hypotheses:
                raise UnknownHypothesis(lineno, f"no hypothesis named {tok!r}")
            fields["name"] = tok
        else:
            is_set = word == "set_var"
            m = (SVAR_TOKEN if is_set else EVAR_TOKEN).match(tok)
            what = "a set" if is_set else "an element"
            if not m:
                raise ProofSyntaxError(lineno, f"expected {what} variable, got {tok!r}")
            fields[word] = read_digits(m.group(1))
    if spec.aux:
        if not extra.strip():
            raise ProofSyntaxError(lineno, f"{kind} needs '; <pattern>'")
        fields["aux"] = sugar.parse_sugar(extra.strip(), sig)
    return Justification(kind, **fields)


# ---------------------------------------------------------------------------
# Line checking.  Every check returns (ok, code, message); codes are stable
# strings the negative corpus pins down.


def _reject(code: str, message: str):
    return False, code, message


_OK = (True, None, "")


def check_axiom(p: Pattern, just: Justification):
    """Validate ``p`` as an instance of the axiom scheme named by ``just``."""
    kind = just.kind
    if kind == "taut":
        try:
            if is_tautology(p):
                return _OK
        except SkeletonTooLarge as exc:
            return _reject("taut.skeleton-too-large", str(exc))
        return _reject("taut.not-tautology", "the propositional skeleton has a failing row")
    if kind == "ax.exists":
        if not (isinstance(p, Imp) and isinstance(p.right, Exists) and p.right.var == just.x):
            return _reject(
                "exists.shape",
                f"conclusion must be '<pattern> -> exists x{just.x} . <body>'",
            )
        body = p.right.body
        v = VarRef.element(just.x)
        wanted = subst_free(body, v, EVar(just.y))
        if p.left != wanted:
            return _reject(
                "exists.substitution-mismatch",
                f"left side is not the body with x{just.x} replaced by x{just.y}",
            )
        if not is_free_for(v, EVar(just.y), body):
            return _reject(
                "exists.not-free-for",
                f"x{just.y} would be captured in the body",
            )
        return _OK
    if kind in ("ax.prop-bot-l", "ax.prop-bot-r"):
        shape = (
            isinstance(p, Imp)
            and isinstance(p.left, Appl)
            and p.right == sugar.BOT
            and (p.left.left if kind.endswith("l") else p.left.right) == sugar.BOT
        )
        if not shape:
            side = "left" if kind.endswith("l") else "right"
            return _reject(
                "prop-bot.shape",
                f"expected an application with bot on the {side}, implying bot",
            )
        return _OK
    if kind in ("ax.prop-or-l", "ax.prop-or-r"):
        if isinstance(p, Imp) and isinstance(p.left, Appl):
            left = kind.endswith("l")
            disjunction = p.left.left if left else p.left.right
            chi = p.left.right if left else p.left.left
            m = sugar.match_or_shape(disjunction)
            if m is not None:
                a, b = (Appl(q, chi) if left else Appl(chi, q) for q in m)
                if p.right == sugar.or_(a, b):
                    return _OK
        return _reject(
            "prop-or.shape",
            "conclusion does not distribute an application over a disjunction",
        )
    if kind in ("ax.prop-exists-l", "ax.prop-exists-r"):
        if isinstance(p, Imp) and isinstance(p.left, Appl):
            left = kind.endswith("l")
            binder = p.left.left if left else p.left.right
            other = p.left.right if left else p.left.left
            if isinstance(binder, Exists):
                x, phi = binder.var, binder.body
                inner = Appl(phi, other) if left else Appl(other, phi)
                if p.right == Exists(x, inner):
                    if x in free_vars(other)[0]:
                        return _reject(
                            "prop-exists.captured-variable",
                            f"x{x} occurs free in the other operand",
                        )
                    return _OK
        return _reject(
            "prop-exists.shape",
            "conclusion does not move an existential out of an application",
        )
    if kind == "ax.prefix":
        if not (isinstance(p, Imp) and isinstance(p.right, Mu)):
            return _reject("prefix.shape", "right side must be a mu pattern")
        mu_pat = p.right
        v = VarRef.set(mu_pat.var)
        if not is_positive_in(mu_pat.body, mu_pat.var):
            return _reject(
                "prefix.not-positive",
                f"the body is not positive in X{mu_pat.var}",
            )
        if not is_free_for(v, mu_pat, mu_pat.body):
            return _reject(
                "prefix.not-free-for",
                f"X{mu_pat.var} is not free for the mu pattern in its body",
            )
        if p.left != subst_free(mu_pat.body, v, mu_pat):
            return _reject(
                "prefix.substitution-mismatch",
                "left side is not the body unfolded once",
            )
        return _OK
    if kind == "ax.existence":
        if isinstance(p, Exists) and p.body == EVar(p.var):
            return _OK
        return _reject("existence.shape", "expected 'exists x<n> . x<n>'")
    if kind == "ax.singleton":
        if match_singleton(p, just.x, just.aux):
            return _OK
        return _reject(
            "singleton.no-decomposition",
            "no pair of application contexts matches the declared variable and body",
        )
    raise ValueError(f"not an axiom kind: {kind!r}")


def check_rule(p: Pattern, just: Justification, premises: Mapping[int, Pattern]):
    """Validate ``p`` as the conclusion of a rule applied to cited lines."""
    kind = just.kind
    if kind == "mp":
        i, j = just.refs
        if premises[j] != Imp(premises[i], p):
            return _reject(
                "mp.mismatch",
                f"line {j} is not 'line {i} -> this line'",
            )
        return _OK
    if kind == "gen.exists":
        (i,) = just.refs
        if not (isinstance(p, Imp) and isinstance(p.left, Exists)):
            return _reject(
                "gen-exists.shape", "conclusion must be '(exists x . ...) -> ...'"
            )
        x, phi, psi = p.left.var, p.left.body, p.right
        if premises[i] != Imp(phi, psi):
            return _reject(
                "gen-exists.premise-mismatch",
                f"line {i} is not the implication under the binder",
            )
        if x in free_vars(psi)[0]:
            return _reject(
                "gen-exists.captured-variable",
                f"x{x} occurs free in the conclusion's right side",
            )
        return _OK
    if kind in ("frame.l", "frame.r"):
        (i,) = just.refs
        shape = (
            isinstance(p, Imp)
            and isinstance(p.left, Appl)
            and isinstance(p.right, Appl)
        )
        if not shape:
            return _reject(
                "frame.shape", "conclusion must be an implication between applications"
            )
        if kind == "frame.l":
            a, chi1 = p.left.left, p.left.right
            b, chi2 = p.right.left, p.right.right
        else:
            chi1, a = p.left.left, p.left.right
            chi2, b = p.right.left, p.right.right
        if chi1 != chi2:
            return _reject(
                "frame.argument-mismatch",
                "the framed argument differs between the two sides",
            )
        if premises[i] != Imp(a, b):
            return _reject(
                "frame.premise-mismatch",
                f"line {i} does not relate the two transformed operands",
            )
        return _OK
    if kind == "subst.set":
        (i,) = just.refs
        v = VarRef.set(just.set_var)
        if not is_free_for(v, just.aux, premises[i]):
            return _reject(
                "subst-set.not-free-for",
                f"X{just.set_var} is not free for the substituted pattern in line {i}",
            )
        if p != subst_free(premises[i], v, just.aux):
            return _reject(
                "subst-set.mismatch",
                f"this line is not line {i} with X{just.set_var} substituted",
            )
        return _OK
    if kind == "kt":
        (i,) = just.refs
        if not (isinstance(p, Imp) and isinstance(p.left, Mu)):
            return _reject("kt.shape", "conclusion must be '(mu X . ...) -> ...'")
        mu_pat, psi = p.left, p.right
        v = VarRef.set(mu_pat.var)
        if not is_free_for(v, psi, mu_pat.body):
            return _reject(
                "kt.not-free-for",
                f"X{mu_pat.var} is not free for the right side in the mu body",
            )
        if premises[i] != Imp(subst_free(mu_pat.body, v, psi), psi):
            return _reject(
                "kt.premise-mismatch",
                f"line {i} is not the body, with X{mu_pat.var} replaced by the "
                "right side, implying the right side",
            )
        return _OK
    raise ValueError(f"not a rule kind: {kind!r}")


def classify_level(kinds: Iterable[str]) -> str:
    """The strongest consequence level every kind preserves; a kind the
    table does not know counts as strong."""
    rank = max((_LEVELS.index(_KINDS[k].level) for k in kinds if k in _KINDS), default=0)
    return _LEVELS[rank]


def check_proof(script: ProofScript) -> CheckReport:
    """Check every line of the script.

    A rejected line does not block later lines from citing its pattern; the
    overall verdict is already negative at that point, and reporting every
    independent defect at once is more useful.
    """
    verdicts = []
    premises: dict[int, Pattern] = {}
    for line in script.lines:
        just = line.justification
        if just.kind == "hyp":
            declared = script.hypotheses.get(just.name)
            if line.pattern == declared:
                ok, code, msg = _OK
            else:
                ok, code, msg = _reject(
                    "hyp.mismatch",
                    f"the line differs from hypothesis {just.name!r}",
                )
        elif just.kind in AXIOM_KINDS:
            ok, code, msg = check_axiom(line.pattern, just)
        else:
            ok, code, msg = check_rule(line.pattern, just, premises)
        premises[line.number] = line.pattern
        verdicts.append(LineVerdict(line.number, ok, code, msg))
    level = classify_level(l.justification.kind for l in script.lines)
    return CheckReport(tuple(verdicts), level, all(v.ok for v in verdicts))


def format_report(report: CheckReport) -> str:
    out = []
    for v in report.verdicts:
        if v.ok:
            out.append(f"{v.number:>4}: ok")
        else:
            out.append(f"{v.number:>4}: REJECTED [{v.code}] {v.message}")
    out.append(f"LEVEL: {report.level}")
    out.append(f"RESULT: {'accepted' if report.ok else 'rejected'}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# The derived replacement rule: from a proved line and a tautological
# equivalence, conclude the replacement, through two tautologies and two
# modus ponens steps.


def derived_taut_equiv(script: ProofScript, line: int, replacement: Pattern) -> ProofScript:
    if not 1 <= line <= len(script.lines):
        raise ValueError(f"no line {line} in the script")
    phi = script.lines[line - 1].pattern
    equiv = sugar.iff(phi, replacement)
    try:
        taut_ok = is_tautology(equiv)
    except SkeletonTooLarge as exc:
        raise NotTautEquiv(str(exc)) from exc
    if not taut_ok:
        raise NotTautEquiv("the equivalence is not a tautology")
    n = len(script.lines)
    bridge = Imp(equiv, Imp(phi, replacement))
    new_lines = (
        ProofLine(n + 1, equiv, Justification("taut")),
        ProofLine(n + 2, bridge, Justification("taut")),
        ProofLine(n + 3, Imp(phi, replacement), Justification("mp", refs=(n + 1, n + 2))),
        ProofLine(n + 4, replacement, Justification("mp", refs=(line, n + 3))),
    )
    return ProofScript(script.hypotheses, script.lines + new_lines)


# ---------------------------------------------------------------------------
# Soundness audit.


@dataclass(frozen=True)
class AuditViolation:
    line: int
    pattern: Pattern
    verdict: Verdict


@dataclass(frozen=True)
class AuditReport:
    level: str
    kind: ConsequenceKind
    structures: int
    lines_audited: int
    violations: tuple[AuditViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_soundness(
    script: ProofScript,
    suite: Iterable,
    report: CheckReport | None = None,
) -> AuditReport:
    """Replay every accepted line as a consequence of the hypotheses, at the
    script's level, over the given suite.  Any violation means the checker
    accepted an unsound step, so the counterexample is attached verbatim.
    A sequence, such as a `model.Suite`, is decided as it is; any other
    iterable is read into a list first."""
    if report is None:
        report = check_proof(script)
    if not isinstance(suite, Sequence):
        suite = list(suite)
    kind = ConsequenceKind(report.level)
    gamma = list(script.hypotheses.values())
    violations = []
    audited = 0
    for line, verdict in zip(script.lines, report.verdicts):
        if not verdict.ok:
            continue
        audited += 1
        outcome = consequence(kind, gamma, [line.pattern], suite)
        if not outcome.holds:
            violations.append(AuditViolation(line.number, line.pattern, outcome))
    return AuditReport(report.level, kind, len(suite), audited, tuple(violations))


def format_audit(report: AuditReport) -> str:
    head = (
        f"AUDIT: {report.lines_audited} line(s) x {report.structures} structure(s), "
        f"{report.kind.value} consequence"
    )
    if report.ok:
        return head + "\nno violations"
    out = [head]
    for v in report.violations:
        out.append(
            f"line {v.line}: VIOLATION, fails on a structure with universe "
            f"{list(v.verdict.structure.universe)}"
        )
    return "\n".join(out)
