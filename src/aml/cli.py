"""Command line front end.

Exit codes: 0 when the command succeeds and its verdict is positive, 1 when
a check comes back negative (not valid, not a tautology, consequence fails,
proof rejected, audit violation), 2 on usage or file-format errors, and
141 (128 + SIGPIPE), with nothing on stderr, when the reader of standard
output closes it early.  Output is deterministic for identical inputs and
seeds; JSON output is sorted-key.

Arguments are read from one table of the commands and their options,
`_COMMANDS`, by two readers.  `_read` takes one plain form: a known command,
each option spelled in full as ``--name value`` and given once (``--gamma``
may repeat), no value or positional that starts with ``-``, every
positional and required option there and every value passing its check.
Valid argv in that form never reaches argparse.  argparse, built whole from
the same table, reads anything else, and prints every help text and usage
error, so their messages and exit codes are argparse's own.

Every command reports in one of two forms.  As text, each line is printed
as soon as the result it reports is decided, so an error or a limit met
later in a file leaves the earlier lines printed.  Under ``--json``, one
document is printed when the command completes, and nothing on error.

A failing verdict is also written out as replayable counterexample files
under the ``--out`` directory, in the formats `eval` reads back: the first
counterexample of `check` and `consequence`, and every audit violation of
`proof check`, with or without ``--json``.  The files are written before
any line that announces them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

from .model import (
    ModelError,
    Structure,
    SuiteSpec,
    UniverseTooLarge,
    Valuation,
    load_structure,
    load_valuation,
    save_structure,
    structure_to_doc,
    valuation_to_doc,
)
from .proof import (
    ProofSyntaxError,
    audit_soundness,
    check_proof,
    format_audit,
    format_report,
    parse_proof,
)
from .semantics import (
    SkeletonTooLarge,
    UnassignedConstant,
    consequence,
    evaluate,
    is_tautology,
)
from .sugar import parse as parse_pattern
from .sugar import render as render_pattern
from .syntax import (
    OccurrenceKind,
    ParseError,
    Pattern,
    Signature,
    free_vars,
    is_negative_in,
    is_positive_in,
    load_signature,
    occurrence_kinds,
    token_len,
    tokens,
)

__all__ = ["main"]


class CliError(Exception):
    """Usage or file-format problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Input loading.


def _load_sig(args, fallback: tuple[str, ...] = ()) -> Signature:
    if getattr(args, "sig", None):
        try:
            return load_signature(args.sig)
        except ValueError as exc:
            raise CliError(f"{args.sig}: {exc}") from exc
    try:
        return Signature(tuple(sorted(fallback)))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _suite_sig(args, sig: Signature) -> Signature:
    """A generated ``--defined`` suite ends its signature with ``def``."""
    if not args.defined or getattr(args, "models", None) or "def" in sig:
        return sig
    return Signature((*sig.constants, "def"))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _read_patterns(path: str, sig: Signature, mode: str) -> list[Pattern]:
    """A pattern file: one pattern per line, ``#`` comments."""
    out = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(parse_pattern(line, sig, mode))
        except ParseError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise CliError(f"{path}: no patterns")
    return out


def _load_model(path: str, sig: Signature | None) -> Structure:
    try:
        return load_structure(path, sig)
    except ModelError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_model_dir(path: str, sig: Signature | None) -> list[Structure]:
    files = sorted(Path(path).glob("*.json"))
    files = [f for f in files if f.name != "suite.json"]
    if not files:
        raise CliError(f"{path}: no structure files")
    return [_load_model(str(f), sig) for f in files]


def _suite(
    args, sig: Signature, loaded: list[Structure] | None = None
) -> tuple[Sequence[Structure], str]:
    """The suite the arguments name, a generated one as a `model.Suite`;
    ``loaded`` is the ``--models`` directory's structures when the caller
    has read them already."""
    if args.models:
        suite = loaded if loaded is not None else _load_model_dir(args.models, None)
        return suite, f"directory {args.models}"
    spec = _spec(args, sig)
    return spec.suite(), spec.describe()


def _spec(args, sig: Signature) -> SuiteSpec:
    """The generated suite that the suite flags name; a signature that
    declares ``def`` gets definedness structures, ``--defined`` or not."""
    return SuiteSpec(
        sig=sig,
        max_size=args.max_size,
        seed=args.seed,
        samples=args.samples,
        defined=args.defined or "def" in sig,
    )


def _constants_of(structure: Structure) -> tuple[str, ...]:
    return tuple(sorted(structure.masks))


def _dumps(doc) -> str:
    """A JSON document as the command line writes every one: sorted keys,
    indented by two."""
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Counterexample artifacts.


def _write_counterexample(
    outdir: Path,
    structure: Structure,
    valuation: Valuation | None,
    conclusion: Pattern,
    gamma: list[Pattern] | None = None,
) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    save_structure(structure, outdir / "structure.json")
    if valuation is not None:
        doc = valuation_to_doc(valuation, structure)
        (outdir / "valuation.json").write_text(_dumps(doc) + "\n")
    (outdir / "conclusion.pat").write_text(render_pattern(conclusion, "sugar") + "\n")
    if gamma:
        (outdir / "gamma.pat").write_text(
            "".join(render_pattern(g, "sugar") + "\n" for g in gamma)
        )
    replay = (
        "aml eval --mode sugar --model structure.json"
        + (" --valuation valuation.json" if valuation is not None else "")
        + " conclusion.pat\n"
    )
    (outdir / "replay.txt").write_text(replay)


def _say_witness(say, structure: Structure, valuation: dict, pattern: str) -> None:
    say(f"  structure: universe {{{', '.join(structure.universe)}}}")
    say(f"  valuation: {json.dumps(valuation, sort_keys=True)}")
    say(f"  pattern: {pattern}")


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# Commands.  Each takes the parsed arguments and ``say``, which it calls
# with each text line as soon as that line is decided, and returns its exit
# code and its result document; `main` alone chooses which form is shown.


def _cmd_parse(args, say):
    pats = _read_patterns(args.pattern_file, _load_sig(args), args.mode)
    docs = []
    for p in pats:
        doc = {
            "core": render_pattern(p, "core"),
            "sugar": render_pattern(p, "sugar"),
            "tokens": token_len(p),
        }
        say(doc[args.emit])
        docs.append(doc)
    return 0, {"patterns": docs}


def _fmt_vars(indices, prefix: str) -> str:
    if not indices:
        return "(none)"
    return " ".join(f"{prefix}{i}" for i in sorted(indices))


def _polarity_word(p: Pattern, index: int) -> str:
    if is_positive_in(p, index):
        return "positive"
    if is_negative_in(p, index):
        return "negative"
    return "neither"


def _cmd_analyze(args, say):
    pats = _read_patterns(args.pattern_file, _load_sig(args), args.mode)
    docs = []
    for n, p in enumerate(pats, start=1):
        fe, fs = free_vars(p)
        occurrences = [
            {"position": i, "token": t, "kind": k.value}
            for i, (t, k) in enumerate(zip(tokens(p), occurrence_kinds(p)))
            if k is not OccurrenceKind.NOT_A_VARIABLE
        ]
        polarity = {f"X{i}": _polarity_word(p, i) for i in sorted(fs)}
        doc = {
            "core": render_pattern(p, "core"),
            "sugar": render_pattern(p, "sugar"),
            "free_element_vars": sorted(fe),
            "free_set_vars": sorted(fs),
            "occurrences": occurrences,
            "set_polarity": polarity,
        }
        say(f"pattern {n}: {doc['sugar']}")
        say(f"  core: {doc['core']}")
        say(f"  free element variables: {_fmt_vars(fe, 'x')}")
        say(f"  free set variables: {_fmt_vars(fs, 'X')}")
        say("  occurrences:")
        for o in occurrences:
            say(f"    {o['position']:>3}  {o['token']:<6} {o['kind']}")
        for name, word in polarity.items():
            say(f"  {name}: {word}")
        docs.append(doc)
    return 0, {"patterns": docs}


def _cmd_eval(args, say):
    structure = _load_model(args.model, None)
    sig = _load_sig(args, _constants_of(structure))
    pats = _read_patterns(args.pattern_file, sig, args.mode)
    if args.valuation:
        try:
            valuation = load_valuation(args.valuation, structure)
        except ModelError as exc:
            raise CliError(f"{args.valuation}: {exc}") from exc
    else:
        valuation = Valuation()
    all_sat = True
    docs = []
    for p in pats:
        value = evaluate(structure, valuation, p)
        sat = value == structure.carrier
        all_sat = all_sat and sat
        text = render_pattern(p, "sugar")
        say(f"{text}\n  value: {structure.format_subset(value)}\n  satisfied: {_yes(sat)}")
        docs.append({"pattern": text, "value": structure.sorted_elements(value), "satisfied": sat})
    return (0 if all_sat else 1), {"results": docs, "all_satisfied": all_sat}


def _cmd_check(args, say):
    structure = _load_model(args.model, None)
    sig = _load_sig(args, _constants_of(structure))
    pats = _read_patterns(args.pattern_file, sig, args.mode)
    all_valid = True
    docs = []
    for p in pats:
        verdict = consequence("global", [], [p], [structure])
        doc = {"pattern": render_pattern(p, "sugar"), "valid": verdict.holds}
        say(f"{doc['pattern']}\n  valid: {_yes(verdict.holds)}")
        if verdict.valuation is not None:
            doc["counter_valuation"] = valuation_to_doc(verdict.valuation, structure)
            _say_witness(say, structure, doc["counter_valuation"], doc["pattern"])
        docs.append(doc)
        # Like `consequence`, keep the first counterexample only.
        if all_valid and not verdict.holds:
            _write_counterexample(Path(args.out), structure, verdict.valuation, p)
            say(f"  counterexample written to {args.out}/")
        all_valid = all_valid and verdict.holds
    return (0 if all_valid else 1), {"results": docs, "all_valid": all_valid}


def _cmd_taut(args, say):
    pats = _read_patterns(args.pattern_file, _load_sig(args), args.mode)
    all_taut = True
    docs = []
    for p in pats:
        taut = is_tautology(p)
        all_taut = all_taut and taut
        text = render_pattern(p, "sugar")
        say(f"{text}\n  tautology: {_yes(taut)}")
        docs.append({"pattern": text, "tautology": taut})
    return (0 if all_taut else 1), {"results": docs, "all_tautologies": all_taut}


def _cmd_consequence(args, say):
    loaded = _load_model_dir(args.models, None) if args.models else None
    names = {c for s in loaded or () for c in s.masks}
    sig = _suite_sig(args, _load_sig(args, tuple(sorted(names))))
    gamma: list[Pattern] = []
    for path in args.gamma or []:
        gamma.extend(_read_patterns(path, sig, args.mode))
    delta = _read_patterns(args.pattern_file, sig, args.mode)
    suite, origin = _suite(args, sig, loaded)
    verdict = consequence(args.kind, gamma, delta, suite)
    doc = {
        "kind": args.kind,
        "holds": verdict.holds,
        "structures_checked": verdict.structures_checked,
        "suite": origin,
    }
    if not verdict.holds:
        # Before any output: a reader that stops early (``| head -1``)
        # still gets the files.
        _write_counterexample(
            Path(args.out), verdict.structure, verdict.valuation, verdict.pattern, gamma
        )
        doc["counterexample"] = cex = {
            "structure": structure_to_doc(verdict.structure),
            "valuation": valuation_to_doc(verdict.valuation, verdict.structure),
            "pattern": render_pattern(verdict.pattern, "sugar"),
            "note": verdict.note,
        }
    say(
        f"{args.kind} consequence over {verdict.structures_checked} structure(s) "
        f"({origin}): {'holds' if verdict.holds else 'fails'}"
    )
    if not verdict.holds:
        _say_witness(say, verdict.structure, cex["valuation"], cex["pattern"])
        if verdict.note:
            say(f"  note: {verdict.note}")
        say(f"  counterexample written to {args.out}/")
    return (0 if verdict.holds else 1), doc


def _cmd_proof(args, say):
    sig = _load_sig(args)
    if args.audit:
        sig = _suite_sig(args, sig)
    try:
        script = parse_proof(_read_text(args.script), sig)
    except ProofSyntaxError as exc:
        raise CliError(f"{args.script}: {exc}") from exc
    report = check_proof(script)
    audit = audit_soundness(script, _suite(args, sig)[0], report) if args.audit else None
    say(format_report(report))
    doc = {
        "lines": [
            {"number": v.number, "ok": v.ok, "code": v.code, "message": v.message}
            for v in report.verdicts
        ],
        "level": report.level,
        "result": "accepted" if report.ok else "rejected",
    }
    if audit is not None:
        say(format_audit(audit))
        doc["audit"] = {
            "structures": audit.structures,
            "lines_audited": audit.lines_audited,
            "violations": [
                {"line": v.line, "pattern": render_pattern(v.pattern, "sugar")}
                for v in audit.violations
            ],
        }
        for v in audit.violations:
            _write_counterexample(
                Path(args.out) / f"line-{v.line}",
                v.verdict.structure,
                v.verdict.valuation,
                v.verdict.pattern,
                list(script.hypotheses.values()),
            )
        if audit.violations:
            say(f"counterexamples written under {args.out}/")
    ok = report.ok and (audit is None or audit.ok)
    return (0 if ok else 1), doc


def _cmd_gen_models(args, say):
    sig = _suite_sig(args, _load_sig(args))
    spec = _spec(args, sig)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for i, s in enumerate(spec.structures()):
        save_structure(s, outdir / f"structure-{i:04d}.json")
        count += 1
    manifest = {
        "constants": list(sig.constants),
        "max_size": spec.max_size,
        "seed": spec.seed,
        "samples": spec.samples,
        "defined": spec.defined,
        "count": count,
    }
    (outdir / "suite.json").write_text(_dumps(manifest) + "\n")
    say(f"wrote {count} structure(s) to {outdir}/ ({spec.describe()})")
    return 0, manifest


# ---------------------------------------------------------------------------
# Argument wiring: one table of the commands and their options, and the two
# readers built from it.


def _at_least(least: int):
    """A value check: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


class _Option:
    """An option, or a positional where ``flag`` has no ``-``.  ``kind`` is
    ``switch``, ``value`` or ``repeat`` (argparse's ``store_true``, ``store``
    and ``append``); ``check`` converts a value, as argparse's ``type``."""

    def __init__(
        self, flag: str, kind: str = "value", default: object = None,
        check: Callable[[str], object] | None = None, choices: tuple[str, ...] | None = None,
        required: bool = False, metavar: str | None = None, help: str | None = None,
    ):
        self.flag, self.kind, self.default, self.check = flag, kind, default, check
        self.choices, self.required, self.metavar, self.help = choices, required, metavar, help
        self.dest = flag.lstrip("-").replace("-", "_")


class _Command:
    """A command's help line, handler and options, and `_read`'s lookups."""

    def __init__(self, help: str, fn, *options: _Option):
        self.help, self.fn, self.options = help, fn, options
        self.flags = {o.flag: o for o in options if o.flag.startswith("-")}
        self.positionals = [o for o in options if not o.flag.startswith("-")]
        self.defaults = {o.dest: o.default for o in self.flags.values()}
        self.required = {o.flag for o in self.flags.values() if o.required}


_SIG = _Option("--sig", metavar="FILE", help="signature file, one constant per line")
_JSON = _Option("--json", "switch", False, help="machine-readable output")
_PATTERNS = (
    _Option("--mode", choices=("core", "sugar"), default="sugar",
            help="pattern syntax for input files (default sugar)"),
    _SIG, _JSON,
)
_MODELS = _Option("--models", metavar="DIR", help="directory of structure JSON files")
_SUITE = (
    _Option("--max-size", check=_at_least(1), default=2, help="largest universe (default 2)"),
    _Option("--seed", check=int, default=0, help="sampling seed (default 0)"),
    _Option("--samples", check=_at_least(0), default=100,
            help="sampled structures of size three and up (default 100)"),
    _Option("--defined", "switch", False,
            help="generate definedness structures (forces a total def constant)"),
)
_OUT = _Option("--out", metavar="DIR", default="aml-out",
               help="directory for counterexample files (default aml-out)")
_MODEL = _Option("--model", metavar="FILE", required=True)
_FILE = _Option("pattern_file")

# The commands in the order `aml --help` lists them.
_COMMANDS = {
    "parse": _Command("parse a pattern file and re-emit it", _cmd_parse, *_PATTERNS,
                      _Option("--emit", choices=("core", "sugar"), default="core",
                              help="output syntax (default core)"), _FILE),
    "analyze": _Command("variables, occurrence table, polarity", _cmd_analyze, *_PATTERNS, _FILE),
    "eval": _Command("evaluate patterns in one structure", _cmd_eval,
                     *_PATTERNS, _MODEL, _Option("--valuation", metavar="FILE"), _FILE),
    "check": _Command("validity in one structure (all assignments)", _cmd_check,
                      *_PATTERNS, _OUT, _MODEL, _FILE),
    "taut": _Command("propositional tautology test", _cmd_taut, *_PATTERNS, _FILE),
    "consequence": _Command(
        "decide a consequence relation over a suite", _cmd_consequence,
        *_PATTERNS, _MODELS, *_SUITE, _OUT,
        _Option("--kind", choices=("global", "local", "strong"), default="global",
                help="consequence relation (default global)"),
        _Option("--gamma", "repeat", metavar="FILE",
                help="hypothesis pattern file; repeatable, files merge"),
        _Option("pattern_file", help="conclusion patterns"),
    ),
    "proof": _Command(
        "check a proof script", _cmd_proof,
        _Option("action", choices=("check",)), _SIG, _JSON, _MODELS, *_SUITE, _OUT,
        _Option("--audit", "switch", False, help="replay accepted lines over a suite"),
        _Option("script"),
    ),
    "gen-models": _Command("materialize a deterministic suite to files", _cmd_gen_models,
                           _SIG, *_SUITE, _Option("--out", metavar="DIR", required=True)),
}

_REFUSED = object()


def _value(option: _Option, text: str | None):
    """``text`` as argparse stores it for ``option``, or `_REFUSED`: no text,
    a leading ``-``, a failed check or a value outside the choices."""
    if text is None or text.startswith("-"):
        return _REFUSED
    try:
        value = option.check(text) if option.check else text
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return _REFUSED
    return value if option.choices is None or value in option.choices else _REFUSED


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The fast reader: the namespace that argparse gives for ``argv``, or
    None where ``argv`` is not in the one form this takes."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {"command": argv[0], "fn": command.fn, **command.defaults}
    given: set[str] = set()
    texts = []
    rest = iter(argv[1:])
    for arg in rest:
        option = command.flags.get(arg)
        if option is None:
            if arg.startswith("-"):
                return None
            texts.append(arg)
            continue
        if option.kind == "switch":
            value = True
        elif (value := _value(option, next(rest, None))) is _REFUSED:
            return None
        if option.kind == "repeat":
            values[option.dest] = [*(values[option.dest] or ()), value]
        elif arg in given:
            return None
        else:
            given.add(arg)
            values[option.dest] = value
    if len(texts) != len(command.positionals) or not command.required <= given:
        return None
    for option, text in zip(command.positionals, texts):
        if (value := _value(option, text)) is _REFUSED:
            return None
        values[option.dest] = value
    return SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse reader, built whole from `_COMMANDS`.  Options are
    spelled in full (``allow_abbrev=False``): with abbreviations, a mistyped
    or retired option such as ``--mode`` would pass as a prefix of another
    (``--models``)."""
    # The terminal's width, read once: argparse's default formatter reads it
    # again for every argument added and every message formatted.
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    ap = argparse.ArgumentParser(
        prog="aml", formatter_class=formatter, allow_abbrev=False,
        description="Workbench for applicative matching logic over finite structures.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, formatter_class=formatter, allow_abbrev=False)
        for o in command.options:
            if o.kind == "switch":
                p.add_argument(o.flag, action="store_true", help=o.help)
            elif o.flag in command.flags:
                p.add_argument(
                    o.flag, action="append" if o.kind == "repeat" else "store",
                    type=o.check, choices=o.choices, default=o.default,
                    required=o.required, metavar=o.metavar, help=o.help,
                )
            else:
                p.add_argument(o.flag, choices=o.choices, help=o.help)
        p.set_defaults(fn=command.fn)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or build_parser().parse_args(argv)
    as_json = getattr(args, "json", False)
    try:
        code, doc = args.fn(args, _quiet if as_json else print)
        if as_json:
            print(_dumps(doc))
        sys.stdout.flush()  # so that a closed stdout shows up here
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head -1``): end as a command
        # that SIGPIPE stops does, silently, and send what is still buffered
        # to the null device so that the flush at exit does not fail again.
        _drop_stdout()
        return 128 + signal.SIGPIPE
    except (
        CliError, OSError, ParseError, ModelError, ProofSyntaxError,
        UniverseTooLarge, SkeletonTooLarge, UnassignedConstant,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _quiet(line: str) -> None:
    """``say`` under ``--json``: the document alone is printed."""


def _drop_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # an in-process stream, with nothing left to flush at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
