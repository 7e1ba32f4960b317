"""Command line front end.

Exit codes: 0 when the command succeeds and its verdict is positive, 1 when
a check comes back negative (not valid, not a tautology, consequence fails,
proof rejected, audit violation), 2 on usage or file-format errors, and
141 (128 + SIGPIPE), with nothing on stderr, when the reader of standard
output closes it early.  Output is deterministic for identical inputs and
seeds; JSON output is sorted-key.

A failing verdict is also written out as replayable counterexample files
under the ``--out`` directory, in the formats `eval` reads back: the first
counterexample of `check` and `consequence`, and every audit violation of
`proof check`, with or without ``--json``.
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
from typing import Sequence

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
    spec = SuiteSpec(
        sig=sig,
        max_size=args.max_size,
        seed=args.seed,
        samples=args.samples,
        defined=args.defined,
    )
    return spec.suite(), spec.describe()


def _constants_of(structure: Structure) -> tuple[str, ...]:
    return tuple(sorted(structure.masks))


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
        (outdir / "valuation.json").write_text(
            json.dumps(valuation_to_doc(valuation, structure), indent=2, sort_keys=True)
            + "\n"
        )
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


def _verdict_lines(structure: Structure, valuation: Valuation | None, p: Pattern) -> list[str]:
    out = [f"  structure: universe {{{', '.join(structure.universe)}}}"]
    if valuation is not None:
        doc = valuation_to_doc(valuation, structure)
        out.append(f"  valuation: {json.dumps(doc, sort_keys=True)}")
    out.append(f"  pattern: {render_pattern(p, 'sugar')}")
    return out


# ---------------------------------------------------------------------------
# Commands.


def _cmd_parse(args) -> int:
    sig = _load_sig(args)
    pats = _read_patterns(args.pattern_file, sig, args.mode)
    if args.json:
        doc = {
            "patterns": [
                {
                    "core": render_pattern(p, "core"),
                    "sugar": render_pattern(p, "sugar"),
                    "tokens": token_len(p),
                }
                for p in pats
            ]
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    for p in pats:
        print(render_pattern(p, args.emit))
    return 0


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


def _cmd_analyze(args) -> int:
    sig = _load_sig(args)
    pats = _read_patterns(args.pattern_file, sig, args.mode)
    docs = []
    for n, p in enumerate(pats, start=1):
        fe, fs = free_vars(p)
        toks = tokens(p)
        kinds = occurrence_kinds(p)
        set_indices = sorted(fs)
        polarity = {i: _polarity_word(p, i) for i in set_indices}
        if args.json:
            docs.append(
                {
                    "core": render_pattern(p, "core"),
                    "sugar": render_pattern(p, "sugar"),
                    "free_element_vars": sorted(fe),
                    "free_set_vars": sorted(fs),
                    "occurrences": [
                        {"position": i, "token": t, "kind": k.value}
                        for i, (t, k) in enumerate(zip(toks, kinds))
                        if k is not OccurrenceKind.NOT_A_VARIABLE
                    ],
                    "set_polarity": {f"X{i}": w for i, w in polarity.items()},
                }
            )
            continue
        print(f"pattern {n}: {render_pattern(p, 'sugar')}")
        print(f"  core: {render_pattern(p, 'core')}")
        print(f"  free element variables: {_fmt_vars(fe, 'x')}")
        print(f"  free set variables: {_fmt_vars(fs, 'X')}")
        print("  occurrences:")
        for i, (t, k) in enumerate(zip(toks, kinds)):
            if k is not OccurrenceKind.NOT_A_VARIABLE:
                print(f"    {i:>3}  {t:<6} {k.value}")
        for i in set_indices:
            print(f"  X{i}: {polarity[i]}")
    if args.json:
        print(json.dumps({"patterns": docs}, indent=2, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
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
        if args.json:
            docs.append(
                {
                    "pattern": render_pattern(p, "sugar"),
                    "value": structure.sorted_elements(value),
                    "satisfied": sat,
                }
            )
        else:
            print(
                f"{render_pattern(p, 'sugar')}\n"
                f"  value: {structure.format_subset(value)}\n"
                f"  satisfied: {'yes' if sat else 'no'}"
            )
    if args.json:
        print(json.dumps({"results": docs, "all_satisfied": all_sat}, indent=2, sort_keys=True))
    return 0 if all_sat else 1


def _cmd_check(args) -> int:
    structure = _load_model(args.model, None)
    sig = _load_sig(args, _constants_of(structure))
    pats = _read_patterns(args.pattern_file, sig, args.mode)
    all_valid = True
    docs = []
    for p in pats:
        verdict = consequence("global", [], [p], [structure])
        witness = verdict.valuation
        valid = verdict.holds
        first_failure = all_valid and not valid
        all_valid = all_valid and valid
        if args.json:
            doc = {"pattern": render_pattern(p, "sugar"), "valid": valid}
            if witness is not None:
                doc["counter_valuation"] = valuation_to_doc(witness, structure)
            docs.append(doc)
        else:
            print(f"{render_pattern(p, 'sugar')}\n  valid: {'yes' if valid else 'no'}")
            if witness is not None:
                for line in _verdict_lines(structure, witness, p):
                    print(line)
        # Like `consequence`, keep the first counterexample, in either mode.
        if first_failure:
            _write_counterexample(Path(args.out), structure, witness, p)
            if not args.json:
                print(f"  counterexample written to {args.out}/")
    if args.json:
        print(json.dumps({"results": docs, "all_valid": all_valid}, indent=2, sort_keys=True))
    return 0 if all_valid else 1


def _cmd_taut(args) -> int:
    sig = _load_sig(args)
    pats = _read_patterns(args.pattern_file, sig, args.mode)
    all_taut = True
    docs = []
    for p in pats:
        taut = is_tautology(p)
        all_taut = all_taut and taut
        if args.json:
            docs.append({"pattern": render_pattern(p, "sugar"), "tautology": taut})
        else:
            print(f"{render_pattern(p, 'sugar')}\n  tautology: {'yes' if taut else 'no'}")
    if args.json:
        print(json.dumps({"results": docs, "all_tautologies": all_taut}, indent=2, sort_keys=True))
    return 0 if all_taut else 1


def _cmd_consequence(args) -> int:
    loaded = _load_model_dir(args.models, None) if args.models else None
    names = {c for s in loaded or () for c in s.masks}
    sig = _suite_sig(args, _load_sig(args, tuple(sorted(names))))
    gamma: list[Pattern] = []
    for path in args.gamma or []:
        gamma.extend(_read_patterns(path, sig, args.mode))
    delta = _read_patterns(args.pattern_file, sig, args.mode)
    suite, origin = _suite(args, sig, loaded)
    verdict = consequence(args.kind, gamma, delta, suite)
    if args.json:
        doc = {
            "kind": args.kind,
            "holds": verdict.holds,
            "structures_checked": verdict.structures_checked,
            "suite": origin,
        }
        if not verdict.holds:
            doc["counterexample"] = {
                "structure": structure_to_doc(verdict.structure),
                "valuation": valuation_to_doc(verdict.valuation, verdict.structure),
                "pattern": render_pattern(verdict.pattern, "sugar"),
                "note": verdict.note,
            }
            _write_counterexample(
                Path(args.out), verdict.structure, verdict.valuation, verdict.pattern, gamma
            )
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if verdict.holds else 1
    if not verdict.holds:
        # Before any output, as with --json: a reader that stops early
        # (``| head -1``) still gets the files.
        _write_counterexample(
            Path(args.out), verdict.structure, verdict.valuation, verdict.pattern, gamma
        )
    word = "holds" if verdict.holds else "fails"
    print(
        f"{args.kind} consequence over {verdict.structures_checked} structure(s) "
        f"({origin}): {word}"
    )
    if not verdict.holds:
        for line in _verdict_lines(verdict.structure, verdict.valuation, verdict.pattern):
            print(line)
        if verdict.note:
            print(f"  note: {verdict.note}")
        print(f"  counterexample written to {args.out}/")
    return 0 if verdict.holds else 1


def _cmd_proof(args) -> int:
    sig = _load_sig(args)
    if args.audit:
        sig = _suite_sig(args, sig)
    try:
        script = parse_proof(_read_text(args.script), sig)
    except ProofSyntaxError as exc:
        raise CliError(f"{args.script}: {exc}") from exc
    report = check_proof(script)
    audit = None
    if args.audit:
        suite, _ = _suite(args, sig)
        audit = audit_soundness(script, suite, report)
    if args.json:
        doc = {
            "lines": [
                {"number": v.number, "ok": v.ok, "code": v.code, "message": v.message}
                for v in report.verdicts
            ],
            "level": report.level,
            "result": "accepted" if report.ok else "rejected",
        }
        if audit is not None:
            doc["audit"] = {
                "structures": audit.structures,
                "lines_audited": audit.lines_audited,
                "violations": [
                    {"line": v.line, "pattern": render_pattern(v.pattern, "sugar")}
                    for v in audit.violations
                ],
            }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_report(report))
        if audit is not None:
            print(format_audit(audit))
    if audit is not None:
        for v in audit.violations:
            _write_counterexample(
                Path(args.out) / f"line-{v.line}",
                v.verdict.structure,
                v.verdict.valuation,
                v.verdict.pattern,
                list(script.hypotheses.values()),
            )
        if audit.violations and not args.json:
            print(f"counterexamples written under {args.out}/")
    ok = report.ok and (audit is None or audit.ok)
    return 0 if ok else 1


def _cmd_gen_models(args) -> int:
    sig = _suite_sig(args, _load_sig(args))
    spec = SuiteSpec(
        sig=sig,
        max_size=args.max_size,
        seed=args.seed,
        samples=args.samples,
        defined=args.defined,
    )
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
    (outdir / "suite.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {count} structure(s) to {outdir}/ ({spec.describe()})")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring.


def _add_patterns(p) -> None:
    """The options of a command that reads pattern files."""
    p.add_argument(
        "--mode",
        choices=("core", "sugar"),
        default="sugar",
        help="pattern syntax for input files (default sugar)",
    )
    _add_sig(p)
    _add_json(p)


def _add_sig(p) -> None:
    p.add_argument("--sig", metavar="FILE", help="signature file, one constant per line")


def _add_json(p) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _add_models(p) -> None:
    p.add_argument("--models", metavar="DIR", help="directory of structure JSON files")


def _add_suite(p) -> None:
    p.add_argument(
        "--max-size", type=_at_least(1), default=2, help="largest universe (default 2)"
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument(
        "--samples", type=_at_least(0), default=100,
        help="sampled structures of size three and up (default 100)",
    )
    p.add_argument(
        "--defined", action="store_true",
        help="generate definedness structures (forces a total def constant)",
    )


def _add_out(p) -> None:
    p.add_argument(
        "--out", metavar="DIR", default="aml-out",
        help="directory for counterexample files (default aml-out)",
    )


class _Parser(argparse.ArgumentParser):
    """Options are spelled in full: with abbreviations, a mistyped or
    retired option such as ``--mode`` would pass as a prefix of another
    (``--models``).  Subparsers are made with the same class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


class _Commands(argparse._SubParsersAction):
    """The subcommands.  ``add_parser(name, fill, help=...)`` only lists a
    command with its help line; the command's parser is made, and ``fill``
    adds its arguments, the first time argparse dispatches to it, so a call
    builds the parser of the one command it runs."""

    def add_parser(self, name, fill, help, **kwargs):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = fill, kwargs

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        made = self._name_parser_map[name]
        if isinstance(made, tuple):
            fill, kwargs = made
            made = self._parser_class(prog=f"{self._prog_prefix} {name}", **kwargs)
            fill(made)
            self._name_parser_map[name] = made  # in place: the listing keeps its order
        super().__call__(parser, namespace, values, option_string)


def _parse_args(p) -> None:
    _add_patterns(p)
    p.add_argument(
        "--emit", choices=("core", "sugar"), default="core",
        help="output syntax (default core)",
    )
    p.add_argument("pattern_file")
    p.set_defaults(fn=_cmd_parse)


def _analyze_args(p) -> None:
    _add_patterns(p)
    p.add_argument("pattern_file")
    p.set_defaults(fn=_cmd_analyze)


def _eval_args(p) -> None:
    _add_patterns(p)
    p.add_argument("--model", metavar="FILE", required=True)
    p.add_argument("--valuation", metavar="FILE")
    p.add_argument("pattern_file")
    p.set_defaults(fn=_cmd_eval)


def _check_args(p) -> None:
    _add_patterns(p)
    _add_out(p)
    p.add_argument("--model", metavar="FILE", required=True)
    p.add_argument("pattern_file")
    p.set_defaults(fn=_cmd_check)


def _taut_args(p) -> None:
    _add_patterns(p)
    p.add_argument("pattern_file")
    p.set_defaults(fn=_cmd_taut)


def _consequence_args(p) -> None:
    _add_patterns(p)
    _add_models(p)
    _add_suite(p)
    _add_out(p)
    p.add_argument(
        "--kind", choices=("global", "local", "strong"), default="global",
        help="consequence relation (default global)",
    )
    p.add_argument(
        "--gamma", metavar="FILE", action="append",
        help="hypothesis pattern file; repeatable, files merge",
    )
    p.add_argument("pattern_file", help="conclusion patterns")
    p.set_defaults(fn=_cmd_consequence)


def _proof_args(p) -> None:
    p.add_argument("action", choices=("check",))
    _add_sig(p)
    _add_json(p)
    _add_models(p)
    _add_suite(p)
    _add_out(p)
    p.add_argument("--audit", action="store_true", help="replay accepted lines over a suite")
    p.add_argument("script")
    p.set_defaults(fn=_cmd_proof)


def _gen_models_args(p) -> None:
    _add_sig(p)
    _add_suite(p)
    p.add_argument("--out", metavar="DIR", required=True)
    p.set_defaults(fn=_cmd_gen_models)


# The commands in the order `aml --help` lists them: name, help line and the
# function that adds the command's arguments.
_COMMANDS = (
    ("parse", "parse a pattern file and re-emit it", _parse_args),
    ("analyze", "variables, occurrence table, polarity", _analyze_args),
    ("eval", "evaluate patterns in one structure", _eval_args),
    ("check", "validity in one structure (all assignments)", _check_args),
    ("taut", "propositional tautology test", _taut_args),
    ("consequence", "decide a consequence relation over a suite", _consequence_args),
    ("proof", "check a proof script", _proof_args),
    ("gen-models", "materialize a deterministic suite to files", _gen_models_args),
)


def build_parser() -> argparse.ArgumentParser:
    # The terminal's width, read once: argparse's default formatter reads it
    # again for every argument added and every message formatted.
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    ap = _Parser(
        prog="aml",
        description="Workbench for applicative matching logic over finite structures.",
        formatter_class=formatter,
    )
    ap.register("action", "parsers", _Commands)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_line, fill in _COMMANDS:
        sub.add_parser(name, fill, help=help_line, formatter_class=formatter)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
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
