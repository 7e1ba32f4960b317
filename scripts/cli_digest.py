"""Hash the command line's output, to show that a change leaves it byte-identical.

Runs `aml.cli.main` in process and prints one sha256 per group over every
run's exit code, stdout, stderr and counterexample files.  Group `audit` is
`proof check --audit` on every corpus script (seeds 1 and 7), the corpus
copied into a temporary directory; group `taut` is
`taut`, `parse --emit sugar` and `check` on fixed files written to a
temporary directory; group `suite` is `gen-models` over two signatures, with
and without `--defined`, exhaustive and sampled, plus one failing
`consequence --defined`; group `consequence` is `consequence` at all three
kinds over the default suite and a sampled one, on queries that hold and
that fail (early, and late in the suite, after structures the symmetry
reduction skips); group `frontend` is `parse` in both modes with `--emit`
both ways, and `analyze`, on fixed files of core and sugar patterns that
hold every node kind and every sugar form, and on malformed core files
(truncated, tokens left over, an unknown symbol, a binder on the wrong
kind of variable or on none, one level too deep); group `bad-sugar` runs
the same commands on malformed sugar files (chained `<->`, `=` and `in`, a
non-variable left of `in`, `=` without `def` in the signature, a stray `)`,
an unclosed `(`, one level of parentheses too deep, an unreadable
character) under signatures with and without `def`, hashed apart so that
the `frontend` hash stays comparable; group `eval` is `eval` of sugar
patterns with free variables in one structure, with no valuation, with a
valuation file and with one naming an element the structure lacks; group
`errors` pins the order of output and error: `eval` and `check` on a file
whose second pattern names a `--sig` constant that the structure lacks,
`proof check --audit` over a `--models` directory whose structure lacks
the script's constant, and `check` and `consequence` with `--out` naming
an existing regular file, hashed apart so that the other hashes stay
comparable.  Every run of these eight groups goes with and without
`--json`; where `--json` is not an option, the usage error is what gets
hashed.  Group `help` is `aml --help`, every `aml <command> --help` and
three usage errors (an unknown command, a missing required option, a bad
`--max-size`), each with `COLUMNS` at 50 and at 120.  Group `argv` is
`consequence` and `proof check --audit` (of a script with hypotheses) in
argv forms off the command line's plain form, which argparse reads:
`--seed=3`, `--seed` given twice, `--seed -1`, a `--` before the
positional and `-h` mid-argv; and an option after the positional, which
the plain reader takes.  Each goes with and without `--json`, with
`COLUMNS` at 80, hashed apart so that the other hashes stay comparable.
Group `wide-samples` is `gen-models` at `--max-size` 9 and 12 with a few
samples, with and without `--defined`, over signatures with no constant
and with one, whose samples reach values of more than 8 bits, and one
`consequence --defined --max-size 8 --samples 40` that fails at its 23rd
sample, on values of up to 8 bits; each with and without `--json`, hashed
apart so that the other hashes stay comparable.  Group `run-lanes` is
`consequence` at all three kinds, with and without `--json`, on queries
whose first counterexample is a chosen structure of a run: structures 12,
13, 76 and 77 (lanes 7, 8, 71 and 72) and the last, 260, of the 256-lane
two-element run of `--defined --sig c d def --max-size 2`, and samples 8,
9, 72 and 73 of `--defined --sig c def --max-size 3 --samples 100 --seed
3`; the lanes on either side of where a run was once cut into blocks of 8,
64, ... lanes.  Each query is `x0 = x1 \/ !D`, with x2 too for the
samples, where D is a partial diagram of distinct elements that holds in
the chosen structure and in no structure before it (checked against the
frozenset oracle in `tests/oracles.py`).  It is hashed apart so that the
other hashes stay comparable.  Group `block-fallback` is `consequence
--kind global` over the default suite of the signature `c`, under the
hypothesis `c x0`, on two conclusions that fail first at lanes 117 and 61
of the two-element run, in both orders; and `consequence --kind local` over
two `--models` directories of two-element structures that interpret `c`
but not the query's `d`, where deciding the structures' block reaches `d`:
in one the second structure is refuted before `d` is reached, in the other
the third structure reaches it and the run exits 2.  Each goes with and
without `--json`, hashed apart so that the other hashes stay comparable.
Every run names its files by paths relative to the temporary directory,
so the hashes do not depend on where the checkout is.  Compare two trees with
`PYTHONPATH=<tree>/src python3 scripts/cli_digest.py`, or run each tree's
own copy of this script.
"""

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from pathlib import Path

from aml.cli import main as cli

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CHAIN = " -> ".join(f"x{i}" for i in range(20))
# 20 atoms (a tautology, then not), non-canonical falsum, and 21 atoms (exit 2).
TAUT = [f"{CHAIN} -> x0", CHAIN, "(mu X3 . X3) -> c", "!(mu X1 . X1) -> c \\/ !c",
        f"x20 -> {CHAIN}"]
CHECK = ["x0 -> x0", "(mu X3 . X3) -> c", "c -> c c", "!!c -> c", "x0 c", "mu X1 . X0 -> X1"]
# Consequence queries over the signature `c`: (conclusion file, hypotheses).
QUERIES = {"holds.pat": ("c c -> c", "c"), "tautology.pat": ("x0 X0 -> x0 X0", None),
           "late.pat": ("(c c) c -> c c", None), "early.pat": ("x0 -> c x0", None)}
# Every node kind, and in sugar every derived form, over the signature `c d def`.
CORE = ["x3", "X2", "c", "appl c x0", "imp X0 c", "exists x1 appl c x1", "mu X1 imp X1 X0",
        "imp c mu X0 X0", "imp imp c mu X0 X0 d", "imp mu X0 X0 mu X0 X0",
        "imp imp imp imp c mu X0 X0 mu X0 X0 imp d mu X0 X0 mu X0 X0",
        "mu X4 X4", "imp exists x0 imp c mu X0 X0 mu X0 X0", "appl def c",
        "appl appl appl c d x0 imp c X1", "exists x0 exists x0 mu X0 mu X1 appl X0 X1",
        "imp c " * 64 + "c"]
SUGAR = ["bot", "top", "!c", "!!c", "c \\/ d", "c /\\ d", "c <-> d", "c -> d -> c",
         "(c -> d) -> c", "forall x0 . c x0", "exists x0 . x0", "mu X0 . c X0",
         "nu X0 . c X0 \\/ X0", "ceil(c)", "floor(c)", "x0 = c", "x0 in c", "c d x0",
         "c (d x0)", "(mu X3 . X3) -> c", "x0 -> exists x1 . c", "(exists x0 . x0) c",
         "!(c /\\ d) <-> !c \\/ !d", "((c))", "mu X0 . X0 -> X1"]
BAD_CORE = {"truncated.core": "imp c", "leftover.core": "c d", "unknown.core": "imp c zebra",
            "element-mu.core": "mu x0 X0", "set-exists.core": "exists X0 c",
            "no-var.core": "appl c exists", "deep.core": "imp c " * 65 + "c"}
BAD_SUGAR = {"iff-chain.sug": "c <-> d <-> c", "eq-chain.sug": "c = d = c",
             "in-chain.sug": "x0 in c in d", "in-const.sug": "c in d", "eq.sug": "c = d",
             "stray.sug": "c -> d)", "unclosed.sug": "(c -> d", "deep.sug": "(" * 65 + "c" + ")" * 65,
             "dollar.sug": "c -> $ d"}
# Sugar patterns over `c d` with free variables of both kinds, and valuations
# for them: one that the structure below can read, one that it cannot.
EVAL = ["x0", "X0", "c x0", "x0 -> d", "exists x0 . c x0", "mu X0 . c X0 \\/ X0", "X0 /\\ x1",
        "!x0 \\/ X1", "nu X0 . d X0", "forall x1 . c x1 -> X1"]
VALUATIONS = {"v.json": '{"element": {"x0": "1", "x1": "0"}, "set": {"X0": ["0"], "X1": ["0", "1"]}}',
              "bad-v.json": '{"element": {"x0": "2"}, "set": {}}'}
MODEL = '{"universe": ["0", "1"], "constants": {"c": ["0", "1"], "d": ["1"]},' \
    ' "app": [{"left": "0", "right": "1", "result": ["0", "1"]}]}'
# Valid wherever two of any three elements are equal, so over two elements;
# fails over three or more where some c x0 is empty.
PIGEON = "x0 = x1 \\/ x0 = x2 \\/ x1 = x2 \\/ ceil(c x0)"
# A structure that interprets `c` only, for runs whose signature adds `d`.
C_ONLY = '{"universe": ["0", "1"], "constants": {"c": ["0"]}}'
# Suite options, then each query, in a file named for the structure (the
# sample, in the second suite) that first refutes it.
_TWO = "x0 = x1 \\/ "
_THREE = "x0 = x1 \\/ x0 = x2 \\/ x1 = x2 \\/ "
RUN_LANES = {
    ("--sig", "sigcd.txt", "--max-size", "2"): {
        "s12.pat": _TWO + "!(ceil(x0 /\\ c) /\\ ceil(x0 /\\ d) /\\ ceil(x1 /\\ d))",
        "s13.pat": _TWO + "!(ceil(x1 /\\ c) /\\ ceil(x0 /\\ def))",
        "s76.pat": _TWO + "!(!ceil(x0 /\\ x1 x1) /\\ ceil(x0 /\\ x1 x0) /\\ ceil(x0 /\\ c)"
                          " /\\ ceil(x0 /\\ d) /\\ ceil(x1 /\\ d))",
        "s77.pat": _TWO + "!(!ceil(x0 /\\ x1 x1) /\\ ceil(x0 /\\ x1 x0) /\\ ceil(x1 /\\ c))",
        "s260.pat": _TWO + "!(ceil(x0 /\\ c) /\\ ceil(x0 /\\ d) /\\ ceil(x1 /\\ c)"
                           " /\\ ceil(x1 /\\ d) /\\ ceil(x0 /\\ def) /\\ ceil(x0 /\\ x1 x0)"
                           " /\\ ceil(x0 /\\ x1 x1) /\\ ceil(x1 /\\ x1 x0) /\\ ceil(x1 /\\ x1 x1))",
    },
    ("--sig", "sigdef.txt", "--max-size", "3", "--samples", "100", "--seed", "3"): {
        "sample8.pat": _THREE + "!(!ceil(x1 /\\ x1 x0) /\\ !ceil(x1 /\\ x2 x1) /\\ ceil(x0 /\\ c))",
        "sample9.pat": _THREE + "!(!ceil(x1 /\\ x1 x0) /\\ !ceil(x2 /\\ x2 x2))",
        "sample72.pat": _THREE + "!(!ceil(x1 /\\ x1 x1) /\\ !ceil(x0 /\\ x2 x1)"
                                 " /\\ !ceil(x1 /\\ x1 x2) /\\ !ceil(x1 /\\ x1 x0)"
                                 " /\\ !ceil(x0 /\\ x1 x0))",
        "sample73.pat": _THREE + "!(!ceil(x2 /\\ x2 x2) /\\ !ceil(x1 /\\ x1 x0)"
                                 " /\\ ceil(x0 /\\ x1 x0) /\\ !ceil(x2 /\\ def))",
    },
}

# Conclusions that fail first at structures 128 and 67 of the signature `c`'s
# default suite, among those where `c x0` is valid, in both orders; then
# two-element structures lacking `d`, for a query that reaches it
# (`tests/test_semantics.py::TestUnassignedConstantInBlocks`).
FALLBACK = {"late-early.pat": "x0 c -> x0 x0\nc", "early-late.pat": "c\nx0 c -> x0 x0"}
_NONE = '{"universe": ["0", "1"], "constants": {"c": []}}'
_ONE = '{"universe": ["0", "1"], "constants": {"c": ["1"]}}'
_ZERO = '{"universe": ["0", "1"], "constants": {"c": ["0"]},' \
    ' "app": [{"left": "0", "right": "0", "result": ["0"]}]}'
# Each directory's structures, in file order.
LACKING_D = {"refuted": (_NONE, _ONE, _ZERO), "raises": (_NONE, _NONE, _ZERO)}


def run(argv) -> tuple:
    """One in-process run's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(runs) -> str:
    h = hashlib.sha256()
    for argv in runs:
        for as_json in (False, True):
            shutil.rmtree("out", ignore_errors=True)
            h.update(repr((argv, as_json, *run(argv + ["--json"] * as_json))).encode())
            for f in sorted(Path(".").glob("out/**/*")):
                h.update(str(f).encode() + (f.read_bytes() if f.is_file() else b""))
    return h.hexdigest()


@contextlib.contextmanager
def columns(width: str):
    """The terminal width that help and usage messages are wrapped to."""
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = width
    try:
        yield
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old


def help_digest(runs) -> str:
    """The hash of ``runs`` that print help or a usage error, each under two
    terminal widths."""
    h = hashlib.sha256()
    for width in ("50", "120"):
        with columns(width):
            for argv in runs:
                h.update(repr((width, argv, *run(argv))).encode())
    return h.hexdigest()


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    suite = ["--sig", "corpus/sig.txt", "--max-size", "3", "--samples", "60"]
    scripts = [f"corpus/{s.relative_to(CORPUS).as_posix()}"
               for s in sorted(CORPUS.glob("proofs/*/*.prf"))]
    audit = [["proof", "check", "--audit", *suite, "--seed", seed, "--out", "out", s]
             for seed in ("1", "7") for s in scripts]
    files = {"taut.pat": TAUT, "check.pat": CHECK}
    files.update({f"t{n}.pat": [t] for n, t in enumerate(TAUT)})
    taut = [[cmd, *opt, "--sig", "sig.txt", f] for f in files
            for cmd, opt in (("taut", ()), ("parse", ("--emit", "sugar")))]
    taut.append(["check", "--model", "m.json", "--sig", "sig.txt", "--out", "out", "check.pat"])
    sizes = (["--max-size", "2", "--samples", "0"],
             ["--max-size", "4", "--samples", "30", "--seed", "3"])
    suite_runs = [["gen-models", "--sig", sig, *size, *defined, "--out", "out"]
                  for sig in ("sig.txt", "sigdef.txt") for defined in ((), ("--defined",))
                  for size in sizes]
    suite_runs.append(["consequence", "--defined", "--sig", "sigdef.txt", "--max-size", "3",
                       "--samples", "20", "--seed", "3", "--out", "out", "fail.pat"])
    conseq = [["consequence", "--kind", kind, "--sig", "c.txt", *size, "--out", "out",
               *(["--gamma", f"gamma-{name}"] if gamma else []), name]
              for kind in ("global", "local", "strong")
              for size in ([], ["--max-size", "3", "--samples", "30", "--seed", "3"])
              for name, (_, gamma) in QUERIES.items()]
    front_files = {"core.pat": ("core", CORE), "sugar.pat": ("sugar", SUGAR)}
    front_files.update({name: ("core", [line]) for name, line in BAD_CORE.items()})
    frontend = [[*cmd, "--sig", "sigcd.txt", "--mode", mode, name]
                for name, (mode, _) in front_files.items()
                for cmd in (("parse", "--emit", "core"), ("parse", "--emit", "sugar"), ("analyze",))]
    bad_sugar = [[*cmd, "--sig", sig, "--mode", "sugar", name] for name in BAD_SUGAR
                 for sig in ("sigcd.txt", "sig.txt")
                 for cmd in (("parse", "--emit", "core"), ("parse", "--emit", "sugar"), ("analyze",))]
    evals = [["eval", "--model", "m.json", *valuation, "eval.pat"]
             for valuation in ((), *(["--valuation", v] for v in VALUATIONS))]
    lacks = ["--model", "c-only/m.json", "--sig", "sig.txt"]
    errors = [["eval", *lacks, "lacks.pat"], ["check", *lacks, "--out", "out", "lacks.pat"],
              ["proof", "check", "--audit", "--models", "c-only", "--sig", "sig.txt",
               "--out", "out", "lacks.prf"],
              ["check", "--model", "m.json", "--out", "taken", "lacks.pat"],
              ["consequence", "--sig", "c.txt", "--out", "taken", "early.pat"]]
    commands = ("parse", "analyze", "eval", "check", "taut", "consequence", "proof", "gen-models")
    helps = [["--help"], *([cmd, "--help"] for cmd in commands), ["frobnicate"],
             ["eval", "c.pat"], ["consequence", "--max-size", "0", "c.pat"]]
    late = ["consequence", "--sig", "c.txt", "--max-size", "3", "--samples", "30"]
    script = ["proof", "check", "--audit", *suite, "--out", "out"]
    argv_runs = [
        [*cmd, *form]
        for cmd, positional in ((late, "late.pat"), (script, "corpus/proofs/positive/s09-hypotheses.prf"))
        for form in (["--seed=3", positional], ["--seed", "1", "--seed", "3", positional],
                     ["--seed", "-1", positional], ["--", positional],
                     [positional, "--seed", "3"], ["-h", positional])
    ]
    wide = [["gen-models", "--sig", sig, "--max-size", size, "--samples", "6", "--seed", "5",
             *defined, "--out", "out"]
            for sig in ("nosig.txt", "c.txt") for defined in ((), ("--defined",))
            for size in ("9", "12")]
    wide.append(["consequence", "--defined", "--sig", "sigdef.txt", "--max-size", "8",
                 "--samples", "40", "--seed", "3", "--out", "out", "pigeon.pat"])
    run_lanes = [["consequence", "--kind", kind, "--defined", *suite_opts, "--out", "out", name]
                 for suite_opts, queries in RUN_LANES.items() for name in queries
                 for kind in ("global", "local", "strong")]
    fallback = [["consequence", "--kind", "global", "--sig", "c.txt", "--gamma", "gamma-cx0.pat",
                 "--out", "out", name] for name in FALLBACK]
    fallback += [["consequence", "--kind", "local", "--models", d, "--sig", "sig.txt",
                  "--gamma", "gamma-x0c.pat", "--out", "out", "reaches-d.pat"]
                 for d in LACKING_D]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep the temporary name out of the output
        try:
            shutil.copytree(CORPUS, "corpus")
            Path("sig.txt").write_text("c\nd\n")
            Path("sigdef.txt").write_text("c\ndef\n")
            Path("sigcd.txt").write_text("c\nd\ndef\n")
            Path("fail.pat").write_text("ceil(c) -> c\n")
            Path("c.txt").write_text("c\n")
            Path("nosig.txt").write_text("")
            Path("pigeon.pat").write_text(PIGEON + "\n")
            for name, (conclusion, gamma) in QUERIES.items():
                Path(name).write_text(conclusion + "\n")
                if gamma:
                    Path(f"gamma-{name}").write_text(gamma + "\n")
            Path("m.json").write_text(MODEL)
            for name, lines in files.items():
                Path(name).write_text("\n".join(lines) + "\n")
            for name, (_, lines) in front_files.items():
                Path(name).write_text("\n".join(lines) + "\n")
            for name, text in {**BAD_SUGAR, **VALUATIONS}.items():
                Path(name).write_text(text + "\n")
            Path("eval.pat").write_text("\n".join(EVAL) + "\n")
            Path("c-only").mkdir()
            Path("c-only/m.json").write_text(C_ONLY)
            Path("lacks.pat").write_text("x0\nd\n")
            Path("lacks.prf").write_text("1: c -> c ; taut\n2: d -> d ; taut\n")
            Path("taken").write_text("")
            for queries in RUN_LANES.values():
                for name, text in queries.items():
                    Path(name).write_text(text + "\n")
            for name, text in {**FALLBACK, "gamma-cx0.pat": "c x0", "gamma-x0c.pat": "x0 -> c",
                               "reaches-d.pat": "x0 -> c c\nd -> d"}.items():
                Path(name).write_text(text + "\n")
            for d, models in LACKING_D.items():
                Path(d).mkdir()
                for k, model in enumerate(models):
                    Path(f"{d}/{k}.json").write_text(model)
            print(f"audit {digest(audit)} ({2 * len(audit)} runs)")
            print(f"taut  {digest(taut)} ({2 * len(taut)} runs)")
            print(f"suite {digest(suite_runs)} ({2 * len(suite_runs)} runs)")
            print(f"consequence {digest(conseq)} ({2 * len(conseq)} runs)")
            print(f"help  {help_digest(helps)} ({2 * len(helps)} runs)")
            print(f"frontend {digest(frontend)} ({2 * len(frontend)} runs)")
            print(f"bad-sugar {digest(bad_sugar)} ({2 * len(bad_sugar)} runs)")
            print(f"eval  {digest(evals)} ({2 * len(evals)} runs)")
            print(f"errors {digest(errors)} ({2 * len(errors)} runs)")
            with columns("80"):
                print(f"argv  {digest(argv_runs)} ({2 * len(argv_runs)} runs)")
            print(f"wide-samples {digest(wide)} ({2 * len(wide)} runs)")
            print(f"run-lanes {digest(run_lanes)} ({2 * len(run_lanes)} runs)")
            print(f"block-fallback {digest(fallback)} ({2 * len(fallback)} runs)")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
