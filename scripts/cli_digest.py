"""Hash the command line's output, to show that a change leaves it byte-identical.

Runs `aml.cli.main` in process and prints one sha256 per group over every
run's exit code, stdout, stderr and counterexample files.  Group `audit` is
`proof check --audit` on every corpus script (seeds 1 and 7); group `taut` is
`taut`, `parse --emit sugar` and `check` on fixed files written to a
temporary directory.  Every run goes with and without `--json`.  Compare two
trees with `PYTHONPATH=<tree>/src python3 scripts/cli_digest.py`.
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
MODEL = '{"universe": ["0", "1"], "constants": {"c": ["0", "1"], "d": ["1"]},' \
    ' "app": [{"left": "0", "right": "1", "result": ["0", "1"]}]}'


def digest(runs) -> str:
    h = hashlib.sha256()
    for argv in runs:
        for as_json in (False, True):
            shutil.rmtree("out", ignore_errors=True)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli(argv + ["--json"] * as_json)
            h.update(repr((argv, as_json, code, out.getvalue(), err.getvalue())).encode())
            for f in sorted(Path(".").glob("out/**/*")):
                h.update(str(f).encode() + (f.read_bytes() if f.is_file() else b""))
    return h.hexdigest()


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    suite = ["--sig", str(CORPUS / "sig.txt"), "--max-size", "3", "--samples", "60"]
    audit = [["proof", "check", "--audit", *suite, "--seed", seed, "--out", "out", str(s)]
             for seed in ("1", "7") for s in sorted(CORPUS.glob("proofs/*/*.prf"))]
    files = {"taut.pat": TAUT, "check.pat": CHECK}
    files.update({f"t{n}.pat": [t] for n, t in enumerate(TAUT)})
    taut = [[cmd, *opt, "--sig", "sig.txt", f] for f in files
            for cmd, opt in (("taut", ()), ("parse", ("--emit", "sugar")))]
    taut.append(["check", "--model", "m.json", "--sig", "sig.txt", "--out", "out", "check.pat"])
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep the temporary name out of the output
        try:
            Path("sig.txt").write_text("c\nd\n")
            Path("m.json").write_text(MODEL)
            for name, lines in files.items():
                Path(name).write_text("\n".join(lines) + "\n")
            print(f"audit {digest(audit)} ({2 * len(audit)} runs)")
            print(f"taut  {digest(taut)} ({2 * len(taut)} runs)")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
