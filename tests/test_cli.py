"""End-to-end runs of the command line front end, in process."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aml.cli
import aml.model
from aml.cli import main
from aml.substitution import VarRef, subst_capture_avoiding
from aml.sugar import parse, render
from aml.model import structure_to_doc
from aml.proof import CheckReport, LineVerdict
from aml.syntax import MAX_DEPTH, Signature

from strategies import patterns, structures

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def sig_file(tmp_path):
    return write(tmp_path, "sig.txt", "c\nd\n")


@pytest.fixture
def model_file(tmp_path):
    doc = {
        "universe": ["0", "1"],
        "app": [{"left": "0", "right": "1", "result": ["0", "1"]}],
        "constants": {"c": ["0", "1"], "d": ["1"]},
    }
    return write(tmp_path, "model.json", json.dumps(doc))


class TestParse:
    def test_core_emission(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "c -> d\n# comment\n\nexists x0 . x0\n")
        assert main(["parse", "--sig", sig_file, pats]) == 0
        out = capsys.readouterr().out
        assert out == "imp c d\nexists x0 x0\n"

    def test_sugar_emission(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "imp c d\n")
        code = main(["parse", "--sig", sig_file, "--mode", "core", "--emit", "sugar", pats])
        assert code == 0
        assert capsys.readouterr().out == "c -> d\n"

    def test_json_output_is_sorted(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "c -> d\n")
        assert main(["parse", "--sig", sig_file, "--json", pats]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["patterns"][0] == {"core": "imp c d", "sugar": "c -> d", "tokens": 3}

    def test_parse_error_names_the_line(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "c\n-> c\n")
        assert main(["parse", "--sig", sig_file, pats]) == 2
        err = capsys.readouterr().err
        assert ":2:" in err and err.startswith("error:")

    def test_unknown_constant(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "zebra\n")
        assert main(["parse", "--sig", sig_file, pats]) == 2

    def test_empty_pattern_file(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "# nothing here\n")
        assert main(["parse", "--sig", sig_file, pats]) == 2

    def test_missing_file(self, sig_file, capsys):
        assert main(["parse", "--sig", sig_file, "/nonexistent.pat"]) == 2


class TestAnalyze:
    def test_plain_report(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "mu X0 . c \\/ (X0 X1)\n")
        assert main(["analyze", "--sig", sig_file, pats]) == 0
        out = capsys.readouterr().out
        assert "free element variables: (none)" in out
        assert "free set variables: X1" in out
        assert "X1: positive" in out
        assert "bound-set" in out and "free-set" in out

    def test_negative_polarity_is_reported(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "!X0\n")
        main(["analyze", "--sig", sig_file, pats])
        assert "X0: negative" in capsys.readouterr().out

    def test_json_shape(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "x0 -> X0\n")
        assert main(["analyze", "--sig", sig_file, "--json", pats]) == 0
        doc = json.loads(capsys.readouterr().out)
        entry = doc["patterns"][0]
        assert entry["free_element_vars"] == [0]
        assert entry["set_polarity"] == {"X0": "positive"}
        kinds = {o["token"]: o["kind"] for o in entry["occurrences"]}
        assert kinds == {"x0": "free-element", "X0": "free-set"}


class TestEval:
    def test_value_and_exit_code(self, tmp_path, sig_file, model_file, capsys):
        pats = write(tmp_path, "p.pat", "c\nd\n")
        assert main(["eval", "--model", model_file, pats]) == 1
        out = capsys.readouterr().out
        assert "satisfied: yes" in out and "satisfied: no" in out
        assert "value: {1}" in out

    def test_valuation_file(self, tmp_path, model_file, capsys):
        val = write(tmp_path, "v.json", json.dumps({"element": {"x0": "1"}, "set": {}}))
        pats = write(tmp_path, "p.pat", "x0 -> d\n")
        code = main(["eval", "--model", model_file, "--valuation", val, pats])
        assert code == 0
        assert "satisfied: yes" in capsys.readouterr().out

    def test_signature_defaults_to_model_constants(self, tmp_path, model_file, capsys):
        # No --sig: both c and d come from the structure.
        pats = write(tmp_path, "p.pat", "c -> d\n")
        assert main(["eval", "--model", model_file, pats]) in (0, 1)

    def test_bad_model_file(self, tmp_path, capsys):
        bad = write(tmp_path, "m.json", "{not json")
        pats = write(tmp_path, "p.pat", "c\n")
        assert main(["eval", "--model", bad, pats]) == 2

    def test_json_value_listing(self, tmp_path, model_file, capsys):
        pats = write(tmp_path, "p.pat", "d\n")
        assert main(["eval", "--model", model_file, "--json", pats]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["value"] == ["1"]
        assert doc["all_satisfied"] is False


class TestCheck:
    def test_valid_pattern(self, tmp_path, model_file, capsys):
        pats = write(tmp_path, "p.pat", "x0 -> x0\n")
        assert main(["check", "--model", model_file, pats]) == 0
        assert "valid: yes" in capsys.readouterr().out

    def test_counterexample_replays(self, tmp_path, model_file, capsys):
        pats = write(tmp_path, "p.pat", "x0\n")
        outdir = tmp_path / "cex"
        code = main(["check", "--model", model_file, "--out", str(outdir), pats])
        assert code == 1
        out = capsys.readouterr().out
        assert "valid: no" in out and f"written to {outdir}/" in out
        for name in ("structure.json", "valuation.json", "conclusion.pat", "replay.txt"):
            assert (outdir / name).exists()
        # Feeding the artifacts back reproduces the failure.
        code = main(
            [
                "eval",
                "--model",
                str(outdir / "structure.json"),
                "--valuation",
                str(outdir / "valuation.json"),
                str(outdir / "conclusion.pat"),
            ]
        )
        assert code == 1
        assert "satisfied: no" in capsys.readouterr().out

    # On `model_file`, `x0 c` and the `mu` pattern fail; the first is kept.
    SEVERAL = "c -> c c\nX0 -> c\nx0 c\nmu X1 . X0 -> X1\n"

    def test_the_first_counterexample_is_kept(self, tmp_path, model_file, capsys):
        pats = write(tmp_path, "p.pat", self.SEVERAL)
        outdir = tmp_path / "cex"
        assert main(["check", "--model", model_file, "--out", str(outdir), pats]) == 1
        out = capsys.readouterr().out
        assert out.count("valid: no") == 2
        assert out.count("written to") == 1
        # The line follows the first failing pattern's verdict.
        assert out.index("written to") < out.index("mu X1 . X0 -> X1")
        assert (outdir / "conclusion.pat").read_text() == "x0 c\n"

    def test_json_writes_the_first_counterexample(self, tmp_path, model_file, capsys):
        pats = write(tmp_path, "p.pat", self.SEVERAL)
        outdir = tmp_path / "cex"
        argv = ["check", "--model", model_file, "--json", "--out", str(outdir), pats]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [r["valid"] for r in doc["results"]] == [True, True, False, False]
        for name in ("structure.json", "valuation.json", "conclusion.pat", "replay.txt"):
            assert (outdir / name).exists()
        assert (outdir / "conclusion.pat").read_text() == "x0 c\n"


class TestTaut:
    def test_mixed_verdicts(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "c -> c\nc -> d\n")
        assert main(["taut", "--sig", sig_file, pats]) == 1
        out = capsys.readouterr().out
        assert out.count("tautology: yes") == 1
        assert out.count("tautology: no") == 1

    def test_all_tautologies(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "c -> c\nc \\/ !c\n")
        assert main(["taut", "--sig", sig_file, pats]) == 0


class TestConsequence:
    def test_separation_between_global_and_local(self, tmp_path, capsys):
        gamma = write(tmp_path, "g.pat", "x0 \\/ x1\n")
        delta = write(tmp_path, "d.pat", "x0 /\\ x1\n")
        code = main(
            ["consequence", "--kind", "global", "--gamma", gamma, "--samples", "0", delta]
        )
        assert code == 0
        assert "global consequence" in capsys.readouterr().out
        outdir = tmp_path / "cex"
        code = main(
            [
                "consequence", "--kind", "local", "--gamma", gamma,
                "--samples", "0", "--out", str(outdir), delta,
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "fails" in out
        assert (outdir / "gamma.pat").read_text() == "x0 \\/ x1\n"

    def test_strong_kind_and_json(self, tmp_path, capsys):
        delta = write(tmp_path, "d.pat", "x0 -> x0\n")
        code = main(["consequence", "--kind", "strong", "--samples", "0", "--json", delta])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is True and doc["kind"] == "strong"
        assert doc["structures_checked"] == 258

    def test_models_directory_round_trip(self, tmp_path, capsys):
        suite_dir = tmp_path / "suite"
        sig = write(tmp_path, "s.txt", "c\n")
        code = main(
            ["gen-models", "--sig", sig, "--max-size", "1", "--samples", "0",
             "--out", str(suite_dir)]
        )
        assert code == 0
        assert "wrote 4 structure(s)" in capsys.readouterr().out
        manifest = json.loads((suite_dir / "suite.json").read_text())
        assert manifest["count"] == 4 and manifest["constants"] == ["c"]
        delta = write(tmp_path, "d.pat", "x0\n")
        code = main(["consequence", "--models", str(suite_dir), delta])
        assert code == 0
        assert "directory" in capsys.readouterr().out

    def test_defined_flag_enables_the_notation(self, tmp_path, capsys):
        delta = write(tmp_path, "d.pat", "ceil(x0)\n")
        code = main(["consequence", "--defined", "--samples", "0", delta])
        assert code == 0

    def test_defined_adds_def_to_a_given_signature(self, tmp_path, sig_file, capsys):
        delta = write(tmp_path, "d.pat", "ceil(c) -> c\n")
        outdir = tmp_path / "cex"
        argv = ["consequence", "--defined", "--sig", sig_file, "--max-size", "3",
                "--samples", "20", "--seed", "3", "--out", str(outdir), delta]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "fails" in out and "definedness" in out
        structure = json.loads((outdir / "structure.json").read_text())
        assert structure["constants"]["def"] == ["0"]

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_a_stdout_closed_early_still_gets_the_files(self, tmp_path, unbuffered, as_json):
        # As under `aml consequence ... | head -1` once head has exited:
        # the read end of the pipe is closed before anything is printed.
        sig = write(tmp_path, "c.txt", "c\n")
        late = write(tmp_path, "late.pat", "(c c) c -> c c\n")
        outdir = tmp_path / "cex"
        src = Path(aml.cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
        argv = ["consequence", "--kind", "local", "--sig", sig, "--out", str(outdir), late]
        read, written = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "aml.cli", *argv, *["--json"] * as_json],
                stdout=written, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(written)
        assert (run.returncode, run.stderr) == (141, b"")
        assert sorted(p.name for p in outdir.iterdir()) == [
            "conclusion.pat", "replay.txt", "structure.json", "valuation.json",
        ]
        assert (outdir / "conclusion.pat").read_text() == "c c c -> c c\n"


class TestGenModels:
    def test_deterministic_files(self, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        sig = write(tmp_path, "s.txt", "c\n")
        argv = ["gen-models", "--sig", sig, "--max-size", "3", "--samples", "5", "--seed", "9"]
        assert main(argv + ["--out", str(a_dir)]) == 0
        assert main(argv + ["--out", str(b_dir)]) == 0
        capsys.readouterr()
        a_files = sorted(f.name for f in a_dir.iterdir())
        assert a_files == sorted(f.name for f in b_dir.iterdir())
        for name in a_files:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_defined_structures_validate(self, tmp_path, capsys):
        outdir = tmp_path / "def"
        code = main(
            ["gen-models", "--defined", "--max-size", "1", "--samples", "0",
             "--out", str(outdir)]
        )
        assert code == 0
        from aml.model import load_structure

        for f in sorted(outdir.glob("structure-*.json")):
            s = load_structure(f)
            assert "def" in s.constants

    def test_models_is_not_an_option(self, tmp_path, sig_file, capsys):
        argv = ["gen-models", "--sig", sig_file, "--models", "nowhere", "--max-size", "1",
                "--samples", "0", "--out", str(tmp_path / "gm")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --models nowhere" in capsys.readouterr().err
        assert not (tmp_path / "gm").exists()


class TestProof:
    def test_accepted_script(self, capsys):
        script = str(CORPUS / "proofs" / "positive" / "s01-excluded-middle.prf")
        sig = str(CORPUS / "sig.txt")
        assert main(["proof", "check", "--sig", sig, script]) == 0
        out = capsys.readouterr().out
        assert "RESULT: accepted" in out and "LEVEL: strong" in out

    def test_rejected_script_exit_code(self, capsys):
        script = str(CORPUS / "proofs" / "negative" / "n01-not-a-tautology.prf")
        sig = str(CORPUS / "sig.txt")
        assert main(["proof", "check", "--sig", sig, script]) == 1
        assert "REJECTED [taut.not-tautology]" in capsys.readouterr().out

    def test_an_audit_that_decides_nothing_draws_no_sample(self, monkeypatch, capsys):
        # Line 1 is rejected, so no line is audited and no sample is read.
        reads = []

        class Counting(random.Random):
            def getrandbits(self, k):
                reads.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(aml.model.random, "Random", Counting)
        script = str(CORPUS / "proofs" / "negative" / "n01-not-a-tautology.prf")
        argv = ["proof", "check", "--audit", "--json", "--sig", str(CORPUS / "sig.txt"),
                "--max-size", "3", "--samples", "200", "--seed", "1", script]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out) == {
            "audit": {"lines_audited": 0, "structures": 1228, "violations": []},
            "level": "strong",
            "lines": [{"code": "taut.not-tautology", "number": 1, "ok": False,
                       "message": "the propositional skeleton has a failing row"}],
            "result": "rejected",
        }
        assert reads == []

    def test_audit_runs_clean(self, capsys):
        script = str(CORPUS / "proofs" / "positive" / "l03-kt-bottom.prf")
        sig = str(CORPUS / "sig.txt")
        code = main(
            ["proof", "check", "--sig", sig, "--audit", "--samples", "0", script]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AUDIT:" in out and "no violations" in out

    def test_audit_with_defined_adds_def_to_a_given_signature(self, tmp_path, sig_file, capsys):
        script = write(tmp_path, "d.prf", "hyp h := ceil(c)\n1: ceil(c) ; hyp h\n")
        argv = ["proof", "check", "--sig", sig_file, "--audit", "--defined",
                "--max-size", "2", "--samples", "0", script]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "RESULT: accepted" in out and "no violations" in out
        # Without a generated suite, --defined does not widen the signature.
        assert main(["proof", "check", "--sig", sig_file, "--defined", script]) == 2
        assert "'ceil' needs the constant 'def'" in capsys.readouterr().err

    def test_json_report(self, capsys):
        script = str(CORPUS / "proofs" / "positive" / "g01-generalize.prf")
        sig = str(CORPUS / "sig.txt")
        assert main(["proof", "check", "--sig", sig, "--json", script]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "accepted" and doc["level"] == "global"
        assert all(line["ok"] for line in doc["lines"])

    def test_syntax_error_is_a_usage_error(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.prf", "1: c -> c\n")
        sig = str(CORPUS / "sig.txt")
        assert main(["proof", "check", "--sig", sig, bad]) == 2
        assert "error:" in capsys.readouterr().err

    def test_mode_is_not_an_option(self, capsys):
        """Proof scripts are always sugar, so there is no ``--mode``."""
        script = str(CORPUS / "proofs" / "positive" / "s01-excluded-middle.prf")
        sig = str(CORPUS / "sig.txt")
        with pytest.raises(SystemExit) as exc:
            main(["proof", "check", "--mode", "core", "--sig", sig, script])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err


class TestAuditViolations:
    """A checker that accepts an unsound line: the audit flags it, exits 1
    and writes the counterexample under ``--out``/line-N, with or without
    ``--json``.  `check_proof` is doctored to accept every line, as the
    library's own test of the audit does."""

    SCRIPTS = {
        "plain.prf": ("1: x0 ; taut\n2: c -> c ; taut\n", 1, False),
        "hyps.prf": ("hyp h := c\n1: c ; hyp h\n2: x0 ; taut\n", 2, True),
    }

    @pytest.fixture(autouse=True)
    def doctored(self, monkeypatch):
        real = aml.cli.check_proof

        def accept_all(script):
            report = real(script)
            verdicts = tuple(LineVerdict(v.number, True) for v in report.verdicts)
            return CheckReport(verdicts, report.level, True)

        monkeypatch.setattr(aml.cli, "check_proof", accept_all)

    def _run(self, tmp_path, name, *extra):
        text, _, _ = self.SCRIPTS[name]
        script = write(tmp_path, name, text)
        outdir = tmp_path / "cex"
        argv = ["proof", "check", "--sig", str(CORPUS / "sig.txt"), "--audit",
                "--samples", "0", "--out", str(outdir), *extra, script]
        return main(argv), outdir

    @pytest.mark.parametrize("name", list(SCRIPTS))
    def test_text(self, tmp_path, capsys, name):
        code, outdir = self._run(tmp_path, name)
        line = self.SCRIPTS[name][1]
        assert code == 1
        out = capsys.readouterr().out
        assert "RESULT: accepted" in out
        assert f"line {line}: VIOLATION, fails on a structure with universe" in out
        assert out.endswith(f"counterexamples written under {outdir}/\n")
        self._assert_files(outdir, name, capsys)

    @pytest.mark.parametrize("name", list(SCRIPTS))
    def test_json(self, tmp_path, capsys, name):
        code, outdir = self._run(tmp_path, name, "--json")
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "accepted"
        assert doc["audit"]["violations"] == [{"line": self.SCRIPTS[name][1], "pattern": "x0"}]
        self._assert_files(outdir, name, capsys)

    def _assert_files(self, outdir, name, capsys):
        _, line, hypotheses = self.SCRIPTS[name]
        assert [p.name for p in outdir.iterdir()] == [f"line-{line}"]
        files = outdir / f"line-{line}"
        want = ["conclusion.pat", "replay.txt", "structure.json", "valuation.json"]
        assert sorted(p.name for p in files.iterdir()) == sorted(want + ["gamma.pat"] * hypotheses)
        assert (files / "conclusion.pat").read_text() == "x0\n"
        if hypotheses:
            assert (files / "gamma.pat").read_text() == "c\n"
        # The files replay the failure.
        argv = ["eval", "--model", str(files / "structure.json"),
                "--valuation", str(files / "valuation.json"), str(files / "conclusion.pat")]
        assert main(argv) == 1
        assert "satisfied: no" in capsys.readouterr().out


class TestNoAbbreviations:
    """Options are spelled in full on every subcommand, so a prefix of one
    option is not silently taken for it."""

    def _assert_unrecognized(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_gen_models_mode_is_not_models(self, tmp_path, capsys):
        argv = ["gen-models", "--mode", "core", "--max-size", "1", "--samples", "0"]
        self._assert_unrecognized(argv + ["--out", str(tmp_path / "gmx")], capsys)
        assert not (tmp_path / "gmx").exists()

    def test_consequence_max_is_not_max_size(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "c -> c\n")
        self._assert_unrecognized(["consequence", "--sig", sig_file, "--max", "3", pats], capsys)


# The commands and their help lines, in the order `aml --help` lists them.
COMMANDS = {
    "parse": "parse a pattern file and re-emit it",
    "analyze": "variables, occurrence table, polarity",
    "eval": "evaluate patterns in one structure",
    "check": "validity in one structure (all assignments)",
    "taut": "propositional tautology test",
    "consequence": "decide a consequence relation over a suite",
    "proof": "check a proof script",
    "gen-models": "materialize a deterministic suite to files",
}


class TestCommands:
    """The top-level parser lists every command, and a call in the plain
    form that `aml.cli._read` takes builds no parser at all."""

    def _exit(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, capsys.readouterr()

    def _count_parsers(self, monkeypatch):
        """The ``prog`` of every argparse parser made from here on."""
        built = []
        made = argparse.ArgumentParser.__init__

        def counting(self, **kwargs):
            built.append(kwargs["prog"])
            made(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    AUDIT = ["proof", "check", "--sig", str(CORPUS / "sig.txt"), "--audit",
             str(CORPUS / "proofs" / "positive" / "l03-kt-bottom.prf")]

    def test_an_audit_builds_no_parser(self, monkeypatch, capsys):
        built = self._count_parsers(monkeypatch)
        assert main([*self.AUDIT, "--samples", "0"]) == 0
        assert "no violations" in capsys.readouterr().out
        assert built == []

    def test_a_usage_error_goes_through_argparse(self, monkeypatch, capsys):
        built = self._count_parsers(monkeypatch)
        code, out = self._exit([*self.AUDIT, "--max-size", "0"], capsys)
        assert code == 2 and out.out == ""
        assert out.err.startswith("usage: aml proof [-h]")
        assert out.err.endswith("aml proof: error: argument --max-size: must be at least 1, got 0\n")
        assert built[0] == "aml" and "aml proof" in built

    def test_one_parser_parses_twice(self):
        """The argparse reader keeps nothing from one parse to the next."""
        ap = aml.cli.build_parser()
        first = ap.parse_args(["taut", "a.pat"])
        second = ap.parse_args(["taut", "--json", "b.pat"])
        assert (first.pattern_file, first.json) == ("a.pat", False)
        assert (second.pattern_file, second.json) == ("b.pat", True)

    def test_the_listing(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "120")
        code, out = self._exit(["--help"], capsys)
        assert code == 0
        lines = out.out.splitlines()
        assert lines[0] == f"usage: aml [-h] {{{','.join(COMMANDS)}}} ..."
        listed = [line.split(None, 1) for line in lines if line.startswith("    ")]
        assert listed == [[name, help_line] for name, help_line in COMMANDS.items()]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_each_command_has_help(self, command, capsys):
        code, out = self._exit([command, "--help"], capsys)
        assert code == 0
        assert out.out.startswith(f"usage: aml {command} [-h]")

    def test_an_unknown_command_names_every_choice(self, capsys):
        code, out = self._exit(["frobnicate"], capsys)
        assert code == 2
        choices = ", ".join(map(repr, COMMANDS))
        assert f"invalid choice: 'frobnicate' (choose from {choices})" in out.err


# ---------------------------------------------------------------------------
# The two argument readers: argparse, built from the same table, is the
# oracle for `aml.cli._read` (differential testing: McKeeman, "Differential
# Testing for Software", Digital Technical Journal 10(1), 1998).


def _readers(argv):
    """`_read`'s namespace for ``argv`` as a dict, or None, and argparse's,
    or its exit code."""
    fast = aml.cli._read(argv)
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        try:
            parsed = vars(aml.cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            parsed = exc.code
    return (None if fast is None else vars(fast)), parsed


def _assert_agree(argv):
    """Where `_read` takes ``argv``, argparse gives the same namespace, so
    where argparse exits, `_read` declines.  Returns whether `_read` took it."""
    fast, parsed = _readers(argv)
    assert fast is None or fast == parsed, argv
    return fast is not None


def _good_value(option):
    if option.choices:
        return st.sampled_from(option.choices)
    if option.check is int:
        return st.integers(0, 12).map(str)
    if option.check:  # at least 0 or at least 1
        return st.integers(1, 4).map(str)
    return st.sampled_from(("a.pat", "dir/s.json", "two words", "", "a=b", "taut"))


@st.composite
def _units(draw):
    """A call in `_read`'s plain form as units (an option and its value, or a
    positional), the options permuted and the positionals in order among
    them; and the command's name."""
    name = draw(st.sampled_from(list(aml.cli._COMMANDS)))
    command = aml.cli._COMMANDS[name]
    units = []
    for o in command.flags.values():
        most = 2 if o.kind == "repeat" else 1
        for _ in range(1 if o.required else draw(st.integers(0, most))):
            units.append([o.flag] if o.kind == "switch" else [o.flag, draw(_good_value(o))])
    units = list(draw(st.permutations(units)))
    texts = [draw(_good_value(o)) for o in command.positionals]
    slots = draw(st.lists(st.integers(0, len(units)), min_size=len(texts), max_size=len(texts)))
    for slot, text in reversed(list(zip(sorted(slots), texts))):
        units.insert(slot, [text])
    return name, units


_STRAY = ("--", "-h", "--help", "-1", "-", "--nope", "extra.pat", "--json", "--seed", "--gamma")


@st.composite
def _edit(draw, units):
    """One way off the plain form, applied to ``units`` in place."""
    i = draw(st.integers(0, len(units)))
    unit = units[i] if i < len(units) else None
    flag = unit is not None and unit[0].startswith("--")
    kind = draw(st.sampled_from(
        ("repeat", "abbreviate", "equals", "dash", "bad", "insert", "drop")
    ))
    if kind == "insert" or unit is None:
        units.insert(i, [draw(st.sampled_from(_STRAY))])
    elif kind == "drop":
        del units[i]
    elif kind == "repeat":
        units.append([*unit[:1], *(draw(st.sampled_from(("3", "x.pat"))) for _ in unit[1:])])
    elif kind == "abbreviate" and flag and len(unit[0]) > 3:
        unit[0] = unit[0][:draw(st.integers(3, len(unit[0]) - 1))]
    elif kind == "equals" and len(unit) == 2:
        units[i] = [f"{unit[0]}={unit[1]}"]
    else:
        unit[-1] = draw(st.sampled_from(("-1", "-x", "0", "bogus", "x")) if kind == "dash"
                        else st.sampled_from(("0", "bogus", "x", "2.5")))


class TestFastReader:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(call=_units())
    def test_the_plain_form_is_read_as_argparse_reads_it(self, call):
        name, units = call
        argv = [name, *(token for unit in units for token in unit)]
        assert _assert_agree(argv), argv

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(call=_units(), data=st.data())
    def test_off_the_plain_form_it_agrees_or_declines(self, call, data):
        name, units = call
        for _ in range(data.draw(st.integers(1, 2))):
            data.draw(_edit(units))
        _assert_agree([name, *(token for unit in units for token in unit)])

    # Fixed calls, and whether `_read` takes them.
    CALLS = {
        ("taut", "p.pat"): True,
        ("taut", "p.pat", "--json"): True,
        ("consequence", "--gamma", "a", "p.pat", "--gamma", "b", "--kind", "local"): True,
        ("proof", "--audit", "check", "--sig", "s", "s.prf"): True,
        ("eval", "p.pat", "--model", "m.json"): True,
        ("gen-models", "--out", "dir"): True,
        ("consequence", "--max", "3", "p.pat"): False,
        ("consequence", "--seed=3", "p.pat"): False,
        ("consequence", "--seed", "-1", "p.pat"): False,
        ("consequence", "--seed", "1", "--seed", "3", "p.pat"): False,
        ("taut", "--json", "--json", "p.pat"): False,
        ("consequence", "--", "p.pat"): False,
        ("consequence", "p.pat", "-h"): False,
        ("taut",): False,
        ("taut", "a.pat", "b.pat"): False,
        ("taut", "--mode", "bogus", "p.pat"): False,
        ("consequence", "--max-size", "0", "p.pat"): False,
        ("consequence", "--samples", "x", "p.pat"): False,
        ("proof", "verify", "s.prf"): False,
        ("eval", "p.pat"): False,
        ("gen-models",): False,
        ("check", "--model"): False,
        (): False,
        ("--help",): False,
        ("frobnicate",): False,
    }

    @pytest.mark.parametrize("argv", list(CALLS))
    def test_a_fixed_call(self, argv):
        assert _assert_agree(list(argv)) == self.CALLS[argv]

    def test_every_corpus_audit(self):
        """The shipped audit job's calls are all in the plain form."""
        suite = ["--max-size", "3", "--samples", "200", "--seed", "1", "--out", "out"]
        for script in sorted(CORPUS.glob("proofs/*/*.prf")):
            argv = ["proof", "check", "--audit", "--json", "--sig", str(CORPUS / "sig.txt"),
                    *suite, str(script)]
            assert _assert_agree(argv), argv


class TestDeterminism:
    def test_identical_runs_print_identical_bytes(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "mu X0 . c \\/ X0\nexists x0 . x0 d\n")
        main(["analyze", "--sig", sig_file, "--json", pats])
        first = capsys.readouterr().out
        main(["analyze", "--sig", sig_file, "--json", pats])
        assert capsys.readouterr().out == first


class TestLimits:
    def test_eval_on_a_universe_over_the_cap(self, tmp_path, capsys):
        doc = {"universe": [str(i) for i in range(13)], "app": [], "constants": {}}
        model = write(tmp_path, "big.json", json.dumps(doc))
        pats = write(tmp_path, "p.pat", "x0\n")
        assert main(["eval", "--model", model, pats]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "enumeration cap 12" in err

    def test_a_model_over_the_cap_is_refused_before_its_patterns(self, tmp_path, capsys):
        doc = {"universe": [str(i) for i in range(13)], "app": [], "constants": {}}
        model = write(tmp_path, "big.json", json.dumps(doc))
        pats = write(tmp_path, "p.pat", "((\n")
        assert main(["eval", "--model", model, pats]) == 2
        err = capsys.readouterr().err
        assert err == "error: universe of size 13 exceeds the enumeration cap 12\n"

    def test_consequence_suite_over_the_cap(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "c\n")
        code = main(["consequence", "--sig", sig_file, "--max-size", "13", pats])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "enumeration cap 12" in err

    def test_taut_over_the_atom_limit(self, tmp_path, sig_file, capsys):
        chain = " -> ".join(f"x{i}" for i in range(22))
        pats = write(tmp_path, "p.pat", chain + "\n")
        assert main(["taut", "--sig", sig_file, pats]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "22 distinct atoms" in err


class TestUnassignedConstant:
    """A signature constant that the structure does not interpret is a named
    error with exit 2, on every command that evaluates.  The text lines of
    the patterns decided before it stay printed; under ``--json`` stdout is
    empty."""

    ERROR = "error: constant 'd' has no denotation\n"

    @pytest.fixture
    def files(self, tmp_path, sig_file):
        models = tmp_path / "models"
        models.mkdir()
        doc = json.dumps({"universe": ["a"], "constants": {"c": ["a"]}})
        (models / "m.json").write_text(doc)
        return {
            "sig": sig_file,
            "models": str(models),
            "model": str(models / "m.json"),
            "pat": write(tmp_path, "p.pat", "d\n"),
            "pats": write(tmp_path, "two.pat", "c\nd\n"),
            "script": write(tmp_path, "s.prf", "1: c -> c ; taut\n2: d -> d ; taut\n"),
        }

    def run(self, argv, capsys, text=""):
        """Exit 2 with the one error, after ``text`` as text and after
        nothing under ``--json``."""
        for as_json, out in ((False, text), (True, "")):
            code = main(argv + ["--json"] * as_json)
            assert (code, *capsys.readouterr()) == (2, out, self.ERROR), as_json

    def test_eval(self, files, capsys):
        argv = ["eval", "--model", files["model"], "--sig", files["sig"], files["pats"]]
        self.run(argv, capsys, "c\n  value: {a}\n  satisfied: yes\n")

    def test_check(self, files, capsys):
        argv = ["check", "--model", files["model"], "--sig", files["sig"], files["pats"]]
        self.run(argv, capsys, "c\n  valid: yes\n")

    def test_consequence(self, files, capsys):
        argv = ["consequence", "--models", files["models"], "--sig", files["sig"], files["pat"]]
        self.run(argv, capsys)

    def test_proof_audit(self, files, capsys):
        argv = ["proof", "check", "--audit", "--models", files["models"], "--sig", files["sig"]]
        self.run(argv + [files["script"]], capsys)


class TestJsonNames:
    """A JSON value of the wrong type where an element name belongs is a
    model error (exit 2), not a crash."""

    def _eval(self, tmp_path, doc, valuation=None):
        model = write(tmp_path, "m.json", json.dumps(doc))
        pats = write(tmp_path, "p.pat", "x0\n")
        argv = ["eval", "--model", model, pats]
        if valuation is not None:
            argv[3:3] = ["--valuation", write(tmp_path, "v.json", json.dumps(valuation))]
        return main(argv)

    def _model(self, row=None, constant=None):
        return {
            "universe": ["0", "1"],
            "app": [row or {"left": "0", "right": "1", "result": ["1"]}],
            "constants": {"c": constant or ["0"]},
        }

    def _assert_named(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be a string" in err

    def test_app_left(self, tmp_path, capsys):
        doc = self._model(row={"left": ["0"], "right": "1", "result": []})
        assert self._eval(tmp_path, doc) == 2
        self._assert_named(capsys)

    def test_app_right(self, tmp_path, capsys):
        doc = self._model(row={"left": "0", "right": {"a": 1}, "result": []})
        assert self._eval(tmp_path, doc) == 2
        self._assert_named(capsys)

    def test_constant_denotation_element(self, tmp_path, capsys):
        assert self._eval(tmp_path, self._model(constant=[["0"]])) == 2
        self._assert_named(capsys)

    def test_valuation_element(self, tmp_path, capsys):
        valuation = {"element": {"x0": ["0"]}, "set": {}}
        assert self._eval(tmp_path, self._model(), valuation) == 2
        self._assert_named(capsys)

    def test_valuation_set_entry(self, tmp_path, capsys):
        valuation = {"element": {}, "set": {"X0": ["0", ["1"]]}}
        assert self._eval(tmp_path, self._model(), valuation) == 2
        self._assert_named(capsys)

    def test_containers_of_the_wrong_type(self, tmp_path, capsys):
        doc = dict(self._model(), app=7)
        assert self._eval(tmp_path, doc) == 2
        assert "'app' must be a list" in capsys.readouterr().err
        valuation = {"element": ["x0", "0"]}
        assert self._eval(tmp_path, self._model(), valuation) == 2
        assert "must be objects" in capsys.readouterr().err


class TestSuiteFlags:
    @pytest.mark.parametrize(
        "flags", [("--samples", "-1"), ("--max-size", "0"), ("--max-size", "-3")]
    )
    def test_out_of_range_values_are_usage_errors(self, tmp_path, sig_file, capsys, flags):
        pats = write(tmp_path, "p.pat", "c\n")
        with pytest.raises(SystemExit) as exc:
            main(["consequence", "--sig", sig_file, "--max-size", "3", *flags, pats])
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_boundary_values_are_accepted(self, tmp_path, sig_file, capsys):
        pats = write(tmp_path, "p.pat", "c -> c\n")
        argv = ["consequence", "--sig", sig_file, "--max-size", "1", "--samples", "0", pats]
        assert main(argv) == 0


class TestNonAsciiDigits:
    """`str.isdigit` accepts digits such as ``²`` that `int` rejects; variable
    indices and line numbers take ASCII digits only."""

    def _assert_usage_error(self, code, capsys, words):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and words in err

    def test_valuation_key(self, tmp_path, model_file, capsys):
        pats = write(tmp_path, "p.pat", "x0\n")
        valuation = write(tmp_path, "v.json", json.dumps({"element": {"x\u00b2": "0"}}))
        code = main(["eval", "--model", model_file, "--valuation", valuation, pats])
        self._assert_usage_error(code, capsys, "bad variable key")

    def test_proof_line_reference(self, tmp_path, capsys):
        script = write(tmp_path, "s.prf", "1: c -> c ; taut\n2: c -> c ; mp \u00b2 1\n")
        code = main(["proof", "check", "--sig", str(CORPUS / "sig.txt"), script])
        self._assert_usage_error(code, capsys, "bad line reference")

    def test_proof_line_number(self, tmp_path, capsys):
        script = write(tmp_path, "s.prf", "\u00b2: c -> c ; taut\n")
        code = main(["proof", "check", "--sig", str(CORPUS / "sig.txt"), script])
        self._assert_usage_error(code, capsys, "expected '<number>:")


LONG = "1" * 5000  # more digits than `int` reads from a string by default


class TestLongIndices:
    """An index or line number longer than `int` reads is a usage error
    naming the line, not a traceback; nothing changes the process limit."""

    def _assert_usage_error(self, code, capsys, words):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and words in err
        assert "5000 digits is too long to read" in err

    @pytest.mark.parametrize(
        "mode, text",
        [("core", f"x{LONG}"), ("core", f"exists x{LONG} x0"),
         ("sugar", f"x{LONG}"), ("sugar", f"exists x{LONG} . c")],
        ids=["core-variable", "core-binder", "sugar-variable", "sugar-binder"],
    )
    def test_pattern(self, tmp_path, capsys, mode, text):
        sig = str(CORPUS / "sig.txt")
        pats = write(tmp_path, "p.pat", text + "\n")
        limit = sys.get_int_max_str_digits()
        code = main(["parse", "--sig", sig, "--mode", mode, pats])
        self._assert_usage_error(code, capsys, f"{pats}:1:")
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize(
        "text",
        [f"{LONG}: c -> c ; taut\n", f"1: c -> c ; taut\n2: c -> c ; mp {LONG} 1\n"],
        ids=["line-number", "mp-reference"],
    )
    def test_proof_line(self, tmp_path, capsys, text):
        script = write(tmp_path, "s.prf", text)
        code = main(["proof", "check", "--sig", str(CORPUS / "sig.txt"), script])
        line = text.count("\n")
        self._assert_usage_error(code, capsys, f"line {line}:")

    def test_valuation_key(self, tmp_path, model_file, capsys):
        pats = write(tmp_path, "p.pat", "x0\n")
        doc = {"element": {f"x{LONG}": "0"}, "set": {}}
        valuation = write(tmp_path, "v.json", json.dumps(doc))
        code = main(["eval", "--model", model_file, "--valuation", valuation, pats])
        self._assert_usage_error(code, capsys, f"{valuation}: bad variable key")


def nested(construct: str, levels: int) -> str:
    """Pattern text nesting one construct around ``c``, ``levels`` deep:
    in parentheses, or in levels of the pattern tree."""
    if construct == "parentheses":
        return "(" * levels + "c" + ")" * levels
    if construct == "implications":
        return "c -> (" * (levels - 1) + "c -> c" + ")" * (levels - 1)
    if construct == "negations":
        # Each `!` is a level, and the last one's `bot` is one more.
        return "!" * (levels - 1) + "c"
    return "imp c " * levels + "c"


class TestNestingDepth:
    """Patterns nested `MAX_DEPTH` levels deep parse, and every later layer
    runs on them; any deeper nesting is a usage error, not a crash."""

    CONSTRUCTS = ("parentheses", "implications", "negations", "core")

    @pytest.mark.parametrize("construct", CONSTRUCTS)
    def test_at_the_limit_every_layer_runs(
        self, tmp_path, sig_file, model_file, capsys, construct
    ):
        mode = "core" if construct == "core" else "sugar"
        text = nested(construct, MAX_DEPTH)
        pats = write(tmp_path, "p.pat", text + "\n")
        for emit in ("core", "sugar"):
            argv = ["parse", "--sig", sig_file, "--mode", mode, "--emit", emit, pats]
            assert main(argv) == 0
        assert main(["analyze", "--sig", sig_file, "--mode", mode, pats]) == 0
        argv = ["eval", "--sig", sig_file, "--mode", mode, "--model", model_file, pats]
        assert main(argv) in (0, 1)
        sig = Signature(("c", "d"))
        p = parse(text, sig, mode)
        for out in ("core", "sugar"):
            assert parse(render(p, out), sig, out) == p
        assert subst_capture_avoiding(p, VarRef.set(0), p) == p

    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 3000])
    @pytest.mark.parametrize("construct", CONSTRUCTS)
    def test_deeper_is_a_usage_error(self, tmp_path, sig_file, capsys, construct, levels):
        mode = "core" if construct == "core" else "sugar"
        pats = write(tmp_path, "p.pat", nested(construct, levels) + "\n")
        assert main(["parse", "--sig", sig_file, "--mode", mode, pats]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"deeper than {MAX_DEPTH} levels" in err

    @pytest.mark.parametrize("text", [" /\\ ".join(["c"] * 600), " ".join(["c"] * 1200)])
    def test_long_chains_are_usage_errors(self, tmp_path, sig_file, capsys, text):
        """Chains parse by loops, but their trees nest a level or more per link."""
        pats = write(tmp_path, "p.pat", text + "\n")
        assert main(["parse", "--sig", sig_file, "--emit", "sugar", pats]) == 2
        assert f"deeper than {MAX_DEPTH} levels" in capsys.readouterr().err


class TestUnreadableFiles:
    """Undecodable bytes, JSON nested past the decoder and an ``--out`` that
    names a regular file are usage errors naming the file, not tracebacks."""

    def _assert_usage_error(self, argv, capsys, words):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and words in err

    def _bytes(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    def test_pattern_file_not_utf8(self, tmp_path, sig_file, capsys):
        pats = self._bytes(tmp_path, "p.pat", b"c \xff\n")
        self._assert_usage_error(["parse", "--sig", sig_file, pats], capsys, pats)

    def test_structure_file_not_utf8(self, tmp_path, capsys):
        model = self._bytes(tmp_path, "m.json", b'{"universe": ["\xff"]}')
        pats = write(tmp_path, "p.pat", "c\n")
        self._assert_usage_error(["eval", "--model", model, pats], capsys, model)

    def test_proof_script_not_utf8(self, tmp_path, capsys):
        script = self._bytes(tmp_path, "s.prf", b"1: c -> c ; taut \xff\n")
        argv = ["proof", "check", "--sig", str(CORPUS / "sig.txt"), script]
        self._assert_usage_error(argv, capsys, script)

    def test_structure_nested_too_deeply(self, tmp_path, capsys):
        model = write(tmp_path, "m.json", "[" * 100_000)
        pats = write(tmp_path, "p.pat", "c\n")
        self._assert_usage_error(["eval", "--model", model, pats], capsys, "nested too deeply")

    def test_valuation_nested_too_deeply(self, tmp_path, model_file, capsys):
        valuation = write(tmp_path, "v.json", "[" * 100_000)
        pats = write(tmp_path, "p.pat", "x0\n")
        argv = ["eval", "--model", model_file, "--valuation", valuation, pats]
        self._assert_usage_error(argv, capsys, "nested too deeply")

    def test_gen_models_out_is_a_file(self, tmp_path, capsys):
        out = write(tmp_path, "taken", "")
        argv = ["gen-models", "--max-size", "1", "--samples", "0", "--out", out]
        self._assert_usage_error(argv, capsys, "File exists")

    def test_check_out_is_a_file(self, tmp_path, model_file, capsys):
        out = write(tmp_path, "taken", "")
        pats = write(tmp_path, "p.pat", "x0\n")
        argv = ["check", "--model", model_file, "--out", out, pats]
        self._assert_usage_error(argv, capsys, "File exists")

    @pytest.mark.parametrize("as_json", [False, True])
    def test_consequence_out_is_a_file(self, tmp_path, capsys, as_json):
        """The files come before any output, so nothing is printed."""
        taken = write(tmp_path, "taken", "")
        sig = write(tmp_path, "c.txt", "c\n")
        pats = write(tmp_path, "p.pat", "x0 -> c x0\n")
        argv = ["consequence", "--sig", sig, "--out", taken, pats, *["--json"] * as_json]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "File exists" in err


class TestFileErrorsNameThePathOnce:
    """A file the CLI cannot use is named exactly once in the error."""

    def _assert_named_once(self, argv, path, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count(path) == 1, err

    def test_model_not_json(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", "nope")
        pats = write(tmp_path, "c.pat", "c\n")
        self._assert_named_once(["eval", "--model", bad, pats], bad, capsys)

    def test_valuation_not_json(self, tmp_path, model_file, capsys):
        bad = write(tmp_path, "bad.json", "nope")
        pats = write(tmp_path, "c.pat", "c\n")
        argv = ["eval", "--model", model_file, "--valuation", bad, pats]
        self._assert_named_once(argv, bad, capsys)

    def test_missing_model(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        pats = write(tmp_path, "c.pat", "c\n")
        self._assert_named_once(["eval", "--model", missing, pats], missing, capsys)

    def test_missing_valuation(self, tmp_path, model_file, capsys):
        missing = str(tmp_path / "nope.json")
        pats = write(tmp_path, "c.pat", "c\n")
        argv = ["eval", "--model", model_file, "--valuation", missing, pats]
        self._assert_named_once(argv, missing, capsys)

    def test_missing_signature(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        pats = write(tmp_path, "c.pat", "c\n")
        self._assert_named_once(["parse", "--sig", missing, pats], missing, capsys)


class TestEachFileReadOnce:
    def test_consequence_reads_the_models_directory_once(self, tmp_path, monkeypatch, capsys):
        suite_dir = tmp_path / "suite"
        argv = ["gen-models", "--max-size", "1", "--samples", "0", "--out", str(suite_dir)]
        assert main(argv) == 0
        for extra in sorted(suite_dir.glob("structure-*.json"))[2:]:
            extra.unlink()
        capsys.readouterr()
        loads = []
        real = aml.cli.load_structure

        def counting(path, sig=None):
            loads.append(Path(path).name)
            return real(path, sig)

        monkeypatch.setattr(aml.cli, "load_structure", counting)
        delta = write(tmp_path, "d.pat", "x0\n")
        assert main(["consequence", "--models", str(suite_dir), delta]) == 0
        assert sorted(loads) == ["structure-0000.json", "structure-0001.json"]
        assert capsys.readouterr().out == (
            f"global consequence over 2 structure(s) (directory {suite_dir}): holds\n"
        )


class TestCheckDecidesByConsequence:
    def test_one_global_consequence_per_pattern(self, tmp_path, model_file, monkeypatch, capsys):
        calls = []
        real = aml.cli.consequence

        def counting(kind, gamma, delta, suite):
            calls.append((kind, list(gamma), list(delta)))
            return real(kind, gamma, delta, suite)

        monkeypatch.setattr(aml.cli, "consequence", counting)
        pats = write(tmp_path, "p.pat", TestCheck.SEVERAL)
        outdir = tmp_path / "cex"
        assert main(["check", "--model", model_file, "--out", str(outdir), pats]) == 1
        assert [(kind, gamma, len(delta)) for kind, gamma, delta in calls] == [
            ("global", [], 1)
        ] * 4
        out = capsys.readouterr().out
        assert out.count("valid: no") == 2
        # The first failing assignment in enumeration order is the witness.
        assert '  valuation: {"element": {"x0": "1"}, "set": {}}\n' in out
        assert '  valuation: {"element": {}, "set": {"X0": ["0"]}}\n' in out


# ---------------------------------------------------------------------------
# Fuzzing: no input file makes the front end raise.

_WORDS = (
    "c", "d", "def", "x0", "x1", "X0", "X1", "bot", "top", "!", "->", "<->", "/\\",
    "\\/", "=", "in", "(", ")", ".", "exists", "forall", "mu", "nu", "ceil", "floor",
    "appl", "imp", "x\u00b2", ";", ":=", "#",
)
_AXIOMS = ("taut", "ax.exists x0 x1", "ax.singleton x0 ; c", "ax.prefix", "ax.prop-or-l")
_RULES = ("subst.set 1 X0 ; c", "gen.exists 1", "frame.l 1", "frame.r 1", "kt 1")
_MALFORMED_JUSTIFICATIONS = ("because", "mp 1", "kt \u00b2", "", "taut ; c", "ax.exists X0 x1")
_KEYS = (
    "universe", "app", "constants", "left", "right", "result", "c", "d", "def",
    "element", "set", "x0", "X0", "x\u00b2", "0", "1",
)

_soup = st.lists(st.sampled_from(_WORDS), max_size=7).map(" ".join)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(("0", "1", "2", "c")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=8,
)
_valuation_doc = st.fixed_dictionaries(
    {
        "element": st.dictionaries(st.sampled_from(("x0", "x1")), st.just("0")),
        "set": st.dictionaries(st.sampled_from(("X0", "X1")), st.lists(st.just("0"))),
    }
)


def _sometimes(good, bad):
    """Mostly well-formed input, one time in four malformed."""
    return st.integers(0, 3).flatmap(lambda roll: bad if roll == 0 else good)


@st.composite
def _structure_doc(draw):
    doc = structure_to_doc(draw(structures(max_size=3)))
    return draw(_sometimes(st.just(doc), _json_values.map(lambda v: {**doc, "app": v})))


def _pattern(mode):
    return _sometimes(patterns(max_leaves=6).map(lambda p: render(p, mode)), _soup)


@st.composite
def _proof_text(draw):
    hyp = draw(st.booleans())
    lines = [f"hyp h := {draw(_pattern('sugar'))}"] if hyp else []
    for n in range(1, draw(st.integers(1, 3)) + 1):
        cited = _RULES * (n > 1) + ("mp 1 2",) * (n > 2) + ("hyp h",) * hyp
        good = st.sampled_from(_AXIOMS + cited)
        just = draw(_sometimes(good, st.sampled_from(_MALFORMED_JUSTIFICATIONS)))
        lines.append(f"{n}: {draw(_pattern('sugar'))} ; {just}")
    return "\n".join(lines) + "\n"


def _encoded(texts):
    """Text as UTF-8, one time in ten followed by a byte that is not UTF-8."""
    return st.tuples(texts, st.integers(0, 9)).map(
        lambda t: t[0].encode() + (b"\xff\n" if t[1] == 0 else b"")
    )


@st.composite
def _cases(draw):
    mode = draw(st.sampled_from(("core", "sugar")))
    files = {
        "sig.txt": _sometimes(st.just("c\nd\ndef\n"), st.sampled_from(("c\nc\n", "appl\n"))),
        "m.json": _sometimes(_structure_doc().map(json.dumps), _soup),
        "v.json": _sometimes(_valuation_doc, _json_values).map(json.dumps),
        "p.pat": st.lists(_pattern(mode), min_size=1, max_size=2).map("\n".join),
        "s.prf": _proof_text(),
    }
    return mode, {name: draw(_encoded(texts)) for name, texts in files.items()}


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=_cases(), as_json=st.booleans())
def test_no_input_raises(case, as_json):
    """Every command exits 0, 1 or 2 (argparse's own usage exit counts) on
    well-formed and malformed files alike; no other exception escapes."""
    mode, files = case
    with tempfile.TemporaryDirectory() as tmp:
        path = {}
        for name, data in files.items():
            path[name] = str(Path(tmp) / name)
            Path(path[name]).write_bytes(data)
        models = str(Path(tmp) / "models")
        Path(models).mkdir()
        Path(models, "m.json").write_bytes(files["m.json"])
        sig = ["--sig", path["sig.txt"]]
        opts = ["--json"] * as_json + ["--out", str(Path(tmp) / "out")]
        suite = ["--max-size", "1", "--samples", "0"]
        pats = ["--mode", mode, path["p.pat"]]
        runs = [
            ["parse", *sig, *pats],
            ["analyze", *sig, *pats],
            ["eval", "--model", path["m.json"], "--valuation", path["v.json"], *pats],
            ["eval", "--model", path["m.json"], *sig, *pats],
            ["check", "--model", path["m.json"], *opts, *pats],
            ["check", "--model", path["m.json"], *sig, *opts, *pats],
            ["taut", *sig, *pats],
            ["consequence", *sig, *suite, *opts, *pats],
            ["consequence", "--models", models, *sig, *opts, *pats],
            ["proof", "check", "--audit", *sig, *suite, *opts, path["s.prf"]],
        ]
        for argv in runs:
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), argv
