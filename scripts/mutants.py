"""The mutation gate: each mutant in the table below must make its tests fail.

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py lane-stride one-layout-for-every-suite

A mutant is an exact edit of one file under ``src/``: a text that must occur
there exactly once and the text that replaces it, with the test files
expected to kill it.  The script first runs each set of test files named in
the table on ``src/`` as it is: they must pass, and their time sets the
limit for the mutants that name them, three times it plus 30 s.  Then for
each mutant it copies ``src/`` to a temporary directory, applies the edit to
the copy and runs the mutant's test files from the repository root with
``python -m pytest -x -q``, ``PYTHONPATH`` at the copy and a fresh
Hypothesis example database.  The mutant is *killed* when the tests fail,
or *timed out* (which counts as killed) when they run past the limit, as
they do where a mutant makes a loop run forever; it *survives* when they
pass, and is *stale* when its old text no longer occurs exactly once.  The
script prints one line per mutant with its outcome and run time, then the
total time, and exits 1 if any mutant survives or is stale.  Nothing is
downloaded: the edits are written out in the table.

The fast paths each keep a slow oracle in ``tests/``; the mutants show that
the tests comparing them would notice the faults each path is most likely
to have (DeMillo, Lipton & Sayward, "Hints on Test Data Selection", IEEE
Computer 11(4), 1978).  A change that adds a fast path adds its mutants
here.  A mutant that survives calls for a test that kills it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEMANTICS = "aml/semantics.py"
MODEL = "aml/model.py"
SUGAR = "aml/sugar.py"
SYNTAX = "aml/syntax.py"
SUBSTITUTION = "aml/substitution.py"
CLI = "aml/cli.py"
TEST_SEMANTICS = "tests/test_semantics.py"
TEST_MODEL = "tests/test_model.py"
TEST_SUBSTITUTION = "tests/test_substitution.py"
TEST_SUGAR = "tests/test_sugar.py"
TEST_SYNTAX = "tests/test_syntax.py"
TEST_CLI = "tests/test_cli.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


# `aml consequence` writes its counterexample files, then says its header.
_CONSEQUENCE_FILES = (
    "    if not verdict.holds:\n"
    "        # Before any output: a reader that stops early (``| head -1``)\n"
    "        # still gets the files.\n"
    "        _write_counterexample(\n"
    "            Path(args.out), verdict.structure, verdict.valuation, verdict.pattern, gamma\n"
    "        )\n"
    "        doc[\"counterexample\"] = cex = {\n"
    "            \"structure\": structure_to_doc(verdict.structure),\n"
    "            \"valuation\": valuation_to_doc(verdict.valuation, verdict.structure),\n"
    "            \"pattern\": render_pattern(verdict.pattern, \"sugar\"),\n"
    "            \"note\": verdict.note,\n"
    "        }\n"
)
_CONSEQUENCE_HEADER = (
    "    say(\n"
    "        f\"{args.kind} consequence over {verdict.structures_checked} structure(s) \"\n"
    "        f\"({origin}): {'holds' if verdict.holds else 'fails'}\"\n"
    "    )\n"
)

MUTANTS = [
    # Valuation lanes: a block of several lanes decided for every
    # assignment at once over its wide form.
    Mutant(
        "or-fold-as-and", SEMANTICS,
        "        x = x & (1 << keep * width) - 1 | x >> keep * width\n",
        "        x = x & (1 << keep * width) - 1 & x >> keep * width\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "lane-stride", SEMANTICS,
        "    k = ((low & -low).bit_length() - 1) // n\n",
        "    k = ((low & -low).bit_length() - 1) // width\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "vectors-keyed-to-the-first-query", SEMANTICS,
        "    counts = (len(e_list), len(s_list))\n",
        "    counts = (len(e_list), len(s_list))\n"
        "    e_list, s_list = block.wide.setdefault((\"free\", counts), free)\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "global-valuation-not-cut", SEMANTICS,
        "            [(p, _free_lists([p])) for p in delta],\n",
        "            [(p, _free_lists(gamma + [p])) for p in delta],\n",
        (TEST_SEMANTICS,),
    ),
    # The sweep: a miss in lane 0 of a chunk's first copy is returned at
    # once; any other miss needs the lowest lane and copy.
    Mutant(
        "sweep-exit-on-any-miss", SEMANTICS,
        "                if m & lane_full:\n",
        "                if m:\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "chunks-stop-at-the-first-failure", SEMANTICS,
        "                found = (k, *_decoded(free, digits[a]), p)\n"
        "                if not k:\n"
        "                    return found\n",
        "                return (k, *_decoded(free, digits[a]), p)\n",
        (TEST_SEMANTICS,),
    ),
    # A one-lane block decides its first assignment, with empty maps, before
    # its chunks, and returns that assignment's defaults as the valuation.
    Mutant(
        "first-assignment-skips-the-hypotheses", SEMANTICS,
        "        for g in gamma:\n            value = _ev(g, block, {}, {}, pos)\n",
        "        for g in ():\n            value = _ev(g, block, {}, {}, pos)\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "first-assignment-local-goes-on", SEMANTICS,
        "            if local and need & ~value:\n                break\n",
        "            if local and need & ~value:\n                need = 0\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "first-assignment-strong-stops-early", SEMANTICS,
        "            if local and need & ~value:\n",
        "            if need & ~value:\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "first-assignment-drops-set-variables", SEMANTICS,
        "dict.fromkeys(free[0], 1), dict.fromkeys(free[1], 0), p\n",
        "dict.fromkeys(free[0], 1), {}, p\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "first-assignment-at-the-last-element", SEMANTICS,
        "dict.fromkeys(free[0], 1), dict.fromkeys(free[1], 0), p\n",
        "dict.fromkeys(free[0], block.singletons[-1]), dict.fromkeys(free[1], 0), p\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "global-validity-unswept-in-one-lane", SEMANTICS,
        "    for g, f in free[0]:\n",
        "    for g, f in free[0] if type(block) is _Block else ():\n",
        (TEST_SEMANTICS,),
    ),
    # Global consequence sweeps each conclusion below the lowest lane that
    # an earlier one failed at, and keeps that failure if it finds none.
    Mutant(
        "global-later-conclusions-unlimited", SEMANTICS,
        "            live &= (1 << found[0] * block.n) - 1\n",
        "",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "global-conclusion-overrides-earlier", SEMANTICS,
        "        found = _sweep(block, f, (), (p,), False, live, pos) or found\n",
        "        found = _sweep(block, f, (), (p,), False, live, pos)\n",
        (TEST_SEMANTICS,),
    ),
    # A generated `model.Suite`, held as its runs' tables of masks: the
    # exhaustive runs from a cached table, the samples' drawn in bulk from
    # the stream's words; structure k read from its lane of its run.
    Mutant(
        "suite-digits-reversed", MODEL,
        "                   for s in range(size * (digits - 1), -1, -size)]\n",
        "                   for s in range(0, size * digits, size)]\n",
        (TEST_MODEL,),
    ),
    Mutant(
        "grid-digits-reversed", MODEL,
        "        columns = forced + columns[:cells] + ",
        "        columns = forced + columns[:cells][::-1] + ",
        (TEST_MODEL,),
    ),
    Mutant(
        "twin-skipped-at-its-own-position", MODEL,
        "keep = list(map(operator.ge, images, range(count)))",
        "keep = list(map(operator.gt, images, range(count)))",
        (TEST_MODEL,),
    ),
    Mutant(
        "runs-give-twins-lanes", MODEL,
        "        yield from self._lanes\n",
        "        yield from self._tables\n",
        (TEST_MODEL,),
    ),
    Mutant(
        "lane-read-from-the-next-run", MODEL,
        "    return run[0][-1]\n",
        "    return run[0][0]\n",
        (TEST_MODEL,),
    ),
    Mutant(
        "lane-index-off-by-one", MODEL,
        "lane, size = k + 1 - marks[0], ",
        "lane, size = k - marks[0], ",
        (TEST_MODEL,),
    ),
    Mutant(
        "exhaustive-build-searches-the-samples", MODEL,
        "        runs = self._tables if k < self._first_sample else self._samples()\n",
        "        runs = self._tables + self._samples()\n",
        (TEST_MODEL,),
    ),
    Mutant(
        "sample-constants-before-cells", MODEL,
        "            if defined:\n                # def holds",
        "            first = len(names)\n"
        "            values = values[first:first + cells] + values[:first] + values[first + cells:]\n"
        "            if defined:\n                # def holds",
        (TEST_MODEL,),
    ),
    Mutant(
        "defined-row-packed-empty", MODEL,
        "forced = [bytes([(1 << size) - 1]) * count]",
        "forced = [bytes(count)]",
        (TEST_MODEL, TEST_SEMANTICS),
    ),
    Mutant(
        "low-bits-of-each-word", MODEL,
        "tops, planes, wide, p = buf[3::4], {}, None, 0\n",
        "tops, planes, wide, p = buf[::4], {}, None, 0\n",
        (TEST_MODEL,),
    ),
    Mutant(
        "sample-column-stride-off-by-one", MODEL,
        "table[t::stride]",
        "table[t::stride + 1]",
        (TEST_MODEL,),
    ),
    Mutant(
        "def-without-the-first-element", MODEL,
        "= 1 | values[-1]",
        "= values[-1]",
        (TEST_MODEL,),
    ),
    Mutant(
        "rejection-bound-inclusive", MODEL,
        "    bound = below << drop",
        "    bound = below + 1 << drop",
        (TEST_MODEL,),
    ),
    Mutant(
        "leftover-words-dropped-at-refill", MODEL,
        "buf = buf[4 * p:] + rng.getrandbits(",
        "buf = rng.getrandbits(",
        (TEST_MODEL,),
    ),
    Mutant(
        "byte-plane-shift-off-by-one", MODEL,
        "bytes(b >> 8 - size for b in range(256))",
        "bytes(b >> 7 - size for b in range(256))",
        (TEST_MODEL,),
    ),
    Mutant(
        "wide-sample-read-from-the-top-byte", MODEL,
        "[w >> 32 - size for w in wide[p:q]]",
        "[b << size - 8 for b in tops[p:q]]",
        (TEST_MODEL,),
    ),
    Mutant(
        "one-layout-for-every-suite", SEMANTICS,
        "            layout = suite.layout = _Layout(suite)\n",
        "            layout = suite.layout = consequence.__dict__.setdefault(\"layout\", _Layout(suite))\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "refutation-one-past-its-mark", SEMANTICS,
        "    structure = items[mark - 1]\n",
        "    structure = items[mark]\n",
        (TEST_SEMANTICS,),
    ),
    # The layout: only the suite's first structure is a block alone; every
    # other run is one block, the first from its second structure.
    Mutant(
        "every-run-starts-at-one-lane", SEMANTICS,
        "            cut = 0\n",
        "",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "first-structure-in-a-block-of-eight", SEMANTICS,
        "        cut = 1  # the suite's first structure is a block alone\n",
        "        cut = 0\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "run-block-drops-its-last-lane", SEMANTICS,
        "            for lo, hi in ((0, cut), (cut, len(marks))):\n",
        "            for lo, hi in ((0, cut), (cut, len(marks) - 1)):\n",
        (TEST_SEMANTICS,),
    ),
    # Every block is decided first.  A kept layout's block is then checked
    # as far as the decision read it, up to its refuted structure, or whole
    # if it holds or raises; a block that raises is decided lane by lane.
    Mutant(
        "kept-check-skipped-after-a-hold", SEMANTICS,
        "        if check and not _same(items, layout.items, seen, end):\n",
        "        if check and (found or raised) and not _same(items, layout.items, seen, end):\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "refuted-span-unchecked", SEMANTICS,
        "        if check and not _same(items, layout.items, seen, end):\n",
        "        if check and not found and not _same(items, layout.items, seen, end):\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "raised-block-not-checked", SEMANTICS,
        "        if check and not _same(items, layout.items, seen, end):\n",
        "        if check and not raised and not _same(items, layout.items, seen, end):\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "raised-block-reraised", SEMANTICS,
        "        except UnassignedConstant:\n            found, raised = None, True\n",
        "        except UnassignedConstant:\n            raise\n",
        (TEST_SEMANTICS,),
    ),
    # Earlier fast paths: fixpoints, falsum, lane blocks, layout reuse and
    # symmetry.
    Mutant(
        "kleene-on-every-body", SEMANTICS,
        "    if positive:\n",
        "    if True:\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "subsets-in-reverse-order", SEMANTICS,
        "            for x in itertools.product(block.subset_masks, repeat=len(s_list))\n",
        "            for x in itertools.product(block.subset_masks[::-1], repeat=len(s_list))\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "block-apply-ignores-the-right-value", SEMANTICS,
        "out |= mine & theirs & cell",
        "out |= mine & cell",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "lanes-carry-misses-the-top-bit", SEMANTICS,
        "((x & low) + low | x)",
        "((x & low) + low)",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "layout-identity-by-equality", SEMANTICS,
        "        return suite[lo] is items[lo]\n",
        "        return suite[lo] == items[lo]\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "sweep-end-unchecked", SEMANTICS,
        "    end = len(items)\n"
        "    if check and not _same(items, layout.items, seen, end):\n"
        "        return None\n",
        "    end = len(items)\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "lane-count-never-advanced", SEMANTICS,
        "        given += len(marks)\n",
        "",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "slot-never-filled", SEMANTICS,
        "    if kept:\n        _kept[:] = [layout]\n",
        "    if False:\n        _kept[:] = [layout]\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "slot-filled-by-a-generator", SEMANTICS,
        "    if kept:\n        _kept[:] = [layout]\n",
        "    if True:\n        _kept[:] = [layout]\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "skip-count-off-by-one", SEMANTICS,
        "        _NOTES[kind], mark - given - 1,\n",
        "        _NOTES[kind], mark - given,\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "falsum-only-canonical", SEMANTICS,
        "        elif type(q) is Mu and type(q.body) is SVar and q.body.index == q.var:\n",
        "        elif type(q) is Mu and type(q.body) is SVar and q.var == 0 == q.body.index:\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "kept-layout-reused-at-another-length", SEMANTICS,
        "    if layout is not None and len(layout.items) == len(suite):\n",
        "    if layout is not None:\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "swap-image-cells-not-reversed", MODEL,
        "        images = [i | s << 2 * t for i in images for s in swap]\n",
        "        images = [i | s << 2 * (3 - t) for i in images for s in swap]\n",
        (TEST_MODEL, TEST_SEMANTICS),
    ),
    Mutant(
        "swap-image-constants-not-swapped", MODEL,
        "        images = [i << 2 | s for i in images for s in swap]\n",
        "        images = [i << 2 | s for i in images for s in range(4)]\n",
        (TEST_MODEL,),
    ),
    # The syntax layer: nodes built through their slots, and the sugar
    # lexer and parser.
    Mutant(
        "node-fields-written-swapped", SYNTAX,
        '    body = "".join(f"\\n    _set_{n}(self, {n})" for n in names)\n',
        '    body = "".join(f"\\n    _set_{n}(self, {m})" for n, m in zip(names, names[::-1]))\n',
        (TEST_SYNTAX,),
    ),
    Mutant(
        "lexer-skips-stray-characters", SUGAR,
        '    if "".join(toks) != "".join(text.split()):\n',
        "    if False:\n",
        (TEST_SUGAR,),
    ),
    Mutant(
        "leaf-table-keyed-by-prefix", SUGAR,
        "        self.leaves[t] = leaf\n",
        "        self.leaves[t[:2]] = leaf\n",
        (TEST_SUGAR,),
    ),
    Mutant(
        "take-reads-past-the-end", SUGAR,
        "        if t is None:\n"
        '            raise ArityError("input ended inside a pattern")\n',
        "",
        (TEST_SUGAR,),
    ),
    # The sugar parser climbs one precedence table, and the renderer
    # derives its binary shapes from the same table.
    Mutant(
        "non-chaining-operator-chains", SUGAR,
        "            most = level if op in _LEFT else level - 1\n",
        "            most = level\n",
        (TEST_SUGAR,),
    ),
    Mutant(
        "implication-folded-left", SUGAR,
        "                acc = operands.pop()\n"
        "                while operands:\n"
        "                    acc = Imp(operands.pop(), acc)\n",
        "                acc = operands.pop(0)\n"
        "                while operands:\n"
        "                    acc = Imp(acc, operands.pop(0))\n",
        (TEST_SUGAR,),
    ),
    Mutant(
        "right-operand-at-its-own-level", SUGAR,
        "            right = self.pattern(level + 1)\n",
        "            right = self.pattern(level)\n",
        (TEST_SUGAR,),
    ),
    Mutant(
        "equality-without-its-def-check", SUGAR,
        '            if op == "=" or op == "in":\n',
        '            if op == "in":\n',
        (TEST_SUGAR,),
    ),
    Mutant(
        "render-right-operand-at-own-level", SUGAR,
        'level + (op != "->"))',
        "level)",
        (TEST_SUGAR,),
    ),
    # The frontend walks: the one-loop core parser, the free variables
    # walk, shared subtrees in substitution, the postfix tautology program
    # and the one-list sugar renderer.
    Mutant(
        "core-depth-limit-one-short", SYNTAX,
        "        if len(ops) > MAX_DEPTH:\n",
        "        if len(ops) >= MAX_DEPTH:\n",
        (TEST_SYNTAX,),
    ),
    Mutant(
        "core-leaves-keyed-without-case", SYNTAX,
        "            leaves[t] = p\n",
        "            leaves[t.lower()] = p\n",
        (TEST_SYNTAX,),
    ),
    Mutant(
        "free-vars-unbound-under-exists", SYNTAX,
        "        bound = be if t is Exists else bs\n",
        "        bound = [] if t is Exists else bs\n",
        (TEST_SYNTAX,),
    ),
    Mutant(
        "subst-shares-on-an-unchanged-left", SUBSTITUTION,
        "        right = subst_free(phi.right, v, delta)\n"
        "        return phi if left is phi.left and right is phi.right else t(left, right)\n",
        "        right = subst_free(phi.right, v, delta)\n"
        "        return phi if left is phi.left else t(left, right)\n",
        (TEST_SUBSTITUTION,),
    ),
    Mutant(
        "postfix-implication-swapped", SEMANTICS,
        "            stack[-1] = full ^ stack[-1] | right\n",
        "            stack[-1] = full ^ right | stack[-1]\n",
        (TEST_SEMANTICS,),
    ),
    Mutant(
        "render-tail-kept-inside-parentheses", SUGAR,
        "        out.append(\"(\")\n        tail = True\n",
        "        out.append(\"(\")\n",
        (TEST_SUGAR,),
    ),
    # Substitution: `is_free_for` in one walk carrying a captured flag, and
    # the clashes that `subst_capture_avoiding` renames.
    Mutant(
        "captured-flag-lost-below-a-binder", SUBSTITUTION,
        "phi.body, captured or phi.var in delta_e)",
        "phi.body, phi.var in delta_e)",
        (TEST_SUBSTITUTION,),
    ),
    Mutant(
        "only-free-vars-of-delta-clash", SUBSTITUTION,
        "    occ_e, occ_s = delta_e | delta_bound_e, delta_s | delta_bound_s\n",
        "    occ_e, occ_s = delta_e, delta_s\n",
        (TEST_SUBSTITUTION,),
    ),
    # The command line's option table and its fast reader, which argparse,
    # built from the same table, checks.
    Mutant(
        "command-rows-swapped", CLI,
        '    "eval": _Command("evaluate patterns in one structure", _cmd_eval,\n',
        '    "eval": _Command("evaluate patterns in one structure", _cmd_check,\n',
        (TEST_CLI,),
    ),
    Mutant(
        "command-help-left-out", CLI,
        '    "taut": _Command("propositional tautology test", _cmd_taut, *_PATTERNS, _FILE),\n',
        '    "taut": _Command(None, _cmd_taut, *_PATTERNS, _FILE),\n',
        (TEST_CLI,),
    ),
    Mutant(
        "switch-read-as-taking-a-value", CLI,
        '        if option.kind == "switch":\n            value = True\n',
        '        if option.kind is None:\n            value = True\n',
        (TEST_CLI,),
    ),
    Mutant(
        "reader-default-left-out", CLI,
        "        self.defaults = {o.dest: o.default for o in self.flags.values()}\n",
        "        self.defaults = {o.dest: o.default for o in self.flags.values() if o.default}\n",
        (TEST_CLI,),
    ),
    Mutant(
        "reader-check-skipped", CLI,
        "        value = option.check(text) if option.check else text\n",
        "        value = int(text) if option.check else text\n",
        (TEST_CLI,),
    ),
    Mutant(
        "reader-takes-an-abbreviation", CLI,
        "        option = command.flags.get(arg)\n",
        "        option = command.flags.get(arg) or next(\n"
        "            (o for f, o in command.flags.items() if arg[:2] == \"--\" and f.startswith(arg)), None\n"
        "        )\n",
        (TEST_CLI,),
    ),
    Mutant(
        "reader-repeat-first-wins", CLI,
        "        elif arg in given:\n            return None\n",
        "        elif arg in given:\n            continue\n",
        (TEST_CLI,),
    ),
    # The command line's one report path: text streamed through `say`, the
    # document printed by `main`, counterexample files before their lines.
    Mutant(
        "say-printed-under-json", CLI,
        "        code, doc = args.fn(args, _quiet if as_json else print)\n",
        "        code, doc = args.fn(args, print)\n",
        (TEST_CLI,),
    ),
    Mutant(
        "proof-report-said-before-the-audit", CLI,
        "    audit = audit_soundness(script, _suite(args, sig)[0], report) if args.audit else None\n"
        "    say(format_report(report))\n",
        "    say(format_report(report))\n"
        "    audit = audit_soundness(script, _suite(args, sig)[0], report) if args.audit else None\n",
        (TEST_CLI,),
    ),
    Mutant(
        "every-check-failure-written", CLI,
        "        if all_valid and not verdict.holds:\n",
        "        if not verdict.holds:\n",
        (TEST_CLI,),
    ),
    Mutant(
        "consequence-header-before-its-files", CLI,
        _CONSEQUENCE_FILES + _CONSEQUENCE_HEADER,
        _CONSEQUENCE_HEADER + _CONSEQUENCE_FILES,
        (TEST_CLI,),
    ),
]


def pytest(tests: tuple[str, ...], src: Path, tmp: str, timeout: float | None = None) -> int:
    """The exit code of ``tests`` run on the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / "hyp"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout,
    ).returncode


def limit(tests: tuple[str, ...]) -> float:
    """Three times what ``tests`` take on ``src/`` as it is, plus 30 s;
    exits if they fail there."""
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        if pytest(tests, ROOT / "src", tmp):
            raise SystemExit(f"{' '.join(tests)} fail without a mutant")
    return 3 * (time.perf_counter() - t0) + 30


def run(mutant: Mutant, timeout: float) -> str:
    """``killed``, ``timed out`` (which counts as killed), ``survived`` or
    ``stale``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new))
        try:
            code = pytest(mutant.tests, src, tmp, timeout)
        except subprocess.TimeoutExpired:
            return "timed out"
    return "survived" if code == 0 else "killed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="run only these mutants")
    args = ap.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    start = time.perf_counter()
    limits = {tests: limit(tests) for tests in dict.fromkeys(m.tests for m in chosen)}
    bad = 0
    for m in chosen:
        t0 = time.perf_counter()
        outcome = run(m, limits[m.tests])
        bad += outcome not in ("killed", "timed out")
        print(f"{m.name:<36} {outcome:<9} {time.perf_counter() - t0:6.1f} s  {' '.join(m.tests)}",
              flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
