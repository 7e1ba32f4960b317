"""The benchmark's three workloads: inputs, the timed op, and its checks.

Each workload is built from the checkout root and a seed, and its set-up
builds `ops`, the list of inputs, a pure function of the seed.  The kinds of
op and the shape of their inputs are laid out the same for every seed; the
seed draws the details.  `run(op)` is the only timed call.  `check(op, out)`
runs after the pass, outside the timed ops, and `verdict(op, out)` sorts an
op into ``holds`` or ``fails``.

The library is reached through module attributes at call time
(``self.semantics.consequence``), so the tracer's rebinding applies.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import aml.cli
import aml.model
import aml.proof
import aml.semantics
import aml.substitution
import aml.sugar
import aml.syntax
from aml.syntax import Appl, Const, EVar, Exists, Imp, Mu, SVar

import oracle

BOT = Mu(0, SVar(0))
KINDS = ("global", "local", "strong")
EXPECT = re.compile(r"# expect-reject: (\d+) ([a-z.-]+)")


def _rng(seed: int, r: int) -> random.Random:
    return random.Random(seed * 1_000_003 + r)


@dataclass(frozen=True)
class Script:
    name: str
    path: Path
    text: str
    expect: tuple | None  # (line, reason code) for a rejected script


def read_corpus(root: Path) -> list[Script]:
    out = []
    for folder in ("positive", "negative"):
        for path in sorted((root / "corpus" / "proofs" / folder).glob("*.prf")):
            text = path.read_text()
            expect = None
            if folder == "negative":
                m = EXPECT.search(text)
                if m is None:
                    raise ValueError(f"{path.name}: no expect-reject header")
                expect = (int(m.group(1)), m.group(2))
            out.append(Script(path.name, path, text, expect))
    return out


def _rejections(lines) -> dict:
    return {v["number"]: v["code"] for v in lines if not v["ok"]}


# ---------------------------------------------------------------------------
# corpus-audit: the shipped user job, one CLI call per corpus script.


class CorpusAudit:
    """One op is ``aml proof check --audit --json`` on one corpus script,
    in-process; the ops are the corpus in a seeded order."""

    SUITE = ("--max-size", "3", "--samples", "200")

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.cli = aml.cli
        self.scripts = read_corpus(root)
        self.argv = [
            "proof", "check", "--audit", "--json",
            "--sig", str(root / "corpus" / "sig.txt"),
            *self.SUITE, "--seed", str(seed),
            "--out", str(root / "perfbench" / "out" / "counterexamples"),
        ]
        self.ops = list(self.scripts)
        _rng(seed, 0).shuffle(self.ops)

    def run(self, script: Script):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([*self.argv, str(script.path)])
        return code, out.getvalue()

    def check(self, script: Script, out) -> bool:
        code, text = out
        doc = json.loads(text)
        audit = doc["audit"]
        ok_lines = sum(1 for v in doc["lines"] if v["ok"])
        if audit["violations"] or audit["lines_audited"] != ok_lines:
            return False
        if script.expect is None:
            return code == 0 and doc["result"] == "accepted" and ok_lines == len(doc["lines"])
        return (
            code == 1
            and doc["result"] == "rejected"
            and _rejections(doc["lines"]) == {script.expect[0]: script.expect[1]}
        )

    def verdict(self, script: Script, out) -> str:
        return "holds" if json.loads(out[1])["result"] == "accepted" else "fails"


# ---------------------------------------------------------------------------
# Random patterns shared by the generators.

E_LEAVES = (EVar(0), EVar(1))
S_LEAF = SVar(0)
C_LEAF = Const("c")


def small(rng: random.Random, size: int, leaves, exists: float = 0.15) -> object:
    """A pattern of about ``size`` nodes over ``leaves`` that binds only x2
    (each inner node with probability ``exists``), so that substituting for
    x0, x1 or X0 never captures."""
    if size <= 1:
        return rng.choice(leaves)
    if rng.random() < exists:
        return Exists(2, small(rng, size - 1, leaves + (EVar(2),), exists))
    k = rng.randint(1, size - 1)
    node = Appl if rng.random() < 0.5 else Imp
    return node(small(rng, k, leaves, exists), small(rng, size - k, leaves, exists))


def positive(rng: random.Random, size: int, leaves, var: int, negated=False) -> object:
    """A binder-free pattern in which ``X<var>`` occurs only positively."""
    if size <= 1:
        pool = leaves if negated else leaves + (SVar(var),)
        return rng.choice(pool)
    k = rng.randint(1, size - 1)
    if rng.random() < 0.5:
        return Appl(positive(rng, k, leaves, var, negated), positive(rng, size - k, leaves, var, negated))
    return Imp(
        positive(rng, k, leaves, var, not negated),
        positive(rng, size - k, leaves, var, negated),
    )


def substitute(p, old, new):
    """Plain replacement of every occurrence of the leaf ``old``; callers
    only use it where ``old`` is never bound and ``new`` cannot be captured."""
    if p == old:
        return new
    if isinstance(p, (Appl, Imp)):
        return type(p)(substitute(p.left, old, new), substitute(p.right, old, new))
    if isinstance(p, (Exists, Mu)):
        return type(p)(p.var, substitute(p.body, old, new))
    return p


def neg(p):
    return Imp(p, BOT)


def or_(a, b):
    return Imp(neg(a), b)


# ---------------------------------------------------------------------------
# consequence-mix: the library-level decision procedure.


@dataclass(frozen=True)
class Query:
    kind: str
    gamma: tuple
    delta: tuple
    scheme: str | None  # name of the sound scheme, None for a random query


SCHEMES = {
    "strong": ("k", "s", "dneg", "mp", "bot-l", "or-l", "exists", "prefix"),
    "local": ("frame", "kt"),
    "global": ("gen", "subst"),
}
SOUND_AT = {"strong": ("strong",), "local": ("strong", "local"), "global": ("strong", "local", "global")}


# Free variables each scheme slot draws from, assigned to the slots in
# rotation.  Valuations per structure grow with every free variable
# (16 for all three on two elements), so the plans spread the holds
# latencies; the middle plan is doubled so that their median falls inside
# one plan's mass rather than between two.
PLANS = (
    (C_LEAF,),
    (EVar(0), C_LEAF),
    (EVar(0), S_LEAF, C_LEAF),
    (EVar(0), S_LEAF, C_LEAF),
    (EVar(0), EVar(1), S_LEAF, C_LEAF),
)


def scheme(rng: random.Random, name: str, leaves):
    """``(gamma, delta)`` of the sound scheme ``name``, instantiated with
    small random patterns over ``leaves`` (some of x0, x1, X0 and c).
    Draws again, up to 20 times, until the instance's free variables are
    exactly those among ``leaves``, which fixes its valuations per structure."""
    want = (
        {p.index for p in leaves if isinstance(p, EVar)},
        {p.index for p in leaves if isinstance(p, SVar)},
    )
    for _ in range(20):
        gamma, delta = _instance(rng, name, leaves)
        fe, fs = set(), set()
        for p in gamma + delta:
            e, x = oracle.free_vars(p)
            fe |= e
            fs |= x
        if (fe, fs) == want:
            break
    return gamma, delta


def _instance(rng: random.Random, name: str, leaves):
    no_sets = tuple(p for p in leaves if not isinstance(p, SVar))
    # No binders in the fillers: an existential multiplies the cost of a
    # sweep by the universe size, and the schemes' own binders suffice.
    phi, psi, chi = (small(rng, 2, leaves, 0) for _ in range(3))
    body = positive(rng, 3, no_sets, 1)
    no_x0 = small(rng, 2, tuple(p for p in leaves if p != EVar(0)), 0)
    no_x1 = small(rng, 2, tuple(p for p in leaves if p != EVar(1)), 0)
    instances = {
        "k": ((), (Imp(phi, Imp(psi, phi)),)),
        "s": ((), (Imp(Imp(phi, Imp(psi, chi)), Imp(Imp(phi, psi), Imp(phi, chi))),)),
        "dneg": ((), (Imp(neg(neg(phi)), phi),)),
        "mp": ((phi, Imp(phi, psi)), (psi,)),
        "bot-l": ((), (Imp(Appl(BOT, phi), BOT),)),
        "or-l": ((), (Imp(Appl(or_(phi, psi), chi), or_(Appl(phi, chi), Appl(psi, chi))),)),
        "exists": ((), (Imp(substitute(no_x1, EVar(0), EVar(1)), Exists(0, no_x1)),)),
        "prefix": ((), (Imp(substitute(body, SVar(1), Mu(1, body)), Mu(1, body)),)),
        "frame": ((Imp(phi, psi),), (Imp(Appl(phi, chi), Appl(psi, chi)),)),
        "kt": ((Imp(substitute(body, SVar(1), no_x0), no_x0),), (Imp(Mu(1, body), no_x0),)),
        "gen": ((Imp(phi, no_x0),), (Imp(Exists(0, phi), no_x0),)),
        "subst": ((phi,), (substitute(phi, S_LEAF, psi),)),
    }
    return instances[name]


class ConsequenceMix:
    """One op is one ``semantics.consequence`` call over a suite built in
    set-up.  The ops hold every sound scheme once at every kind where it is
    sound (they hold, so they sweep the whole suite) and sixteen times as many
    random queries, kinds in rotation.  Each random query is refuted by the
    first structure or, for three in ten, by a later one among the first
    REFUTED_BY, so it fails early.  Fails are then most of the ops and the
    median op sits well inside them.

    The scheme instances come from a fixed stream, the same for every seed:
    what a sweep costs varies so much with the random fillers that a median
    over thirty sweeps would differ from seed to seed by more than any
    change worth measuring.  The seed draws the random queries, the order
    of the ops and the sampled structures of the suite."""

    SAMPLES = 40
    RANDOM_PER_SCHEME = 16
    REFUTED_BY = 64

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.semantics = aml.semantics
        sig = aml.syntax.load_signature(root / "corpus" / "sig.txt")
        self.suite = list(aml.model.enumerate_structures(sig, 3, seed=seed, samples=self.SAMPLES))
        self.ops = self._ops()

    def _ops(self) -> list[Query]:
        rng = _rng(self.seed, 0)
        fixed = random.Random(0)
        queues = {kind: [] for kind in KINDS}
        slot = 0
        for kind in KINDS:
            for level in SOUND_AT[kind]:
                for name in SCHEMES[level]:
                    gamma, delta = scheme(fixed, name, PLANS[slot % len(PLANS)])
                    queues[kind].append(Query(kind, gamma, delta, name))
                    slot += 1
        count = self.RANDOM_PER_SCHEME * sum(len(q) for q in queues.values())
        full = E_LEAVES + (S_LEAF, C_LEAF)
        for i in range(count):
            kind = KINDS[i % 3]
            by = 0 if rng.random() < 0.7 else rng.randrange(1, self.REFUTED_BY)
            while True:
                gamma = tuple(small(rng, rng.randint(1, 5), full) for _ in range(rng.randint(0, 1)))
                delta = (small(rng, rng.randint(1, 6), full),)
                if oracle.refuted_in(kind, gamma, delta, self.suite[by]):
                    break
            queues[kind].append(Query(kind, gamma, delta, None))
        for q in queues.values():
            rng.shuffle(q)
        out = []
        while any(queues.values()):
            for kind in KINDS:
                if queues[kind]:
                    out.append(queues[kind].pop())
        return out

    def run(self, q: Query):
        return self.semantics.consequence(q.kind, q.gamma, q.delta, self.suite)

    def check(self, q: Query, v) -> bool:
        if v.holds:
            if v.structures_checked != len(self.suite):
                return False
            return q.scheme is not None or not any(
                oracle.refuted_in(q.kind, q.gamma, q.delta, s) for s in self.suite
            )
        if q.scheme is not None:
            return False
        at = v.structures_checked - 1
        return (
            v.structure is self.suite[at]
            and v.pattern in q.delta
            and oracle.counterexample(
                q.kind, q.gamma, v.structure, dict(v.valuation.element), dict(v.valuation.sets), v.pattern,
            )
            and not any(
                oracle.refuted_in(q.kind, q.gamma, q.delta, s) for s in self.suite[:at]
            )
        )

    def verdict(self, q: Query, v) -> str:
        return "holds" if v.holds else "fails"


# ---------------------------------------------------------------------------
# frontend: parsing, rendering, variable analyses, substitution, tautology
# and proof checking, with no structure evaluation.


def atom(rng: random.Random, size: int):
    """A pattern of about ``size`` nodes whose root is not an implication
    (a propositional atom), over the full core grammar."""
    leaves = (EVar(0), EVar(1), EVar(2), SVar(0), SVar(1), C_LEAF)
    if size <= 1:
        return rng.choice(leaves)
    roll = rng.random()
    if roll < 0.2:
        return Exists(rng.randrange(3), any_pattern(rng, size - 1))
    if roll < 0.35:
        var = rng.randrange(2)
        body = any_pattern(rng, size - 1)
        return Mu(var, body) if body != SVar(var) else Mu(var, Appl(body, body))
    k = rng.randint(1, size - 1)
    return Appl(any_pattern(rng, k), any_pattern(rng, size - k))


def any_pattern(rng: random.Random, size: int):
    if size >= 3 and rng.random() < 0.3:
        k = rng.randint(1, size - 2)
        return Imp(any_pattern(rng, k), any_pattern(rng, size - 1 - k))
    return atom(rng, size)


def skeleton(rng: random.Random, atoms: list, leaves: int):
    """An implication tree with ``leaves`` leaves drawn from ``atoms`` (each
    atom used at least once when there are enough leaves) and falsum."""
    picks = list(atoms) + [rng.choice(atoms + [BOT]) for _ in range(max(0, leaves - len(atoms)))]
    rng.shuffle(picks)
    while len(picks) > 1:
        i = rng.randrange(len(picks) - 1)
        picks[i:i + 2] = [Imp(picks[i], picks[i + 1])]
    return picks[0]


@dataclass(frozen=True)
class PatternOp:
    pattern: object
    var: tuple  # ("element" | "set", index) to substitute for
    delta: object
    tautology: bool  # a tautology by construction


@dataclass(frozen=True)
class ProofOp:
    script: Script
    extensions: tuple  # (line, form) pairs applied with derived_taut_equiv


TAUT_EQUIV = {
    "dneg": lambda p: neg(neg(p)),
    "or-self": lambda p: or_(p, p),
    "top-imp": lambda p: Imp(Imp(BOT, BOT), p),
}


class Frontend:
    """The ops are ``ROUNDS`` rounds.  A round is 150 seeded patterns plus
    every corpus script checked as shipped and every accepted script
    lengthened by derived_taut_equiv."""

    PATTERNS = 150
    ROUNDS = 8

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.syntax, self.sugar = aml.syntax, aml.sugar
        self.substitution, self.semantics, self.proof = aml.substitution, aml.semantics, aml.proof
        self.sig = aml.syntax.load_signature(root / "corpus" / "sig.txt")
        self.scripts = read_corpus(root)
        self.lines = {
            s.name: len(re.findall(r"(?m)^\s*\d+\s*:", s.text))
            for s in self.scripts
            if s.expect is None
        }
        self.ops = [op for r in range(self.ROUNDS) for op in self._round(r)]

    def _pattern(self, rng: random.Random, j: int) -> PatternOp:
        """Pattern ``j``: 5 to 200 tokens over 1 to 12 skeleton atoms, half
        of them tautologies by construction so that the whole truth table
        runs, the other half not tautologies.  The atom count, the verdict,
        the shape of a tautology and which quarter of the token range the
        pattern is drawn from go through every combination in turn, so that
        every seed has the same mix of costs."""
        n_atoms = 1 + j % 12
        taut = (j // 12) % 2 == 0
        shape = (j // 24) % 3
        low = max(5, 2 * n_atoms)
        quarter = (j // 72) % 4
        while True:
            tokens = rng.randint(low + quarter * (200 - low) // 4, low + (quarter + 1) * (200 - low) // 4)
            share = max(3, tokens // (n_atoms * (3 if taut else 2)))
            atoms = []
            while len(atoms) < n_atoms:
                a = atom(rng, rng.randint(1, share))
                if a not in atoms:
                    atoms.append(a)
            if taut:
                f = skeleton(rng, atoms, n_atoms + rng.randrange(3))
                g = skeleton(rng, atoms[: rng.randint(1, n_atoms)], rng.randint(1, 3))
                p = (
                    Imp(f, Imp(g, f)) if shape == 0
                    else Imp(neg(f), Imp(f, g)) if shape == 1
                    else Imp(Imp(Imp(f, g), f), f)
                )
            else:
                p = skeleton(rng, atoms, n_atoms + rng.randrange(4))
            if 5 <= oracle.token_count(p) <= 200 and (taut or not oracle.tautology(p)):
                break
        var = (rng.choice(("element", "set")), rng.randrange(3))
        return PatternOp(p, var, any_pattern(rng, rng.randint(1, 6)), taut)

    def _extension(self, rng: random.Random, script: Script, count: int) -> ProofOp:
        n = self.lines[script.name]
        ext = []
        for _ in range(count):
            ext.append((rng.randint(1, n), rng.choice(sorted(TAUT_EQUIV))))
            n += 4
        return ProofOp(script, tuple(ext))

    def _round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        ops = [self._pattern(rng, r * self.PATTERNS + k) for k in range(self.PATTERNS)]
        ops += [ProofOp(s, ()) for s in self.scripts]
        accepted = [s for s in self.scripts if s.expect is None]
        # One to four extensions, in turn over scripts and rounds.
        ops += [self._extension(rng, s, 1 + (r + k) % 4) for k, s in enumerate(accepted)]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        if isinstance(op, ProofOp):
            proof = self.proof
            script = proof.parse_proof(op.script.text, self.sig)
            for line, form in op.extensions:
                replacement = TAUT_EQUIV[form](script.lines[line - 1].pattern)
                script = proof.derived_taut_equiv(script, line, replacement)
            return proof.check_proof(script)
        syntax, sugar, p = self.syntax, self.sugar, op.pattern
        core = syntax.parse_core(syntax.render_core(p), self.sig)
        sug = sugar.parse_sugar(sugar.render_sugar(p), self.sig)
        fv = syntax.free_vars(p)
        kinds = syntax.occurrence_kinds(p)
        polarity = {i: syntax.is_positive_in(p, i) for i in sorted(fv[1])}
        ref = aml.substitution.VarRef(*op.var)
        sub = self.substitution.subst_capture_avoiding(p, ref, op.delta)
        return core, sug, fv, len(kinds), polarity, sub, self.semantics.is_tautology(p)

    def check(self, op, out) -> bool:
        if isinstance(op, ProofOp):
            expect = op.script.expect
            if expect is None:
                return out.ok and len(out.verdicts) == self.lines[op.script.name] + 4 * len(op.extensions)
            return not out.ok and {
                v.number: v.code for v in out.verdicts if not v.ok
            } == {expect[0]: expect[1]}
        core, sug, fv, n_kinds, polarity, sub, taut = out
        p = op.pattern
        fe, fs = oracle.free_vars(p)
        kind, index = op.var
        free = (fe if kind == "element" else fs)
        if index in free:
            de, ds = oracle.free_vars(op.delta)
            want = (fe - {index} | de, fs | ds) if kind == "element" else (fe | de, fs - {index} | ds)
            sub_ok = oracle.free_vars(sub) == want
        else:
            sub_ok = sub == p
        return (
            core == p
            and sug == p
            and fv == (fe, fs)
            and n_kinds == oracle.token_count(p)
            and polarity == {i: oracle.positive_in(p, i) for i in sorted(fs)}
            and sub_ok
            and taut == (op.tautology or oracle.tautology(p))
        )

    def verdict(self, op, out) -> str | None:
        """The tautology verdict of a pattern; a proof check has none, so
        that the two medians each stay within one kind of op."""
        if isinstance(op, ProofOp):
            return None
        return "holds" if out[-1] else "fails"


WORKLOADS = {"corpus-audit": CorpusAudit, "consequence-mix": ConsequenceMix, "frontend": Frontend}
