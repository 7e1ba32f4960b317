"""Acceptance suite: one test per shipped guarantee, each printing a single
summary line and enforcing its own runtime budget.

Every numbered test is self-contained: it builds its own inputs, runs the
full workload, and fails loudly with context if any single check breaks.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

import oracles
from oracles import exact_gfp, exact_lfp, is_monotone, kleene_lfp, kt_gfp, kt_lfp
from aml.context import ApplL, ApplR, Box, plug
from aml.model import (
    Structure,
    SuiteSpec,
    Valuation,
    apply_sets,
    structure_to_doc,
    subsets_of,
    validate_structure,
)
from aml.proof import (
    AXIOM_KINDS,
    RULE_KINDS,
    audit_soundness,
    check_proof,
    format_audit,
    format_report,
    parse_proof,
)
from aml.semantics import (
    consequence,
    evaluate,
    is_predicate,
    is_tautology,
    models,
    satisfies,
)
from aml.substitution import (
    VarRef,
    is_free_for,
    subst_bound,
    subst_capture_avoiding,
    subst_free,
)
from aml.sugar import (
    BOT,
    TOP,
    and_,
    ceil,
    eq,
    floor,
    forall,
    iff,
    mem,
    neg,
    nu,
    or_,
    parse_core,
    parse_sugar,
    render_core,
    render_sugar,
)
from aml.syntax import (
    Appl,
    Const,
    EVar,
    Exists,
    Imp,
    Mu,
    SVar,
    Signature,
    binary_scopes,
    binder_scope,
    free_vars,
    is_negative_in,
    is_positive_in,
    load_signature,
    n_left,
    token_len,
    tokens,
)

SIG2 = Signature(("c", "d"))
C, D = Const("c"), Const("d")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def report(number, label, passed, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    word = "PASS" if passed else "FAIL"
    print(f"criterion {number} ({label}): {word} - {detail} [{elapsed:.1f}s]")
    assert passed, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def seeded_valuation(rng, structure, evars=3, svars=3):
    u = structure.universe
    pool = list(subsets_of(u))
    return Valuation(
        {i: rng.choice(u) for i in range(evars)},
        {i: rng.choice(pool) for i in range(svars)},
    )


def test_criterion_1_unique_readability():
    t0 = time.perf_counter()
    rng = random.Random(11)
    kept = []
    while len(kept) < 10_000:
        p = oracles.random_pattern(rng, SIG2, max_depth=rng.choice((2, 3, 4)))
        if token_len(p) <= 20:
            kept.append(p)
    short = [p for p in kept if token_len(p) <= 12]

    for p in kept:
        assert parse_core(render_core(p), SIG2) == p
        assert parse_sugar(render_sugar(p), SIG2) == p
        toks = list(tokens(p))
        for j in range(1, len(toks)):
            assert oracles.parse_slice(toks[:j], SIG2) is None, (p, j)

    scope_checks = 0
    for p in short:
        toks = list(tokens(p))
        for i, t in enumerate(toks):
            if t in ("exists", "mu"):
                assert binder_scope(p, i) == oracles.scope_by_reparse(p, i, SIG2)
                scope_checks += 1
            elif t in ("appl", "imp"):
                assert binary_scopes(p, i) == oracles.binary_split_by_reparse(p, i, SIG2)
                scope_checks += 1
    assert len(short) >= 2_000
    report(
        1,
        "unique readability",
        True,
        f"{len(kept)} patterns round-tripped and prefix-free, "
        f"{scope_checks} scope splits matched the reparse oracle on {len(short)} short patterns",
        t0,
        30,
    )


def test_criterion_2_polarity():
    t0 = time.perf_counter()
    rng = random.Random(22)
    checked = 0
    for _ in range(10_000):
        p = oracles.random_pattern(rng, SIG2, max_depth=4)
        for v in (0, 1):
            assert is_positive_in(p, v) == oracles.positive_rec(p, v), p
            assert is_negative_in(p, v) == oracles.negative_rec(p, v), p
            checked += 1

    first = Imp(SVar(0), Imp(SVar(0), Mu(1, SVar(1))))
    assert n_left(first, 0, 1) == 1
    assert n_left(first, 0, 3) == 1
    assert is_negative_in(first, 0) and not is_positive_in(first, 0)

    second = Imp(Imp(SVar(0), C), C)
    assert n_left(second, 0, 2) == 2
    assert is_positive_in(second, 0) and not is_negative_in(second, 0)

    both = Appl(first, second)
    assert not is_positive_in(both, 0) and not is_negative_in(both, 0)
    report(
        2,
        "polarity",
        True,
        f"{checked} positional/recursive agreements plus the three pinned counts (1, 1; 2; neither)",
        t0,
        10,
    )


def _identity_checks(s, v, a, b):
    full = s.carrier
    ea, eb = evaluate(s, v, a), evaluate(s, v, b)
    assert evaluate(s, v, BOT) == frozenset()
    assert evaluate(s, v, TOP) == full
    assert evaluate(s, v, neg(a)) == full - ea
    assert evaluate(s, v, or_(a, b)) == ea | eb
    assert evaluate(s, v, and_(a, b)) == ea & eb
    assert evaluate(s, v, Imp(a, b)) == (full - ea) | eb
    assert evaluate(s, v, iff(a, b)) == full - (ea ^ eb)
    want = full
    for el in s.universe:
        want &= evaluate(s, v.with_element(1, el), a)
    assert evaluate(s, v, forall(1, a)) == want

    # Satisfaction forms of the same connectives.
    assert satisfies(s, v, neg(a)) == (ea == frozenset())
    assert satisfies(s, v, or_(a, b)) == (ea | eb == full)
    assert satisfies(s, v, and_(a, b)) == (satisfies(s, v, a) and satisfies(s, v, b))
    assert satisfies(s, v, Imp(a, b)) == (ea <= eb)
    assert satisfies(s, v, iff(a, b)) == (ea == eb)
    union = set()
    witnessed = False
    for el in s.universe:
        val = evaluate(s, v.with_element(0, el), a)
        union |= val
        witnessed = witnessed or val == full
    assert satisfies(s, v, Exists(0, a)) == (frozenset(union) == full)
    if witnessed:
        assert satisfies(s, v, Exists(0, a))
    assert satisfies(s, v, forall(0, a)) == all(
        satisfies(s, v.with_element(0, el), a) for el in s.universe
    )


def _propagation_checks(s, v, a, b, chi):
    assert evaluate(s, v, Appl(a, BOT)) == frozenset()
    assert evaluate(s, v, Appl(BOT, a)) == frozenset()
    assert evaluate(s, v, Appl(or_(a, b), chi)) == evaluate(
        s, v, or_(Appl(a, chi), Appl(b, chi))
    )
    assert evaluate(s, v, Appl(chi, or_(a, b))) == evaluate(
        s, v, or_(Appl(chi, a), Appl(chi, b))
    )
    assert evaluate(s, v, Appl(Exists(5, a), b)) == evaluate(s, v, Exists(5, Appl(a, b)))
    assert evaluate(s, v, Appl(b, Exists(5, a))) == evaluate(s, v, Exists(5, Appl(b, a)))
    assert evaluate(s, v, Appl(and_(a, b), chi)) <= evaluate(
        s, v, and_(Appl(a, chi), Appl(b, chi))
    )
    assert evaluate(s, v, Appl(chi, and_(a, b))) <= evaluate(
        s, v, and_(Appl(chi, a), Appl(chi, b))
    )
    assert evaluate(s, v, Appl(forall(5, a), b)) <= evaluate(s, v, forall(5, Appl(a, b)))
    assert evaluate(s, v, Appl(b, forall(5, a))) <= evaluate(s, v, forall(5, Appl(b, a)))


_C3_CONTEXTS = (
    Box(),
    ApplL(Box(), Appl(C, EVar(1))),
    ApplR(SVar(1), ApplL(Box(), D)),
)


def _context_checks(s, v, a, b):
    for ctx in _C3_CONTEXTS:
        assert evaluate(s, v, plug(ctx, BOT)) == frozenset()
        assert evaluate(s, v, plug(ctx, or_(a, b))) == evaluate(
            s, v, or_(plug(ctx, a), plug(ctx, b))
        )
        assert evaluate(s, v, plug(ctx, Exists(5, a))) == evaluate(
            s, v, Exists(5, plug(ctx, a))
        )
        assert evaluate(s, v, plug(ctx, and_(a, b))) <= evaluate(
            s, v, and_(plug(ctx, a), plug(ctx, b))
        )
        assert evaluate(s, v, plug(ctx, forall(5, a))) <= evaluate(
            s, v, forall(5, plug(ctx, a))
        )


def _fv_dependence_check(s, v, p):
    fe, fs = free_vars(p)
    noisy = v
    for i in (0, 1, 2, 5):
        if i not in fe:
            noisy = noisy.with_element(i, s.universe[-1])
        if i not in fs:
            noisy = noisy.with_set(i, s.carrier)
    assert evaluate(s, noisy, p) == evaluate(s, v, p)


def test_criterion_3_semantic_identities():
    t0 = time.perf_counter()
    pairs = (
        (Appl(C, SVar(0)), Imp(EVar(0), D)),
        (Exists(0, Appl(EVar(0), C)), Mu(0, or_(C, SVar(0)))),
        (SVar(1), Appl(EVar(1), D)),
    )
    chis = (Appl(SVar(1), EVar(1)), Imp(D, SVar(0)))
    exhaustive = 0
    sampled = 0
    spec = SuiteSpec(SIG2, max_size=4, seed=0, samples=500)
    for i, s in enumerate(spec.structures()):
        if len(s.universe) <= 2:
            exhaustive += 1
        else:
            sampled += 1
        rng = random.Random(i)
        a, b = pairs[i % len(pairs)]
        chi = chis[i % len(chis)]
        for v in (Valuation(), seeded_valuation(rng, s)):
            _identity_checks(s, v, a, b)
            _propagation_checks(s, v, a, b, chi)
            _context_checks(s, v, a, b)
            _fv_dependence_check(s, v, a)
        # Base satisfaction facts, once per structure.
        v = seeded_valuation(rng, s)
        assert satisfies(s, v, EVar(0)) == (len(s.universe) == 1)
        assert satisfies(s, v, SVar(0)) == (v.set_of(0) == s.carrier)
        assert satisfies(s, v, C) == (s.constants["c"] == s.carrier)
        assert not satisfies(s, v, BOT)
        assert satisfies(s, v, TOP)
    assert exhaustive == 4104 and sampled == 500
    report(
        3,
        "semantic identities",
        True,
        f"value/satisfaction/propagation/context/FV laws on {exhaustive} exhaustive "
        f"and {sampled} sampled structures",
        t0,
        120,
    )


def test_criterion_4_fixpoints():
    t0 = time.perf_counter()
    sig = Signature(("c",))
    pool = list(SuiteSpec(sig, max_size=4, seed=1, samples=472).structures())
    rng = random.Random(44)
    pairs = 0
    for i in range(1_000):
        s = pool[(i * 7) % len(pool)]
        body = oracles.random_positive_pattern(rng, sig, 0, max_depth=3)
        assert is_positive_in(body, 0)
        v = seeded_valuation(rng, s, evars=2, svars=4)
        cache = {}

        def op(bset):
            if bset not in cache:
                cache[bset] = evaluate(s, v.with_set(0, bset), body)
            return cache[bset]

        u = s.universe
        assert is_monotone(op, u), (structure_to_doc(s), body)
        mu_val = evaluate(s, v, Mu(0, body))
        assert kt_lfp(op, u) == mu_val
        assert kleene_lfp(op, u) == mu_val
        assert exact_lfp(op, u) == mu_val
        nu_val = evaluate(s, v, nu(0, body))
        assert nu_val == kt_gfp(op, u)
        assert exact_gfp(op, u) == nu_val
        pairs += 1
    report(
        4,
        "fixpoints",
        True,
        f"{pairs} structure/positive-pattern pairs: monotone, lfp methods agree, "
        "gfp methods agree, extremal among the exact fixpoints",
        t0,
        120,
    )


def _element_subst_checks(s, v, phi, x, y):
    ref = VarRef.element(x)
    delta = EVar(y)
    shifted = v.with_element(x, v.element_of(y, s))
    assert evaluate(s, v, subst_capture_avoiding(phi, ref, delta)) == evaluate(
        s, shifted, phi
    )
    if is_free_for(ref, delta, phi):
        replaced = subst_free(phi, ref, delta)
        assert evaluate(s, v, replaced) == evaluate(s, shifted, phi)
        assert evaluate(s, v, replaced) <= evaluate(s, v, Exists(x, phi))
        assert evaluate(s, v, forall(x, phi)) <= evaluate(s, v, replaced)


def _set_subst_checks(s, v, phi, x, delta):
    ref = VarRef.set(x)
    shifted = v.with_set(x, evaluate(s, v, delta))
    assert evaluate(s, v, subst_capture_avoiding(phi, ref, delta)) == evaluate(
        s, shifted, phi
    )
    if is_free_for(ref, delta, phi):
        assert evaluate(s, v, subst_free(phi, ref, delta)) == evaluate(s, shifted, phi)


def _bounded_rename_checks(s, v, phi, ref, fresh):
    renamed = subst_bound(phi, ref, fresh)
    assert evaluate(s, v, renamed) == evaluate(s, v, phi)


def test_criterion_5_substitution():
    t0 = time.perf_counter()
    suite = list(SuiteSpec(SIG2, max_size=3, seed=2, samples=500).structures())
    assert len(suite) == 4104 + 500

    # Representative instances, exercised on every structure of the suite.
    rep_capture_e = Exists(1, Appl(EVar(0), EVar(1)))
    rep_plain_e = Imp(EVar(0), Exists(1, Appl(EVar(1), C)))
    rep_capture_s = Mu(1, Appl(SVar(0), SVar(1)))
    rep_delta_s = Appl(C, SVar(1))
    rep_plain_s = Imp(SVar(0), Exists(0, Appl(EVar(0), SVar(0))))
    assert not is_free_for(VarRef.element(0), EVar(1), rep_capture_e)
    assert is_free_for(VarRef.element(0), EVar(1), rep_plain_e)
    assert not is_free_for(VarRef.set(0), rep_delta_s, rep_capture_s)
    assert is_free_for(VarRef.set(0), and_(C, D), rep_plain_s)
    for i, s in enumerate(suite):
        rng = random.Random(1000 + i)
        for v in (Valuation(), seeded_valuation(rng, s)):
            _element_subst_checks(s, v, rep_capture_e, 0, 1)
            _element_subst_checks(s, v, rep_plain_e, 0, 1)
            _set_subst_checks(s, v, rep_capture_s, 0, rep_delta_s)
            _set_subst_checks(s, v, rep_plain_s, 0, and_(C, D))
        v = seeded_valuation(rng, s)
        _bounded_rename_checks(s, v, rep_plain_e, VarRef.element(1), VarRef.element(7))
        _bounded_rename_checks(s, v, rep_capture_s, VarRef.set(1), VarRef.set(7))

    # Generated instances, spread round-robin across the suite.
    rng = random.Random(55)
    instances = 0
    captures = 0
    bounded = 0
    for i in range(2_100):
        s = suite[(i * 13) % len(suite)]
        v = seeded_valuation(rng, s)
        phi = oracles.random_pattern(rng, SIG2, max_depth=4)
        if rng.random() < 0.5:
            x, y = rng.randrange(3), rng.randrange(3)
            if rng.random() < 0.4:
                phi = Exists(y, Appl(phi, EVar(x)))
            if not is_free_for(VarRef.element(x), EVar(y), phi):
                captures += 1
            _element_subst_checks(s, v, phi, x, y)
            fe, _ = free_vars(phi)
            _bounded_rename_checks(s, v, phi, VarRef.element(x), VarRef.element(7))
            bounded += 1
        else:
            x = rng.randrange(2)
            delta = oracles.random_pattern(rng, SIG2, max_depth=2)
            _, dsets = free_vars(delta)
            if dsets and rng.random() < 0.5:
                phi = Mu(min(dsets), Appl(phi, SVar(x)))
            if not is_free_for(VarRef.set(x), delta, phi):
                captures += 1
            _set_subst_checks(s, v, phi, x, delta)
            _bounded_rename_checks(s, v, phi, VarRef.set(x), VarRef.set(7))
            bounded += 1
        instances += 1
    assert instances >= 2_000 and captures >= 200
    report(
        5,
        "substitution",
        True,
        f"4 representative instances on all {len(suite)} structures; "
        f"{instances} generated instances ({captures} with forced capture, "
        f"{bounded} bounded renames) round-robin",
        t0,
        120,
    )


def test_criterion_6_consequence_separation():
    t0 = time.perf_counter()
    suite = list(SuiteSpec(Signature(()), max_size=2).structures())
    x, y = EVar(0), EVar(1)

    glob = consequence("global", [or_(x, y)], [and_(x, y)], suite)
    assert glob.holds and glob.structures_checked == len(suite)

    local = consequence("local", [or_(x, y)], [and_(x, y)], suite)
    assert not local.holds
    w = local
    assert len(w.structure.universe) == 2
    assert w.valuation.element[0] != w.valuation.element[1]
    assert satisfies(w.structure, w.valuation, or_(x, y))
    assert not satisfies(w.structure, w.valuation, and_(x, y))

    weak = consequence("local", [x], [y], suite)
    assert weak.holds

    strong = consequence("strong", [x], [y], suite)
    assert not strong.holds
    assert len(strong.structure.universe) == 2
    assert not (
        evaluate(strong.structure, strong.valuation, x)
        <= evaluate(strong.structure, strong.valuation, y)
    )
    report(
        6,
        "consequence separation",
        True,
        f"global holds / local fails (2-element witness, distinct elements) and "
        f"local holds / strong fails (2-element witness), over {len(suite)} structures, "
        "counterexamples replayed",
        t0,
        30,
    )


def test_criterion_7_tautology_oracle():
    t0 = time.perf_counter()
    rng = random.Random(77)
    atom_pool = (1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6)
    agreements = 0
    tautologies = 0
    for _ in range(5_000):
        p = oracles.random_skeleton(rng, rng.choice(atom_pool), max_depth=4)
        got = is_tautology(p)
        assert got == oracles.tautology_by_evaluation(p), p
        agreements += 1
        tautologies += got
    assert tautologies > 100
    report(
        7,
        "tautology oracle",
        True,
        f"{agreements} skeletons agreed with powerset-algebra evaluation "
        f"({tautologies} tautologies among them)",
        t0,
        60,
    )


def test_criterion_8_proof_soundness():
    t0 = time.perf_counter()
    sig = load_signature(CORPUS / "sig.txt")
    positive = sorted((CORPUS / "proofs" / "positive").glob("*.prf"))
    negative = sorted((CORPUS / "proofs" / "negative").glob("*.prf"))
    assert len(positive) >= 15 and len(negative) >= 10

    suite = list(SuiteSpec(sig, max_size=3, seed=3, samples=200).structures())
    assert len(suite) == 1028 + 200

    kind_uses = {k: 0 for k in AXIOM_KINDS | RULE_KINDS}
    levels = set()
    audited_lines = 0
    for path in positive:
        script = parse_proof(path.read_text(), sig)
        for line in script.lines:
            if line.justification.kind in kind_uses:
                kind_uses[line.justification.kind] += 1
        rep = check_proof(script)
        assert rep.ok, f"{path.name}:\n{format_report(rep)}"
        levels.add(rep.level)
        audit = audit_soundness(script, suite, rep)
        assert audit.ok, f"{path.name}:\n{format_audit(audit)}"
        audited_lines += audit.lines_audited
    assert levels == {"strong", "local", "global"}
    thin = {k: n for k, n in kind_uses.items() if n < 2}
    assert not thin, f"kinds used fewer than twice: {thin}"

    import re as _re

    for path in negative:
        header = _re.search(r"# expect-reject: (\d+) ([a-z.-]+)", path.read_text())
        assert header, path.name
        rep = check_proof(parse_proof(path.read_text(), sig))
        failed = {v.number: v.code for v in rep.verdicts if not v.ok}
        assert failed == {int(header.group(1)): header.group(2)}, (
            path.name,
            failed,
        )
    report(
        8,
        "proof soundness",
        True,
        f"{len(positive)} accepted scripts ({audited_lines} lines audited clean over "
        f"{len(suite)} structures), {len(negative)} rejections with pinned reason codes, "
        "every justification kind used at least twice",
        t0,
        120,
    )


def test_criterion_9_definedness():
    t0 = time.perf_counter()
    spec = SuiteSpec(Signature(("c",)), max_size=3, seed=4, samples=150, defined=True)
    structures = 0
    for s in spec.structures():
        validate_structure(structure_to_doc(s))
        structures += 1
        full = s.carrier
        none = frozenset()
        d = s.constants["def"]
        subsets = list(subsets_of(s.universe))
        for a in s.universe:
            assert apply_sets(s, full, frozenset((a,))) == full
        for b in subsets:
            if b:
                assert apply_sets(s, d, b) == full

        for b in subsets:
            v = Valuation({}, {0: b})
            assert evaluate(s, v, ceil(SVar(0))) == (full if b else none)
            assert evaluate(s, v, floor(SVar(0))) == (full if b == full else none)
            assert evaluate(s, v, eq(SVar(0), BOT)) == (none if b else full)
            assert evaluate(s, v, Appl(ceil(SVar(0)), EVar(0))) <= evaluate(
                s, v, ceil(SVar(0))
            )
            assert evaluate(s, v, Appl(EVar(0), ceil(SVar(0)))) <= evaluate(
                s, v, ceil(SVar(0))
            )
            assert evaluate(s, v, SVar(0)) <= evaluate(s, v, ceil(SVar(0)))
            assert evaluate(s, v, floor(SVar(0))) <= evaluate(s, v, SVar(0))
            for a in s.universe:
                member = a in b
                assert evaluate(
                    s, v.with_element(0, a), mem(0, SVar(0))
                ) == (full if member else none)
        assert evaluate(s, Valuation(), ceil(BOT)) == none

        assert models(s, ceil(EVar(0)))
        assert models(s, Exists(0, eq(EVar(0), EVar(1))))
        assert models(
            s, or_(neg(mem(0, SVar(0))), neg(mem(0, neg(SVar(0)))))
        )
        assert is_predicate(s, ceil(SVar(0)))
        assert is_predicate(s, floor(SVar(0)))
        assert is_predicate(s, eq(SVar(0), C))
        assert is_predicate(s, mem(1, SVar(0)))
    assert structures >= 200
    report(
        9,
        "definedness",
        True,
        f"{structures} validated definedness structures satisfy the value tables, "
        "validity laws, and predicate facts",
        t0,
        60,
    )
