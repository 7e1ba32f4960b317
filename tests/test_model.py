"""Finite structures: validation, serialization, fixpoints, enumeration."""

import itertools
import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings

from oracles import (
    NonMonotoneDetected,
    exact_gfp,
    exact_lfp,
    is_monotone,
    kleene_lfp,
    kt_gfp,
    kt_lfp,
    structures_by_frozensets,
)
from strategies import structures
import aml.model
from aml.model import (
    ENUMERATION_CAP,
    DanglingElement,
    DefinednessViolated,
    EmptyUniverse,
    MissingConstant,
    ModelError,
    Structure,
    Suite,
    SuiteSpec,
    UniverseTooLarge,
    Valuation,
    apply_sets,
    enumerate_structures,
    structure_to_doc,
    subsets_of,
    validate_structure,
    valuation_from_doc,
    valuation_to_doc,
)
from aml.syntax import Signature


def doc(universe=("0", "1"), app=(), constants=None):
    return {
        "universe": list(universe),
        "app": [dict(r) for r in app],
        "constants": dict(constants or {}),
    }


def _swap(mask: int) -> int:
    return (mask & 1) << 1 | mask >> 1


def _key(s):
    return s.rows, tuple(sorted(s.masks.items()))


def _swapped(s):
    """The key of ``s`` with elements 0 and 1 of its two-element universe exchanged."""
    rows = tuple(tuple(_swap(s.rows[1 - i][1 - j]) for j in range(2)) for i in range(2))
    return rows, tuple(sorted((name, _swap(m)) for name, m in s.masks.items()))


class TestValidation:
    def test_minimal(self):
        s = validate_structure(doc(universe=("a",)))
        assert s.carrier == frozenset({"a"})
        assert s.app_of("a", "a") == frozenset()

    def test_empty_universe(self):
        with pytest.raises(EmptyUniverse):
            validate_structure(doc(universe=()))

    def test_duplicate_universe_entry(self):
        with pytest.raises(ModelError):
            validate_structure(doc(universe=("0", "0")))

    def test_dangling_app_operand(self):
        bad = doc(app=[{"left": "0", "right": "9", "result": []}])
        with pytest.raises(DanglingElement):
            validate_structure(bad)

    def test_dangling_app_result(self):
        bad = doc(app=[{"left": "0", "right": "1", "result": ["9"]}])
        with pytest.raises(DanglingElement):
            validate_structure(bad)

    def test_dangling_constant(self):
        with pytest.raises(DanglingElement):
            validate_structure(doc(constants={"c": ["9"]}))

    def test_duplicate_app_row(self):
        row = {"left": "0", "right": "0", "result": ["1"]}
        with pytest.raises(ModelError):
            validate_structure(doc(app=[row, dict(row)]))

    def test_unknown_row_key(self):
        bad = doc(app=[{"left": "0", "right": "0", "output": []}])
        with pytest.raises(ModelError):
            validate_structure(bad)

    def test_signature_coverage(self):
        sig = Signature(("c", "d"))
        with pytest.raises(MissingConstant):
            validate_structure(doc(constants={"c": []}), sig)
        # Extra constants beyond the signature are fine.
        validate_structure(doc(constants={"c": [], "d": [], "e": ["0"]}), sig)

    def test_definedness_law_enforced(self):
        rows = [{"left": "0", "right": b, "result": ["0", "1"]} for b in ("0", "1")]
        good = doc(app=rows, constants={"def": ["0"]})
        validate_structure(good)
        bad = doc(app=rows[:1], constants={"def": ["0"]})
        with pytest.raises(DefinednessViolated):
            validate_structure(bad)


class TestSerialization:
    @given(structures())
    @settings(max_examples=100)
    def test_document_round_trip(self, s):
        assert validate_structure(structure_to_doc(s)) == s

    @given(structures())
    @settings(max_examples=50)
    def test_documents_are_byte_deterministic(self, s):
        one = json.dumps(structure_to_doc(s), sort_keys=True)
        two = json.dumps(structure_to_doc(validate_structure(structure_to_doc(s))), sort_keys=True)
        assert one == two

    def test_empty_rows_are_omitted(self):
        s = validate_structure(doc(app=[{"left": "0", "right": "1", "result": []}]))
        assert structure_to_doc(s)["app"] == []

    def test_an_explicit_empty_row_survives_the_round_trip(self):
        s = validate_structure(doc(app=[{"left": "0", "right": "1", "result": []}]))
        assert validate_structure(structure_to_doc(s)) == s


class TestSubsetsAndApplication:
    def test_bitmask_order(self):
        got = list(subsets_of(("a", "b")))
        assert got == [
            frozenset(),
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
        ]

    def test_apply_sets_unions_cells(self):
        s = validate_structure(
            doc(
                app=[
                    {"left": "0", "right": "0", "result": ["0"]},
                    {"left": "1", "right": "0", "result": ["1"]},
                ]
            )
        )
        assert apply_sets(s, frozenset({"0", "1"}), frozenset({"0"})) == s.carrier
        assert apply_sets(s, frozenset(), s.carrier) == frozenset()


class TestFixpoints:
    UNIVERSE = ("0", "1", "2")

    def grow(self, seed):
        # Monotone: close the argument under adding the seed element.
        return lambda b: b | frozenset({seed})

    def test_constant_function(self):
        fn = lambda b: frozenset({"1"})
        assert kt_lfp(fn, self.UNIVERSE) == frozenset({"1"})
        assert kt_gfp(fn, self.UNIVERSE) == frozenset({"1"})
        assert kleene_lfp(fn, self.UNIVERSE) == frozenset({"1"})

    def test_identity_function(self):
        fn = lambda b: b
        assert kt_lfp(fn, self.UNIVERSE) == frozenset()
        assert kt_gfp(fn, self.UNIVERSE) == frozenset(self.UNIVERSE)
        assert exact_lfp(fn, self.UNIVERSE) == frozenset()
        assert exact_gfp(fn, self.UNIVERSE) == frozenset(self.UNIVERSE)

    def test_methods_agree_on_monotone_operators(self):
        universe = ("0", "1")
        s_pool = list(subsets_of(universe))
        # All monotone unary operators on a two-element universe, built by
        # assigning outputs consistent with the subset order.
        count = 0
        for outputs in itertools.product(s_pool, repeat=4):
            table = dict(zip(s_pool, outputs))
            fn = lambda b, t=table: t[b]
            if not is_monotone(fn, universe):
                continue
            count += 1
            lfp = kt_lfp(fn, universe)
            assert fn(lfp) == lfp
            assert kleene_lfp(fn, universe) == lfp
            assert exact_lfp(fn, universe) == lfp
            gfp = kt_gfp(fn, universe)
            assert fn(gfp) == gfp
            assert exact_gfp(fn, universe) == gfp
        assert count > 10

    def test_kleene_detects_non_monotone(self):
        flip = lambda b: frozenset(self.UNIVERSE) - b
        assert not is_monotone(flip, self.UNIVERSE)
        with pytest.raises(NonMonotoneDetected):
            kleene_lfp(flip, self.UNIVERSE)

    def test_enumeration_cap(self):
        big = tuple(str(i) for i in range(ENUMERATION_CAP + 1))
        with pytest.raises(UniverseTooLarge):
            kt_lfp(lambda b: b, big)


class TestValuation:
    def setup_method(self):
        self.s = validate_structure(doc(constants={"c": ["0"]}))

    def test_defaults(self):
        v = Valuation()
        assert v.element_of(5, self.s) == "0"
        assert v.set_of(5) == frozenset()

    def test_updates_are_persistent(self):
        v = Valuation()
        w = v.with_element(0, "1").with_set(2, frozenset({"0"}))
        assert v.element_of(0, self.s) == "0"
        assert w.element_of(0, self.s) == "1"
        assert w.set_of(2) == frozenset({"0"})

    def test_document_round_trip(self):
        v = Valuation({0: "1"}, {1: frozenset({"0", "1"})})
        d = valuation_to_doc(v, self.s)
        assert d == {"element": {"x0": "1"}, "set": {"X1": ["0", "1"]}}
        assert valuation_from_doc(d, self.s) == v

    def test_bad_keys_and_values(self):
        with pytest.raises(ModelError):
            valuation_from_doc({"element": {"y0": "0"}}, self.s)
        with pytest.raises(DanglingElement):
            valuation_from_doc({"element": {"x0": "9"}}, self.s)
        with pytest.raises(DanglingElement):
            valuation_from_doc({"set": {"X0": ["9"]}}, self.s)
        with pytest.raises(ModelError):
            valuation_from_doc({"sets": {}}, self.s)


class TestEnumeration:
    def test_no_constants_size_one(self):
        got = list(enumerate_structures(Signature(()), 1))
        assert len(got) == 2

    def test_one_constant_up_to_two(self):
        # 1 universe with 2 app grids x 2 constant choices, plus
        # 2 universe with 4^4 grids x 4 constant choices.
        got = list(enumerate_structures(Signature(("c",)), 2))
        assert len(got) == 4 + 256 * 4

    @pytest.mark.parametrize("defined", [False, True])
    @pytest.mark.parametrize("names", [(), ("c",), ("def",), ("c", "d"), ("c", "def"), ("c", "d", "e")])
    @pytest.mark.parametrize(
        "max_size, seed, samples", [(1, 0, 5), (2, 0, 0), (3, 0, 12), (3, 9, 4), (4, 3, 30)]
    )
    def test_stream_matches_the_frozenset_oracle(self, names, defined, max_size, seed, samples):
        sig = Signature(names)
        got = enumerate_structures(sig, max_size, seed=seed, samples=samples, defined=defined)
        want = structures_by_frozensets(
            sig, max_size, seed=seed, samples=samples, defined=defined
        )
        count = 0
        for s, (universe, app, constants) in itertools.zip_longest(got, want):
            assert s.universe == universe, count
            assert dict(s.app) == app, count
            assert dict(s.constants) == constants, count
            count += 1
        assert count > 0

    @pytest.mark.parametrize("defined", [False, True])
    @pytest.mark.parametrize("names", [(), ("c",), ("c", "d"), ("def",), ("c", "d", "e")])
    @pytest.mark.parametrize("max_size, samples", [(1, 5), (2, 0), (3, 40)])
    def test_twins_are_earlier_swap_images(self, names, defined, max_size, samples):
        sig = Signature(names)
        stream = list(
            enumerate_structures(sig, max_size, seed=4, samples=samples, defined=defined)
        )
        where = {id(s): i for i, s in enumerate(stream)}
        for i, s in enumerate(stream):
            if len(s.universe) != 2 or defined:
                # Size one, sampled (sizes three and up) or --defined.
                assert s.twin is None, i
            elif s.twin is not None:
                assert _key(s.twin) == _swapped(s), i
                assert where[id(s.twin)] < i
        if defined or max_size < 2:
            return
        # The block holds every two-element structure once, so each one's
        # image is in it; of a pair the swap does not fix, exactly one (the
        # later) carries a twin, and a fixed structure carries none.
        block = {_key(s): s for s in stream if len(s.universe) == 2}
        assert len(block) == 4 ** (4 + len(names))
        for s in block.values():
            image = block[_swapped(s)]
            if image is s:
                assert s.twin is None
            else:
                assert (s.twin is None) != (image.twin is None)

    def test_twin_count_of_the_corpus_suite(self):
        stream = list(enumerate_structures(Signature(("c",)), 3, seed=1, samples=200))
        assert len(stream) == 1228
        assert sum(s.twin is not None for s in stream) == 496

    def test_streams_are_deterministic(self):
        spec = SuiteSpec(Signature(("c",)), max_size=3, seed=7, samples=20)
        first = [structure_to_doc(s) for s in spec.structures()]
        second = [structure_to_doc(s) for s in spec.structures()]
        assert first == second

    def test_seed_changes_the_samples(self):
        base = SuiteSpec(Signature(("c",)), max_size=3, seed=0, samples=20)
        other = SuiteSpec(Signature(("c",)), max_size=3, seed=1, samples=20)
        a = [structure_to_doc(s) for s in base.structures()]
        b = [structure_to_doc(s) for s in other.structures()]
        assert a[:1028] == b[:1028]
        assert a[1028:] != b[1028:]

    def test_samples_respect_size_bounds(self):
        spec = SuiteSpec(Signature(()), max_size=4, seed=3, samples=30)
        sizes = [len(s.universe) for s in spec.structures()]
        exhaustive = 2 + 256
        assert sizes[:exhaustive] == [1] * 2 + [2] * 256
        assert all(3 <= n <= 4 for n in sizes[exhaustive:])
        assert len(sizes) == exhaustive + 30

    def test_defined_mode_satisfies_the_law(self):
        spec = SuiteSpec(Signature(()), max_size=2, defined=True)
        seen = 0
        for s in spec.structures():
            seen += 1
            assert s.constants["def"] == frozenset({"0"})
            for a in s.universe:
                assert apply_sets(s, s.constants["def"], frozenset({a})) == s.carrier
        assert seen > 0

    def test_defined_samples_validate(self):
        spec = SuiteSpec(Signature(("c",)), max_size=3, seed=5, samples=10, defined=True)
        for s in spec.structures():
            validate_structure(structure_to_doc(s))

    def test_describe_mentions_the_parts(self):
        text = SuiteSpec(Signature(()), max_size=3, seed=2, samples=5, defined=True).describe()
        assert "exhaustive" in text and "seed 2" in text and "definedness" in text

    def test_max_size_must_be_positive(self):
        with pytest.raises(ValueError):
            list(enumerate_structures(Signature(()), 0))


def _count_reads(monkeypatch) -> list:
    """The bit counts of every `getrandbits` call of a suite's stream from
    here on."""
    reads = []

    class Counting(random.Random):
        def getrandbits(self, k):
            reads.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(aml.model.random, "Random", Counting)
    return reads


class TestSuite:
    """A `Suite` is the stream as a sequence: the same structures at the
    same indices, twins included, each built once and only when asked."""

    @pytest.mark.parametrize("seed", [2, 9])
    @pytest.mark.parametrize("max_size,samples", [
        (1, 0), (1, 30), (2, 0), (2, 30), (3, 0), (3, 30), (4, 0), (4, 30),
        # Values of more than 5 and more than 8 bits.
        (6, 8), (9, 8), (12, 8),
        # Sizes drawn with every width of randint's k-bit values, 1 to 4,
        # on both sides of the 8/9-element boundary of the byte plane.
        (5, 30), (7, 12), (8, 12), (10, 8), (11, 8),
    ])
    @pytest.mark.parametrize("defined", [False, True])
    @pytest.mark.parametrize("names", [(), ("c",), ("c", "d")])
    def test_a_suite_is_its_stream(self, names, defined, max_size, samples, seed):
        sig = Signature(names)
        suite = SuiteSpec(sig, max_size, seed, samples, defined).suite()
        stream = list(enumerate_structures(sig, max_size, seed=seed, samples=samples, defined=defined))
        want = list(structures_by_frozensets(sig, max_size, seed=seed, samples=samples, defined=defined))
        assert len(suite) == len(stream) == len(want)
        # Last to first, so that a structure's twin is built when it is.
        for k in reversed(range(len(suite))):
            assert suite[k] == stream[k], k
        where = {id(s): k for k, s in enumerate(stream)}
        for k, s in enumerate(suite):
            assert s is suite[k] is suite[k - len(suite)], k
            universe, app, constants = want[k]
            assert (s.universe, dict(s.app), dict(s.constants)) == (universe, app, constants), k
            if stream[k].twin is None:
                assert s.twin is None, k
            else:
                assert s.twin is suite[where[id(stream[k].twin)]], k
        for k in (len(suite), -len(suite) - 1):
            with pytest.raises(IndexError):
                suite[k]

    @pytest.mark.parametrize("defined", [False, True])
    @pytest.mark.parametrize("names", [(), ("c",), ("c", "d")])
    def test_runs_are_the_lanes_of_the_structures(self, names, defined):
        # The samples reach values of more than 5, and more than 8, bits.
        for max_size, samples, widest in [
            (4, 30, 4), (6, 12, 6), (8, 30, 8), (9, 12, 9), (12, 12, 9),
        ]:
            suite = SuiteSpec(Signature(names), max_size, 5, samples, defined).suite()
            runs = list(suite.runs())
            assert suite.made == {}  # nothing is built
            marks, sizes = [], []
            for run_marks, cells, masks in runs:
                marks += run_marks
                sizes.append(len(suite[run_marks[0] - 1].universe))
                for lane, mark in enumerate(run_marks):
                    s = suite[mark - 1]
                    assert len(s.universe) == sizes[-1]
                    assert [c[lane] for c in cells] == [m for row in s.rows for m in row]
                    assert {name: c[lane] for name, c in masks.items()} == dict(s.masks)
            # Every structure has a lane but those whose twin comes earlier,
            # and a run changes with the universe size.
            assert marks == [k + 1 for k, s in enumerate(suite) if s.twin is None]
            assert all(a != b for a, b in zip(sizes, sizes[1:]))
            assert max(sizes) >= widest

    def test_a_slice_is_a_list_of_the_suites_structures(self):
        suite = SuiteSpec(Signature(("c",)), 3, 4, 10).suite()
        every = list(suite)
        for key in [slice(None, 3), slice(-3, None), slice(5, 50, 7), slice(None, None, -1),
                    slice(-2, 10, -3), slice(1100, None), slice(3, 3), slice(-5000, 5000, 400)]:
            got = suite[key]
            assert isinstance(got, list)
            assert len(got) == len(every[key])
            assert all(a is b for a, b in zip(got, every[key])), key

    @pytest.mark.parametrize("defined", [False, True])
    def test_a_stream_longer_than_one_read(self, monkeypatch, defined):
        # The first bulk read runs out before the last sample, so the words
        # left over at its end are carried into the next.
        reads = _count_reads(monkeypatch)
        sig = Signature(("c", "d"))
        suite = SuiteSpec(sig, 12, 2, 150, defined).suite()
        want = structures_by_frozensets(sig, 12, seed=2, samples=150, defined=defined)
        for k, (s, (universe, app, constants)) in enumerate(itertools.zip_longest(suite, want)):
            assert (s.universe, dict(s.app), dict(s.constants)) == (universe, app, constants), k
        assert len(reads) > 1

    def test_the_samples_are_drawn_once_when_first_read(self, monkeypatch):
        reads = _count_reads(monkeypatch)
        spec = SuiteSpec(Signature(("c",)), max_size=3, seed=1, samples=200)
        suite = spec.suite()
        assert len(suite) == 1228 and spec.describe()
        assert len(suite[:1028]) == 1028  # every exhaustive structure
        assert reads == []
        suite[1028]  # the first sample
        assert reads == [32 * 2600]  # all the samples' words, in one read
        list(suite)
        list(suite.runs())
        assert len(reads) == 1
        # Runs first: the exhaustive runs read nothing, the samples' once.
        suite = spec.suite()
        runs = suite.runs()
        assert all(len(marks) < 1028 for marks, _, _ in itertools.islice(runs, 2))
        assert len(reads) == 1
        assert sum(len(marks) for marks, _, _ in runs) == 200
        assert len(reads) == 2
        list(suite)
        assert len(reads) == 2

    def test_threads_drawing_at_once_keep_one_draw(self):
        suite = SuiteSpec(Signature(("c",)), max_size=5, seed=3, samples=100).suite()
        start = threading.Barrier(6)
        got = []

        def first_sample():
            start.wait()
            got.append((suite[-100], suite._samples()))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_sample) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 6
        assert all(s is got[0][0] and drawn is got[0][1] for s, drawn in got)

    def test_the_corpus_suite(self):
        suite = SuiteSpec(Signature(("c",)), max_size=3, seed=1, samples=200).suite()
        assert len(suite) == 1228 and suite.made == {}
        assert sum(s.twin is not None for s in suite) == 496
