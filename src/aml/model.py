"""Finite applicative structures, valuations, and model suites.

A structure is a nonempty finite universe, a binary application map sending
each pair of elements to a subset, and a denotation subset per constant.
Universe elements are opaque strings; their order in the file fixes the
canonical printing order for subsets.

A structure has one stored form, bitmasks: element i of the universe is
bit i, so a subset is an ``int`` (Knuth, TAOCP Vol. 4A, 7.1.3).  Documents
and suites are built straight into that form.  Element names appear only at
the boundary: in the read-only views ``app`` and ``constants``, in the
formatting helpers, and in valuations.  A structure over more than
``ENUMERATION_CAP`` elements is refused when it is built, since its table
of bit positions has 2^n rows.

Structures declaring the reserved constant ``def`` are definedness
structures and must apply it totally: ``def`` applied to any singleton
yields the whole universe.  In a suite's exhaustive two-element run, a
structure whose 0<->1 image came earlier carries that image as its ``twin``,
found by position, not by hashing; no other structure has one.

A generated suite is a `Suite`, a sequence held as its runs, each one
universe size's table of masks with a lane per structure: every structure
of size one, then of size two, in the mixed-radix order of their masks
(Knuth, TAOCP Vol. 4A, 7.2.1.1), the free application cells row by row,
then the free constants; then the samples, whose masks are all drawn the
first time one is needed.  It builds a structure only when asked, by
reading its lane, and gives `semantics` its runs, so that deciding a suite
builds neither its twins nor the structures it lays out in blocks.
`enumerate_structures` iterates one.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
import random
import re
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .syntax import DEFINEDNESS, EVAR_TOKEN, SVAR_TOKEN, ParseError, Signature, read_digits

__all__ = [
    "ENUMERATION_CAP",
    "ModelError",
    "EmptyUniverse",
    "DanglingElement",
    "MissingConstant",
    "DefinednessViolated",
    "UniverseTooLarge",
    "Structure",
    "Valuation",
    "apply_sets",
    "subsets_of",
    "validate_structure",
    "structure_to_doc",
    "load_structure",
    "save_structure",
    "valuation_from_doc",
    "valuation_to_doc",
    "load_valuation",
    "SuiteSpec",
    "Suite",
    "enumerate_structures",
]

# Powerset walks are exponential in the universe; refuse beyond this size.
ENUMERATION_CAP = 12


class ModelError(ValueError):
    """A structure or valuation document is unusable."""


class EmptyUniverse(ModelError):
    pass


class DanglingElement(ModelError):
    """An element mentioned outside the declared universe."""


class MissingConstant(ModelError):
    """The signature demands a constant the structure does not interpret."""


class DefinednessViolated(ModelError):
    """A structure declares ``def`` but does not apply it totally."""


class UniverseTooLarge(ValueError):
    pass


@dataclass(frozen=True, init=False)
class Structure:
    """A structure in bitmask form: element i of the universe is bit i and a
    subset is an ``int``.  ``rows[i][j]`` is the mask of element i applied
    to element j, and ``masks`` maps each constant to its denotation; it is
    never mutated after construction, which the cached views ``app`` and
    ``constants`` and `semantics`' suite layouts rely on.  The tables
    ``full``, ``bits``, ``singletons`` and ``subset_masks`` (every subset as
    a mask, in bitmask order) are set here, shared by every structure of the
    same size, so that evaluation reads them as plain attributes.  ``twin``:
    see the module."""

    universe: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    masks: Mapping[str, int]
    twin: Structure | None = field(default=None, compare=False, repr=False)
    full: int = field(init=False, repr=False, compare=False)
    bits: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    singletons: tuple[int, ...] = field(init=False, repr=False, compare=False)
    subset_masks: range = field(init=False, repr=False, compare=False)

    def __init__(self, universe, rows, masks, twin=None) -> None:
        _check_cap(universe)
        full, bits, singletons, subset_masks = _tables(len(universe))
        # One store of the whole instance dict instead of the generated
        # frozen __init__'s ``object.__setattr__`` per field.
        object.__setattr__(self, "__dict__", {
            "universe": universe, "rows": rows, "masks": masks, "twin": twin,
            "full": full, "bits": bits, "singletons": singletons,
            "subset_masks": subset_masks,
        })

    @cached_property
    def app(self) -> Mapping[tuple[str, str], frozenset]:
        """The non-empty application cells, by element names."""
        u = self.universe
        return MappingProxyType({
            (u[i], u[j]): self.subset(m)
            for i, row in enumerate(self.rows)
            for j, m in enumerate(row)
            if m
        })

    @cached_property
    def constants(self) -> Mapping[str, frozenset]:
        """The constants' denotations, by element names."""
        return MappingProxyType({name: self.subset(m) for name, m in self.masks.items()})

    @property
    def carrier(self) -> frozenset:
        return frozenset(self.universe)

    def app_of(self, a: str, b: str) -> frozenset:
        return self.app.get((a, b), frozenset())

    def sorted_elements(self, subset) -> list[str]:
        return sorted(subset, key=self.universe.index)

    def format_subset(self, subset) -> str:
        return "{" + ", ".join(self.sorted_elements(subset)) + "}"

    def mask(self, subset) -> int:
        index = self.universe.index
        out = 0
        for a in subset:
            out |= 1 << index(a)
        return out

    def element(self, mask: int) -> str:
        """The element of a singleton mask."""
        return self.universe[mask.bit_length() - 1]

    def subset(self, mask: int) -> frozenset:
        u = self.universe
        return frozenset([u[i] for i in self.bits[mask]])

    def apply(self, left: int, right: int) -> int:
        """Pointwise application lifted to masks: the union of all cells."""
        out = 0
        if left and right:
            right_bits = self.bits[right]
            for i in self.bits[left]:
                row = self.rows[i]
                for j in right_bits:
                    out |= row[j]
        return out

    def lanes(self, mask: int) -> int:
        """The whole universe if ``mask`` is not empty, else nothing: the
        one-lane case of `semantics`' lane blocks."""
        return self.full if mask else 0


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[int, tuple, tuple, range]:
    """The mask tables of every structure over ``n`` elements: ``full``,
    ``bits`` (the bit positions of every mask), ``singletons`` and
    ``subset_masks``."""
    return (
        (1 << n) - 1,
        tuple(tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)),
        tuple(1 << i for i in range(n)),
        range(1 << n),
    )


def subsets_of(universe: Sequence[str]) -> Iterator[frozenset]:
    """All subsets in bitmask order (element i of the universe is bit i)."""
    n = len(universe)
    for mask in range(1 << n):
        yield frozenset(universe[i] for i in range(n) if mask >> i & 1)


def apply_sets(structure: Structure, left, right) -> frozenset:
    """Pointwise application lifted to subsets: the union of all cell values."""
    out = set()
    for a in left:
        for b in right:
            out |= structure.app_of(a, b)
    return frozenset(out)


def _check_cap(universe: Sequence[str]) -> None:
    if len(universe) > ENUMERATION_CAP:
        raise UniverseTooLarge(
            f"universe of size {len(universe)} exceeds the enumeration cap "
            f"{ENUMERATION_CAP}"
        )


# ---------------------------------------------------------------------------
# Serialization.


def validate_structure(doc: dict, sig: Signature | None = None) -> Structure:
    """Build a `Structure` from a JSON document, checking every invariant."""
    if not isinstance(doc, dict):
        raise ModelError("structure document must be a JSON object")
    universe = doc.get("universe")
    if not isinstance(universe, list) or not all(isinstance(u, str) for u in universe):
        raise ModelError("'universe' must be a list of strings")
    if not universe:
        raise EmptyUniverse("empty universe")
    if len(set(universe)) != len(universe):
        raise ModelError("universe elements must be distinct")
    index = {e: i for i, e in enumerate(universe)}

    def position(e, where) -> int:
        if not isinstance(e, str):
            raise ModelError(f"{where}: element {e!r} must be a string")
        if e not in index:
            raise DanglingElement(f"{where}: element {e!r} is not in the universe")
        return index[e]

    def mask_of(elements: list, where: str) -> int:
        out = 0
        for e in elements:
            out |= 1 << position(e, where)
        return out

    app_doc = doc.get("app", [])
    if not isinstance(app_doc, list):
        raise ModelError("'app' must be a list")
    cells: dict[tuple[int, int], int] = {}
    for row in app_doc:
        if not isinstance(row, dict) or set(row) - {"left", "right", "result"}:
            raise ModelError(f"bad app row {row!r}")
        a, b = row.get("left"), row.get("right")
        cell = (position(a, "app row"), position(b, "app row"))
        if cell in cells:
            raise ModelError(f"duplicate app row for ({a!r}, {b!r})")
        result = row.get("result", [])
        if not isinstance(result, list):
            raise ModelError(f"app result for ({a!r}, {b!r}) must be a list")
        cells[cell] = mask_of(result, "app result")

    masks: dict[str, int] = {}
    consts_doc = doc.get("constants", {})
    if not isinstance(consts_doc, dict):
        raise ModelError("'constants' must be an object")
    for name, val in consts_doc.items():
        if not isinstance(val, list):
            raise ModelError(f"constant {name!r} denotation must be a list")
        masks[name] = mask_of(val, f"constant {name!r}")

    if sig is not None:
        for name in sig.constants:
            if name not in masks:
                raise MissingConstant(f"no denotation for constant {name!r}")

    n = len(universe)
    _check_cap(universe)  # before the n-by-n table is built
    rows = tuple(tuple(cells.get((i, j), 0) for j in range(n)) for i in range(n))
    s = Structure(tuple(universe), rows, masks)
    if DEFINEDNESS in masks:
        d = masks[DEFINEDNESS]
        for a, single in zip(universe, s.singletons):
            if s.apply(d, single) != s.full:
                raise DefinednessViolated(
                    f"def applied to {{{a}}} does not give the whole universe"
                )
    return s


def structure_to_doc(s: Structure) -> dict:
    u = s.universe

    def names(mask: int) -> list[str]:
        return [u[i] for i in s.bits[mask]]

    return {
        "universe": list(u),
        "app": [
            {"left": u[i], "right": u[j], "result": names(m)}
            for i, row in enumerate(s.rows)
            for j, m in enumerate(row)
            if m
        ],
        "constants": {name: names(m) for name, m in sorted(s.masks.items())},
    }


def _read_json(path: str | Path):
    """The document in a JSON file; bad JSON, bytes that are not UTF-8 and
    nesting too deep for the decoder are all a `ModelError`, whose message
    leaves the path to the caller."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ModelError(f"not valid JSON ({exc})") from exc
    except RecursionError:
        raise ModelError("not valid JSON (nested too deeply)") from None


def load_structure(path: str | Path, sig: Signature | None = None) -> Structure:
    return validate_structure(_read_json(path), sig)


def save_structure(s: Structure, path: str | Path) -> None:
    Path(path).write_text(json.dumps(structure_to_doc(s), indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class Valuation:
    """Assignment of universe elements to element variables and subsets to
    set variables.  Unlisted variables fall back to defaults: the first
    universe element, respectively the empty set."""

    element: Mapping[int, str] = field(default_factory=dict)
    sets: Mapping[int, frozenset] = field(default_factory=dict)

    def element_of(self, index: int, structure: Structure) -> str:
        return self.element.get(index, structure.universe[0])

    def set_of(self, index: int) -> frozenset:
        return self.sets.get(index, frozenset())

    def with_element(self, index: int, value: str) -> "Valuation":
        new = dict(self.element)
        new[index] = value
        return Valuation(new, self.sets)

    def with_set(self, index: int, value: frozenset) -> "Valuation":
        new = dict(self.sets)
        new[index] = value
        return Valuation(self.element, new)


def valuation_from_doc(doc: dict, structure: Structure) -> Valuation:
    if not isinstance(doc, dict) or set(doc) - {"element", "set"}:
        raise ModelError("valuation document must be {'element': ..., 'set': ...}")
    element_doc, set_doc = doc.get("element", {}), doc.get("set", {})
    if not isinstance(element_doc, dict) or not isinstance(set_doc, dict):
        raise ModelError("valuation 'element' and 'set' must be objects")
    carrier = structure.carrier

    def check_element(key, e):
        if not isinstance(e, str):
            raise ModelError(f"valuation of {key}: element {e!r} must be a string")
        if e not in carrier:
            raise DanglingElement(f"valuation of {key}: {e!r} not in the universe")

    element: dict[int, str] = {}
    for key, val in element_doc.items():
        index = _var_index(key, EVAR_TOKEN)
        check_element(key, val)
        element[index] = val
    sets: dict[int, frozenset] = {}
    for key, val in set_doc.items():
        index = _var_index(key, SVAR_TOKEN)
        if not isinstance(val, list):
            raise ModelError(f"valuation of {key} must be a list")
        for e in val:
            check_element(key, e)
        sets[index] = frozenset(val)
    return Valuation(element, sets)


def _var_index(key: str, token: re.Pattern) -> int:
    m = token.match(key) if isinstance(key, str) else None
    if m is None:
        raise ModelError(f"bad variable key {key!r}")
    try:
        return read_digits(m.group(1))
    except ParseError as exc:
        raise ModelError(f"bad variable key: {exc}") from None


def valuation_to_doc(v: Valuation, structure: Structure) -> dict:
    return {
        "element": {f"x{i}": v.element[i] for i in sorted(v.element)},
        "set": {
            f"X{i}": structure.sorted_elements(v.sets[i]) for i in sorted(v.sets)
        },
    }


def load_valuation(path: str | Path, structure: Structure) -> Valuation:
    return valuation_from_doc(_read_json(path), structure)


# ---------------------------------------------------------------------------
# Deterministic structure streams.


@dataclass(frozen=True)
class SuiteSpec:
    """Recipe for a model suite: exhaustive small structures plus seeded
    samples.  The same recipe always yields the same stream."""

    sig: Signature
    max_size: int
    seed: int = 0
    samples: int = 0
    defined: bool = False

    def structures(self) -> Iterator[Structure]:
        return enumerate_structures(
            self.sig,
            self.max_size,
            seed=self.seed,
            samples=self.samples,
            defined=self.defined,
        )

    def suite(self) -> Suite:
        """The stream as a `Suite`, which builds a structure only when asked."""
        return Suite(self)

    def describe(self) -> str:
        parts = [f"exhaustive |A|<={min(self.max_size, 2)}"]
        if self.samples and self.max_size >= 3:
            parts.append(
                f"{self.samples} sampled up to |A|={self.max_size} (seed {self.seed})"
            )
        if self.defined:
            parts.append("definedness")
        return ", ".join(parts)


def enumerate_structures(
    sig: Signature,
    max_size: int,
    *,
    seed: int = 0,
    samples: int = 0,
    defined: bool = False,
) -> Iterator[Structure]:
    """Stream structures over ``sig``: every structure of size at most two
    (over the full application/constant grid), then ``samples`` seeded random
    structures of sizes three to ``max_size``.

    With ``defined`` set, ``def`` is pinned to the first element and its
    application rows forced total, so every emitted structure satisfies the
    definedness law.
    """
    yield from Suite(SuiteSpec(sig, max_size, seed, samples, defined))


class Suite(Sequence[Structure]):
    """The structures of a `SuiteSpec`, in stream order, as a sequence held
    as its runs.

    A run is the structures of one universe size in a row, as one table of
    their masks, a lane per structure: ``(marks, cells, masks)``, where a
    lane's mark counts the structures up to and including it, ``cells``
    holds one column of the lanes' masks per application cell, row by row,
    and ``masks`` one per constant name.  The exhaustive runs come from a
    cached table (`_exhaustive`).  The samples' runs are drawn, all of them
    in the stream's order (`_read_samples`), the first time a sample or the
    runs are asked for.  Its length comes from counts.  Structure k is
    built from its lane the first time it is asked for and kept in
    ``made``, so ``suite[k] is suite[k]``.  A two-element structure's
    ``twin`` is the structure at its swap image's position (`_swap_images`)
    when that comes earlier.  A slice of a suite is the list of its
    structures.  ``layout`` is where `semantics` keeps the suite's lane
    layout once it has made one."""

    def __init__(self, spec: SuiteSpec) -> None:
        if spec.max_size < 1:
            raise ValueError("max_size must be at least 1")
        _check_cap(range(spec.max_size))
        names = list(spec.sig.constants)
        if spec.defined and DEFINEDNESS not in names:
            names.append(DEFINEDNESS)
        self._names, self._spec = names, spec
        self._tables, self._lanes, self._images = _exhaustive(
            tuple(names), spec.defined, min(spec.max_size, 2))
        self._first_sample = self._tables[-1][0][-1]
        self._length = self._first_sample + (max(spec.samples, 0) if spec.max_size >= 3 else 0)
        self.made: dict[int, Structure] = {}
        self.layout = None

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int | slice) -> Structure | list[Structure]:
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(self._length))]
        k = operator.index(index)
        if k < 0:
            k += self._length
        s = self.made.get(k)
        if s is None:
            if not 0 <= k < self._length:
                raise IndexError("suite index out of range")
            # setdefault: of two threads building k at once, both keep the first.
            s = self.made.setdefault(k, self._build(k))
        return s

    def __iter__(self) -> Iterator[Structure]:
        return map(self.__getitem__, range(self._length))

    def _build(self, k: int) -> Structure:
        # Only the samples' runs read the stream.
        runs = self._tables if k < self._first_sample else self._samples()
        marks, cells, masks = runs[bisect.bisect_right(runs, k, key=_last_mark)]
        lane, size = k + 1 - marks[0], math.isqrt(len(cells))
        images = self._images if size == 2 else ()
        twin = self[k - lane + images[lane]] if images and images[lane] < lane else None
        return Structure(_universe(size), _rows([c[lane] for c in cells], size),
                         {name: c[lane] for name, c in masks.items()}, twin)

    def runs(self) -> Iterator[tuple]:
        """The runs, building no structure, where a structure whose twin
        comes earlier gets no lane."""
        yield from self._lanes
        yield from self._samples()

    def _samples(self) -> list[tuple]:
        """The samples' runs, drawn the first time asked for."""
        count = self._length - self._first_sample
        # setdefault: of two threads drawing at once, both keep the first.
        return self.__dict__.get("drawn") or self.__dict__.setdefault(
            "drawn", _read_samples(self._spec, self._names, self._first_sample, count)
            if count else [])


def _last_mark(run: tuple) -> int:
    """One past the position of a run's last structure."""
    return run[0][-1]


@lru_cache(maxsize=None)
def _universe(size: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(size))


def _rows(cells: Sequence[int], size: int) -> tuple[tuple[int, ...], ...]:
    """``cells`` cut into rows of ``size``."""
    return tuple(zip(*[iter(cells)] * size))


@lru_cache(maxsize=None)
def _exhaustive(names: tuple[str, ...], defined: bool, largest: int) -> tuple[list, list, tuple]:
    """The exhaustive runs of a suite over the constant ``names``, of one to
    ``largest`` elements: as tables of every structure (see `Suite`), as
    the lanes that `Suite.runs` gives, where a structure whose swap image
    comes earlier has none, and the two-element run's swap images, if it
    has twins.  Every suite of the same shape shares them, so they are
    never changed.  Position p of the run of ``size`` elements, read in
    base 2^size, most significant digit first, gives one mask per digit:
    the free application cells row by row, then the free constants.  So
    digit t of the positions in order is a period, each digit value
    repeated 2^shift times.  With ``defined``, ``def`` is the first element
    and its row is total: columns like any other, of one mask."""
    free = [n for n in names if n != DEFINEDNESS] if defined else list(names)
    named = [DEFINEDNESS] * defined + free
    tables, lanes, images, start = [], [], (), 0
    for size in range(1, largest + 1):
        cells = (size - defined) * size  # the free ones
        digits = cells + len(free)
        count = 1 << size * digits
        columns = [b"".join([bytes([d]) * (1 << s) for d in range(1 << size)]) * (count >> s + size)
                   for s in range(size * (digits - 1), -1, -size)]
        forced = [bytes([(1 << size) - 1]) * count] * (size * defined)  # def's row
        columns = forced + columns[:cells] + [b"\1" * count] * defined + columns[cells:]
        marks, split = range(start + 1, start + count + 1), size * size
        tables.append((marks, columns[:split], dict(zip(named, columns[split:]))))
        if size == 2 and not defined:
            images = _swap_images(len(free))
            keep = list(map(operator.ge, images, range(count)))
            marks = tuple(itertools.compress(marks, keep))
            columns = [bytes(itertools.compress(c, keep)) for c in columns]
        lanes.append((marks, columns[:split], dict(zip(named, columns[split:]))))
        start += count
    return tables, lanes, images


@lru_cache(maxsize=None)
def _swap_images(free: int) -> tuple[int, ...]:
    """Where each two-element structure's 0<->1 image sits in its run: a
    position reads in base 4, a mask per digit, cells first, then ``free``
    constants; the swap exchanges each mask's bits and reverses the cells."""
    swap, images = (0, 2, 1, 3), [0]
    for t in range(4):
        # Cell digit t, from the most significant, lands at digit 3 - t.
        images = [i | s << 2 * t for i in images for s in swap]
    for _ in range(free):
        images = [i << 2 | s for i in images for s in swap]
    return tuple(images)


# The most words one read of a sample stream takes; a longer stream is read
# again, the words left over carried into the next read.
_READ = 1 << 13


def _read_samples(spec: SuiteSpec, names: list[str], first: int, count: int) -> list[tuple]:
    """The runs of the first ``count`` samples, the first of them at
    position ``first`` of the suite (see `Suite`), as `random.Random`
    seeded with ``spec.seed`` draws them a call at a time: ``randint(3,
    max_size)``, then ``getrandbits(size)`` per cell, row by row, per name
    in ``names`` and, with ``defined``, once more for ``def``.  Each call
    reads the top bits of 32-bit Mersenne Twister words (Matsumoto &
    Nishimura, ACM TOMACS 8(1), 1998): ``getrandbits(k)`` one word, and
    ``randint`` words until the top k bits of one, k the bit length of
    max_size - 2, are below it.  So the words are read in a few bulk
    ``getrandbits(32 * W)`` calls, first word lowest, and parsed in order.
    A sample of up to 8 elements is a ``bytes`` slice of the plane of top
    bytes shifted down to its size; a wider one reads whole words.  Each
    sample's masks go on the end of its run's, which are cut into columns
    once every sample is drawn."""
    rng, top = random.Random(spec.seed), spec.max_size
    below = top - 2
    drop = 8 - below.bit_length()  # of a top byte, the k bits randint reads
    bound = below << drop  # a top byte r reads below it exactly where r < bound
    defined = spec.defined
    extra = len(names) + defined
    most = top * top + extra  # the words of the largest sample
    tables: list[tuple] = []  # each run's size and its samples' masks, one after another
    buf = tops = b""
    p = end = drawn = last = 0
    while drawn < count:
        if p + most >= end:
            # The samples left at the largest size, three words each for the size draw.
            words = max(min((count - drawn) * (most + 3), _READ), most + 1)
            buf = buf[4 * p:] + rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            tops, planes, wide, p = buf[3::4], {}, None, 0
            end = len(tops)
        r = tops[p]
        p += 1
        if r < bound:
            size = 3 + (r >> drop)
            cells = size * size
            q = p + cells + extra
            if size > 8:
                wide = wide or struct.unpack(f"<{end}I", buf)
                values = [w >> 32 - size for w in wide[p:q]]
            else:
                if size not in planes:
                    planes[size] = tops.translate(_shifted(size))
                values = planes[size][p:q]
            if defined:
                # def holds the first element and maybe more; that element's row is total.
                fixed = [(1 << size) - 1] * size + list(values[size:-1])
                fixed[cells + names.index(DEFINEDNESS)] = 1 | values[-1]
                values = fixed
            if size != last:
                last, table = size, bytearray() if size <= 8 else []
                tables.append((size, table))
            table.extend(values)
            drawn += 1
            p = q
    runs = []
    for size, table in tables:
        stride = size * size + len(names)
        columns = [table[t::stride] for t in range(stride)]
        lanes = len(columns[0])
        runs.append((range(first + 1, first + lanes + 1), columns[:size * size],
                     dict(zip(names, columns[size * size:]))))
        first += lanes
    return runs


@lru_cache(maxsize=None)
def _shifted(size: int) -> bytes:
    """The table that shifts a top byte down to its top ``size`` bits."""
    return bytes(b >> 8 - size for b in range(256))
