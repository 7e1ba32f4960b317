"""Finite applicative structures, valuations, and model suites.

A structure is a nonempty finite universe, a binary application map sending
each pair of elements to a subset, and a denotation subset per constant.
Universe elements are opaque strings; their order in the file fixes the
canonical printing order for subsets.

Structures declaring the reserved constant ``def`` are definedness
structures and must apply it totally: ``def`` applied to any singleton
yields the whole universe.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .syntax import DEFINEDNESS, EVAR_TOKEN, SVAR_TOKEN, Signature

__all__ = [
    "ENUMERATION_CAP",
    "ModelError",
    "EmptyUniverse",
    "DanglingElement",
    "MissingConstant",
    "DefinednessViolated",
    "UniverseTooLarge",
    "Structure",
    "Kernel",
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


@dataclass(frozen=True)
class Structure:
    universe: tuple[str, ...]
    app: Mapping[tuple[str, str], frozenset]
    constants: Mapping[str, frozenset]

    @property
    def carrier(self) -> frozenset:
        return frozenset(self.universe)

    def app_of(self, a: str, b: str) -> frozenset:
        return self.app.get((a, b), frozenset())

    @cached_property
    def kernel(self) -> "Kernel":
        """The bitmask form used for evaluation, compiled on first use."""
        return Kernel(self)

    def sorted_elements(self, subset) -> list[str]:
        return sorted(subset, key=self.universe.index)

    def format_subset(self, subset) -> str:
        return "{" + ", ".join(self.sorted_elements(subset)) + "}"


class Kernel:
    """A structure in bitmask form: element i of the universe is bit i, a
    subset is an ``int``, and application is a table of per-cell masks."""

    __slots__ = ("universe", "full", "bits", "singletons", "rows", "constants")

    def __init__(self, s: Structure):
        _check_cap(s.universe)
        n = len(s.universe)
        self.universe = s.universe
        self.full = (1 << n) - 1
        self.bits, self.singletons = _bit_tables(n)
        index = s.universe.index
        rows = [[0] * n for _ in range(n)]
        for (a, b), val in s.app.items():
            rows[index(a)][index(b)] = self.mask(val)
        self.rows = tuple(map(tuple, rows))
        self.constants = {name: self.mask(val) for name, val in s.constants.items()}

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


@lru_cache(maxsize=None)
def _bit_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """For universes of size ``n``: the bit positions of every mask, and the
    singleton masks in universe order."""
    bits = tuple(tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n))
    return bits, tuple(1 << i for i in range(n))


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
    known = set(universe)

    def check_element(e, where):
        if not isinstance(e, str):
            raise ModelError(f"{where}: element {e!r} must be a string")
        if e not in known:
            raise DanglingElement(f"{where}: element {e!r} is not in the universe")

    app_doc = doc.get("app", [])
    if not isinstance(app_doc, list):
        raise ModelError("'app' must be a list")
    app: dict[tuple[str, str], frozenset] = {}
    for row in app_doc:
        if not isinstance(row, dict) or set(row) - {"left", "right", "result"}:
            raise ModelError(f"bad app row {row!r}")
        a, b = row.get("left"), row.get("right")
        check_element(a, "app row")
        check_element(b, "app row")
        if (a, b) in app:
            raise ModelError(f"duplicate app row for ({a!r}, {b!r})")
        result = row.get("result", [])
        if not isinstance(result, list):
            raise ModelError(f"app result for ({a!r}, {b!r}) must be a list")
        for e in result:
            check_element(e, "app result")
        app[(a, b)] = frozenset(result)

    constants: dict[str, frozenset] = {}
    consts_doc = doc.get("constants", {})
    if not isinstance(consts_doc, dict):
        raise ModelError("'constants' must be an object")
    for name, val in consts_doc.items():
        if not isinstance(val, list):
            raise ModelError(f"constant {name!r} denotation must be a list")
        for e in val:
            check_element(e, f"constant {name!r}")
        constants[name] = frozenset(val)

    if sig is not None:
        for name in sig.constants:
            if name not in constants:
                raise MissingConstant(f"no denotation for constant {name!r}")

    s = Structure(tuple(universe), app, constants)
    if DEFINEDNESS in constants:
        d = constants[DEFINEDNESS]
        for a in universe:
            if apply_sets(s, d, frozenset((a,))) != s.carrier:
                raise DefinednessViolated(
                    f"def applied to {{{a}}} does not give the whole universe"
                )
    return s


def structure_to_doc(s: Structure) -> dict:
    rows = []
    for a in s.universe:
        for b in s.universe:
            val = s.app_of(a, b)
            if val:
                rows.append(
                    {"left": a, "right": b, "result": s.sorted_elements(val)}
                )
    return {
        "universe": list(s.universe),
        "app": rows,
        "constants": {
            name: s.sorted_elements(val) for name, val in sorted(s.constants.items())
        },
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
    return int(m.group(1))


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
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    _check_cap(range(max_size))
    names = list(sig.constants)
    if defined and DEFINEDNESS not in names:
        names = names + [DEFINEDNESS]
    for size in range(1, min(max_size, 2) + 1):
        yield from _exhaustive(size, names, defined)
    if samples and max_size >= 3:
        rng = random.Random(seed)
        for _ in range(samples):
            yield _sample(rng, rng.randint(3, max_size), names, defined)


def _universe(size: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(size))


def _exhaustive(size: int, names: list[str], defined: bool) -> Iterator[Structure]:
    universe = _universe(size)
    subsets = list(subsets_of(universe))
    cells = [(a, b) for a in universe for b in universe]
    free_cells = cells
    forced_app: dict[tuple[str, str], frozenset] = {}
    forced_consts: dict[str, frozenset] = {}
    free_names = names
    if defined:
        # Pin def to the first element and make its rows total; the rest of
        # the grid stays free.
        anchor = universe[0]
        forced_consts = {DEFINEDNESS: frozenset((anchor,))}
        forced_app = {(anchor, b): frozenset(universe) for b in universe}
        free_cells = [c for c in cells if c not in forced_app]
        free_names = [n for n in names if n != DEFINEDNESS]
    for app_choice in itertools.product(subsets, repeat=len(free_cells)):
        app = dict(forced_app)
        for cell, val in zip(free_cells, app_choice):
            if val:
                app[cell] = val
        for const_choice in itertools.product(subsets, repeat=len(free_names)):
            constants = dict(forced_consts)
            constants.update(zip(free_names, const_choice))
            yield Structure(universe, app, constants)


def _sample(rng: random.Random, size: int, names: list[str], defined: bool) -> Structure:
    universe = _universe(size)
    full = frozenset(universe)

    def random_subset() -> frozenset:
        mask = rng.getrandbits(size)
        return frozenset(universe[i] for i in range(size) if mask >> i & 1)

    app: dict[tuple[str, str], frozenset] = {}
    for a in universe:
        for b in universe:
            val = random_subset()
            if val:
                app[(a, b)] = val
    constants = {name: random_subset() for name in names}
    if defined:
        anchor = universe[0]
        extras = random_subset()
        constants[DEFINEDNESS] = frozenset((anchor,)) | extras
        for b in universe:
            app[(anchor, b)] = full
    return Structure(universe, app, constants)
