"""Typed multisemigroups with multiplicities.

A shadow is a finite set of elements, each with a source and target object,
together with a composition table assigning to every composable pair (a, b)
(meaning source(a) == target(b)) a formal nonnegative-integer combination of
elements, the decomposition of "a after b". The empty decomposition is the
formal zero; it is never an element. An optional involution models taking
adjoints: it swaps sources and targets, fixes identities and reverses
composition.

Partial shadows arise from windowing an infinite structure: composable pairs
whose full product would leave the window are simply absent from the table
and read as zero, and exhaustive checks skip triples that touch them.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple


class FiatcellError(Exception):
    pass


class InputError(FiatcellError):
    """Bad user input: unknown ids, malformed files, out-of-range sizes."""


class StructureError(FiatcellError):
    """A shadow violates a structural invariant."""


class ConsistencyError(FiatcellError):
    """An internal computation produced an impossible value."""


@dataclass(frozen=True)
class Element:
    name: str
    source: int
    target: int
    is_identity: bool = False


@dataclass(frozen=True, init=False)
class Decomposition:
    """Formal N-combination of elements sharing one (source, target) pair.

    The empty decomposition is the formal zero. Immutable: terms is a
    read-only mapping over a copy of the given one.
    """

    terms: Mapping[Element, int]

    # sets terms once; the generated __init__ plus a __post_init__ would set
    # it twice, and a loaded shadow builds one decomposition per table row
    def __init__(self, terms: Mapping[Element, int] | None = None) -> None:
        object.__setattr__(self, "terms", MappingProxyType(dict(terms or {})))

    @staticmethod
    def zero() -> "Decomposition":
        return Decomposition({})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset[Element]:
        return frozenset(self.terms)

    def mult(self, e: Element) -> int:
        return self.terms.get(e, 0)

    def items(self):
        return self.terms.items()

    def __add__(self, other: "Decomposition") -> "Decomposition":
        out = dict(self.terms)
        for e, m in other.terms.items():
            out[e] = out.get(e, 0) + m
        return Decomposition(out)

    def scaled(self, k: int) -> "Decomposition":
        if k == 0:
            return Decomposition.zero()
        return Decomposition({e: k * m for e, m in self.terms.items()})


class IntView(NamedTuple):
    """A shadow's table on element ids, the positions in s.elements.

    rows[a * n + b], for n elements, holds the entry of the pair (a, b) as
    a flat (id, mult, id, mult, ...) tuple in the entry's term order, and
    None when the pair has no entry. by_target lists, for each object, the
    ids of the elements with that target, in element order.
    """

    source: tuple[int, ...]
    by_target: dict[int, tuple[int, ...]]
    rows: tuple[tuple[int, ...] | None, ...]


@dataclass(frozen=True)
class Shadow:
    """Objects, elements in canonical order, the composition table, an
    optional involution and the partial flag. Immutable: table and
    involution are read-only mappings over copies made at construction, so
    a cached shadow cannot be changed under its other holders.

    Derived data is memoised on the shadow: the integer view of the table
    (_view, an IntView) for the associativity sweep and the cell engine,
    and the cell data of cells.cell_data.
    """

    objects: tuple[int, ...]
    elements: tuple[Element, ...]
    table: Mapping[tuple[Element, Element], Decomposition]
    involution: Mapping[Element, Element] | None = None
    partial: bool = False
    _by_name: dict[str, Element] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _index: dict[Element, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # kind -> cells.CellData, filled on first use by cells.cell_data
    _cells: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))
        if self.involution is not None:
            object.__setattr__(
                self, "involution", MappingProxyType(dict(self.involution))
            )
        for i, e in enumerate(self.elements):
            self._by_name[e.name] = e
            self._index[e] = i

    @cached_property
    def _view(self) -> IntView:
        return _build_view(self)

    def element(self, name: str) -> Element:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"unknown element id {name!r}") from None

    def has_element(self, e: Element) -> bool:
        return self._index.get(e) is not None and self.elements[self._index[e]] == e

    def index_of(self, e: Element) -> int:
        return self._index[e]

    def identity_at(self, obj: int) -> Element:
        for e in self.elements:
            if e.is_identity and e.source == obj:
                return e
        raise InputError(f"no identity at object {obj}")


def _build_view(s: Shadow) -> IntView:
    index = s._index
    n = len(s.elements)
    rows: list[tuple[int, ...] | None] = [None] * (n * n)
    try:
        for (a, b), d in s.table.items():
            row: list[int] = []
            for e, m in d.items():
                row += (index[e], m)
            rows[index[a] * n + index[b]] = tuple(row)
    except KeyError as err:
        raise StructureError(
            f"table names {err.args[0].name!r}, which is not an element"
        ) from None
    by_target: dict[int, list[int]] = {}
    for i, e in enumerate(s.elements):
        by_target.setdefault(e.target, []).append(i)
    return IntView(
        source=tuple(e.source for e in s.elements),
        by_target={obj: tuple(ids) for obj, ids in by_target.items()},
        rows=tuple(rows),
    )


def compose(s: Shadow, a: Element, b: Element) -> Decomposition:
    """Decomposition of "a after b"; the formal zero when not composable.

    In a partial shadow an absent (boundary-incomplete) entry also reads as
    zero; exact products of the unwindowed structure must be computed at the
    formula level instead.
    """
    if not s.has_element(a):
        raise InputError(f"unknown element id {a.name!r}")
    if not s.has_element(b):
        raise InputError(f"unknown element id {b.name!r}")
    if a.source != b.target:
        return Decomposition.zero()
    entry = s.table.get((a, b))
    if entry is None:
        if s.partial:
            return Decomposition.zero()
        raise StructureError(f"missing table entry for ({a.name}, {b.name})")
    return entry


def compose_left(s: Shadow, a: Element, d: Decomposition) -> Decomposition:
    """a after each term of d, summed with multiplicities."""
    out: dict[Element, int] = {}
    for t, m in d.items():
        for e, k in compose(s, a, t).items():
            out[e] = out.get(e, 0) + m * k
    return Decomposition(out)


def validate_shadow(s: Shadow) -> None:
    """Raise StructureError on the first violated invariant."""
    if len(set(s.objects)) != len(s.objects):
        raise StructureError("duplicate object ids")
    objset = set(s.objects)
    names = [e.name for e in s.elements]
    if len(set(names)) != len(names):
        raise StructureError("duplicate element ids")
    for e in s.elements:
        if e.source not in objset or e.target not in objset:
            raise StructureError(f"element {e.name} touches an unknown object")
        if e.is_identity and e.source != e.target:
            raise StructureError(f"identity {e.name} has source != target")
    for obj in s.objects:
        ids = [e for e in s.elements if e.is_identity and e.source == obj]
        if len(ids) != 1:
            raise StructureError(f"object {obj} has {len(ids)} identities")

    for (a, b), d in s.table.items():
        if a.source != b.target:
            raise StructureError(f"table entry ({a.name}, {b.name}) is not composable")
        for e, m in d.items():
            if m < 1:
                raise StructureError(
                    f"nonpositive multiplicity {m} in ({a.name}, {b.name})"
                )
            if e.source != b.source or e.target != a.target:
                raise StructureError(
                    f"term {e.name} of ({a.name}, {b.name}) has wrong source/target"
                )
    if not s.partial:
        for a in s.elements:
            for b in s.elements:
                if a.source == b.target and (a, b) not in s.table:
                    raise StructureError(
                        f"incomplete table: missing entry ({a.name}, {b.name})"
                    )
    for a in s.elements:
        one_t = s.identity_at(a.target)
        one_s = s.identity_at(a.source)
        for one, pair in ((one_t, (one_t, a)), (one_s, (a, one_s))):
            entry = s.table.get(pair)
            if entry is None and s.partial:
                continue
            if entry is None or entry.terms != {a: 1}:
                raise StructureError(f"identity does not act strictly on {a.name}")

    if s.involution is not None:
        inv = s.involution
        if set(inv) != set(s.elements) or set(inv.values()) != set(s.elements):
            raise StructureError("involution is not a bijection on elements")
        for e, f in inv.items():
            if inv[f] != e:
                raise StructureError(f"involution not self-inverse at {e.name}")
            if f.source != e.target or f.target != e.source:
                raise StructureError(f"involution of {e.name} does not swap endpoints")
            if e.is_identity and f != e:
                raise StructureError(f"involution moves identity {e.name}")
        for (a, b), d in s.table.items():
            dual = s.table.get((inv[b], inv[a]))
            if dual is None:
                if s.partial:
                    continue
                raise StructureError(
                    f"missing dual entry for ({a.name}, {b.name})"
                )
            starred = {inv[e]: m for e, m in d.items()}
            if starred != dual.terms:
                raise StructureError(
                    f"involution is not an anti-homomorphism at ({a.name}, {b.name})"
                )


@dataclass
class AssociativityReport:
    status: str  # "pass", "fail" or "structural-error"
    checked: int = 0
    skipped: int = 0
    failure: dict | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _combine(rows, row, base: int, stride: int) -> dict[int, int] | None:
    """The sum of m * rows[base + stride * t] over the terms (t, m) of row,
    or None when one of those entries is absent."""
    out: dict[int, int] = {}
    it = iter(row)
    for t, m in zip(it, it):
        entry = rows[base + stride * t]
        if entry is None:
            return None
        terms = iter(entry)
        for e, k in zip(terms, terms):
            out[e] = out.get(e, 0) + m * k
    return out


def check_associativity(s: Shadow) -> AssociativityReport:
    """Exhaustively compare (a b) c with a (b c) at the multiplicity level.

    Returns a report rather than raising: structural problems yield status
    "structural-error", a genuine counterexample yields "fail" with the
    first failing triple in canonical order. Partial shadows skip triples
    that touch an absent table entry. The sweep runs on the integer view.
    """
    try:
        validate_shadow(s)
        source, by_target, rows = s._view
    except StructureError as err:
        return AssociativityReport(status="structural-error", message=str(err))

    n = len(s.elements)
    checked = 0
    skipped = 0
    failure = None
    for a in range(n):
        a_row = a * n
        for b in by_target.get(source[a], ()):
            ab = rows[a_row + b]
            cs = by_target.get(source[b], ())
            if ab is None:
                skipped += len(cs)
                continue
            b_row = b * n
            for c in cs:
                bc = rows[b_row + c]
                if bc is None:
                    skipped += 1
                    continue
                if len(ab) == 2 == len(bc):
                    # the common case, one term a side: m (t c) against k (a u)
                    (t, m), (u, k) = ab, bc
                    tc, au = rows[t * n + c], rows[a_row + u]
                    if tc is None or au is None:
                        skipped += 1
                        continue
                    if len(tc) == 2 == len(au) and tc[0] == au[0]:
                        checked += 1
                        if m * tc[1] != k * au[1] and failure is None:
                            left, right = {tc[0]: m * tc[1]}, {au[0]: k * au[1]}
                            failure = _witness(s, (a, b, c), left, right)
                        continue
                left = _combine(rows, ab, c, n)
                right = None if left is None else _combine(rows, bc, a_row, 1)
                if right is None:
                    skipped += 1
                    continue
                checked += 1
                if left != right and failure is None:
                    failure = _witness(s, (a, b, c), left, right)
    if failure is not None:
        return AssociativityReport(
            status="fail", checked=checked, skipped=skipped, failure=failure
        )
    return AssociativityReport(status="pass", checked=checked, skipped=skipped)


def _witness(s: Shadow, triple, left: dict[int, int], right: dict[int, int]) -> dict:
    elements = s.elements
    return {
        "triple": [elements[i].name for i in triple],
        "left": {elements[i].name: m for i, m in sorted(left.items())},
        "right": {elements[i].name: m for i, m in sorted(right.items())},
    }


def _named(s: Shadow, terms: Mapping[Element, int]) -> dict[str, int]:
    return {e.name: m for e, m in sorted(terms.items(), key=lambda t: s.index_of(t[0]))}


FORMAT_VERSION = 1


def shadow_to_dict(s: Shadow) -> dict:
    data: dict = {"format": FORMAT_VERSION}
    if s.partial:
        data["partial"] = True
    data["objects"] = list(s.objects)
    data["elements"] = [
        {
            "id": e.name,
            "source": e.source,
            "target": e.target,
            "identity": e.is_identity,
        }
        for e in s.elements
    ]
    if s.involution is None:
        data["involution"] = None
    else:
        data["involution"] = {
            e.name: s.involution[e].name
            for e in sorted(s.involution, key=s.index_of)
        }
    rows = []
    for (a, b) in sorted(s.table, key=lambda p: (s.index_of(p[0]), s.index_of(p[1]))):
        d = s.table[(a, b)]
        rows.append(
            {
                "left": a.name,
                "right": b.name,
                "result": _named(s, d.terms),
            }
        )
    data["table"] = rows
    return data


_JSON_TYPES = {int: "an integer", bool: "a boolean", str: "a string", dict: "an object"}


def _json(x, kind: type):
    """x if it is a JSON value of the given type; nothing is cast, and a
    boolean is not an integer."""
    if not isinstance(x, kind) or (kind is int and isinstance(x, bool)):
        raise InputError(f"expected {_JSON_TYPES[kind]}, got {json.dumps(x)}")
    return x


def shadow_from_dict(data: dict) -> Shadow:
    version = _json(data.get("format", FORMAT_VERSION), int)
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported format {version}, expected {FORMAT_VERSION}")
    try:
        objects = tuple(_json(o, int) for o in data["objects"])
        elements = tuple(
            Element(
                name=_json(row["id"], str),
                source=_json(row["source"], int),
                target=_json(row["target"], int),
                is_identity=_json(row["identity"], bool),
            )
            for row in data["elements"]
        )
        by_name = {e.name: e for e in elements}
        if len(by_name) != len(elements):
            raise InputError("duplicate element ids in file")
        inv_data = data.get("involution")
        involution = None
        if inv_data is not None:
            inv_data = _json(inv_data, dict)
            involution = {by_name[k]: by_name[v] for k, v in inv_data.items()}
        table = {}
        for row in data["table"]:
            a = by_name[row["left"]]
            b = by_name[row["right"]]
            if (a, b) in table:
                raise InputError(f"duplicate table row ({a.name}, {b.name})")
            result = _json(row["result"], dict)
            table[(a, b)] = Decomposition(
                {by_name[k]: _json(v, int) for k, v in result.items()}
            )
        return Shadow(
            objects=objects,
            elements=elements,
            table=table,
            involution=involution,
            partial=_json(data.get("partial", False), bool),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed shadow JSON: {err}") from err


def dumps_shadow(s: Shadow) -> str:
    return json.dumps(shadow_to_dict(s), indent=2) + "\n"


def save_shadow(s: Shadow, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_shadow(s))


def load_shadow(path: str) -> Shadow:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level is not an object")
    return shadow_from_dict(data)
