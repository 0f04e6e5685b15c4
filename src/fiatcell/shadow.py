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
from itertools import accumulate
from operator import itemgetter, mul, sub
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

    def mult(self, e: Element) -> int:
        return self.terms.get(e, 0)

    def items(self):
        return self.terms.items()

    def __add__(self, other: "Decomposition") -> "Decomposition":
        out = dict(self.terms)
        for e, m in other.terms.items():
            out[e] = out.get(e, 0) + m
        return Decomposition(out)


class IntView(NamedTuple):
    """A shadow's table on element ids, the positions in s.elements.

    rows[a * n + b], for n elements, holds the entry of the pair (a, b) as
    a flat (id, mult, id, mult, ...) tuple in the entry's term order, and
    None when the pair has no entry; _build_view checked every entry.
    order lists the entries' positions a * n + b in table order. by_target
    lists, for each object, the ids of the elements with that target, in
    element order.
    """

    source: tuple[int, ...]
    by_target: dict[int, tuple[int, ...]]
    rows: tuple[tuple[int, ...] | None, ...]
    order: tuple[int, ...]


@dataclass(frozen=True)
class Shadow:
    """Objects, elements in canonical order, the composition table, an
    optional involution and the partial flag. Immutable: table and
    involution are read-only mappings over copies made at construction, so
    a cached shadow cannot be changed under its other holders.

    Derived data is memoised on the shadow: the integer view of the table
    (_view, an IntView) for validation, the associativity sweep and the
    cell engine, and the cell data of cells.cell_data.
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
        return e in self._index

    def index_of(self, e: Element) -> int:
        return self._index[e]


def _build_view(s: Shadow) -> IntView:
    """The integer view, from one walk of the table in table order that
    raises StructureError on the first entry whose keys are not composable
    elements, or with a term that is not an element, has a nonpositive
    multiplicity or lacks the entry's endpoints."""
    index = s._index
    n = len(s.elements)
    rows: list[tuple[int, ...] | None] = [None] * (n * n)
    order: list[int] = []
    try:
        for (a, b), d in s.table.items():
            at = index[a] * n + index[b]
            if a.source != b.target:
                raise StructureError(f"table entry ({a.name}, {b.name}) is not composable")
            row: list[int] = []
            for e, m in d.terms.items():
                row += (index[e], m)
                if m < 1:
                    raise StructureError(
                        f"nonpositive multiplicity {m} in ({a.name}, {b.name})"
                    )
                if e.source != b.source or e.target != a.target:
                    raise StructureError(
                        f"term {e.name} of ({a.name}, {b.name}) has wrong source/target"
                    )
            rows[at] = tuple(row)
            order.append(at)
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
        order=tuple(order),
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
    """Raise StructureError on the first violated invariant: objects and
    elements first, then each table entry in the walk that builds the
    integer view, then, on the view, completeness unless the shadow is
    partial, strict identities and the involution."""
    if len(set(s.objects)) != len(s.objects):
        raise StructureError("duplicate object ids")
    names = [e.name for e in s.elements]
    if len(set(names)) != len(names):
        raise StructureError("duplicate element ids")
    identities: dict[int, list[int]] = {obj: [] for obj in s.objects}
    for i, e in enumerate(s.elements):
        if e.source not in identities or e.target not in identities:
            raise StructureError(f"element {e.name} touches an unknown object")
        if e.is_identity and e.source != e.target:
            raise StructureError(f"identity {e.name} has source != target")
        if e.is_identity:
            identities[e.source].append(i)
    for obj, ids in identities.items():
        if len(ids) != 1:
            raise StructureError(f"object {obj} has {len(ids)} identities")

    source, by_target, rows, order = s._view
    n = len(names)
    if not s.partial:
        for a in range(n):
            for b in by_target.get(source[a], ()):
                if rows[a * n + b] is None:
                    pair = f"({names[a]}, {names[b]})"
                    raise StructureError(f"incomplete table: missing entry {pair}")
    one = {obj: ids[0] for obj, ids in identities.items()}
    for a, e in enumerate(s.elements):
        for row in (rows[one[e.target] * n + a], rows[a * n + one[e.source]]):
            if row != (a, 1) and not (row is None and s.partial):
                raise StructureError(f"identity does not act strictly on {e.name}")

    inv = s.involution
    if inv is None:
        return
    if set(inv) != set(s.elements) or set(inv.values()) != set(s.elements):
        raise StructureError("involution is not a bijection on elements")
    for e, f in inv.items():
        if inv[f] != e:
            raise StructureError(f"involution not self-inverse at {e.name}")
        if f.source != e.target or f.target != e.source:
            raise StructureError(f"involution of {e.name} does not swap endpoints")
        if e.is_identity and f != e:
            raise StructureError(f"involution moves identity {e.name}")
    star = [s._index[inv[e]] for e in s.elements]
    for at in order:
        a, b = divmod(at, n)
        dual, terms = rows[star[b] * n + star[a]], rows[at]
        if dual is None:  # the dual pair is composable: absent only when partial
            continue
        if len(terms) == 2:  # one term, the common case
            same = dual == (star[terms[0]], terms[1])
        else:
            starred = {star[t]: m for t, m in zip(terms[::2], terms[1::2])}
            same = starred == dict(zip(dual[::2], dual[1::2]))
        if not same:
            raise StructureError(
                f"involution is not an anti-homomorphism at ({names[a]}, {names[b]})"
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


def _pick(indices: list[int]):
    """itemgetter over indices that returns a tuple for any count of them."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices) if indices else lambda row: ()


def _pack(s: Shadow, rows, order) -> tuple[list[int], int]:
    """Every entry as one integer, and the integer that stands for an absent
    one.

    Each element gets a slot in its hom space (source, target), and an entry
    packs to the sum of mult << (width * slot) over its terms. mass is the
    largest sum of multiplicities of one entry, so a slot of a sum of m * (t c)
    over the terms (t, m) of a b, or of k * (a u) over the terms (u, k) of b c,
    is at most mass ** 2; width is the bit length of that, no slot carries
    into the next, and two such sums are equal exactly when their
    multiplicity vectors are. Every such sum is below 1 << (width * h), h the
    size of the largest hom space; absent is minus that, so a sum that takes
    in an absent entry is negative and one that does not is not.
    """
    slots: dict[tuple[int, int], int] = {}
    slot = []
    for e in s.elements:
        ends = (e.source, e.target)
        slot.append(slots.get(ends, 0))
        slots[ends] = slot[-1] + 1
    mass = max((sum(rows[at][1::2]) for at in order), default=0)
    width = (mass * mass).bit_length()
    absent = -1 << (width * max(slots.values(), default=0))
    n = len(s.elements)
    packed = [absent] * (n * n)
    for at in order:
        it = iter(rows[at])
        packed[at] = sum(m << width * slot[t] for t, m in zip(it, it))
    return packed, absent


def check_associativity(s: Shadow) -> AssociativityReport:
    """Exhaustively compare (a b) c with a (b c) at the multiplicity level.

    Returns a report rather than raising: structural problems yield status
    "structural-error", a genuine counterexample yields "fail" with the
    first failing triple in canonical order. Partial shadows skip triples
    that touch an absent table entry.

    The sweep runs on the entries packed by _pack, one c-row at a time: for
    each pair (a, b) it builds the lists of (a b) c and of a (b c) over every
    c with target source(b). When the two are equal and neither took in an
    absent entry, every triple of the row is checked; otherwise the row is
    walked triple by triple.
    """
    try:
        validate_shadow(s)
        source, by_target, rows, order = s._view
    except StructureError as err:
        return AssociativityReport(status="structural-error", message=str(err))

    n = len(s.elements)
    packed, absent = _pack(s, rows, order)
    # cols[t]: t c packed, for each c with target source(t)
    cols = [[packed[t * n + c] for c in by_target[source[t]]] for t in range(n)]
    # b's c-row as flat terms, an absent b c as the term (n, 1): a pick of
    # their ids from an a-row, their multiplicities (None when all are 1)
    # and a pick of the prefix sums that end each c's terms (None when each
    # c has one term)
    c_rows = []
    for b in range(n):
        us: list[int] = []
        ks: list[int] = []
        ends = []
        for c in by_target[source[b]]:
            bc = rows[b * n + c]
            if bc is None:
                bc = (n, 1)
            us += bc[::2]
            ks += bc[1::2]
            ends.append(len(us))
        one_each = ends == list(range(1, len(ends) + 1))
        c_rows.append(
            (
                _pick(us),
                None if all(k == 1 for k in ks) else ks,
                None if one_each else _pick(ends),
            )
        )

    checked = 0
    skipped = 0
    failure = None
    for a in range(n):
        a_row = a * n
        a_packed = packed[a_row : a_row + n]
        a_packed.append(absent)
        for b in by_target.get(source[a], ()):
            ab = rows[a_row + b]
            cs = by_target[source[b]]
            if ab is None:
                skipped += len(cs)
                continue
            # (a b) c for each c
            terms = iter(ab)
            scaled = [
                cols[t] if m == 1 else [m * x for x in cols[t]] for t, m in zip(terms, terms)
            ]
            if len(scaled) == 1:
                left = scaled[0]
            elif scaled:
                left = list(map(sum, zip(*scaled)))
            else:
                left = [0] * len(cs)
            # a (b c) for each c
            pick_us, ks, pick_ends = c_rows[b]
            values = pick_us(a_packed)
            if ks is not None:
                values = map(mul, values, ks)
            if pick_ends is None:
                right = list(values)
            else:
                sums = pick_ends([0, *accumulate(values)])
                right = list(map(sub, sums, (0, *sums)))
            if left == right and min(left) >= 0:
                checked += len(cs)
                continue
            for c, x, y in zip(cs, left, right):
                if x < 0 or y < 0:
                    skipped += 1
                    continue
                checked += 1
                if x != y and failure is None:
                    left_terms = _combine(rows, ab, c, n)
                    right_terms = _combine(rows, rows[b * n + c], a_row, 1)
                    failure = _witness(s, (a, b, c), left_terms, right_terms)
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
    """terms keyed by element name, in element order."""
    return {e.name: m for e, m in sorted(terms.items(), key=lambda t: s.index_of(t[0]))}


FORMAT_VERSION = 1

# The largest shadow file load_shadow accepts: elements, and terms summed
# over the results of all table rows. The `check` sweep costs about
# terms x elements and a `cell-module` report up to elements**3 entries, so
# these keep each file verb to a few seconds (the README lists the limits
# with their measurements). A `build bn --n 8` file (165 elements, 4,109
# terms) and a `build clebsch --max 90` file (91 elements, 65,941 terms)
# lie inside.
FILE_LIMIT_ELEMENTS = 170
FILE_LIMIT_TERMS = 70_000


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
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    # ValueError covers a syntax error, bytes that are not UTF-8 and an
    # integer past the interpreter's digit limit; json raises
    # RecursionError on deeply nested arrays or objects
    except (ValueError, RecursionError) as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level is not an object")
    _check_file_size(data, path)
    return shadow_from_dict(data)


def _check_file_size(data: dict, path: str) -> None:
    """Refuse a parsed file past FILE_LIMIT_ELEMENTS or FILE_LIMIT_TERMS
    before any element is built. Members of the wrong type count as empty;
    shadow_from_dict reports them."""
    elements, table = data.get("elements"), data.get("table")
    n = len(elements) if isinstance(elements, list) else 0
    if n > FILE_LIMIT_ELEMENTS:
        raise InputError(
            f"{path} has {n} elements, more than the limit of {FILE_LIMIT_ELEMENTS}"
        )
    rows = table if isinstance(table, list) else ()
    terms = sum(
        len(row["result"])
        for row in rows
        if isinstance(row, dict) and isinstance(row.get("result"), dict)
    )
    if terms > FILE_LIMIT_TERMS:
        raise InputError(
            f"{path} has {terms} table terms, more than the limit of {FILE_LIMIT_TERMS}"
        )
