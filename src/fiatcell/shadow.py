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

from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .checks import ConsistencyError, FiatcellError, InputError, StructureError  # noqa: F401


class Element(NamedTuple):
    name: str
    source: int
    target: int
    is_identity: bool = False


class _Frozen:
    """Refuses assignment to and deletion of any attribute, with the
    messages of a frozen record; instances fill their fields through
    object.__setattr__ or their instance dict."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Decomposition(_Frozen):
    """Formal N-combination of elements sharing one (source, target) pair.

    The empty decomposition is the formal zero. Immutable: terms is a
    read-only mapping over a copy of the given one. Two decompositions are
    equal when their terms are; like their terms, they are not hashable.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms: Mapping[Element, int] | None = None) -> None:
        object.__setattr__(self, "terms", MappingProxyType(dict(terms or {})))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(terms={self.terms!r})"

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
    None when the pair has no entry; _build_view checked every entry. order
    lists the entries' positions a * n + b in table order. by_target lists,
    per object, the ids of the elements with that target. star is None or
    the involution as each element's image id: None for no image, and one
    entry more for keys that are not elements.
    """

    source: tuple[int, ...]
    by_target: dict[int, tuple[int, ...]]
    rows: tuple[tuple[int, ...] | None, ...]
    order: tuple[int, ...]
    star: tuple[int | None, ...] | None


class Shadow(_Frozen):
    """Objects, elements in canonical order, the composition table, an
    optional involution and the partial flag.

    Validation, the sweep and the cell engine read only the table on ids
    (_view, an IntView), checked on first use. Builders and the loader make
    shadows from entries on ids (_on_ids), whose table and involution are
    read-only mappings derived on first access; a hand-built shadow keeps
    read-only copies of the ones it is given. No holder can change a cached
    shadow; _replace derives a changed one. Two shadows are equal when
    their five fields are; they are not hashable. Cell data
    (cells.cell_data) is memoised on the shadow too.
    """

    __hash__ = None
    _fields = ("objects", "elements", "table", "involution", "partial")

    objects: tuple[int, ...]
    elements: tuple[Element, ...]
    table: Mapping[tuple[Element, Element], Decomposition]
    involution: Mapping[Element, Element] | None
    partial: bool

    def __init__(self, objects, elements, table, involution=None, partial=False) -> None:
        if involution is not None:
            involution = MappingProxyType(dict(involution))
        table = MappingProxyType(dict(table))
        self._set_up(objects, elements, partial, None, table=table, involution=involution)

    @classmethod
    def _on_ids(cls, objects, elements, entries, star, partial=False) -> Shadow:
        """A shadow from entries (a, b, row) on ids and star, as in IntView."""
        s = object.__new__(cls)
        s._set_up(objects, elements, partial, (entries, star))
        return s

    def _set_up(self, objects, elements, partial, ids, **given) -> None:
        # frozen: fill the instance dict; _ids is (entries, star) on ids, or
        # None; _id_of maps each element name to its id, _index each element
        id_of = {e.name: i for i, e in enumerate(elements)}
        index = {e: i for i, e in enumerate(elements)}
        attributes = dict(objects=objects, elements=elements, partial=partial, _ids=ids)
        vars(self).update(given, **attributes, _id_of=id_of, _index=index, _cells={})

    def __getattr__(self, name: str):
        # the Element-level table and involution of a shadow made on ids,
        # derived on first access
        if name not in ("table", "involution") or not vars(self).get("_ids"):
            raise AttributeError(name)
        elements, (entries, star) = self.elements, self._ids
        value = None
        if name == "table":
            value = {
                (elements[a], elements[b]): Decomposition({elements[t]: m for t, m in _pairs(row)})
                for a, b, row in entries
            }
        elif star is not None:
            value = {elements[i]: elements[j] for i, j in enumerate(star) if j is not None}
        vars(self)[name] = value = value if value is None else MappingProxyType(value)
        return value

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes) -> Shadow:
        """A new shadow with the given fields changed, built like a
        hand-built one from every field."""
        kept = {name: getattr(self, name) for name in self._fields if name not in changes}
        return type(self)(**kept, **changes)

    @cached_property
    def _view(self) -> IntView:
        return _build_view(self)

    def element(self, name: str) -> Element:
        try:
            return self.elements[self._id_of[name]]
        except KeyError:
            raise InputError(f"unknown element id {name!r}") from None

    def has_element(self, e: Element) -> bool:
        return e in self._index

    def index_of(self, e: Element) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise InputError(f"unknown element id {e.name!r}") from None


def _pairs(row):
    it = iter(row)  # the (id, mult) terms of a flat row
    return zip(it, it)


def _run(ids, step: int) -> tuple[int, int] | None:
    """(lo, hi) when ids are exactly lo, lo + step, ..., hi, in increasing
    order, for a step above 0; None otherwise (no ids, or a repeated,
    missing or unsorted id). The sum of a run over any sequence is the
    difference of two of its step-wise prefix sums."""
    if ids and step > 0:
        lo, hi = ids[0], ids[-1]
        # the length first, so that a far-off hi builds no long range
        if hi - lo == step * (len(ids) - 1) and list(ids) == list(range(lo, hi + 1, step)):
            return lo, hi
    return None


def _table_ids(s: Shadow) -> tuple:
    """The entries (a, b, row) and star of s, unchecked; a hand-built table
    converts entry by entry as it is read, with a StructureError at the
    first entry that names a non-element."""
    if s._ids is not None:
        return s._ids
    index = s._index

    def entries():
        for (a, b), d in s.table.items():
            try:
                entry = index[a], index[b], tuple(x for e, m in d.items() for x in (index[e], m))
            except KeyError as err:
                name = err.args[0].name
                raise StructureError(f"table names {name!r}, which is not an element") from None
            yield entry

    star, inv = None, s.involution
    if inv is not None:
        star = tuple(index.get(inv.get(e)) for e in s.elements)
        if len(inv) != len(star):  # a key outside the elements
            star += (None,)
    return entries(), star


def _build_view(s: Shadow) -> IntView:
    """The integer view, from one walk of the entries of _table_ids in table
    order that raises StructureError on the first entry whose keys are not
    composable elements, or with a term that is not an element, has a
    nonpositive multiplicity or lacks the entry's endpoints."""
    source = tuple(e.source for e in s.elements)
    target = tuple(e.target for e in s.elements)
    names = [e.name for e in s.elements]
    n = len(names)
    rows: list[tuple[int, ...] | None] = [None] * (n * n)
    order: list[int] = []
    entries, star = _table_ids(s)
    for a, b, row in entries:
        if source[a] != target[b]:
            raise StructureError(f"table entry ({names[a]}, {names[b]}) is not composable")
        for t, m in _pairs(row):
            if m < 1:
                pair = f"({names[a]}, {names[b]})"
                raise StructureError(f"nonpositive multiplicity {m} in {pair}")
            if source[t] != source[b] or target[t] != target[a]:
                raise StructureError(
                    f"term {names[t]} of ({names[a]}, {names[b]}) has wrong source/target"
                )
        rows[a * n + b] = row
        order.append(a * n + b)
    by_target: dict[int, list[int]] = {}
    for i, obj in enumerate(target):
        by_target.setdefault(obj, []).append(i)
    by_target = {obj: tuple(ids) for obj, ids in by_target.items()}
    return IntView(source, by_target, tuple(rows), tuple(order), star)


def compose(s: Shadow, a: Element, b: Element) -> Decomposition:
    """Decomposition of "a after b"; the formal zero when not composable.

    In a partial shadow an absent (boundary-incomplete) entry also reads as
    zero; exact products of the unwindowed structure must be computed at the
    formula level instead.
    """
    for e in (a, b):
        if not s.has_element(e):
            raise InputError(f"unknown element id {e.name!r}")
    if a.source != b.target:
        return Decomposition.zero()
    row = s._view.rows[s.index_of(a) * len(s.elements) + s.index_of(b)]
    if row is None:
        if s.partial:
            return Decomposition.zero()
        raise StructureError(f"missing table entry for ({a.name}, {b.name})")
    return Decomposition({s.elements[t]: m for t, m in _pairs(row)})


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
    partial, strict identities and the involution, element by element."""
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

    source, by_target, rows, order, star = s._view
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

    if star is None:
        return
    if None in star or len(set(star)) != n:
        raise StructureError("involution is not a bijection on elements")
    for i, (e, j) in enumerate(zip(s.elements, star)):
        f = s.elements[j]
        if star[j] != i:
            raise StructureError(f"involution not self-inverse at {e.name}")
        if f.source != e.target or f.target != e.source:
            raise StructureError(f"involution of {e.name} does not swap endpoints")
        if e.is_identity and j != i:
            raise StructureError(f"involution moves identity {e.name}")
    for at in order:
        a, b = divmod(at, n)
        dual, terms = rows[star[b] * n + star[a]], rows[at]
        if dual is None:  # the dual pair is composable: absent only when partial
            continue
        if len(terms) == 2:  # one term, the common case
            same = dual == (star[terms[0]], terms[1])
        else:
            starred = {star[t]: m for t, m in _pairs(terms)}
            same = starred == dict(_pairs(dual))
        if not same:
            raise StructureError(
                f"involution is not an anti-homomorphism at ({names[a]}, {names[b]})"
            )
