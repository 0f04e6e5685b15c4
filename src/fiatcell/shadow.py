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
from dataclasses import dataclass, field


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


@dataclass(eq=True)
class Decomposition:
    """Formal N-combination of elements sharing one (source, target) pair.

    The empty decomposition is the formal zero.
    """

    terms: dict[Element, int] = field(default_factory=dict)

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


@dataclass(eq=True)
class Shadow:
    objects: tuple[int, ...]
    elements: tuple[Element, ...]
    table: dict[tuple[Element, Element], Decomposition]
    involution: dict[Element, Element] | None = None
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
        for i, e in enumerate(self.elements):
            self._by_name[e.name] = e
            self._index[e] = i

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


def _triple_sides(s, a, b, c):
    ab = s.table.get((a, b))
    bc = s.table.get((b, c))
    if ab is None or bc is None:
        return None
    left: dict[Element, int] = {}
    for t, m in ab.items():
        tc = s.table.get((t, c))
        if tc is None:
            return None
        for e, k in tc.items():
            left[e] = left.get(e, 0) + m * k
    right: dict[Element, int] = {}
    for u, m in bc.items():
        au = s.table.get((a, u))
        if au is None:
            return None
        for e, k in au.items():
            right[e] = right.get(e, 0) + m * k
    return left, right


def check_associativity(s: Shadow) -> AssociativityReport:
    """Exhaustively compare (a b) c with a (b c) at the multiplicity level.

    Returns a report rather than raising: structural problems yield status
    "structural-error", a genuine counterexample yields "fail" with the
    first failing triple in canonical order. Partial shadows skip triples
    that touch an absent table entry.
    """
    try:
        validate_shadow(s)
    except StructureError as err:
        return AssociativityReport(status="structural-error", message=str(err))

    by_target: dict[int, list[Element]] = {}
    for e in s.elements:
        by_target.setdefault(e.target, []).append(e)
    checked = 0
    skipped = 0
    failure = None
    for a in s.elements:
        for b in by_target.get(a.source, ()):
            for c in by_target.get(b.source, ()):
                sides = _triple_sides(s, a, b, c)
                if sides is None:
                    skipped += 1
                    continue
                checked += 1
                left, right = sides
                if left != right and failure is None:
                    failure = {
                        "triple": [a.name, b.name, c.name],
                        "left": _named(s, left),
                        "right": _named(s, right),
                    }
    if failure is not None:
        return AssociativityReport(
            status="fail", checked=checked, skipped=skipped, failure=failure
        )
    return AssociativityReport(status="pass", checked=checked, skipped=skipped)


def _named(s: Shadow, terms: dict[Element, int]) -> dict[str, int]:
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
