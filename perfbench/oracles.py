"""Independent checks of fiatcell's outputs.

Every oracle here recomputes what an output must say from first principles
(closed-form counts, the defining action of the divided-power tower, the
one-round-ideal definition of cells applied to the file's own table) and
imports nothing from fiatcell. An oracle raises OracleError naming the first
disagreement; it returns None when the output is right.
"""

from __future__ import annotations

import json
import re
from math import comb


class OracleError(Exception):
    """A wrong output. `law` names the algebraic law it breaks when that is
    the only thing wrong: an oracle tests such a law after all its other
    checks have held."""

    def __init__(self, message: str, law: str | None = None):
        super().__init__(message)
        self.law = law


# laws that fiatcell breaks on partial windows (see CHANGES.md)
REPRESENTATION = "cell-module-representation"
CLOSURE = "ideal-closure"


def expect(ok: bool, message: str, law: str | None = None) -> None:
    if not ok:
        raise OracleError(message, law)


def parse_json(data: bytes) -> dict:
    try:
        doc = json.loads(data)
    except ValueError as err:
        raise OracleError(f"output is not JSON: {err}") from None
    expect(isinstance(doc, dict), "output is not a JSON object")
    return doc


def _all_pass(checks: list, names: list[str], where: str) -> None:
    got = [c.get("check") for c in checks]
    expect(got == names, f"{where}: check list {got} != {names}")
    for c in checks:
        expect(c.get("status") == "pass", f"{where}: check {c.get('check')} is {c.get('status')}")


# ---------------------------------------------------------------- bn


BN_CHECKS = [
    "structure",
    "associativity-multiplicity-level",
    "exchange-relation",
    "merge-relation",
    "defining-action-multiplicative",
    "cell-module-is-defining-action",
    "hom-pair-basis-count",
    "two-sided-cells-are-identity-cells",
    "cell-poset-chain-top-at-identity-0",
    "cell-generators-distinct-and-complete",
    "generator-two-sided-membership",
    "strong-regularity",
    "m-constant-on-right-cells",
    "m-value-identity-multiplicity-formula",
    "thick-ideal-count",
]


def bn_hom_pair_count(n: int, i: int, j: int) -> int:
    return min(i, j, n - i, n - j) + 1


def bn_element_count(n: int) -> int:
    return sum(bn_hom_pair_count(n, i, j) for i in range(n + 1) for j in range(n + 1))


def check_verify_bn(doc: dict, ranks: list[int]) -> None:
    expect(doc.get("construction") == "bn", "not a bn report")
    results = doc.get("results", [])
    expect([r.get("n") for r in results] == ranks, f"ranks {[r.get('n') for r in results]} != {ranks}")
    for r in results:
        n = r["n"]
        expect(r.get("elements") == bn_element_count(n), f"n={n}: {r.get('elements')} elements, expected {bn_element_count(n)}")
        expect(r.get("two-sided-cells") == n // 2 + 1, f"n={n}: {r.get('two-sided-cells')} two-sided cells, expected {n // 2 + 1}")
        names = BN_CHECKS + (["rank-reduction-index-shift"] if n >= 3 else [])
        _all_pass(r.get("checks", []), names, f"bn n={n}")
        expect(r.get("status") == "pass", f"n={n}: status {r.get('status')}")
    expect(doc.get("status") == "pass", f"report status {doc.get('status')}")


_BLOCK = re.compile(r"([EF])(\d+)\^\((\d+)\)")


def bn_action(name: str, n: int) -> dict[tuple[int, int], int]:
    """Matrix of an element of the rank-n tower on the sum of n + 1 lines,
    read from its name alone: "1_i" is the projector onto object i, and each
    divided-power block, applied right to left and labelled by its source
    object m, acts by C(m + k, k) for F^(k) and by C(n - (m - k), k) for
    E^(k). Sparse: {(row, column): entry}."""
    if name.startswith("1_"):
        i = int(name[2:])
        expect(0 <= i <= n, f"identity {name} outside 0..{n}")
        return {(i, i): 1}
    blocks = _BLOCK.findall(name)
    expect(blocks and "".join(f"{l}{m}^({k})" for l, m, k in blocks) == name, f"cannot parse element {name!r}")
    source = obj = int(blocks[-1][1])
    coeff = 1
    for letter, m, k in reversed(blocks):
        m, k = int(m), int(k)
        expect(m == obj and k >= 1, f"blocks of {name} do not chain")
        if letter == "F":
            obj = m + k
            coeff *= comb(obj, k)
        else:
            obj = m - k
            coeff *= comb(n - obj, k)
        expect(0 <= obj <= n, f"{name} leaves objects 0..{n}")
    return {(obj, source): coeff}


def matmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + x * y
    return {key: v for key, v in out.items() if v}


def matsum(terms) -> dict:
    out: dict = {}
    for mult, mat in terms:
        for key, v in mat.items():
            out[key] = out.get(key, 0) + mult * v
    return {key: v for key, v in out.items() if v}


class FileShadow:
    """A shadow file read without fiatcell: integer ids in file order, the
    table as {(a, b): {c: multiplicity}} and the one-round ideals."""

    def __init__(self, doc: dict):
        expect(doc.get("format") == 1, "format is not 1")
        self.doc = doc
        self.names = [e["id"] for e in doc["elements"]]
        self.index = {name: i for i, name in enumerate(self.names)}
        expect(len(self.index) == len(self.names), "duplicate element ids")
        self.source = [e["source"] for e in doc["elements"]]
        self.target = [e["target"] for e in doc["elements"]]
        self.identity = [e["identity"] for e in doc["elements"]]
        self.objects = list(doc["objects"])
        self.partial = bool(doc.get("partial", False))
        self.table: dict[tuple[int, int], dict[int, int]] = {}
        for row in doc["table"]:
            key = (self.index[row["left"]], self.index[row["right"]])
            expect(key not in self.table, f"duplicate table row {row['left']}, {row['right']}")
            self.table[key] = {self.index[c]: m for c, m in row["result"].items()}
        n = len(self.names)
        self.left = [{a} for a in range(n)]
        self.right = [{a} for a in range(n)]
        for (a, b), result in self.table.items():
            self.left[b].update(result)
            self.right[a].update(result)
        self.two_sided = [set().union(*(self.left[b] for b in self.right[a])) for a in range(n)]

    def composable_triples(self):
        into: dict[int, list[int]] = {}
        outof: dict[int, list[int]] = {}
        for i in range(len(self.names)):
            outof.setdefault(self.source[i], []).append(i)
            into.setdefault(self.target[i], []).append(i)
        for b in range(len(self.names)):
            for a in outof.get(self.target[b], ()):
                for c in into.get(self.source[b], ()):
                    yield a, b, c

    def triple_counts(self) -> tuple[int, int]:
        """(checked, skipped): a triple is checkable when every product that
        (ab)c and a(bc) need is in the table."""
        t = self.table
        checked = skipped = 0
        for a, b, c in self.composable_triples():
            ab, bc = t.get((a, b)), t.get((b, c))
            ok = (
                ab is not None
                and bc is not None
                and all((x, c) in t for x in ab)
                and all((a, y) in t for y in bc)
            )
            if ok:
                checked += 1
            else:
                skipped += 1
        return checked, skipped

    def ideals(self, kind: str) -> list[set[int]]:
        return {"left": self.left, "right": self.right, "two-sided": self.two_sided}[kind]

    def classes(self, kind: str) -> list[list[int]]:
        """Elements with equal one-round ideals, ordered by first member."""
        groups: dict[frozenset, list[int]] = {}
        for a, ideal in enumerate(self.ideals(kind)):
            groups.setdefault(frozenset(ideal), []).append(a)
        return sorted(groups.values(), key=lambda cls: cls[0])

    def cell_order(self) -> tuple[list[list[int]], set[tuple[int, int]]]:
        """Two-sided cells and the pairs (i, j) with cell i <= cell j, that is
        the ideal of j inside the ideal of i."""
        cells = self.classes("two-sided")
        ideal = [self.two_sided[cls[0]] for cls in cells]
        leq = {
            (i, j)
            for i in range(len(cells))
            for j in range(len(cells))
            if ideal[j] <= ideal[i]
        }
        return cells, leq

    def name_list(self, ids) -> list[str]:
        return [self.names[i] for i in sorted(ids)]


def check_bn_file(data: bytes, n: int) -> None:
    """The rank-n shadow file: counts per hom-pair, a complete table, the
    adjoint involution, and M_a M_b = sum_c m_c M_c for every row with the
    matrices taken from the element names."""
    s = FileShadow(parse_json(data))
    expect(s.objects == list(range(n + 1)), f"objects {s.objects}")
    expect(not s.partial, "bn file is marked partial")
    expect(len(s.names) == bn_element_count(n), f"{len(s.names)} elements, expected {bn_element_count(n)}")
    per_pair: dict[tuple[int, int], int] = {}
    for i in range(len(s.names)):
        key = (s.source[i], s.target[i])
        per_pair[key] = per_pair.get(key, 0) + 1
    for i in range(n + 1):
        for j in range(n + 1):
            expect(per_pair.get((i, j), 0) == bn_hom_pair_count(n, i, j), f"hom-pair ({i}, {j}) count")
    action = {}
    for i, name in enumerate(s.names):
        mat = bn_action(name, n)
        ((row, col),) = mat
        expect((col, row) == (s.source[i], s.target[i]), f"{name} has wrong endpoints")
        expect(s.identity[i] == name.startswith("1_"), f"{name} identity flag")
        action[i] = mat
    composable = sum(
        1 for a in range(len(s.names)) for b in range(len(s.names)) if s.source[a] == s.target[b]
    )
    expect(len(s.table) == composable, f"{len(s.table)} table rows, {composable} composable pairs")
    for (a, b), result in s.table.items():
        lhs = matmul(action[a], action[b])
        rhs = matsum((m, action[c]) for c, m in result.items())
        expect(all(m >= 1 for m in result.values()), f"nonpositive multiplicity at ({s.names[a]}, {s.names[b]})")
        expect(lhs == rhs, f"M_a M_b != sum m_c M_c at ({s.names[a]}, {s.names[b]})")
    inv = s.doc.get("involution")
    expect(isinstance(inv, dict) and len(inv) == len(s.names), "involution missing")
    for e, f in inv.items():
        i, j = s.index[e], s.index[f]
        expect((s.source[j], s.target[j]) == (s.target[i], s.source[i]), f"involution of {e} keeps endpoints")
        expect(inv[f] == e, f"involution not self-inverse at {e}")


# ---------------------------------------------------------------- windows


def window_checked(k: int) -> int:
    """Triples of {0..k} whose products stay in the window: a + b + c <= k."""
    return comb(k + 3, 3)


def window_skipped(k: int) -> int:
    return (k + 1) ** 3 - window_checked(k)


def check_window_file(data: bytes, k: int) -> None:
    """The fusion window {0..k}: an entry exactly for a + b <= k, holding
    |a-b|, |a-b|+2, ..., a+b once each."""
    s = FileShadow(parse_json(data))
    expect(s.names == [str(v) for v in range(k + 1)], "window elements")
    expect(s.objects == [0] and s.partial == (k > 0), "window objects or partial flag")
    want = {
        (a, b): {c: 1 for c in range(abs(a - b), a + b + 1, 2)}
        for a in range(k + 1)
        for b in range(k + 1)
        if a + b <= k
    }
    expect(s.table == want, "window table differs from the fusion rule")


# ---------------------------------------------------------------- file verbs


def check_check(doc: dict, s: FileShadow) -> None:
    checked, skipped = s.triple_counts()
    want = {"format": 1, "verb": "check", "status": "pass", "checked": checked, "skipped": skipped}
    expect(doc == want, f"check report {doc} != {want}")


def check_cells(doc: dict, s: FileShadow, kind: str) -> None:
    want = [s.name_list(cls) for cls in s.classes(kind)]
    expect(doc.get("kind") == kind, "cells kind")
    expect(doc.get("classes") == want, f"{kind} cells differ from the one-round-ideal classes")


_DOT_NODE = re.compile(r'^  c(\d+) \[label="(.*)"\];$')
_DOT_EDGE = re.compile(r"^  c(\d+) -> c(\d+);$")


def check_dot(text: str, s: FileShadow) -> None:
    """One node per two-sided cell, one edge i -> j per covering pair."""
    cells, leq = s.cell_order()
    lt = {(i, j) for i, j in leq if i != j}
    covers = {
        (i, j)
        for i, j in lt
        if not any((i, k) in lt and (k, j) in lt for k in range(len(cells)))
    }
    nodes, edges = {}, set()
    for line in text.splitlines()[2:-1]:
        node, edge = _DOT_NODE.match(line), _DOT_EDGE.match(line)
        expect(node or edge, f"unexpected DOT line {line!r}")
        if node:
            nodes[int(node.group(1))] = node.group(2).split(" | ")
        else:
            edges.add((int(edge.group(1)), int(edge.group(2))))
    expect(nodes == {i: s.name_list(cls) for i, cls in enumerate(cells)}, "DOT nodes are not the two-sided cells")
    expect(edges == covers, f"DOT edges {sorted(edges)} != covers {sorted(covers)}")


def count_upsets(elements: frozenset, leq: set) -> int:
    """Up-closed subsets of a finite poset, by splitting on one element:
    the upsets holding x are up(x) plus an upset of the rest, the ones
    without x avoid all of down(x)."""
    if not elements:
        return 1
    x = min(elements)
    up = frozenset(y for y in elements if (x, y) in leq)
    down = frozenset(y for y in elements if (y, x) in leq)
    return count_upsets(elements - up, leq) + count_upsets(elements - down, leq)


def check_ideals(doc: dict, s: FileShadow) -> None:
    cells, leq = s.cell_order()
    count = count_upsets(frozenset(range(len(cells))), leq)
    expect(doc.get("count") == count, f"{doc.get('count')} thick ideals, expected {count}")
    expect(doc.get("upset-enumeration-count") == count, "upset-enumeration-count")
    expect(doc.get("status") == "pass", "ideals status")
    ideals = doc.get("ideals", [])
    expect(len(ideals) == count, "ideal list length")
    cell_names = [s.name_list(cls) for cls in cells]
    seen = set()
    for ideal in ideals:
        members = frozenset(s.index[name] for name in ideal["members"])
        expect(members not in seen, "repeated ideal")
        seen.add(members)
        chain = [cell_names.index(c) for c in ideal["antichain"]]
        expect(
            all((i, j) not in leq for i in chain for j in chain if i != j),
            "antichain has comparable cells",
        )
        above = {a for i in chain for j in range(len(cells)) if (i, j) in leq for a in cells[j]}
        expect(members == above, "ideal members are not the cells above its antichain")
    for members in seen:
        for a in members:
            expect(s.two_sided[a] <= members, f"ideal is not closed at {s.names[a]}", CLOSURE)


def check_cell_module(doc: dict, s: FileShadow, element: str) -> None:
    """Basis is the left cell of the element; entry (h, f) of M_a is the
    multiplicity of h in a f; and the matrices multiply as the table says."""
    e = s.index[element]
    (cell,) = [cls for cls in s.classes("left") if e in cls]
    expect(doc.get("left-cell-of") == element, "left-cell-of")
    expect(doc.get("basis") == s.name_list(cell), "basis is not the left cell")
    expect(list(doc.get("matrices", {})) == s.names, "one matrix per element, in file order")
    pos = {f: p for p, f in enumerate(cell)}
    mats = {}
    for a, name in enumerate(s.names):
        want = [[0] * len(cell) for _ in cell]
        for f in cell:
            for h, m in s.table.get((a, f), {}).items():
                if h in pos:
                    want[pos[h]][pos[f]] = m
        expect(doc["matrices"][name] == want, f"matrix of {name}")
        mats[a] = want
    t = s.table
    for (a, b), result in t.items():
        for f in cell:
            if s.source[b] != s.target[f]:
                continue
            for h in cell:
                lhs = sum(mats[a][pos[h]][pos[g]] * mats[b][pos[g]][pos[f]] for g in cell)
                rhs = sum(m * mats[c][pos[h]][pos[f]] for c, m in result.items())
                expect(
                    lhs == rhs,
                    f"cell module is not a representation at ({s.names[a]}, {s.names[b]}), column {s.names[f]}",
                    REPRESENTATION,
                )


def check_export(data: bytes, s: FileShadow) -> None:
    expect(parse_json(data) == s.doc, "export differs from its input file")


# ---------------------------------------------------------------- clebsch


CLEBSCH_CHECKS = [
    "fusion-associativity-unbounded",
    "zero-is-strict-unit",
    "single-cell-witness",
    "window-associativity-complete-triples",
]


def check_verify_clebsch(doc: dict, k: int) -> None:
    expect(doc.get("construction") == "clebsch" and doc.get("status") == "pass", "clebsch report status")
    (result,) = doc["results"]
    expect(result.get("max") == k and result.get("status") == "pass", "clebsch result")
    _all_pass(result["checks"], CLEBSCH_CHECKS, f"clebsch max={k}")
    window = result["checks"][-1]
    expect(
        (window.get("checked"), window.get("skipped")) == (window_checked(k), window_skipped(k)),
        f"window triples {window.get('checked')}/{window.get('skipped')}, expected "
        f"{window_checked(k)}/{window_skipped(k)}",
    )


# ---------------------------------------------------------------- schur


SCHUR_CHECKS = [
    "dominant-vector-count",
    "margin-matrix-count",
    "rsk-content-laws",
    "rsk-roundtrip-bijection",
    "ssyt-counting-identity",
    "two-sided-cells-are-shapes",
    "cells-per-shape-count",
    "left-right-intersections-singleton",
    "transpose-swaps-tableaux",
    "antidominant-indexing-bijection",
    "double-coset-counts",
]


def partitions(r: int, parts: int, largest: int | None = None) -> list[tuple[int, ...]]:
    if r == 0:
        return [()]
    if parts == 0:
        return []
    largest = r if largest is None else largest
    return [
        (first,) + rest
        for first in range(min(r, largest), 0, -1)
        for rest in partitions(r - first, parts - 1, first)
    ]


def weyl_dimension(shape: tuple[int, ...], n: int) -> int:
    """Semistandard tableaux of a shape with entries <= n, by the Weyl
    dimension formula prod_{i<j} (l_i - l_j + j - i) / (j - i)."""
    lam = list(shape) + [0] * (n - len(shape))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    expect(num % den == 0, f"Weyl formula not integral for {shape}")
    return num // den


def check_schur_checks(checks: list, n: int, r: int) -> None:
    _all_pass(checks, SCHUR_CHECKS, f"schur n={n} r={r}")
    witnesses = {c["check"]: c.get("witnesses") for c in checks}
    shapes = len(partitions(r, n))
    expect(witnesses["dominant-vector-count"] == [comb(n + r - 1, r)], f"n={n} r={r}: dominant vectors")
    expect(witnesses["margin-matrix-count"] == [comb(n * n + r - 1, r)], f"n={n} r={r}: matrices")
    expect(witnesses["two-sided-cells-are-shapes"] == [shapes, shapes], f"n={n} r={r}: shapes")


def check_verify_schur(doc: dict, ns: list[int], rs: list[int]) -> None:
    expect(doc.get("construction") == "schur" and doc.get("status") == "pass", "schur report status")
    results = doc.get("results", [])
    want = [(n, r) for n in ns for r in rs]
    expect([(x.get("n"), x.get("r")) for x in results] == want, "schur (n, r) list")
    for x in results:
        expect(x.get("status") == "pass", f"schur n={x['n']} r={x['r']} status")
        check_schur_checks(x["checks"], x["n"], x["r"])


def check_schur_report(doc: dict, n: int, r: int) -> None:
    shapes = partitions(r, n)
    expect((doc.get("n"), doc.get("r")) == (n, r), "report n, r")
    expect(doc.get("dominant-vectors") == comb(n + r - 1, r), "dominant-vectors")
    expect(doc.get("matrices") == comb(n * n + r - 1, r), "matrices")
    expect(doc.get("two-sided-cells") == len(shapes), "two-sided-cells")
    rows = doc.get("shapes", [])
    expect(sorted(tuple(x["shape"]) for x in rows) == sorted(shapes), "shapes are not the partitions of r")
    for x in rows:
        dim = weyl_dimension(tuple(x["shape"]), n)
        expect(x.get("ssyt") == dim, f"shape {x['shape']}: ssyt {x.get('ssyt')}, Weyl formula {dim}")
        expect(x.get("matrices") == dim * dim, f"shape {x['shape']}: matrices != ssyt^2")
        expect(x.get("left-cells") == dim and x.get("right-cells") == dim, f"shape {x['shape']}: cell counts")
    check_schur_checks(doc.get("checks", []), n, r)
