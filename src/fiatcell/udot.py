"""Divided-power towers: rewriting engine and the finite shadow family.

Objects are 0..n, thought of as weight spaces (object i has weight n - 2i).
E-steps move an object down by one, F-steps up by one; anything leaving
0..n is zero. A word of divided-power blocks is straightened to FE-normal
form by one recursive rule: drop the word if its path leaves 0..n, else
rewrite its first reducible pair of blocks and recurse on each result.
Adjacent like blocks merge with a binomial coefficient, and an E-block
acting after an F-block is exchanged via

    E^(a) F^(b) 1_i  =  sum_j C(a - b + w, j) F^(b-j) E^(a-j) 1_i

with w the weight of the F-block's source object i. Coefficients along the
way live in Z: on hom-pairs with i + j >= n the FE-ordered monomials are
virtual classes and honest multiplicities only appear after changing to the
EF-ordered basis. The indecomposables of the hom-pair (i, j) are exactly
the in-range monomials of the quadrant orientation (FE when i + j < n,
EF when i + j >= n), min(i, j, n-i, n-j) + 1 of them.

build_bn does not run the rewriter. It expands each basis monomial into FE
form once (an EF monomial by the exchange formula, dropping terms whose
middle object leaves 0..n) and multiplies FE monomials in closed form: one
exchange and two merges give

    F^(f1) E^(e1) . F^(f2) E^(e2) 1_i
        =  sum_j C(e1 - f2 + w, j) C(f1 + f2 - j, f1) C(e1 + e2 - j, e2)
                 F^(f1 + f2 - j) E^(e1 + e2 - j) 1_i

with w the weight of the object i - e2, a term being zero when its middle
object i - e1 - e2 + j is negative. The generic rewriter (normalize_blocks,
dp_normalize, basis_change, compose_monomials) stays public as the oracle
the tests compare build_bn's table with, and tests/udot_oracle.py checks
the rewriter with single-step rules alone.

verify_bn never runs the rewriter either: it reads the cached shadow and
closed forms alone. In the defining action each element sends the line of
its source object to the line of its target object by one positive
integer, so multiplicativity is a check on integers; cell generators are
written down directly in the quadrant orientation; and rank reduction
compares the quotient by the top cell with the shifted lower-rank table
entry by entry.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial

from .cells import (
    cell_module,
    cell_partition,
    cell_poset,
    is_strongly_regular,
    m_values,
)
from .checks import check, check_range, is_int
from .ideals import quotient_by_upset, thick_ideals, upsets_by_enumeration
from .shadow import (
    ConsistencyError,
    Decomposition,
    Element,
    InputError,
    Shadow,
    _pairs,
    check_associativity,
    compose,
    compose_left,
    shadow_to_dict,
)

DESK_LIMIT = 8
# The largest total power of a word normalize_blocks straightens. A basis
# monomial of rank n has F- and E-powers of at most n, so compose_monomials
# passes at most 4 * DESK_LIMIT; the rewriter's cost grows steeply past it.
WORD_LIMIT = 4 * DESK_LIMIT


def check_bn_rank(n: int) -> None:
    check_range("rank", n, 1, DESK_LIMIT)


def weight(n: int, i: int) -> int:
    """Weight of object i in the rank-n tower."""
    return n - 2 * i


def gen_binom(m: int, k: int) -> int:
    """Binomial coefficient with arbitrary integer top: the falling
    factorial m (m - 1) ... (m - k + 1) over k!, and 0 for k < 0. A
    negative top gives (-1)^k C(k - m - 1, k)."""
    if k < 0:
        return 0
    if m >= 0:
        return comb(m, k)
    return (-1) ** k * comb(k - m - 1, k)


class DPMonomial(namedtuple("DPMonomial", "kind fpow epow base")):
    """A monomial F^(fpow) E^(epow) 1_base (kind "fe", E applied first) or
    E^(epow) F^(fpow) 1_base (kind "ef", F applied first). Pure monomials
    and identities are always stored with kind "fe". A monomial is the
    tuple (kind, fpow, epow, base), checked when built, _replace included."""

    __slots__ = ()

    def __new__(cls, kind: str, fpow: int, epow: int, base: int) -> DPMonomial:
        if kind not in ("fe", "ef"):
            raise ConsistencyError(f"bad monomial kind {kind!r}")
        if fpow < 0 or epow < 0:
            raise ConsistencyError("negative divided power")
        if (fpow == 0 or epow == 0) and kind != "fe":
            raise ConsistencyError("pure monomials are canonically kind fe")
        return super().__new__(cls, kind, fpow, epow, base)

    @classmethod
    def _make(cls, iterable) -> DPMonomial:
        return cls(*iterable)

    @property
    def source(self) -> int:
        return self.base

    @property
    def target(self) -> int:
        return self.base + self.fpow - self.epow

    @property
    def is_identity(self) -> bool:
        return self.fpow == 0 and self.epow == 0

    @property
    def name(self) -> str:
        if self.is_identity:
            return f"1_{self.base}"
        if self.epow == 0:
            return f"F{self.base}^({self.fpow})"
        if self.fpow == 0:
            return f"E{self.base}^({self.epow})"
        if self.kind == "fe":
            return f"F{self.base - self.epow}^({self.fpow})E{self.base}^({self.epow})"
        return f"E{self.base + self.fpow}^({self.epow})F{self.base}^({self.fpow})"

    @property
    def blocks(self) -> tuple[tuple[str, int], ...]:
        """Blocks in writing order (leftmost applied last)."""
        if self.kind == "fe":
            raw = (("F", self.fpow), ("E", self.epow))
        else:
            raw = (("E", self.epow), ("F", self.fpow))
        return tuple((l, p) for l, p in raw if p)

    def corners(self) -> tuple[int, ...]:
        if self.kind == "fe":
            mid = self.base - self.epow
        else:
            mid = self.base + self.fpow
        return (self.base, mid, self.target)

    def in_range(self, n: int) -> bool:
        return all(0 <= c <= n for c in self.corners())

    def star(self) -> "DPMonomial":
        """Adjoint: exchanges the two divided powers and the endpoints."""
        return dp(self.kind, self.epow, self.fpow, self.target)


def dp(kind: str, fpow: int, epow: int, base: int) -> DPMonomial:
    if fpow == 0 or epow == 0:
        kind = "fe"
    return DPMonomial(kind=kind, fpow=fpow, epow=epow, base=base)


UVector = dict[DPMonomial, int]


def normalize_blocks(
    n: int,
    blocks,
    base: int,
    rng: random.Random | None = None,
) -> UVector:
    """Straighten a block word to FE-normal form over Z.

    blocks are (letter, power) pairs in writing order, base is the source
    object. Each block must be E or F with a nonnegative int power; zero
    powers are then dropped. _straighten rewrites one reducible pair and
    recurses on each result, dropping a word as soon as its path leaves
    0..n. With rng given, the pair is chosen at random; the result does not
    depend on the choices (tested), so the default is the leftmost pair.
    """
    check_bn_rank(n)
    check_range("object", base, 0, n)
    word = []
    for letter, p in blocks:
        if letter not in ("E", "F") or not is_int(p) or p < 0:
            raise InputError(f"bad block ({letter!r}, {p!r})")
        if p:
            word.append((letter, p))
    total = sum(p for _, p in word)
    if total > WORD_LIMIT:
        raise InputError(f"word has total power {total}, more than the limit of {WORD_LIMIT}")
    done: UVector = {}
    _straighten(n, tuple(word), base, 1, done, rng)
    return done


def _straighten(n: int, word: tuple, base: int, coeff: int, done: UVector, rng) -> None:
    """Add coeff times the FE-normal form of word, from object base, into
    done. A pair of blocks is reducible unless it reads F E: like blocks
    merge by a binomial, and an E-block after an F-block is exchanged at the
    F-block's source object, base plus the signed powers to its right."""
    # path[k] is the source object of the k-th block from the right
    path = list(accumulate((p if l == "F" else -p for l, p in reversed(word)), initial=base))
    if not all(0 <= obj <= n for obj in path):
        return
    reducible = [q for q in range(len(word) - 1) if (word[q][0], word[q + 1][0]) != ("F", "E")]
    if not reducible:
        powers = dict(word)
        _add(done, dp("fe", powers.get("F", 0), powers.get("E", 0), base), coeff)
        return
    q = reducible[0] if rng is None else rng.choice(reducible)
    (l1, p1), (l2, p2) = word[q : q + 2]
    head, tail = word[:q], word[q + 2 :]
    if l1 == l2:
        merged = head + ((l1, p1 + p2),) + tail
        _straighten(n, merged, base, coeff * comb(p1 + p2, p1), done, rng)
        return
    w = weight(n, path[len(tail)])
    for j in range(min(p1, p2) + 1):
        c = gen_binom(p1 - p2 + w, j)
        if c:
            middle = tuple((l, p) for l, p in (("F", p2 - j), ("E", p1 - j)) if p)
            _straighten(n, head + middle + tail, base, coeff * c, done, rng)


def dp_normalize(n: int, word, base: int) -> UVector:
    """FE-normal form of a word of single-step generators.

    The word is given in writing order (leftmost letter applied last) and
    base is the source object. Coefficients live in Z; see basis_change for
    honest multiplicities. The blocks reach normalize_blocks unbuilt, so its
    guards run before any work.
    """
    return normalize_blocks(n, ((letter, 1) for letter in word), base)


def pair_orientation(n: int, i: int, j: int) -> str:
    return "ef" if i + j >= n else "fe"


def pair_basis(n: int, i: int, j: int) -> tuple[DPMonomial, ...]:
    """Indecomposables of the hom-pair (i, j): all in-range monomials of the
    quadrant orientation, ordered by ascending divided power."""
    out = []
    if pair_orientation(n, i, j) == "fe":
        for t in range(max(0, i - j), i + 1):
            out.append(dp("fe", t + j - i, t, i))
    else:
        for sexp in range(max(0, i - j), n - j + 1):
            out.append(dp("ef", sexp + j - i, sexp, i))
    return tuple(out)


def bn_basis(n: int) -> dict[tuple[int, int], tuple[DPMonomial, ...]]:
    check_bn_rank(n)
    return {
        (i, j): pair_basis(n, i, j)
        for i in range(n + 1)
        for j in range(n + 1)
    }


def basis_change(n: int, vec: UVector) -> UVector:
    """Express a Z-combination of monomials in the indecomposable basis of
    its hom-pair, exchanging FE- and EF-ordered monomials as needed.

    The hom-pair is read from the vector. The result must have nonnegative
    coefficients and land inside the basis; anything else raises
    ConsistencyError.
    """
    check_bn_rank(n)
    if not vec:
        return {}
    first = next(iter(vec))
    source, target = first.source, first.target
    for m in vec:
        if m.source != source or m.target != target:
            raise ConsistencyError(
                f"mixed hom-pairs in vector: {m.name} vs ({source}, {target})"
            )
    orientation = pair_orientation(n, source, target)
    out: UVector = {}
    for m, c in vec.items():
        if m.fpow == 0 or m.epow == 0 or m.kind == orientation:
            _add(out, m, c)
            continue
        # E^(a) F^(b) 1 -> sum_j C(a-b+w, j) F^(b-j) E^(a-j) 1 to "fe", and
        # F^(b) E^(a) 1 -> sum_j C(b-a-w, j) E^(a-j) F^(b-j) 1 to "ef"
        a, b, w = m.epow, m.fpow, weight(n, m.base)
        top = a - b + w if orientation == "fe" else b - a - w
        for j in range(min(a, b) + 1):
            cj = gen_binom(top, j)
            swapped = dp(orientation, b - j, a - j, m.base)
            if cj and swapped.in_range(n):
                _add(out, swapped, c * cj)
    allowed = set(pair_basis(n, source, target))
    for m, c in out.items():
        if c < 0:
            raise ConsistencyError(f"negative multiplicity {c} at {m.name}")
        if m not in allowed:
            raise ConsistencyError(f"{m.name} is not a basis monomial")
    return out


def _add(vec: UVector, m: DPMonomial, c: int) -> None:
    vec[m] = vec.get(m, 0) + c
    if vec[m] == 0:
        del vec[m]


def compose_monomials(n: int, a: DPMonomial, b: DPMonomial) -> UVector:
    """Decomposition of "a after b" into basis monomials."""
    check_bn_rank(n)
    if a.source != b.target:
        raise InputError(f"{a.name} and {b.name} are not composable")
    return basis_change(n, normalize_blocks(n, a.blocks + b.blocks, b.base))


def _fe_expansion(n: int, m: DPMonomial) -> tuple[tuple[int, int, int], ...]:
    """m as (fpow, epow, coeff) terms of FE monomials from m.base: an EF
    monomial through the exchange formula, dropping terms whose middle
    object is negative."""
    if m.kind == "fe":
        return ((m.fpow, m.epow, 1),)
    a, b, i = m.epow, m.fpow, m.base
    top = a - b + weight(n, i)
    return tuple(
        (b - j, a - j, c)
        for j in range(max(0, a - i), min(a, b) + 1)
        if (c := gen_binom(top, j))
    )


@lru_cache(maxsize=None)
def build_bn(n: int) -> Shadow:
    """The rank-n divided-power shadow: objects 0..n, the quadrant monomial
    basis, the composition table and the adjoint involution.

    Products come in closed form (module docstring): each basis monomial is
    expanded into FE form once, each pair of FE terms multiplies by the
    one-exchange, two-merge formula, and each resulting FE monomial is
    mapped to the quadrant basis once per rank. Both exchanges are written
    out here rather than taken from basis_change, so that
    compose_monomials, which runs the generic rewriter, stays an
    independent oracle for this table (compared on every pair in the
    tests). A negative multiplicity, or a term outside the basis, raises
    ConsistencyError."""
    check_bn_rank(n)
    basis = bn_basis(n)
    monomials: list[DPMonomial] = []
    for i in range(n + 1):
        for j in range(n + 1):
            monomials.extend(basis[(i, j)])
    elements = tuple(Element(m.name, m.source, m.target, m.is_identity) for m in monomials)
    # monomials by id; a DPMonomial is the tuple (kind, fpow, epow, base),
    # so a plain tuple of its fields finds it
    index = {m: k for k, m in enumerate(monomials)}
    expansions = [_fe_expansion(n, m) for m in monomials]
    by_source: dict[int, list[int]] = {}
    for k, m in enumerate(monomials):
        by_source.setdefault(m.source, []).append(k)

    @lru_cache(maxsize=None)
    def to_basis(f: int, e: int, i: int) -> tuple[tuple[int, int], ...]:
        """F^(f) E^(e) 1_i, an in-range FE monomial, as (element id, coeff)
        terms: itself on an FE-quadrant pair, else exchanged to EF form by
        F^(b) E^(a) 1_i = sum_j C(b - a - w, j) E^(a-j) F^(b-j) 1_i."""
        if f == 0 or e == 0 or 2 * i + f - e < n:
            keys: tuple = ((("fe", f, e, i), 1),)
        else:
            top = f - e - weight(n, i)
            keys = tuple(
                (("ef" if j < min(e, f) else "fe", f - j, e - j, i), c)
                for j in range(max(0, i + f - n), min(e, f) + 1)
                if (c := gen_binom(top, j))
            )
        for key, _ in keys:
            if key not in index:
                raise ConsistencyError(f"{dp(*key).name} is not a basis monomial")
        return tuple((index[key], c) for key, c in keys)

    entries = []
    for kb, b_mon in enumerate(monomials):
        i = b_mon.base
        for ka in by_source[b_mon.target]:
            fe: dict[tuple[int, int], int] = {}
            for f1, e1, c1 in expansions[ka]:
                for f2, e2, c2 in expansions[kb]:
                    top = e1 - f2 + weight(n, i - e2)
                    for j in range(max(0, e1 + e2 - i), min(e1, f2) + 1):
                        c = gen_binom(top, j)
                        if c:
                            f, e = f1 + f2 - j, e1 + e2 - j
                            c *= c1 * c2 * comb(f, f1) * comb(e, e2)
                            fe[(f, e)] = fe.get((f, e), 0) + c
            out: dict[int, int] = {}
            for (f, e), c in fe.items():
                if c:
                    for k, ck in to_basis(f, e, i):
                        out[k] = out.get(k, 0) + c * ck
            row: list[int] = []
            for k in sorted(out):
                if out[k] < 0:
                    raise ConsistencyError(
                        f"negative multiplicity {out[k]} at {elements[k].name}"
                    )
                if out[k]:
                    row += (k, out[k])
            entries.append((ka, kb, tuple(row)))
    # m.star() by its key: pure monomials are kind "fe" either way
    star = tuple(index[(m.kind, m.epow, m.fpow, m.target)] for m in monomials)
    return Shadow._on_ids(tuple(range(n + 1)), elements, entries, star)


def bn_element_monomials(n: int) -> dict[str, DPMonomial]:
    """Element id -> monomial, for the rank-n shadow."""
    out = {}
    for mons in bn_basis(n).values():
        for m in mons:
            out[m.name] = m
    return out


def _named(s: Shadow, terms: dict[Element, int]) -> dict[str, int]:
    """terms keyed by element name, in element order."""
    return {e.name: m for e, m in sorted(terms.items(), key=lambda t: s.index_of(t[0]))}


def verify_relations(n: int) -> list[dict]:
    """The defining exchange and merge relations, evaluated in the table.

    Exchange: E_{i+1} F_i + i copies of 1_i equals F_{i-1} E_i + (n - i)
    copies of 1_i, with out-of-range single steps reading as zero. Merge:
    a chain of k single steps decomposes as k! copies of the k-th divided
    power.
    """
    s = build_bn(n)
    checks = []

    def elt(m: DPMonomial) -> Element | None:
        return s.element(m.name) if m.in_range(n) else None

    bad_55 = []
    for i in range(n + 1):
        one = s.element(f"1_{i}")
        e_up = elt(dp("fe", 0, 1, i + 1)) if i + 1 <= n else None
        f_i = elt(dp("fe", 1, 0, i)) if i + 1 <= n else None
        lhs = Decomposition.zero()
        if e_up is not None and f_i is not None:
            lhs = compose(s, e_up, f_i)
        if i:
            lhs = lhs + Decomposition({one: i})
        f_dn = elt(dp("fe", 1, 0, i - 1)) if i - 1 >= 0 else None
        e_i = elt(dp("fe", 0, 1, i)) if i >= 1 else None
        rhs = Decomposition.zero()
        if f_dn is not None and e_i is not None:
            rhs = compose(s, f_dn, e_i)
        if n - i:
            rhs = rhs + Decomposition({one: n - i})
        if lhs != rhs:
            bad_55.append(
                {"i": i, "left": _named(s, lhs.terms), "right": _named(s, rhs.terms)}
            )
    checks.append(check("exchange-relation", not bad_55, bad_55))

    bad_65 = []
    for i in range(n + 1):
        for k in range(1, n + 1):
            if i - k >= 0:
                d = Decomposition({s.element(dp("fe", 0, 1, i).name): 1})
                for m in range(i - 1, i - k, -1):
                    d = compose_left(s, s.element(dp("fe", 0, 1, m).name), d)
                expected = Decomposition(
                    {s.element(dp("fe", 0, k, i).name): factorial(k)}
                )
                if d != expected:
                    bad_65.append({"family": "E", "i": i, "k": k})
            if i + k <= n:
                d = Decomposition({s.element(dp("fe", 1, 0, i).name): 1})
                for m in range(i + 1, i + k):
                    d = compose_left(s, s.element(dp("fe", 1, 0, m).name), d)
                expected = Decomposition(
                    {s.element(dp("fe", k, 0, i).name): factorial(k)}
                )
                if d != expected:
                    bad_65.append({"family": "F", "i": i, "k": k})
    checks.append(check("merge-relation", not bad_65, bad_65))
    return checks


def defining_action(n: int) -> dict[Element, int]:
    """The action on the direct sum of one line per object, one coefficient
    per element: e sends the line of e.source to the line of e.target by
    action[e], the single nonzero entry of its matrix, at (e.target,
    e.source). An F-block from object m acts by C(m + k, k), an E-block into
    object m by C(n - m, k). Raises ConsistencyError when a monomial's
    blocks do not run between its element's endpoints. That the action is
    multiplicative on the table is checked by verify_bn's
    defining-action-multiplicative record, not here."""
    check_bn_rank(n)
    mons = bn_element_monomials(n)
    action: dict[Element, int] = {}
    for e in build_bn(n).elements:
        m = mons[e.name]
        # follow the source object through the blocks, right to left
        obj, coeff = m.base, 1
        for letter, p in reversed(m.blocks):
            if letter == "F":
                obj += p
                coeff *= comb(obj, p)
            else:
                obj -= p
                coeff *= comb(n - obj, p)
        if (m.base, obj) != (e.source, e.target):
            raise ConsistencyError(
                f"{e.name} runs {m.base} -> {obj}, not {e.source} -> {e.target}"
            )
        action[e] = coeff
    return action


def cell_index_pairs(n: int) -> list[tuple[int, int]]:
    """The (i, k) pairs indexing left (equally right) cells."""
    s = n // 2
    out = []
    for i in range(s + 1):
        for k in range(i + 1):
            out.append((i, k))
    for i in range(s + 1, n + 1):
        for k in range(n - i + 1):
            out.append((i, k))
    return out


def cell_generator(n: int, i: int, k: int) -> DPMonomial:
    """The basis monomial generating the (i, k) left/right cell: F^(k) E^(k)
    or E^(k) F^(k) at object i, in the quadrant orientation of the pair
    (i, i)."""
    return dp(pair_orientation(n, i, i), k, k, i)


def expected_two_sided_index(n: int, i: int, k: int) -> int:
    s = n // 2
    return i - k if i <= s else n - i - k


def bn_cells_report(n: int) -> list[dict]:
    """Cell structure checks for the rank-n shadow: cell counts, the chain
    poset, the (i, k) generator indexing, strong regularity and the
    m-statistic (constant on right cells; on the right cell of F_k^(i-k)
    it equals the multiplicity of 1_k in E_i^(i-k) F_k^(i-k))."""
    s = build_bn(n)
    half = n // 2
    checks = []

    by_pair: dict[tuple[int, int], int] = {}
    for e in s.elements:
        by_pair[(e.source, e.target)] = by_pair.get((e.source, e.target), 0) + 1
    bad_counts = [
        {"pair": [i, j], "count": by_pair.get((i, j), 0)}
        for i in range(n + 1)
        for j in range(n + 1)
        if by_pair.get((i, j), 0) != min(i, j, n - i, n - j) + 1
    ]
    checks.append(check("hom-pair-basis-count", not bad_counts, bad_counts))

    two_sided = cell_partition(s, "two-sided")
    left = cell_partition(s, "left")
    right = cell_partition(s, "right")
    identity_cells = [two_sided.class_of(s.element(f"1_{m}")) for m in range(half + 1)]
    ok_two_sided = (
        len(two_sided.classes) == half + 1
        and len(set(identity_cells)) == half + 1
    )
    checks.append(
        check(
            "two-sided-cells-are-identity-cells",
            ok_two_sided,
            [] if ok_two_sided else [len(two_sided.classes)],
        )
    )

    poset = cell_poset(s)
    cells = range(len(poset.cells))
    ids = [poset.cell_index(s.element(f"1_{m}")) for m in range(half + 1)]
    chain_bad = (
        [
            ("comparable", a, b)
            for a in cells
            for b in cells
            if not (poset.leq(a, b) or poset.leq(b, a))
        ]
        + [("below", c, ids[0]) for c in cells if not poset.leq(c, ids[0])]
        + [
            ("strictly below", lo, hi)
            for lo, hi in zip(ids[1:], ids)
            if not poset.leq(lo, hi) or poset.leq(hi, lo)
        ]
    )
    # the first failing pair, each cell named by its first element
    chain_witness = [
        {
            "pair": [min(poset.cells[c], key=s.index_of).name for c in (a, b)],
            "expected": relation,
        }
        for relation, a, b in chain_bad[:1]
    ]
    checks.append(
        check("cell-poset-chain-top-at-identity-0", not chain_bad, chain_witness)
    )

    pairs = cell_index_pairs(n)
    gens = {pair: s.element(cell_generator(n, *pair).name) for pair in pairs}
    gen_left = {pair: left.class_of(g) for pair, g in gens.items()}
    gen_right = {pair: right.class_of(g) for pair, g in gens.items()}
    distinct_ok = (
        len(set(gen_left.values())) == len(pairs) == len(left.classes)
        and len(set(gen_right.values())) == len(pairs) == len(right.classes)
    )
    checks.append(
        check(
            "cell-generators-distinct-and-complete",
            distinct_ok,
            [] if distinct_ok else [len(pairs), len(left.classes), len(right.classes)],
        )
    )

    bad_membership = []
    for (i, k), g in gens.items():
        expected = expected_two_sided_index(n, i, k)
        if two_sided.class_of(g) != identity_cells[expected]:
            bad_membership.append({"pair": [i, k], "generator": g.name})
    checks.append(
        check("generator-two-sided-membership", not bad_membership, bad_membership)
    )

    reg_witnesses = []
    for cls in two_sided.classes:
        result = is_strongly_regular(s, cls)
        if not result.ok:
            reg_witnesses.append(list(result.witness))
    checks.append(check("strong-regularity", not reg_witnesses, reg_witnesses))

    m_bad = []
    value_of: dict[Element, int] = {}
    if not reg_witnesses:
        for cls in two_sided.classes:
            values, constant = m_values(s, cls)
            value_of.update(values)
            if not constant:
                m_bad.append(_named(s, values))
    checks.append(check("m-constant-on-right-cells", not m_bad, m_bad))

    formula_bad = []
    if not reg_witnesses:
        for i in range(half + 1):
            for k in range(i + 1):
                f_elt = s.element(dp("fe", i - k, 0, k).name)
                e_elt = s.element(dp("fe", 0, i - k, i).name)
                expected = compose(s, e_elt, f_elt).mult(s.element(f"1_{k}"))
                cell = right.class_of(f_elt)
                got = {value_of[x] for x in cell}
                if got != {expected}:
                    formula_bad.append(
                        {"pair": [i, k], "expected": expected, "got": sorted(got)}
                    )
    checks.append(
        check("m-value-identity-multiplicity-formula", not formula_bad, formula_bad)
    )
    return checks


def shift_shadow(s: Shadow, mons: dict[str, DPMonomial], delta: int) -> Shadow:
    """Transport a divided-power shadow along object translation by delta."""

    def shift_elt(e: Element) -> Element:
        m = mons[e.name]
        sm = dp(m.kind, m.fpow, m.epow, m.base + delta)
        return Element(sm.name, sm.source, sm.target, sm.is_identity)

    n = len(s.elements)
    _, _, rows, order, star = s._view
    return Shadow._on_ids(
        tuple(o + delta for o in s.objects),
        tuple(map(shift_elt, s.elements)),
        [(*divmod(at, n), rows[at]) for at in order],
        star,
        s.partial,
    )


def recursion_check(n: int) -> dict:
    """Rank reduction: shifting the rank-(n-2) shadow up by one object must
    reproduce the rank-n shadow with its maximal cell deleted, both product
    by product and as a whole quotient shadow."""
    check_bn_rank(n)
    if n < 3:
        raise InputError("rank reduction needs n >= 3")
    big = build_bn(n)
    shifted = shift_shadow(build_bn(n - 2), bn_element_monomials(n - 2), 1)
    top_cell = cell_partition(big, "two-sided").class_of(big.element("1_0"))
    # both in file form: element names, rows and terms in id order
    quotient = shadow_to_dict(quotient_by_upset(big, top_cell))
    shifted = shadow_to_dict(shifted)
    entries = {(row["left"], row["right"]): row["result"] for row in quotient["table"]}
    witnesses = [
        {"pair": [row["left"], row["right"]]}
        for row in shifted["table"]
        if entries.get((row["left"], row["right"])) != row["result"]
    ]
    if quotient != shifted:
        witnesses.append({"quotient": "differs from shifted lower-rank shadow"})
    return check("rank-reduction-index-shift", not witnesses, witnesses)


def verify_bn(n: int) -> list[dict]:
    """Full check suite for the rank-n shadow."""
    s = build_bn(n)
    report = check_associativity(s)
    if report.status == "structural-error":
        return [check("structure", False, [report.message])]
    checks = [
        check("structure", True),
        check(
            "associativity-multiplicity-level",
            report.ok,
            [] if report.ok else [report.failure],
        ),
    ]
    checks.extend(verify_relations(n))
    action = defining_action(n)
    by_id = [action[e] for e in s.elements]
    rows, order = s._view.rows, s._view.order
    product_bad = []
    for at in order:
        a, b = divmod(at, len(by_id))
        if by_id[a] * by_id[b] != sum(m * by_id[c] for c, m in _pairs(rows[at])):
            pair = f"({s.elements[a].name}, {s.elements[b].name})"
            product_bad.append(f"defining action is not multiplicative at {pair}")
            break
    checks.append(check("defining-action-multiplicative", not product_bad, product_bad))

    left = cell_partition(s, "left")
    cm = cell_module(s, left.class_of(s.element("1_0")))
    names = [e.name for e in cm.basis]
    if names != ["1_0"] + [f"F0^({k})" for k in range(1, n + 1)]:
        module_bad = [{"basis": names}]
    else:
        module_bad = []
        for e in s.elements:
            entries = {
                (i, j): v
                for i, row in enumerate(cm.matrices[e])
                for j, v in enumerate(row)
                if v
            }
            if entries != {(e.target, e.source): action[e]}:
                module_bad = [{"element": e.name}]
                break
    checks.append(check("cell-module-is-defining-action", not module_bad, module_bad))

    checks.extend(bn_cells_report(n))

    poset = cell_poset(s)
    ideals = thick_ideals(poset)
    expected = n // 2 + 2
    upsets = upsets_by_enumeration(poset)
    ok_ideals = len(ideals) == expected == len(upsets)
    checks.append(
        check(
            "thick-ideal-count",
            ok_ideals,
            [] if ok_ideals else [len(ideals), expected, len(upsets)],
        )
    )

    if n >= 3:
        checks.append(recursion_check(n))
    return checks
