"""Divided-power towers: rewriting engine and the finite shadow family.

Objects are 0..n, thought of as weight spaces (object i has weight n - 2i).
E-steps move an object down by one, F-steps up by one; anything leaving
0..n is zero. A word of divided-power blocks is straightened to normal form
with three rules: adjacent like blocks merge with a binomial coefficient,
and an E-block acting after an F-block is exchanged via

    E^(a) F^(b) 1_i  =  sum_j C(a - b + w, j) F^(b-j) E^(a-j) 1_i

with w the weight of the source object i. Coefficients along the way live
in Z: on hom-pairs with i + j >= n the FE-ordered monomials are virtual
classes and honest multiplicities only appear after changing to the
EF-ordered basis. The indecomposables of the hom-pair (i, j) are exactly
the in-range monomials of the quadrant orientation (FE when i + j < n,
EF when i + j >= n), min(i, j, n-i, n-j) + 1 of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .cells import (
    cell_module,
    cell_partition,
    cell_poset,
    is_strongly_regular,
    m_values,
)
from .checks import check
from .ideals import quotient_by_upset, thick_ideals, upsets_by_enumeration
from .shadow import (
    ConsistencyError,
    Decomposition,
    Element,
    InputError,
    Shadow,
    check_associativity,
    compose,
    compose_left,
)

DESK_LIMIT = 8


def weight(n: int, i: int) -> int:
    """Weight of object i in the rank-n tower."""
    return n - 2 * i


def gen_binom(m: int, k: int) -> int:
    """Binomial coefficient with arbitrary integer top, exact.

    Falling factorial over k!; the division is always exact and any
    remainder signals a broken invariant.
    """
    if k < 0:
        return 0
    num = 1
    for t in range(k):
        num *= m - t
    den = factorial(k)
    if num % den:
        raise ConsistencyError(f"binomial ({m}, {k}) is not an integer")
    return num // den


@dataclass(frozen=True)
class DPMonomial:
    """A monomial F^(fpow) E^(epow) 1_base (kind "fe", E applied first) or
    E^(epow) F^(fpow) 1_base (kind "ef", F applied first). Pure monomials
    and identities are always stored with kind "fe"."""

    kind: str
    fpow: int
    epow: int
    base: int

    def __post_init__(self) -> None:
        if self.kind not in ("fe", "ef"):
            raise ConsistencyError(f"bad monomial kind {self.kind!r}")
        if self.fpow < 0 or self.epow < 0:
            raise ConsistencyError("negative divided power")
        if (self.fpow == 0 or self.epow == 0) and self.kind != "fe":
            raise ConsistencyError("pure monomials are canonically kind fe")

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


def _word_in_range(n: int, word: tuple[tuple[str, int], ...], base: int) -> bool:
    obj = base
    if not 0 <= obj <= n:
        return False
    for letter, p in reversed(word):
        obj = obj + p if letter == "F" else obj - p
        if not 0 <= obj <= n:
            return False
    return True


def _word_sources(word: tuple[tuple[str, int], ...], base: int) -> list[int]:
    """Source object of each block, in writing order."""
    out = [0] * len(word)
    obj = base
    for q in range(len(word) - 1, -1, -1):
        out[q] = obj
        letter, p = word[q]
        obj = obj + p if letter == "F" else obj - p
    return out


def _reducible_positions(word: tuple[tuple[str, int], ...]) -> list[int]:
    pos = []
    for p in range(len(word) - 1):
        l1, _ = word[p]
        l2, _ = word[p + 1]
        if l1 == l2 or (l1 == "E" and l2 == "F"):
            pos.append(p)
    return pos


def normalize_blocks(
    n: int,
    blocks,
    base: int,
    rng: random.Random | None = None,
) -> UVector:
    """Straighten a block word to FE-normal form over Z.

    Words containing an out-of-range block are zero and dropped as soon as
    they appear. With rng given, the rewriting position is chosen at random;
    the result does not depend on the choices (tested), so the default is a
    deterministic leftmost strategy.
    """
    word = tuple((letter, int(p)) for letter, p in blocks if p)
    for letter, p in word:
        if letter not in ("E", "F") or p < 1:
            raise InputError(f"bad block ({letter!r}, {p})")
    if not _word_in_range(n, word, base):
        return {}
    pending: dict[tuple, int] = {word: 1}
    done: UVector = {}
    while pending:
        if rng is None:
            word, coeff = pending.popitem()
        else:
            word = rng.choice(sorted(pending))
            coeff = pending.pop(word)
        positions = _reducible_positions(word)
        if not positions:
            mon = _normal_word_to_monomial(word, base)
            done[mon] = done.get(mon, 0) + coeff
            if done[mon] == 0:
                del done[mon]
            continue
        p = positions[0] if rng is None else rng.choice(positions)
        l1, p1 = word[p]
        l2, p2 = word[p + 1]
        if l1 == l2:
            merged = word[:p] + ((l1, p1 + p2),) + word[p + 2 :]
            _accumulate(pending, merged, coeff * gen_binom(p1 + p2, p1), n, base)
        else:
            # E^(p1) after F^(p2), exchanged at the F-block's source object
            m = _word_sources(word, base)[p + 1]
            w = weight(n, m)
            for j in range(min(p1, p2) + 1):
                c = gen_binom(p1 - p2 + w, j)
                if c == 0:
                    continue
                middle = tuple(
                    (l, q) for l, q in (("F", p2 - j), ("E", p1 - j)) if q
                )
                new_word = word[:p] + middle + word[p + 2 :]
                _accumulate(pending, new_word, coeff * c, n, base)
    return done


def _accumulate(pending: dict, word: tuple, coeff: int, n: int, base: int) -> None:
    if coeff == 0 or not _word_in_range(n, word, base):
        return
    pending[word] = pending.get(word, 0) + coeff
    if pending[word] == 0:
        del pending[word]


def _normal_word_to_monomial(word: tuple, base: int) -> DPMonomial:
    fpow = epow = 0
    for letter, p in word:
        if letter == "F":
            fpow = p
        else:
            epow = p
    return dp("fe", fpow, epow, base)


def dp_normalize(n: int, word, base: int) -> UVector:
    """FE-normal form of a word of single-step generators.

    The word is given in writing order (leftmost letter applied last) and
    base is the source object. Coefficients live in Z; see basis_change for
    honest multiplicities.
    """
    return normalize_blocks(n, [(letter, 1) for letter in word], base)


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
    return {
        (i, j): pair_basis(n, i, j)
        for i in range(n + 1)
        for j in range(n + 1)
    }


def basis_change(
    n: int,
    vec: UVector,
    source: int | None = None,
    target: int | None = None,
) -> UVector:
    """Express a Z-combination of monomials in the indecomposable basis of
    its hom-pair, exchanging FE- and EF-ordered monomials as needed.

    The result must have nonnegative coefficients and land inside the basis;
    anything else raises ConsistencyError.
    """
    if not vec:
        return {}
    mons = list(vec)
    if source is None:
        source, target = mons[0].source, mons[0].target
    for m in mons:
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
        w = weight(n, m.base)
        if orientation == "fe":
            # E^(a) F^(b) 1 -> sum_j C(a-b+w, j) F^(b-j) E^(a-j) 1
            a, b = m.epow, m.fpow
            for j in range(min(a, b) + 1):
                cj = gen_binom(a - b + w, j)
                swapped = dp("fe", b - j, a - j, m.base)
                if cj and swapped.in_range(n):
                    _add(out, swapped, c * cj)
        else:
            # F^(b) E^(a) 1 -> sum_j C(b-a-w, j) E^(a-j) F^(b-j) 1
            a, b = m.epow, m.fpow
            for j in range(min(a, b) + 1):
                cj = gen_binom(b - a - w, j)
                swapped = dp("ef", b - j, a - j, m.base)
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
    if a.source != b.target:
        raise InputError(f"{a.name} and {b.name} are not composable")
    vec = normalize_blocks(n, a.blocks + b.blocks, b.base)
    return basis_change(n, vec, source=b.source, target=a.target)


def canonical_monomial(n: int, m: DPMonomial) -> DPMonomial:
    """The basis monomial isomorphic to a single in-range monomial."""
    vec = basis_change(n, {m: 1})
    if len(vec) != 1 or set(vec.values()) != {1}:
        raise ConsistencyError(f"{m.name} is not a single indecomposable")
    return next(iter(vec))


@lru_cache(maxsize=None)
def build_bn(n: int, limit: int = DESK_LIMIT) -> Shadow:
    """The rank-n divided-power shadow: objects 0..n, the quadrant monomial
    basis, the straightened composition table and the adjoint involution."""
    if not 1 <= n <= limit:
        raise InputError(f"rank must be between 1 and {limit}, got {n}")
    basis = bn_basis(n)
    monomials: list[DPMonomial] = []
    for i in range(n + 1):
        for j in range(n + 1):
            monomials.extend(basis[(i, j)])
    elements = tuple(
        Element(
            name=m.name,
            source=m.source,
            target=m.target,
            is_identity=m.is_identity,
        )
        for m in monomials
    )
    by_mon = dict(zip(monomials, elements))
    table = {}
    for b_mon, b_elt in zip(monomials, elements):
        for a_mon, a_elt in zip(monomials, elements):
            if a_mon.source != b_mon.target:
                continue
            vec = compose_monomials(n, a_mon, b_mon)
            table[(a_elt, b_elt)] = Decomposition(
                {by_mon[m]: c for m, c in vec.items()}
            )
    involution = {by_mon[m]: by_mon[m.star()] for m in monomials}
    return Shadow(
        objects=tuple(range(n + 1)),
        elements=elements,
        table=table,
        involution=involution,
    )


def bn_element_monomials(n: int) -> dict[str, DPMonomial]:
    """Element id -> monomial, for the rank-n shadow."""
    out = {}
    for mons in bn_basis(n).values():
        for m in mons:
            out[m.name] = m
    return out


def _decomp_to_names(s: Shadow, d: Decomposition) -> dict[str, int]:
    return {e.name: m for e, m in sorted(d.items(), key=lambda t: s.index_of(t[0]))}


def verify_relations(n: int, s: Shadow | None = None) -> list[dict]:
    """The defining exchange and merge relations, evaluated in the table.

    Exchange: E_{i+1} F_i + i copies of 1_i equals F_{i-1} E_i + (n - i)
    copies of 1_i, with out-of-range single steps reading as zero. Merge:
    a chain of k single steps decomposes as k! copies of the k-th divided
    power.
    """
    if s is None:
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
                {"i": i, "left": _decomp_to_names(s, lhs), "right": _decomp_to_names(s, rhs)}
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


def defining_action(
    n: int, s: Shadow | None = None, validate: bool = True
) -> dict[Element, np.ndarray]:
    """Integer matrices of the action on the direct sum of vector spaces, one
    dimension per object: an F-block from object m acts by C(m + k, k), an
    E-block into object m by C(n - m, k). Validated against the table."""
    if s is None:
        s = build_bn(n)
    mons = bn_element_monomials(n)

    def block_matrix(letter: str, src: int, p: int) -> np.ndarray:
        mat = np.zeros((n + 1, n + 1), dtype=np.int64)
        if letter == "F":
            mat[src + p, src] = comb(src + p, p)
        else:
            mat[src - p, src] = comb(n - (src - p), p)
        return mat

    action: dict[Element, np.ndarray] = {}
    for e in s.elements:
        m = mons[e.name]
        # start from the projector onto the source object, then apply blocks
        mat = np.zeros((n + 1, n + 1), dtype=np.int64)
        mat[m.base, m.base] = 1
        word = m.blocks
        sources = _word_sources(word, m.base)
        for (letter, p), src in reversed(list(zip(word, sources))):
            mat = block_matrix(letter, src, p) @ mat
        action[e] = mat

    if validate:
        for (a, b), d in s.table.items():
            lhs = action[a] @ action[b]
            rhs = np.zeros_like(lhs)
            for c, mult in d.items():
                rhs = rhs + mult * action[c]
            if not np.array_equal(lhs, rhs):
                raise ConsistencyError(
                    f"defining action is not multiplicative at ({a.name}, {b.name})"
                )
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
    """Canonical basis monomial generating the (i, k) left/right cell."""
    s = n // 2
    if i <= s:
        return canonical_monomial(n, dp("fe", k, k, i))
    return canonical_monomial(n, dp("ef", k, k, i))


def expected_two_sided_index(n: int, i: int, k: int) -> int:
    s = n // 2
    return i - k if i <= s else n - i - k


def bn_cells_report(n: int, s: Shadow | None = None) -> list[dict]:
    """Cell structure checks for the rank-n shadow: cell counts, the chain
    poset, the (i, k) generator indexing, strong regularity and the
    m-statistic (constant on right cells; on the right cell of F_k^(i-k)
    it equals the multiplicity of 1_k in E_i^(i-k) F_k^(i-k))."""
    if s is None:
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
    k_cells = len(poset.cells)
    chain_ok = all(
        poset.leq(a, b) or poset.leq(b, a)
        for a in range(k_cells)
        for b in range(k_cells)
    )
    top = poset.cell_index(s.element("1_0"))
    chain_ok = chain_ok and all(poset.leq(c, top) for c in range(k_cells))
    for m in range(1, half + 1):
        lo = poset.cell_index(s.element(f"1_{m}"))
        hi = poset.cell_index(s.element(f"1_{m - 1}"))
        chain_ok = chain_ok and poset.leq(lo, hi) and not poset.leq(hi, lo)
    checks.append(check("cell-poset-chain-top-at-identity-0", chain_ok))

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
    if not reg_witnesses:
        for cls in two_sided.classes:
            values, constant = m_values(s, cls)
            if not constant:
                m_bad.append(
                    {e.name: v for e, v in sorted(values.items(), key=lambda t: s.index_of(t[0]))}
                )
    checks.append(check("m-constant-on-right-cells", not m_bad, m_bad))

    formula_bad = []
    if not reg_witnesses:
        value_of: dict[Element, int] = {}
        for cls in two_sided.classes:
            values, _ = m_values(s, cls)
            value_of.update(values)
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
        return Element(
            name=sm.name,
            source=sm.source,
            target=sm.target,
            is_identity=sm.is_identity,
        )

    mapping = {e: shift_elt(e) for e in s.elements}
    table = {
        (mapping[a], mapping[b]): Decomposition(
            {mapping[e]: m for e, m in d.items()}
        )
        for (a, b), d in s.table.items()
    }
    involution = None
    if s.involution is not None:
        involution = {mapping[e]: mapping[f] for e, f in s.involution.items()}
    return Shadow(
        objects=tuple(o + delta for o in s.objects),
        elements=tuple(mapping[e] for e in s.elements),
        table=table,
        involution=involution,
        partial=s.partial,
    )


def recursion_check(n: int) -> dict:
    """Rank reduction: shifting the rank-(n-2) shadow up by one object must
    reproduce the rank-n shadow with its maximal cell deleted, both product
    by product and as a whole quotient shadow."""
    if n < 3:
        raise InputError("rank reduction needs n >= 3")
    big = build_bn(n)
    small = build_bn(n - 2)
    shifted = shift_shadow(small, bn_element_monomials(n - 2), 1)
    image = {e.name for e in shifted.elements}

    witnesses = []
    for (a, b), d in shifted.table.items():
        big_d = compose(big, big.element(a.name), big.element(b.name))
        truncated = {
            e.name: m for e, m in big_d.items() if e.name in image
        }
        if truncated != {e.name: m for e, m in d.items()}:
            witnesses.append({"pair": [a.name, b.name]})

    top_cell = cell_partition(big, "two-sided").class_of(big.element("1_0"))
    quotient = quotient_by_upset(big, top_cell)
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
    checks.extend(verify_relations(n, s))
    try:
        defining_action(n, s, validate=True)
        checks.append(check("defining-action-multiplicative", True))
    except ConsistencyError as err:
        checks.append(check("defining-action-multiplicative", False, [str(err)]))

    left = cell_partition(s, "left")
    cm = cell_module(s, left.class_of(s.element("1_0")))
    action = defining_action(n, s, validate=False)
    names_ok = [e.name for e in cm.basis] == ["1_0"] + [
        f"F0^({k})" for k in range(1, n + 1)
    ]
    matrices_ok = names_ok and all(
        np.array_equal(cm.matrices[e], action[e]) for e in s.elements
    )
    checks.append(check("cell-module-is-defining-action", matrices_ok))

    checks.extend(bn_cells_report(n, s))

    poset = cell_poset(s)
    ideals = thick_ideals(s, poset)
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
