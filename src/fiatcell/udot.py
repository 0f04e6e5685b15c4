"""Divided-power towers: the finite shadow family of rank n.

Objects are 0..n, thought of as weight spaces (object i has weight n - 2i).
E-steps move an object down by one, F-steps up by one; anything leaving
0..n is zero. An E-block acting after an F-block is exchanged via

    E^(a) F^(b) 1_i  =  sum_j C(a - b + w, j) F^(b-j) E^(a-j) 1_i

with w the weight of the F-block's source object i, and adjacent like
blocks merge with a binomial coefficient. Coefficients along the way live
in Z: on hom-pairs with i + j >= n the FE-ordered monomials are virtual
classes and honest multiplicities only appear after changing to the
EF-ordered basis. The indecomposables of the hom-pair (i, j) are exactly
the in-range monomials of the quadrant orientation (FE when i + j < n,
EF when i + j >= n), min(i, j, n-i, n-j) + 1 of them.

build_bn expands each basis monomial into FE form once (an EF monomial by
the exchange formula, dropping terms whose middle object leaves 0..n) and
multiplies FE monomials in closed form: one exchange and two merges give

    F^(f1) E^(e1) . F^(f2) E^(e2) 1_i
        =  sum_j C(e1 - f2 + w, j) C(f1 + f2 - j, f1) C(e1 + e2 - j, e2)
                 F^(f1 + f2 - j) E^(e1 + e2 - j) 1_i

with w the weight of the object i - e2, a term being zero when its middle
object i - e1 - e2 + j is negative. The tests hold a generic rewriter,
which straightens any word of divided-power blocks one reducible pair at a
time, and compare build_bn's table with it on every pair
(tests/udot_rewriter.py); tests/udot_oracle.py checks that rewriter with
single-step rules alone. The check suite of this family is
fiatcell.bnverify.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb

from .checks import ConsistencyError, InputError, check_range, emit, is_int
from .shadow import Element, Shadow

DESK_LIMIT = 8


def check_bn_rank(n: int) -> None:
    check_range("rank", n, 1, DESK_LIMIT)


def weight(n: int, i: int) -> int:
    """Weight of object i in the rank-n tower."""
    return n - 2 * i


def _binom(m: int, k: int) -> int:
    """Binomial coefficient with an integer top: the falling factorial
    m (m - 1) ... (m - k + 1) over k!, and 0 for k < 0. A negative top gives
    (-1)^k C(k - m - 1, k)."""
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
            raise InputError(f"bad monomial kind {kind!r}")
        for what, value in (("divided power", fpow), ("divided power", epow), ("object", base)):
            if not is_int(value):
                raise InputError(f"{what} must be an integer, got {value!r}")
        if fpow < 0 or epow < 0:
            raise InputError("negative divided power")
        if (fpow == 0 or epow == 0) and kind != "fe":
            raise InputError("pure monomials are canonically kind fe")
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
        if (c := _binom(top, j))
    )


def _binomials(n: int) -> list[list[int]]:
    """C(top, j) for |top| <= 2n and 0 <= j <= n, at [top][j]: row top sits
    at index top, so a negative top reads from the end of the list, and the
    rows of nonnegative top are Pascal's triangle. A product of two rank-n
    basis monomials exchanges at a top e1 - f2 + w with powers and |w| at
    most n, and merges to powers of at most n, its endpoints being in
    range. Each row comes from C(top, j) = C(top, j - 1) (top - j + 1) / j,
    an exact division."""
    rows = []
    for top in (*range(2 * n + 1), *range(-2 * n, 0)):
        row = [1]
        for j in range(1, n + 1):
            row.append(row[-1] * (top - j + 1) // j)
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def build_bn(n: int) -> Shadow:
    """The rank-n divided-power shadow: objects 0..n, the quadrant monomial
    basis, the composition table and the adjoint involution.

    Products come in closed form (module docstring): each basis monomial is
    expanded into FE form once, each pair of FE terms multiplies by the
    one-exchange, two-merge formula, and each resulting FE monomial is
    mapped to the quadrant basis once per rank, through a table the one
    product loop reads for every FE term. The binomials come from one table
    per rank (_binomials). A negative multiplicity, or a term outside the
    basis, raises ConsistencyError."""
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
                if (c := _binom(top, j))
            )
        for key, _ in keys:
            if key not in index:
                raise ConsistencyError(f"{dp(*key).name} is not a basis monomial")
        return tuple((index[key], c) for key, c in keys)

    binom = _binomials(n)
    # to_basis(f, e, i) at [i][f][e], once it is read
    memos = [[[None] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    entries = []
    for kb, b_mon in enumerate(monomials):
        i, xb, memo = b_mon.base, expansions[kb], memos[b_mon.base]
        for ka in by_source[b_mon.target]:
            out: dict[int, int] = {}
            for f1, e1, c1 in expansions[ka]:
                for f2, e2, c2 in xb:
                    # C(top, j) at the weight of the object i - e2
                    tops, c12 = binom[e1 - f2 + n - 2 * (i - e2)], c1 * c2
                    for j in range(max(0, e1 + e2 - i), min(e1, f2) + 1):
                        if c := tops[j]:
                            f, e = f1 + f2 - j, e1 + e2 - j
                            c *= c12 * binom[f][f1] * binom[e][e2]
                            if (terms := memo[f][e]) is None:
                                terms = memo[f][e] = to_basis(f, e, i)
                            for k, ck in terms:
                                out[k] = out.get(k, 0) + c * ck
            row: list[int] = []
            for k in sorted(out):
                if (m := out[k]) < 0:
                    raise ConsistencyError(f"negative multiplicity {m} at {elements[k].name}")
                if m:
                    row += (k, m)
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


def cmd_build(args) -> int:
    from .shadowfile import shadow_to_dict

    emit(shadow_to_dict(build_bn(args.n)), args.output)
    return 0
