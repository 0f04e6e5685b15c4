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
The check suite of this family is fiatcell.bnverify.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import comb

from .checks import ConsistencyError, InputError, check_range, emit, is_int
from .shadow import Element, Shadow

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
    for what, value in (("top", m), ("index", k)):
        if not is_int(value):
            raise InputError(f"binomial {what} must be an integer, got {value!r}")
    return _binom(m, k)


def _binom(m: int, k: int) -> int:
    # gen_binom unguarded, for the products below, whose arguments are ints
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
        c = _binom(p1 - p2 + w, j)
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
            cj = _binom(top, j)
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
        if (c := _binom(top, j))
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
                if (c := _binom(top, j))
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
                        c = _binom(top, j)
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


def cmd_build(args) -> int:
    from .shadowfile import shadow_to_dict

    emit(shadow_to_dict(build_bn(args.n)), args.output)
    return 0
