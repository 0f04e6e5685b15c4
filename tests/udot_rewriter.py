"""The generic divided-power rewriter: the oracle for build_bn's table.

normalize_blocks straightens a word of divided-power blocks to FE-normal
form by one recursive rule: drop the word if its path leaves 0..n, else
rewrite its first reducible pair of blocks and recurse on each result.
Adjacent like blocks merge with a binomial coefficient, and an E-block
acting after an F-block is exchanged at the F-block's source object.
basis_change then expresses the result in the quadrant basis, and
compose_monomials does both for a product of two basis monomials. The
tests compare build_bn's table with compose_monomials on every pair, and
udot_oracle checks the rewriter with single-step rules alone; the package
itself never runs it.
"""

from __future__ import annotations

import random
from itertools import accumulate
from math import comb

from fiatcell.checks import ConsistencyError, InputError, check_range, is_int
from fiatcell.udot import (
    DESK_LIMIT,
    DPMonomial,
    _binom,
    check_bn_rank,
    dp,
    pair_basis,
    pair_orientation,
    weight,
)

# The largest total power of a word normalize_blocks straightens. A basis
# monomial of rank n has F- and E-powers of at most n, so compose_monomials
# passes at most 4 * DESK_LIMIT; the rewriter's cost grows steeply past it.
WORD_LIMIT = 4 * DESK_LIMIT

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

