"""The check suite of the divided-power shadows and the `verify bn` verb.

verify_bn never runs the rewriter: it reads the cached shadow and closed
forms alone. In the defining action each element sends the line of its
source object to that of its target by one positive integer, so
multiplicativity is a check on integers; cell generators are written down
in the quadrant orientation; and rank reduction compares the quotient by
the top cell with the shifted lower-rank table entry by entry. Strong
regularity and the m-statistic, which only this suite runs, live here too.
"""

from __future__ import annotations

from math import comb, factorial
from operator import mul

from .cells import KINDS, cell_data, cell_module, cell_partition, cell_poset
from .checks import ConsistencyError, InputError, StructureError, check, check_range
from .checks import emit_results, parse_range, probes
from .ideals import quotient_by_upset, thick_ideals, upsets_by_enumeration
from .shadow import Element, Shadow, _pairs, _table_ids
from .sweep import check_associativity
from .udot import DESK_LIMIT, DPMonomial, bn_element_monomials, build_bn, check_bn_rank, dp
from .udot import pair_orientation


def verify_relations(n: int) -> list[dict]:
    """The defining exchange and merge relations, evaluated in the table.

    Exchange: E_{i+1} F_i + i copies of 1_i equals F_{i-1} E_i + (n - i)
    copies of 1_i, with out-of-range single steps reading as zero. Merge:
    a chain of k single steps decomposes as k! copies of the k-th divided
    power.
    """
    s = build_bn(n)
    checks = []
    rows, size, at = s._view.rows, len(s.elements), s._id_of
    names = [e.name for e in s.elements]

    def after(a: int, terms: dict[int, int]) -> dict[int, int]:
        # a after each term, summed with multiplicities
        out: dict[int, int] = {}
        for t, m in terms.items():
            for e, k in _pairs(rows[a * size + t]):
                out[e] = out.get(e, 0) + m * k
        return out

    e_step = {m: at[dp("fe", 0, 1, m).name] for m in range(1, n + 1)}  # m -> m - 1
    f_step = {m: at[dp("fe", 1, 0, m).name] for m in range(n)}  # m -> m + 1

    bad_55 = []
    for i in range(n + 1):
        one = at[f"1_{i}"]
        lhs = after(e_step[i + 1], {f_step[i]: 1}) if i < n else {}
        if i:
            lhs[one] = lhs.get(one, 0) + i
        rhs = after(f_step[i - 1], {e_step[i]: 1}) if i else {}
        if n - i:
            rhs[one] = rhs.get(one, 0) + n - i
        if lhs != rhs:
            left, right = ({names[t]: m for t, m in sorted(x.items())} for x in (lhs, rhs))
            bad_55.append({"i": i, "left": left, "right": right})
    checks.append(check("exchange-relation", not bad_55, bad_55))

    bad_65 = []
    for i in range(n + 1):
        chain_e = chain_f = None
        for k in range(1, n + 1):
            # the chain of k single steps from object i, one step longer each k
            if i - k >= 0:
                chain_e = after(e_step[i - k + 1], chain_e) if k > 1 else {e_step[i]: 1}
                if chain_e != {at[dp("fe", 0, k, i).name]: factorial(k)}:
                    bad_65.append({"family": "E", "i": i, "k": k})
            if i + k <= n:
                chain_f = after(f_step[i + k - 1], chain_f) if k > 1 else {f_step[i]: 1}
                if chain_f != {at[dp("fe", k, 0, i).name]: factorial(k)}:
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


def is_strongly_regular(s: Shadow, two_sided_cell: frozenset[Element]) -> dict:
    """Check one two-sided cell: its left cells are pairwise incomparable and
    every left-right intersection inside it is a singleton. Returns the
    check record "strong-regularity", whose one witness on failure is
    ["comparable-left-cells", a, b] or ["intersection-size", left cell,
    right cell, size], the cells as sorted names. A set that is not a
    two-sided cell of s is an InputError."""
    if two_sided_cell not in cell_partition(s, "two-sided").classes:
        raise InputError("the given set is not a two-sided cell of this shadow")
    ideals, left_cells, _ = cell_data(s, "left")
    left = [cls & two_sided_cell for cls in left_cells.classes if cls & two_sided_cell]
    right = [
        cls & two_sided_cell
        for cls in cell_partition(s, "right").classes
        if cls & two_sided_cell
    ]
    first = [min(map(s.index_of, li)) for li in left]
    for a in first:
        for b in first:
            if a != b and not ideals[b] & ~ideals[a]:
                names = s.elements[a].name, s.elements[b].name
                return check("strong-regularity", False, [["comparable-left-cells", *names]])
    for li in left:
        for rj in right:
            inter = li & rj
            if len(inter) != 1:
                names = [sorted(e.name for e in cls) for cls in (li, rj)]
                witness = ["intersection-size", *names, len(inter)]
                return check("strong-regularity", False, [witness])
    return check("strong-regularity", True)


def m_values(s: Shadow, two_sided_cell: frozenset[Element]) -> tuple[dict[Element, int], bool]:
    """The multiplicity statistic on a strongly regular two-sided cell.

    For each f in the cell, h is the unique element in the left cell of f
    intersected with the right cell of f*, and m_f is the multiplicity of h
    in f* after f. Returns the value map together with a flag asserting
    constancy on right cells. A set that is not a two-sided cell is an
    InputError.
    """
    star = s._view.star
    if star is None:
        raise InputError("m_values requires an involution")
    cell_names = sorted(e.name for e in two_sided_cell)
    reg = is_strongly_regular(s, two_sided_cell)
    if reg["witnesses"]:
        (witness,) = reg["witnesses"]
        raise InputError(f"cell {{{', '.join(cell_names)}}} is not strongly regular: {witness}")
    left, right = cell_data(s, "left").cell_of, cell_data(s, "right").cell_of
    rows, n = s._view.rows, len(s.elements)
    values: dict[Element, int] = {}
    for f in sorted(map(s.index_of, two_sided_cell)):
        fstar = star[f]
        candidates = left[f] & right[fstar]
        if len(candidates) != 1:
            raise ConsistencyError(
                f"left/right intersection for {s.elements[f].name} has size {len(candidates)}"
            )
        (h,) = candidates
        # f* after f; a full table has the entry (cell_data checked), a
        # partial one may lack it
        values[s.elements[f]] = dict(_pairs(rows[fstar * n + f] or ())).get(s.index_of(h), 0)
    constant = True
    for cls in cell_partition(s, "right").classes:
        inside = cls & two_sided_cell
        if inside and len({values[f] for f in inside}) > 1:
            constant = False
    return values, constant


def bn_cells_report(n: int) -> list[dict]:
    """Cell structure checks for the rank-n shadow: cell counts, the chain
    poset, the (i, k) generator indexing, strong regularity and the
    m-statistic (constant on right cells; on the right cell of F_k^(i-k)
    it equals the multiplicity of 1_k in E_i^(i-k) F_k^(i-k))."""
    s = build_bn(n)
    rows, size, at = s._view.rows, len(s.elements), s._id_of
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
    left_of, right_of, two_sided_of = (cell_data(s, kind).cell_of for kind in KINDS)
    identity_cells = [two_sided_of[at[f"1_{m}"]] for m in range(half + 1)]
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
    gens = {pair: at[cell_generator(n, *pair).name] for pair in pairs}
    gen_left = {pair: left_of[g] for pair, g in gens.items()}
    gen_right = {pair: right_of[g] for pair, g in gens.items()}
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
        if two_sided_of[g] != identity_cells[expected]:
            bad_membership.append({"pair": [i, k], "generator": s.elements[g].name})
    checks.append(
        check("generator-two-sided-membership", not bad_membership, bad_membership)
    )

    reg_witnesses = [
        w for cls in two_sided.classes for w in is_strongly_regular(s, cls)["witnesses"]
    ]
    checks.append(check("strong-regularity", not reg_witnesses, reg_witnesses))

    m_bad = []
    value_of: dict[Element, int] = {}
    if not reg_witnesses:
        for cls in two_sided.classes:
            values, constant = m_values(s, cls)
            value_of.update(values)
            if not constant:
                m_bad.append({e.name: m for e, m in values.items()})
    checks.append(check("m-constant-on-right-cells", not m_bad, m_bad))

    formula_bad = []
    if not reg_witnesses:
        for i in range(half + 1):
            for k in range(i + 1):
                f_elt = at[dp("fe", i - k, 0, k).name]
                e_elt = at[dp("fe", 0, i - k, i).name]
                expected = dict(_pairs(rows[e_elt * size + f_elt])).get(at[f"1_{k}"], 0)
                got = {value_of[x] for x in right_of[f_elt]}
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


def _file_form(s: Shadow) -> tuple:
    """What the file form of s records: the partial flag, the objects, the
    elements, and the involution and the products (in id order) by element
    name."""
    names = [e.name for e in s.elements]
    entries, star = _table_ids(s)
    if star is not None:
        star = {names[i]: names[j] for i, j in enumerate(star) if j is not None}
    products = {
        (names[a], names[b]): {names[t]: m for t, m in _pairs(row)}
        for a, b, row in sorted(entries)
    }
    return bool(s.partial), s.objects, s.elements, star, products


def recursion_check(n: int) -> dict:
    """Rank reduction: shifting the rank-(n-2) shadow up by one object must
    reproduce the rank-n shadow with its maximal cell deleted, both product
    by product and as a whole quotient shadow."""
    check_bn_rank(n)
    check_range("rank for rank reduction", n, 3, DESK_LIMIT)
    big = build_bn(n)
    shifted = shift_shadow(build_bn(n - 2), bn_element_monomials(n - 2), 1)
    top_cell = cell_data(big, "two-sided").cell_of[big._id_of["1_0"]]
    # both as their file forms would compare
    quotient = _file_form(quotient_by_upset(big, top_cell))
    shifted = _file_form(shifted)
    products = quotient[-1]
    witnesses = [
        {"pair": list(pair)}
        for pair, result in shifted[-1].items()
        if products.get(pair) != result
    ]
    if quotient != shifted:
        witnesses.append({"quotient": "differs from shifted lower-rank shadow"})
    return check("rank-reduction-index-shift", not witnesses, witnesses)


def verify_bn(n: int) -> list[dict]:
    """Full check suite for the rank-n shadow."""
    s = build_bn(n)
    try:
        record = check_associativity(s)
    except StructureError as err:
        return [check("structure", False, [str(err)])]
    ok = record["status"] == "pass"
    checks = [
        check("structure", True),
        check("associativity-multiplicity-level", ok, record["witnesses"]),
    ]
    checks.extend(verify_relations(n))
    action = defining_action(n)
    by_id = [action[e] for e in s.elements]
    rows, order = s._view.rows, s._view.order
    product_bad = []
    for at in order:
        a, b = divmod(at, len(by_id))
        row = rows[at]
        if by_id[a] * by_id[b] != sum(map(mul, map(by_id.__getitem__, row[::2]), row[1::2])):
            pair = f"({s.elements[a].name}, {s.elements[b].name})"
            product_bad.append(f"defining action is not multiplicative at {pair}")
            break
    checks.append(check("defining-action-multiplicative", not product_bad, product_bad))

    cm = cell_module(s, cell_data(s, "left").cell_of[s._id_of["1_0"]])
    names = [e.name for e in cm.basis]
    if names != ["1_0"] + [f"F0^({k})" for k in range(1, n + 1)]:
        module_bad = [{"basis": names}]
    else:
        module_bad = []
        for e in s.elements:
            # e's matrix has one nonzero entry, action[e], at (e.target, e.source)
            matrix = cm.matrices[e]
            nonzero = sum(len(row) - row.count(0) for row in matrix)
            if nonzero != 1 or not matrix[e.target][e.source] == action[e] != 0:
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


def cmd_verify(args) -> int:
    ranks = parse_range(args.n)
    for n in probes(ranks, DESK_LIMIT):
        check_bn_rank(n)
    runs = []  # (the leading fields of a result, its checks)
    for n in ranks:
        s, checks = build_bn(n), verify_bn(n)
        cells = len(cell_partition(s, "two-sided").classes)
        runs.append(({"n": n, "elements": len(s.elements), "two-sided-cells": cells}, checks))
    return emit_results("bn", runs, args.output)
