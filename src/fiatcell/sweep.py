"""The associativity sweep and the `check` verb. Only `check` and the `bn`
and `clebsch` verify suites run the sweep, so no other verb loads it.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, itemgetter, mul, neg, sub

from .checks import StructureError, check, emit
from .shadow import Shadow, _pairs, _run, validate_shadow


_NEGATIVE = (0).__gt__


def _combine(rows, row, base: int, stride: int) -> dict[int, int] | None:
    """The sum of m * rows[base + stride * t] over the terms (t, m) of row,
    or None when one of those entries is absent."""
    out: dict[int, int] = {}
    for t, m in _pairs(row):
        entry = rows[base + stride * t]
        if entry is None:
            return None
        for e, k in _pairs(entry):
            out[e] = out.get(e, 0) + m * k
    return out


def _pick(indices: list[int]):
    """itemgetter over indices that returns a tuple for any count of them."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices) if indices else lambda row: ()


def _add_rows(x: list, y: list) -> list:
    return list(map(add, x, y))


def _prefix(values: list, step: int, plus=add, zero=0) -> list:
    """out[i], for i < len(values) + step: the sum by plus, from zero, of
    values[t] over the t < i with t = i (mod step). The sum of a run lo,
    lo + step, ..., hi of values is then out[hi + step] - out[lo]."""
    out = [zero] * (len(values) + step)
    for r in range(step):
        out[r::step] = accumulate(values[r::step], plus, initial=zero)
    return out


def _pack(s: Shadow, rows, order) -> tuple[list[int], int, dict]:
    """Every entry as one integer, the integer that stands for an absent
    one, and the runs among the entries by position: (lo, hi, step) for an
    entry of three or more ids lo, lo + step, ..., hi (shadow._run), each
    with multiplicity 1.

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
    shift = [width * k for k in slot]
    n = len(s.elements)
    packed = [absent] * (n * n)
    runs = {}
    for at in order:
        row = rows[at]
        if len(row) == 2:  # one term, the common case
            packed[at] = row[1] << shift[row[0]]
        else:
            packed[at] = sum(m << shift[t] for t, m in _pairs(row))
            # three or more terms, each with multiplicity 1
            if len(row) > 4 and row[1::2].count(1) * 2 == len(row):
                step = row[2] - row[0]
                if run := _run(row[::2], step):
                    runs[at] = (*run, step)
    return packed, absent, runs


def check_associativity(s: Shadow) -> dict:
    """Compare (a b) c with a (b c) at the multiplicity level, for every
    triple or, on a full table, for the triples whose middle is a generator
    the sweep picks itself (Light's associativity test).

    Returns the check record "associativity" with the counters checked and
    skipped; a genuine counterexample fails it, its one witness the first
    failing triple in canonical order with both sides. A structural problem
    raises StructureError from validate_shadow. Partial shadows skip
    triples that touch an absent table entry.

    The sweep runs on the entries packed by _pack, one c-row at a time: for
    each pair (a, b) it builds the lists of (a b) c and of a (b c) over every
    c with target source(b). When the two are equal, the triples whose sums
    are negative, having taken in an absent entry, are skipped and the rest
    checked; otherwise the row is walked triple by triple. A run entry of
    step s (_pack) is summed as the difference of two step-s prefix rows
    (_prefix): over the packed c-rows of its terms for (a b) c, over a's
    packed row for a (b c), where it enters the running sums of a c-row as
    two terms, the top prefix sum and the bottom one negated. The
    difference is the very integer the term-by-term sum gives, so a sum
    that takes in an absent entry is still negative.

    On a full table validation has already proved some rows; they are
    counted as checked without being swept, so checked still counts every
    composable triple. Identities act strictly, so every triple whose a or b
    is an identity holds. The involution is a self-inverse anti-homomorphism
    on every entry, so (a b) c and a (b c) are the stars of c* (b* a*) and
    (c* b*) a*: a triple fails exactly when its dual (c*, b*, a*) does. A
    row whose middle b has star[b] < b is not swept, since the dual of each
    of its triples lies in a row whose middle b* has star[b*] > b*. The
    failing triples are then exactly those found plus their duals, and the
    witness is the first of them. A partial shadow sweeps every row: its
    involution is checked only on the entries whose dual is present.

    Light's test. Extend the product bilinearly to the free Z-module on the
    elements, non-composable products reading as zero. The g with
    (x g) y = x (g y) for all x and y then form a subring: for two such g
    and h, (x (g h)) y = ((x g) h) y = (x g) (h y) = x (g (h y)) =
    x ((g h) y). It holds the identities, which act strictly, and the
    images of its members under the involution, an anti-homomorphism. It is
    saturated over Z: the associator is trilinear and its values lie in a
    free Z-module, so if m e is in it for some m > 0, so is e. So once
    _closure generates every element, every row passes when the
    generators' rows do, and those rows are the only ones swept; the others
    count as checked, as the identity and dual rows do. The full sweep runs
    instead on a partial table, when the closure gives up or when a
    generator's row fails, so the record is always the full sweep's: its
    status, witness, checked and skipped.
    """
    validate_shadow(s)
    if not s.partial:
        others = _closure(s)
        if others is not None:
            record = _sweep(s, others)
            if record["status"] == "pass":
                return record
    return _sweep(s, ())


def _closure(s: Shadow) -> list[int] | None:
    """The ids that are not generators once every element is generated,
    None when the closure gives up: when more than half of the elements
    would be generators.

    Identities are generated. An entry of two generated elements whose
    terms are all generated but one generates that one, of any
    multiplicity: m e is the entry minus generated terms. When nothing is
    left to do, the lowest element not yet generated becomes a generator,
    together with its image under the involution. One worklist pass over
    the integer view of a full table: each element meets, once generated,
    every element that met the others before it and itself, on both sides
    (identities meet none, since they act strictly). An entry met with two
    or more ungenerated terms keeps their count, counted down as they are
    generated, and generates its last one when the count reaches one, so
    each entry is read a bounded number of times.
    """
    source, _, rows, _, star = s._view
    elements = s.elements
    n = len(elements)
    seen = [e.is_identity for e in elements]
    missing = seen.count(False)
    generator = [False] * n
    generators = 0
    low = 0  # every id below low is generated
    found: list[int] = []  # generated ids, not yet marked in seen
    todo: list[int] = []  # marked ids that have not met the others
    waiting: list[list[int]] = [[] for _ in range(n)]  # id -> the entries it is ungenerated in
    count: dict[int, int] = {}  # entry -> its ungenerated terms, two or more when met
    into: dict[int, list[int]] = {}  # object -> the met ids with that target
    out_of: dict[int, list[int]] = {}  # object -> the met ids with that source
    while missing:
        if found:
            u = found.pop()
            if seen[u]:
                continue
            seen[u] = True
            missing -= 1
            todo.append(u)
            for pos in waiting[u]:
                count[pos] -= 1
                if count[pos] == 1:
                    found += [v for v in rows[pos][::2] if not seen[v]]
        elif todo:
            x = todo.pop()
            o, t = source[x], elements[x].target
            at = [x * n + y for y in into.get(o, ())]
            at += [y * n + x for y in out_of.get(t, ())]
            if o == t:
                at.append(x * n + x)
            into.setdefault(t, []).append(x)
            out_of.setdefault(o, []).append(x)
            for pos in at:
                row = rows[pos]
                if len(row) == 2:  # one term, the common case
                    if not seen[row[0]]:
                        found.append(row[0])
                    continue
                ungenerated = {u for u in row[::2] if not seen[u]}
                if len(ungenerated) == 1:
                    found += ungenerated
                elif ungenerated:
                    count[pos] = len(ungenerated)
                    for u in ungenerated:
                        waiting[u].append(pos)
        else:
            while seen[low]:
                low += 1
            for g in {low, low if star is None else star[low]}:
                if not seen[g]:
                    generator[g] = True
                    generators += 1
                    found.append(g)
            if 2 * generators > n:
                return None
    return [b for b in range(n) if not generator[b]]


def _sweep(s: Shadow, others) -> dict:
    """The sweep of check_associativity on a validated shadow, the rows
    whose middle is one of the ids others counted as proved."""
    source, by_target, rows, order, star = s._view

    n = len(s.elements)
    full = not s.partial
    dual = star if full else None
    # full tables only: the rows (a, b) with identity[a] or proved[b] are proved
    identity = [full and e.is_identity for e in s.elements]
    proved = [x or (dual is not None and dual[b] < b) for b, x in enumerate(identity)]
    for b in others:
        proved[b] = True
    packed, absent, runs = _pack(s, rows, order)
    # cols[t]: t c packed, for each c with target source(t)
    cols = [[packed[t * n + c] for c in by_target[source[t]]] for t in range(n)]
    # below[step, o]: the step-wise prefix rows of cols over the t with
    # source o, for the runs a b of the swept rows
    below = {}
    for at, (lo, _, step) in runs.items():
        a, b = divmod(at, n)
        o = source[b]
        if not (identity[a] or proved[b] or (step, o) in below):
            zero = [0] * len(by_target[o])
            terms = [cols[t] if source[t] == o else zero for t in range(n)]
            below[step, o] = _prefix(terms, step, _add_rows, zero)
    # start[step]: where a's step-wise prefix sums begin in a's row, after
    # its packed entries and the absent term, for the steps of the runs b c
    # of the swept rows; their negatives follow them
    start, end = {}, n + 1
    for step in sorted({step for at, (_, _, step) in runs.items() if not proved[at // n]}):
        start[step], end = end, end + 2 * (n + 1 + step)
    # b's c-row as flat terms, an absent b c as the term (n, 1) and a run b c
    # as two terms, the top and the negated bottom of its prefix sums: a pick
    # of their ids from a's row, their multiplicities (None when all are 1)
    # and a pick of the running sums that end each c's terms (None when each
    # c has one term); None for a proved middle
    c_rows: list[tuple | None] = []
    for b in range(n):
        if proved[b]:
            c_rows.append(None)
            continue
        us: list[int] = []
        ks: list[int] = []
        ends = []
        for c in by_target[source[b]]:
            if runs and b * n + c in runs:
                lo, hi, step = runs[b * n + c]
                us += (start[step] + hi + step, start[step] + n + 1 + step + lo)
                ks += (1, 1)
            else:
                bc = rows[b * n + c]
                if bc is None:
                    bc = (n, 1)
                us += bc[::2]
                ks += bc[1::2]
            ends.append(len(us))
        one_each = ends == list(range(1, len(ends) + 1))
        ones = all(k == 1 for k in ks)
        c_rows.append((_pick(us), None if ones else ks, None if one_each else _pick(ends)))

    checked = skipped = 0
    first = (n, n, n)  # the first failing triple; past every triple until one fails
    for a in range(n):
        a_row = a * n
        a_packed = packed[a_row : a_row + n]
        a_packed.append(absent)
        for prefix in [_prefix(a_packed, step) for step in start]:
            a_packed += prefix
            a_packed += map(neg, prefix)
        for b in by_target.get(source[a], ()):
            ab = rows[a_row + b]
            cs = by_target[source[b]]
            if ab is None:
                skipped += len(cs)
                continue
            if identity[a] or proved[b]:
                checked += len(cs)
                continue
            # (a b) c for each c
            if runs and (run := runs.get(a_row + b)):
                lo, hi, step = run
                prefix = below[step, source[b]]
                left = list(map(sub, prefix[hi + step], prefix[lo]))
            else:
                scaled = [cols[t] if m == 1 else [m * x for x in cols[t]] for t, m in _pairs(ab)]
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
            if left == right:
                if min(left) >= 0:
                    checked += len(cs)
                else:
                    # the two sums of a triple are both negative or neither
                    absents = sum(map(_NEGATIVE, left))
                    checked += len(cs) - absents
                    skipped += absents
                continue
            for c, x, y in zip(cs, left, right):
                if x < 0 or y < 0:
                    skipped += 1
                    continue
                checked += 1
                if x != y:
                    first = min(first, (a, b, c))
                    if dual is not None:
                        first = min(first, (dual[c], dual[b], dual[a]))
    witnesses = []
    if first[0] < n:
        a, b, c = first
        left_terms = _combine(rows, rows[a * n + b], c, n)
        right_terms = _combine(rows, rows[b * n + c], a * n, 1)
        witnesses.append(_witness(s, first, left_terms, right_terms))
    return check("associativity", not witnesses, witnesses, checked=checked, skipped=skipped)


def _witness(s: Shadow, triple, left: dict[int, int], right: dict[int, int]) -> dict:
    elements = s.elements
    return {
        "triple": [elements[i].name for i in triple],
        "left": {elements[i].name: m for i, m in sorted(left.items())},
        "right": {elements[i].name: m for i, m in sorted(right.items())},
    }


def cmd_check(args) -> int:
    from .shadowfile import load_shadow

    s = load_shadow(args.path)
    doc = {"format": 1, "verb": "check"}
    try:
        record = check_associativity(s)
    except StructureError as err:
        doc.update(status="structural-error", checked=0, skipped=0, message=str(err))
        emit(doc, args.output)
        return 2
    doc.update(status=record["status"], checked=record["checked"], skipped=record["skipped"])
    if record["witnesses"]:
        doc["failure"] = record["witnesses"][0]
    emit(doc, args.output)
    return 0 if record["status"] == "pass" else 1
