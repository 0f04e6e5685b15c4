"""Tensor-product fusion on nonnegative integers.

m and n compose to every x between |m - n| and m + n of the same parity as
m + n, each with multiplicity one. 0 is a strict unit and the whole of Z+
forms a single left, right and two-sided cell (witness x = a + b). Finite
windows {0..K} are not closed: products near the boundary leave the window,
so window shadows omit those table entries and are marked partial.
"""

from __future__ import annotations

from .checks import check
from .shadow import Decomposition, Element, InputError, Shadow, check_associativity


def cg_op(m: int, n: int) -> frozenset[int]:
    """Fusion of m and n: {|m-n|, |m-n|+2, ..., m+n}."""
    if m < 0 or n < 0:
        raise InputError("fusion is defined on nonnegative integers")
    return frozenset(range(abs(m - n), m + n + 1, 2))


def window_shadow(max_value: int) -> Shadow:
    """One-object shadow on {0..max_value}.

    Pairs whose full fusion leaves the window have no table entry; any such
    pair makes the shadow partial. The involution is the identity map
    (every summand is self-dual).
    """
    if max_value < 0:
        raise InputError("window bound must be nonnegative")
    elements = tuple(
        Element(name=str(v), source=0, target=0, is_identity=(v == 0))
        for v in range(max_value + 1)
    )
    table = {}
    partial = False
    for a in elements:
        for b in elements:
            results = cg_op(int(a.name), int(b.name))
            if max(results, default=0) > max_value:
                partial = True
                continue
            by_value = sorted(results)
            table[(a, b)] = Decomposition(
                {elements[v]: 1 for v in by_value}
            )
    return Shadow(
        objects=(0,),
        elements=elements,
        table=table,
        involution={e: e for e in elements},
        partial=partial,
    )


def single_cell_check(max_value: int) -> bool:
    """Every b is reachable from every a on either side: b lies in the fusion
    of x and a for x = a + b, so all principal ideals of the unwindowed
    structure coincide. Checked for all a, b up to the bound without using
    any window table."""
    for a in range(max_value + 1):
        for b in range(max_value + 1):
            x = a + b
            if b not in cg_op(x, a) or b not in cg_op(a, x):
                return False
    return True


def associativity_unbounded(max_value: int) -> tuple[bool, tuple | None]:
    """Set-level associativity of the fusion formula for all triples up to
    the bound, evaluated without any window."""
    for a in range(max_value + 1):
        for b in range(max_value + 1):
            ab = cg_op(a, b)
            for c in range(max_value + 1):
                bc = cg_op(b, c)
                left = frozenset(x for t in ab for x in cg_op(t, c))
                right = frozenset(x for u in bc for x in cg_op(a, u))
                if left != right:
                    return False, (a, b, c)
    return True, None


def verify_clebsch(max_value: int) -> list[dict]:
    """Check suite for the fusion structure and its window shadow."""
    ok, witness = associativity_unbounded(max_value)
    unit_ok = all(
        cg_op(0, a) == {a} and cg_op(a, 0) == {a} for a in range(max_value + 1)
    )
    report = check_associativity(window_shadow(max_value))
    return [
        check("fusion-associativity-unbounded", ok, [] if ok else [list(witness)]),
        check("zero-is-strict-unit", unit_ok),
        check("single-cell-witness", single_cell_check(max_value)),
        check(
            "window-associativity-complete-triples",
            report.ok,
            [] if report.ok else [report.failure or report.message],
            checked=report.checked,
            skipped=report.skipped,
        ),
    ]
