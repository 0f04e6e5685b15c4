"""Building a shadow by hand, checking it, and the JSON round trip.

Run with: python3 demos/custom_shadow.py
"""

import tempfile
from pathlib import Path

from fiatcell import (
    Decomposition,
    Element,
    Shadow,
    cell_partition,
    check_associativity,
    dumps_shadow,
    load_shadow,
    principal_ideal,
    save_shadow,
    validate_shadow,
)

E = Element("e", 0, 0, is_identity=True)
T = Element("t", 0, 0)
U = Element("u", 0, 0)


def toy(tt, tu, ut, uu):
    table = {}
    for a in (E, T, U):
        table[(a, E)] = Decomposition({a: 1})
        table[(E, a)] = Decomposition({a: 1})
    table[(T, T)] = tt
    table[(T, U)] = tu
    table[(U, T)] = ut
    table[(U, U)] = uu
    return Shadow(objects=(0,), elements=(E, T, U), table=table)


def main():
    # t generates u, u absorbs everything
    absorbing = Decomposition({U: 1})
    s = toy(absorbing, absorbing, absorbing, absorbing)
    validate_shadow(s)
    report = check_associativity(s)
    print(f"hand-built toy: {report['status']}, {report['checked']} triples checked")

    for e in (E, T, U):
        ideal = principal_ideal(s, e, "two-sided")
        print(f"  ideal of {e.name}: {sorted(x.name for x in ideal)}")
    cells = cell_partition(s, "two-sided")
    print(f"  two-sided cells: {[sorted(x.name for x in c) for c in cells.classes]}")

    print()
    print("JSON round trip")
    text = dumps_shadow(s)
    print(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.json"
        save_shadow(s, str(path))
        again = load_shadow(str(path))
    assert again == s
    assert dumps_shadow(again) == text  # byte-identical on reload
    print("reload is byte-identical")

    print()
    # flipping two entries breaks associativity at (t, t, t):
    # (t t) t = u t = t  but  t (t t) = t u = u
    bad = toy(
        Decomposition({U: 1}),
        Decomposition({U: 1}),
        Decomposition({T: 1}),
        Decomposition({E: 1}),
    )
    report = check_associativity(bad)
    (failure,) = report["witnesses"]
    print(f"broken toy: {report['status']}")
    print(f"  first failing triple: {failure['triple']}")
    print(f"  left:  {failure['left']}")
    print(f"  right: {failure['right']}")


if __name__ == "__main__":
    main()
