"""Random associative shadows for the differential tests, from hypothesis
and the standard library alone."""

from hypothesis import assume
from hypothesis import strategies as st

from fiatcell import Element, Shadow


@st.composite
def transformation_semigroups(draw, max_elements: int = 24):
    """The semigroup of maps of {0, ..., k - 1}, k <= 4, generated by one to
    three random maps, with an identity adjoined: a full one-object shadow
    with no involution, associative by construction. A map is named by its
    images, as "0213", and comes after the maps found before it; a b is the
    map a after b, one term of multiplicity 1. Semigroups of more than
    max_elements maps are rejected, since a reference sweep is cubic in the
    elements."""
    points = draw(st.integers(1, 4))
    maps = st.tuples(*[st.integers(0, points - 1)] * points)
    generators = draw(st.lists(maps, min_size=1, max_size=3))
    found = list(dict.fromkeys(generators))
    for f in found:  # grows while it is read: every word in the generators
        for g in generators:
            h = tuple(f[i] for i in g)
            if h not in found:
                assume(len(found) < max_elements)
                found.append(h)
    ids = {f: i for i, f in enumerate(found, 1)}
    elements = [Element("1", 0, 0, is_identity=True)]
    elements += [Element("".join(map(str, f)), 0, 0) for f in found]
    entries = [(0, b, (b, 1)) for b in range(len(elements))]
    for f, a in ids.items():
        entries.append((a, 0, (a, 1)))
        entries += [(a, b, (ids[tuple(f[i] for i in g)], 1)) for g, b in ids.items()]
    return Shadow._on_ids((0,), tuple(elements), entries, None)
