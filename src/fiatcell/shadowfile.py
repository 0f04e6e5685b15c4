"""The shadow file format: a shadow as a JSON document and back, the
loader's size limits, and the `export` verb.

Only the verbs that read or write a shadow file load this module, and they
import it where they run: `verify clebsch`, the Schur verbs and `verify bn`
below rank 3 compile none of it.
"""

from __future__ import annotations

from .checks import InputError, StructureError, check_type, dumps, emit, is_int, json_pieces
from .checks import write_text
from .shadow import Element, Shadow, _pairs, _table_ids, validate_shadow

FORMAT_VERSION = 1

# The largest shadow file load_shadow accepts: elements, and terms summed
# over the results of all table rows. The `check` sweep costs about
# terms x elements and a `cell-module` report up to elements**3 entries, so
# these keep each file verb to a few seconds (the README lists the limits
# with their measurements). A `build bn --n 8` file (165 elements, 4,109
# terms) and a `build clebsch --max 90` file (91 elements, 65,941 terms)
# lie inside.
FILE_LIMIT_ELEMENTS = 170
FILE_LIMIT_TERMS = 70_000


def shadow_to_dict(s: Shadow) -> dict:
    """The file form of s: elements and the involution in element order,
    table rows by (left, right) id and terms by id."""
    check_type("shadow", s, Shadow)
    names = [e.name for e in s.elements]
    entries, star = _table_ids(s)
    data: dict = {"format": FORMAT_VERSION}
    if s.partial:
        data["partial"] = True
    data["objects"] = list(s.objects)
    data["elements"] = [
        {"id": e.name, "source": e.source, "target": e.target, "identity": e.is_identity}
        for e in s.elements
    ]
    data["involution"] = None
    if star is not None:
        data["involution"] = {names[i]: names[j] for i, j in enumerate(star) if j is not None}
    data["table"] = table = []
    for a, b, row in sorted(entries):
        result = {names[t]: m for t, m in sorted(_pairs(row))}
        table.append({"left": names[a], "right": names[b], "result": result})
    return data


_JSON_TYPES = {int: "an integer", bool: "a boolean", str: "a string", dict: "an object"}


def _json(x, kind: type):
    """x if it is a JSON value of the given type; nothing is cast, and a
    boolean is not an integer."""
    if not (is_int(x) if kind is int else isinstance(x, kind)):
        raise InputError(f"expected {_JSON_TYPES[kind]}, got {dumps(x)}")
    return x


def shadow_from_dict(data: dict) -> Shadow:
    version = _json(data.get("format", FORMAT_VERSION), int)
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported format {version}, expected {FORMAT_VERSION}")
    try:
        objects = tuple(_json(o, int) for o in data["objects"])
        elements = tuple(
            Element(
                name=_json(row["id"], str),
                source=_json(row["source"], int),
                target=_json(row["target"], int),
                is_identity=_json(row["identity"], bool),
            )
            for row in data["elements"]
        )
        index = {e.name: i for i, e in enumerate(elements)}
        n = len(index)
        if n != len(elements):
            raise InputError("duplicate element ids in file")
        inv_data = data.get("involution")
        star = None
        if inv_data is not None:
            inv_data = _json(inv_data, dict)
            image = {index[k]: index[v] for k, v in inv_data.items()}
            star = tuple(map(image.get, range(n)))
        entries, seen = [], set()
        for row in data["table"]:
            a, b = index[row["left"]], index[row["right"]]
            if a * n + b in seen:
                raise InputError(f"duplicate table row ({elements[a].name}, {elements[b].name})")
            seen.add(a * n + b)
            terms: list[int] = []
            for k, v in _json(row["result"], dict).items():
                terms += (index[k], _json(v, int))
            entries.append((a, b, tuple(terms)))
        partial = _json(data.get("partial", False), bool)
        return Shadow._on_ids(objects, elements, entries, star, partial)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed shadow JSON: {err}") from err


def dumps_shadow(s: Shadow) -> str:
    """The file text of s: json.dumps(shadow_to_dict(s), indent=2), a newline."""
    return "".join(json_pieces(shadow_to_dict(s)))


def save_shadow(s: Shadow, path: str) -> None:
    """Write the file text of s to path; InputError if it cannot be written."""
    write_text(json_pieces(shadow_to_dict(s)), path)


def load_shadow(path: str) -> Shadow:
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    # ValueError covers a syntax error, bytes that are not UTF-8 and an
    # integer past the interpreter's digit limit; json raises
    # RecursionError on deeply nested arrays or objects
    except (ValueError, RecursionError) as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level is not an object")
    _check_file_size(data, path)
    return shadow_from_dict(data)


def _check_file_size(data: dict, path: str) -> None:
    """Refuse a parsed file past FILE_LIMIT_ELEMENTS or FILE_LIMIT_TERMS
    before any element is built. Members of the wrong type count as empty;
    shadow_from_dict reports them."""
    elements, table = data.get("elements"), data.get("table")
    n = len(elements) if isinstance(elements, list) else 0
    if n > FILE_LIMIT_ELEMENTS:
        raise InputError(f"{path} has {n} elements, more than the limit of {FILE_LIMIT_ELEMENTS}")
    rows = table if isinstance(table, list) else ()
    terms = sum(
        len(row["result"])
        for row in rows
        if isinstance(row, dict) and isinstance(row.get("result"), dict)
    )
    if terms > FILE_LIMIT_TERMS:
        limit = f"more than the limit of {FILE_LIMIT_TERMS}"
        raise InputError(f"{path} has {terms} table terms, {limit}")


def load_checked(path: str) -> Shadow:
    """The shadow in the file at path, validated; InputError naming the
    file when it breaks a structural invariant."""
    s = load_shadow(path)
    try:
        validate_shadow(s)
    except StructureError as err:
        raise InputError(f"{path}: {err}") from err
    return s


def names_of(s: Shadow, elements) -> list[str]:
    """The names of some elements of s, in element order."""
    return [e.name for e in sorted(elements, key=s.index_of)]


def cmd_export(args) -> int:
    emit(shadow_to_dict(load_checked(args.path)), args.output)
    return 0
