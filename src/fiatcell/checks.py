"""Check records, the package's error types, its integer guard, the range
reader and report of the verify verbs, and its one JSON writer.

Every verb loads this module, so these live here: a verb that needs nothing
else loads nothing else to catch an error or to write its report. Every
report and shadow file is the text of json.dumps(x, indent=2) and a
newline, from json_pieces, written piece by piece by write_text; strings
are quoted by json's C helper, so writing loads no json package.
"""

from __future__ import annotations

import sys

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import encode_basestring_ascii as _quote


class FiatcellError(Exception):
    pass


class InputError(FiatcellError):
    """Bad user input: unknown ids, malformed files, out-of-range sizes."""


class StructureError(FiatcellError):
    """A shadow violates a structural invariant."""


class ConsistencyError(FiatcellError):
    """An internal computation produced an impossible value."""


def is_int(value) -> bool:
    """An int that is not a bool: a boolean is not an integer here."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_type(what: str, value, kind: type) -> None:
    """Raise InputError unless value is a kind."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InputError(f"{what} must be {article} {kind.__name__}, got {type(value).__name__}")


def check_range(what: str, value, lo: int, hi: int) -> None:
    """Raise InputError unless value is an integer (is_int) in lo..hi."""
    if not is_int(value):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise InputError(f"{what} must be between {lo} and {hi}, got {value}")


def check(name: str, ok: bool, witnesses: list | None = None, **extra) -> dict:
    """{"check", "status", "witnesses"} followed by any extra counters."""
    return {
        "check": name,
        "status": "pass" if ok else "fail",
        "witnesses": witnesses or [],
        **extra,
    }


def status(records: list[dict]) -> str:
    """The overall status: "pass" when every record passed, else "fail"."""
    return "pass" if all(c["status"] == "pass" for c in records) else "fail"


def parse_range(text: str) -> range:
    """A single integer "4" or an inclusive range "2..6"."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise InputError(f"cannot parse range {text!r}") from None
    if hi < lo:
        raise InputError(f"empty range {text!r}")
    return range(lo, hi + 1)


def probes(ranks: range, limit: int) -> tuple[int, int]:
    """The ranks that decide whether a whole range lies in 1..limit: its
    first rank, and the first one past limit if there is one. Checking
    them in this order meets the first bad rank a loop over the range would."""
    return ranks[0], min(ranks[-1], limit + 1)


def emit_results(construction: str, runs, path: str | None) -> int:
    """Write the report of a verify verb, one result per run (its leading
    fields, its check records); 0 when every record passed, else 1."""
    results = [{**fields, "checks": checks, "status": status(checks)} for fields, checks in runs]
    doc = {"format": 1, "construction": construction, "results": results, "status": status(results)}
    emit(doc, path)
    return 0 if doc["status"] == "pass" else 1


def emit(doc, path: str | None) -> None:
    """Write doc as canonical JSON, piece by piece, to stdout or to path."""
    write_text(json_pieces(doc), path)


def dumps(x, **options) -> str:
    """json.dumps, loading the json package on first use."""
    import json

    return json.dumps(x, **options)


def write_text(pieces, path: str | None) -> None:
    """Write the strings of pieces one by one to stdout, or to the file at
    path; InputError when either cannot be written. Stdout is flushed, and
    when that fails, a closed pipe say, it is pointed at os.devnull, so the
    flush at exit writes nothing."""
    try:
        if path is None:
            sys.stdout.writelines(pieces)
            return sys.stdout.flush()
        with open(path, "w") as fh:
            fh.writelines(pieces)
    except OSError as err:
        if path is None:
            import os
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise InputError(f"cannot write {'stdout' if path is None else path}: {err}") from err


# the containers json writes one member or item a line, and their brackets
_ENDS = {dict: "{}", list: "[]", tuple: "[]"}
# the scalars written without json.dumps, strings by json's C quoting
_SCALARS = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get}


def json_pieces(x):
    """The text of json.dumps(x, indent=2) and a newline, in pieces: one per
    member or item of x and of each container in x, every deeper value
    written whole, so a large report is never built as one string."""
    if type(x) not in _ENDS or not x:
        yield _text(x, "") + "\n"
        return
    heads = [f"{_key(k)}: " for k in x] if type(x) is dict else [""] * len(x)
    yield _ENDS[type(x)][0]
    for i, value in enumerate(x.values() if type(x) is dict else x):
        yield f"{',' if i else ''}\n  {heads[i]}"
        if type(value) in _ENDS and value:
            lines = _lines(value, "    ")
            yield f"{_ENDS[type(value)][0]}\n    {next(lines)}"
            yield from map(",\n    ".__add__, lines)
            yield f"\n  {_ENDS[type(value)][1]}"
        else:
            yield _text(value, "  ")
    yield f"\n{_ENDS[type(x)][1]}\n"


def _text(x, pad: str) -> str:
    """x as json.dumps(x, indent=2) writes it on a line indented by pad; a
    value that is not a scalar of _SCALARS or a container of _ENDS goes
    through json.dumps itself."""
    kind = type(x)
    if kind in _SCALARS:
        return _SCALARS[kind](x)
    if kind not in _ENDS:
        return dumps(x, indent=2).replace("\n", "\n" + pad)
    if not x:
        return _ENDS[kind]
    inner = pad + "  "
    if kind is dict:  # most often a small map of ints, as a shadow file's results
        members = [f"{_key(k)}: {v if type(v) is int else _text(v, inner)}" for k, v in x.items()]
        body = f",\n{inner}".join(members)
        return f"{{\n{inner}{body}\n{pad}}}"
    opening, closing = _ENDS[kind]
    body = f",\n{inner}".join(_lines(x, inner))
    return f"{opening}\n{inner}{body}\n{pad}{closing}"


def _key(k) -> str:
    # json turns a key that is not a str into one, or refuses it
    return _quote(k) if type(k) is str else dumps({k: 0})[1:-4]


def _lines(x, pad: str):
    """The members or items of a non-empty container x, each as written on
    a line indented by pad, one at a time: a list of scalars of one type by
    one map, a list of rows with the fields of the first by one template."""
    if type(x) is dict:
        return (f"{_key(k)}: {_text(v, pad)}" for k, v in x.items())
    kinds = set(map(type, x))
    if len(kinds) == 1 and (kind := kinds.pop()) in _SCALARS:
        return map(_SCALARS[kind], x)
    # str fields only: a row keyed True would match a template keyed 1
    fields = tuple(x[0]) if type(x[0]) is dict and all(type(k) is str for k in x[0]) else ()
    if not fields:
        return (_text(v, pad) for v in x)
    at = pad + "  "
    template = ",\n".join(f"{at}{_key(k).replace('%', '%%')}: %s" for k in fields)
    template = f"{{\n{template}\n{pad}}}"
    return (
        template % tuple([_text(v, at) for v in row.values()])
        if type(row) is dict and tuple(row) == fields
        else _text(row, pad)
        for row in x
    )
