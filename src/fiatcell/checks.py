"""Check records, the package's error types and its integer guard.

Every verb loads this module, so the error types live here: a verb that
needs nothing else loads nothing else to catch them.
"""

from __future__ import annotations


class FiatcellError(Exception):
    pass


class InputError(FiatcellError):
    """Bad user input: unknown ids, malformed files, out-of-range sizes."""


class StructureError(FiatcellError):
    """A shadow violates a structural invariant."""


class ConsistencyError(FiatcellError):
    """An internal computation produced an impossible value."""


def check_range(what: str, value, lo: int, hi: int) -> None:
    """Raise InputError unless value is an integer in lo..hi. A boolean is
    not an integer here, as in the file loader."""
    if not isinstance(value, int) or isinstance(value, bool):
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
