"""Check records: the one shape every verification suite reports in."""

from __future__ import annotations


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
