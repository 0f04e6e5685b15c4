"""In-process tracing of fiatcell by wrapping its public functions.

The tracer replaces each target function, in every loaded fiatcell module
that holds a reference to it, by a wrapper that counts calls and measures
inclusive and self time. Nothing inside the package changes; uninstall()
puts every original back. A target missing from the package is listed in
`absent` and skipped.

Three kinds of target:
  span   a stage; every call becomes a span record (name, start, end, parent)
  hot    timed like a span but called too often for one record per call; its
         calls and time are added to the enclosing span's `inner` counters
  count  calls counted only, untimed (its time stays in the caller's self)

Statistics accumulate until reset(), which must not be called while the
wrappers are installed.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

PACKAGE = "fiatcell"

# (module, function, kind)
TARGETS = [
    ("cli", "main", "span"),
    ("udot", "build_bn", "span"),
    ("udot", "normalize_blocks", "hot"),
    ("udot", "bn_cells_report", "span"),
    ("udot", "recursion_check", "span"),
    ("shadow", "check_associativity", "span"),
    ("shadow", "compose", "count"),
    ("shadow", "validate_shadow", "span"),
    ("shadow", "load_shadow", "span"),
    ("shadow", "dumps_shadow", "span"),
    ("cells", "principal_ideal", "hot"),
    ("cells", "cell_partition", "span"),
    ("cells", "cell_poset", "span"),
    ("cells", "is_strongly_regular", "span"),
    ("cells", "m_values", "span"),
    ("cells", "cell_module", "span"),
    ("ideals", "thick_ideals", "span"),
    ("ideals", "upsets_by_enumeration", "span"),
    ("ideals", "quotient_by_upset", "span"),
    ("schur", "enumerate_basis", "span"),
    ("schur", "cells_via_rsk", "span"),
    ("schur", "rsk", "hot"),
    ("schur", "rsk_inverse", "hot"),
    ("schur", "double_coset_count", "hot"),
    ("schur", "verify_schur", "span"),
    ("clebsch", "associativity_unbounded", "span"),
    ("clebsch", "window_shadow", "span"),
]


def package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def clear_package_caches() -> None:
    """Empty every functools cache held by a module of the package."""
    for m in package_modules():
        for value in list(vars(m).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything measured so far (spans included)."""
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, int] = {}
        self.ideal_keys: set = set()
        self._keep: dict[int, object] = {}
        self.spans: list[dict] = []
        self._frames: list[list[float]] = []
        self._open: list[dict] = []
        self.op = None

    # -------------------------------------------------------- install

    def install(self) -> None:
        modules = package_modules()
        self.absent = []
        for modname, fname, kind in self.targets:
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            original = getattr(module, fname, None) if module is not None else None
            if not callable(original):
                self.absent.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(f"{modname}.{fname}", kind, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -------------------------------------------------------- wrappers

    def _wrap(self, name: str, kind: str, original):
        after = self._after.get(name)
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        if kind == "count":

            def wrapper(*args, **kwargs):
                st[0] += 1
                return original(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                frame = [0.0]
                self._frames.append(frame)
                span = None
                if kind == "span":
                    span = {
                        "op": self.op,
                        "id": len(self.spans),
                        "parent": self._open[-1]["id"] if self._open else None,
                        "name": name,
                        "inner": {},
                    }
                    self.spans.append(span)
                    self._open.append(span)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._frames.pop()
                    elapsed = end - start
                    if self._frames:
                        self._frames[-1][0] += elapsed
                    st[0] += 1
                    st[1] += elapsed
                    st[2] += elapsed - frame[0]
                    if span is not None:
                        self._open.pop()
                        span["start"], span["end"] = start, end
                        span["self"] = elapsed - frame[0]
                    elif self._open:
                        inner = self._open[-1]["inner"]
                        calls, seconds = inner.get(name, (0, 0.0))
                        inner[name] = (calls + 1, seconds + elapsed)
                if after is not None:
                    after(self, args, kwargs, result)
                return result

        functools.update_wrapper(wrapper, original)
        if hasattr(original, "cache_clear"):
            wrapper.cache_clear = original.cache_clear
        return wrapper

    def _count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _after_principal_ideal(self, args, kwargs, result) -> None:
        names = ("s", "a", "kind")
        bound = dict(zip(names, args))
        bound.update(kwargs)
        s = bound.get("s")
        self._keep[id(s)] = s  # holds the shadow so its id is not reused
        self.ideal_keys.add((id(s), bound.get("a"), bound.get("kind")))

    def _after_check_associativity(self, args, kwargs, result) -> None:
        self._count("shadow.triples_checked", getattr(result, "checked", 0))
        self._count("shadow.triples_skipped", getattr(result, "skipped", 0))

    _after = {
        "cells.principal_ideal": _after_principal_ideal,
        "shadow.check_associativity": _after_check_associativity,
    }

    # -------------------------------------------------------- results

    def value(self, name: str, stat: str) -> float:
        calls, inclusive, self_time = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": inclusive, "self_s": self_time}[stat]
