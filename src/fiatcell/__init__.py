"""Multisemigroups with multiplicities: cells, ideals and worked families.

Each public name is imported from its home module on first access
(PEP 562), so `import fiatcell` loads no submodule and a command-line verb
loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "bnverify": (
        "defining_action",
        "is_strongly_regular",
        "m_values",
        "recursion_check",
        "verify_bn",
        "verify_relations",
    ),
    "cells": (
        "CellModuleMatrices",
        "CellPartition",
        "CellPoset",
        "cell_module",
        "cell_partition",
        "cell_poset",
        "poset_to_dot",
        "principal_ideal",
    ),
    "checks": ("ConsistencyError", "FiatcellError", "InputError", "StructureError"),
    "clebsch": ("cg_op", "single_cell_check", "verify_clebsch", "window_shadow"),
    "ideals": ("antichains", "quotient_by_upset", "thick_ideals", "upsets_by_enumeration"),
    "schur": ("enumerate_dominant", "schur_report", "verify_schur"),
    "shadow": (
        "Decomposition",
        "Element",
        "Shadow",
        "compose",
        "validate_shadow",
    ),
    "shadowfile": ("dumps_shadow", "load_shadow", "save_shadow"),
    "sweep": ("check_associativity",),
    "tableaux": ("MarginMatrix", "RskPair", "Tableau", "cells_via_rsk", "rsk", "rsk_inverse"),
    "udot": ("DPMonomial", "bn_basis", "build_bn", "dp"),
}

# public name -> home module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
