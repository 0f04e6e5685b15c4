"""The package's import surface: `import fiatcell` loads no submodule, each
command-line verb loads only the modules it runs (the schur verbs no shadow
layer, `build bn` no cell engine, only the verbs that read or write a
shadow file the file format, only the file verbs `json`, and no verb
`dataclasses`, `inspect` or `argparse`), and the public names are the same
objects as in their home modules, where they are defined."""

import ast
import importlib
import subprocess
import sys

import pytest

import fiatcell
from fiatcell import build_bn, save_shadow

# home module -> public names: the names exported before the package went
# lazy, each in the module that defines it
PUBLIC = {
    "bnverify": [
        "defining_action",
        "is_strongly_regular",
        "m_values",
        "recursion_check",
        "verify_bn",
        "verify_relations",
    ],
    "cells": [
        "CellModuleMatrices",
        "CellPartition",
        "CellPoset",
        "cell_module",
        "cell_partition",
        "cell_poset",
        "poset_to_dot",
        "principal_ideal",
    ],
    "checks": ["ConsistencyError", "FiatcellError", "InputError", "StructureError"],
    "clebsch": ["cg_op", "single_cell_check", "verify_clebsch", "window_shadow"],
    "ideals": ["antichains", "quotient_by_upset", "thick_ideals", "upsets_by_enumeration"],
    "schur": ["enumerate_dominant", "schur_report", "verify_schur"],
    "shadow": [
        "Decomposition",
        "Element",
        "Shadow",
        "compose",
        "validate_shadow",
    ],
    "shadowfile": ["dumps_shadow", "load_shadow", "save_shadow"],
    "sweep": ["check_associativity"],
    "tableaux": ["MarginMatrix", "RskPair", "Tableau", "cells_via_rsk", "rsk", "rsk_inverse"],
    "udot": ["DPMonomial", "bn_basis", "build_bn", "dp"],
}


def test_public_names_are_unchanged():
    assert sorted(fiatcell.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"fiatcell.{module}")
        for name in names:
            assert getattr(fiatcell, name) is getattr(home, name), name
    assert set(fiatcell.__all__) <= set(dir(fiatcell))
    assert "__version__" in dir(fiatcell)


def test_public_names_are_defined_in_their_home():
    # a name moved to another module cannot linger in its old home as an import
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(fiatcell, name).__module__ == f"fiatcell.{module}", name


def test_error_types_are_one_class_each():
    from fiatcell import checks, shadow

    for name in PUBLIC["checks"]:
        assert getattr(fiatcell, name) is getattr(checks, name) is getattr(shadow, name)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(fiatcell, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        fiatcell.no_such_name
    with pytest.raises(ImportError):
        from fiatcell import no_such_name  # noqa: F401
    # module-level constants stay in their home modules
    assert not hasattr(fiatcell, "DESK_LIMIT")


def test_submodules_still_import_from_the_package():
    from fiatcell import udot

    assert udot is sys.modules["fiatcell.udot"]
    assert fiatcell.udot is udot


# top-level packages whose modules the import tests report
WATCHED = ("fiatcell", "dataclasses", "inspect", "argparse", "json")


def _loaded(env, code, *argv):
    """The sorted modules of WATCHED a child process holds after `code`,
    printed without loading json."""
    code += "\nimport sys"
    code += f"\nprint(sorted(m for m in sys.modules if m.split('.')[0] in {WATCHED}))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_import_loads_no_submodule(child_env):
    assert _loaded(child_env, "import fiatcell") == ["fiatcell"]


def test_error_types_load_only_checks(child_env):
    assert _loaded(child_env, "from fiatcell import InputError") == ["fiatcell", "fiatcell.checks"]


BASE = {"fiatcell", "fiatcell.cli", "fiatcell.checks"}
SHADOW = {"fiatcell.shadow"}
# what a verb that reads or writes a shadow file adds: the file format
FORMAT = {"fiatcell.shadowfile"}
# and what a verb that reads one adds besides: the json package
JSON = {"json", "json.decoder", "json.encoder", "json.scanner"}
FILE = SHADOW | FORMAT | JSON
SWEEP = {"fiatcell.sweep"}
CELLS = {"fiatcell.cells"}
IDEALS = CELLS | {"fiatcell.ideals"}
UDOT = SHADOW | {"fiatcell.udot"}
BN = UDOT | SWEEP | IDEALS | {"fiatcell.bnverify"}
CLEBSCH = SHADOW | {"fiatcell.clebsch"}
SCHUR = {"fiatcell.schur"}


def _ids(x):
    """An argv as its words; a module set by what it adds to the shadow
    layer, the file format and json."""
    return " ".join(x) if isinstance(x, list) else "+".join(sorted(x - FILE)) or "base"


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["check", "{b2}"], FILE | SWEEP),
        (["export", "{b2}"], FILE),
        (["cells", "{b2}", "--kind", "left"], FILE | CELLS),
        (["cells", "{b2}", "--dot", "{out}.dot"], FILE | CELLS),
        (["cell-module", "{b2}", "--left-cell-of", "1_0"], FILE | CELLS),
        (["ideals", "{b2}"], FILE | IDEALS),
        (["build", "bn", "--n", "2"], UDOT | FORMAT),
        (["verify", "bn", "--n", "1..2"], BN),
        (["verify", "bn", "--n", "3"], BN),
        (["build", "clebsch", "--max", "3"], CLEBSCH | FORMAT),
        (["verify", "clebsch", "--max", "3"], CLEBSCH | SWEEP),
        (["build", "schur", "--n", "2", "--r", "2"], SCHUR),
        (["verify", "schur", "--n", "1..2", "--r", "1..2"], SCHUR),
    ],
    ids=_ids,
)
def test_each_verb_loads_only_its_modules(tmp_path, child_env, argv, extra):
    b2 = tmp_path / "b2.json"
    save_shadow(build_bn(2), str(b2))
    out = tmp_path / "out"
    argv = [a.format(b2=b2, out=out) for a in argv] + ["-o", str(out)]
    code = "import sys\nfrom fiatcell.cli import main\nassert main(sys.argv[1:]) == 0"
    assert set(_loaded(child_env, code, *argv)) == BASE | extra
    assert out.stat().st_size > 0


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["verify", "schur", "--n", "1", "--r", "1"], SCHUR),
        (["check", "{b2}"], FILE | SWEEP),
        (["verify", "bn", "--n", "1"], BN),
        (["build", "bn", "--n", "8"], UDOT | FORMAT),
        (["verify", "clebsch"], CLEBSCH | SWEEP),
        (["cells", "{b2}"], FILE | CELLS),
    ],
    ids=_ids,
)
def test_python_m_loads_only_its_modules(tmp_path, child_env, argv, extra):
    """The same through `python -m fiatcell`, runpy and `__main__`, the path
    a user and the benchmark take; -X importtime lists every module the
    process imports."""
    b2 = tmp_path / "b2.json"
    save_shadow(build_bn(2), str(b2))
    out = tmp_path / "out"
    argv = [a.format(b2=b2) for a in argv] + ["-o", str(out)]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "fiatcell", *argv],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert {m for m in imported if m.split(".")[0] in WATCHED} == BASE | extra
    assert out.stat().st_size > 0
