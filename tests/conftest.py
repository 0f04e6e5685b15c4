import os
from pathlib import Path

import pytest
from hypothesis import settings

import fiatcell

settings.register_profile("slowbox", deadline=None, max_examples=100)
settings.load_profile("slowbox")


@pytest.fixture
def child_env():
    """Environment for a `python -m fiatcell` child process: the source
    directory of the package under test comes first on its path, so the
    child runs the same code without an install or a PYTHONPATH."""
    src = str(Path(fiatcell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}
