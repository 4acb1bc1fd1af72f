import os
from pathlib import Path

import pytest

import hadpi


@pytest.fixture
def pkg_env():
    """Environment for a child Python that imports this copy of hadpi."""
    src = str(Path(hadpi.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}
