import os
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from mspc.linalg import Rng

# pyproject's ``pythonpath`` reaches only the pytest process; a subprocess
# running ``python -m mspc`` finds the package through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

hypothesis.settings.register_profile(
    "suite", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def gen() -> np.random.Generator:
    return Rng(20240817).generator()
