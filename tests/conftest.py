import json
import os
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from mspc import cli
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


@pytest.fixture
def narrow_binding_config() -> cli.ExperimentConfig:
    """two_state far from the origin, as in test_solver's binding variant, at R = 20 and
    horizon 32 with the input box narrowed to |u| <= 0.3: its nominal programs at p = 0.9
    and its robust program at p = 0.6 are Infeasible."""
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "two_state.json")
                     .read_text())
    doc["identification"]["T"] = 400
    doc["ocp"].update(horizon=32, R=[[20.0]], x0_mean=[1.5, 2.0],
                      h_x=[[0.6, 0.0], [0.0, 0.45]], u_min=[-0.3], u_max=[0.3])
    return cli.parse_config(doc)
