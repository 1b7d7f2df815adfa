from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from signopt.harness import execute_experiment, load_config
from signopt.problems import ProblemSpec, make_problem

settings.register_profile(
    "ci",
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.json"))


@pytest.fixture(scope="session")
def shipped_runs(tmp_path_factory):
    """name -> (output directory, ExperimentResult) of each config in
    scripts/configs/, run once per session with its files written."""
    work = tmp_path_factory.mktemp("shipped")
    return {path.stem: (work / path.stem, execute_experiment(load_config(path), work / path.stem))
            for path in SHIPPED_CONFIGS}


@pytest.fixture
def ls_small():
    return make_problem(ProblemSpec(kind="least_squares", d=4, n=6, seed=42))


@pytest.fixture
def trig_small():
    return make_problem(ProblemSpec(kind="trig_nonconvex", d=5, n=8, seed=3, lam=0.1))


@pytest.fixture
def x1_ones():
    return np.ones(4)
