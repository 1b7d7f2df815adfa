import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from signopt.harness import config_from_dict, execute_experiment, load_config
from signopt.problems import ProblemSpec, make_problem

settings.register_profile(
    "ci",
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.json"))
PERFBENCH = ROOT / "perfbench"
WORKLOAD_SEEDS = (0, 1)


def workload_configs() -> dict:
    """name -> config of each benchmark workload at workload seeds 0 and 1,
    as perfbench/run.py's make_config builds them."""
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling hostspeed
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path.remove(str(PERFBENCH))
    return {f"{w}-seed{s}": config_from_dict(bench.make_config(w, s))
            for w in bench.WORKLOADS for s in WORKLOAD_SEEDS}


@pytest.fixture(scope="session")
def shipped_runs(tmp_path_factory):
    """name -> (output directory, ExperimentResult) of each config in
    scripts/configs/, run once per session with its files written."""
    work = tmp_path_factory.mktemp("shipped")
    return {path.stem: (work / path.stem, execute_experiment(load_config(path), work / path.stem))
            for path in SHIPPED_CONFIGS}


@pytest.fixture(scope="session")
def workload_runs(tmp_path_factory):
    """name -> (output directory, ExperimentResult) of each workload_configs
    entry, run once per session with its files written."""
    work = tmp_path_factory.mktemp("workloads")
    return {name: (work / name, execute_experiment(cfg, work / name))
            for name, cfg in workload_configs().items()}


@pytest.fixture
def ls_small():
    return make_problem(ProblemSpec(kind="least_squares", d=4, n=6, seed=42))


@pytest.fixture
def trig_small():
    return make_problem(ProblemSpec(kind="trig_nonconvex", d=5, n=8, seed=3, lam=0.1))


@pytest.fixture
def x1_ones():
    return np.ones(4)
