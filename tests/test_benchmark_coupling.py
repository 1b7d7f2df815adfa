"""The benchmark in perfbench/ drives the package through names it imports
(`harness.execute_experiment`, `trace.read_trace_csv`) and, when tracing,
wraps by name (`harness.run`, `harness.numeric_f_star`,
`harness.make_problem`, the analysis evaluators, `Trace.to_csv`). A refactor
that drops one of them breaks every benchmark run; these tests make it break
the test suite instead, by running one benchmark child on a tiny config.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signopt

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

# vr_logistic_wide in miniature; the label noise flips labels against the
# planted separator, so f* comes from the traced numeric_f_star
TINY_LOGISTIC = {
    "problem": {"kind": "logistic", "d": 4, "n": 10, "seed": 3, "label_noise": 0.3},
    "algo": "signsvrg_v2",
    "schedule": "cor1",
    "q": 2,
    "P": 2,
    "T": 30,
    "seeds": [1, 2],
    "x1": {"gaussian": 1.0},
    "checks": ["svrg_grad_bound_v2", "rate_bounds_v2", "update_count_bound", "comm_bits_bound"],
}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_benchmark_child_runs_the_package(tmp_path, traced):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_LOGISTIC))
    src = Path(signopt.__file__).resolve().parent.parent
    cmd = [sys.executable, str(CHILD), "--config", str(config), "--out", str(tmp_path / "out"),
           "--src", str(src)]
    if traced:
        cmd += ["--trace-id", "coupling", "--spans", str(tmp_path / "spans.csv")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sample["ok"], sample
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["derived"]["f_star_source"] == "numeric"
    # the child's exact round-trip check covers the trace files it names
    traces = sorted(p.name for p in (tmp_path / "out").glob("trace_seed*"))
    assert traces == summary["traces"] == ["trace_seed1.npy", "trace_seed2.npy"]
    if traced:
        assert sample["layers"]["harness.f_star_s"] > 0.0
        assert (tmp_path / "spans.csv").read_text().startswith("trace_id,")
