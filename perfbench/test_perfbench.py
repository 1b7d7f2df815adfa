"""The benchmark's own tests, at tiny sizes: its checks must be able to fail.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest

import child
import run

sys.path.insert(0, str(run.SRC))

from signopt import harness  # noqa: E402

TINY = {
    "problem": {"kind": "trig_nonconvex", "d": 3, "n": 6, "seed": 5, "lam": 0.1},
    "algo": "signsvrg_v1",
    "schedule": "cor1",
    "q": 1,
    "P": 3,
    "T": 40,
    "seeds": [1, 2],
    "x1": {"gaussian": 1.0},
    "checks": ["update_count_bound", "comm_bits_bound"],
}


def _run_tiny(out: Path):
    return harness.execute_experiment(harness.config_from_dict(TINY), out)


def test_clean_run_passes_every_check(tmp_path):
    result = _run_tiny(tmp_path)
    assert child.check_outputs(result, tmp_path) == []
    assert child.compare_reference(child.digest(result), child.digest(result)) == ([], 0.0)


def test_flipped_bits_cum_is_a_failed_run(tmp_path):
    result = _run_tiny(tmp_path)
    reference = child.digest(result)

    path = tmp_path / result.trace_paths[0]
    rows = list(csv.reader(path.read_text().splitlines()))
    col = rows[0].index("bits_cum")
    rows[7][col] = str(int(rows[7][col]) + 1)
    path.write_text("".join(",".join(r) + "\n" for r in rows))
    problems = child.check_outputs(result, tmp_path)
    assert problems == [f"{result.trace_paths[0]}: column bits_cum does not round-trip"]

    result.traces[1].bits_cum[7] += 1
    found, _ = child.compare_reference(child.digest(result), reference)
    assert found == ["trace 1: bits_cum differs from the reference"]

    samples = [{"ok": True, "summary_sha256": "a"}, {"ok": not problems, "summary_sha256": "a"}]
    assert run.count_failures(samples) == 1


def test_raising_run_is_a_failed_run(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**TINY, "x1": [1.0, 2.0]}))  # d=3: execute raises
    sample = run.spawn_child(config, tmp_path / "out", None)
    assert not sample["ok"]
    assert sample["problems"][0].startswith("ConfigError")
    assert run.count_failures([sample]) == 1


def test_differing_summaries_are_failed_runs():
    samples = [{"ok": True, "summary_sha256": "a"}, {"ok": True, "summary_sha256": "b"}]
    assert run.count_failures(samples) == 1


def test_traced_run_reports_layers_and_linked_spans(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    spans = tmp_path / "spans.csv"
    sample = run.spawn_child(config, tmp_path / "out", None, "tiny", spans)
    assert sample["ok"], sample["problems"]
    layers = sample["layers"]
    assert set(layers) == set(run.LAYER_UNITS)
    assert layers["optimizers.run.calls"] == 2
    assert layers["problems.snapshot.calls"] == 2 * (TINY["T"] + 1)
    assert layers["rng.draws"] == 2 * 2 * TINY["T"]
    assert layers["trace.rows"] == 2 * (TINY["T"] + 1)

    rows = list(csv.DictReader(spans.read_text().splitlines()))
    assert len(rows) == layers["bench.spans"]
    assert {r["trace_id"] for r in rows} == {"tiny"}
    by_id = {r["span_id"]: r for r in rows}
    assert rows[0]["name"] == "harness.execute" and rows[0]["parent_id"] == "-1"
    for r in rows[1:]:
        parent = by_id[r["parent_id"]]
        assert int(parent["start_ns"]) <= int(r["start_ns"]) <= int(r["end_ns"]) <= int(parent["end_ns"])
    assert {by_id[r["parent_id"]]["name"] for r in rows if r["name"].startswith("rng.")} == {
        "optimizers.run"
    }


def test_stats_tail_needs_ten_samples_beyond():
    assert run.stats([1.0] * 10)["tail"] is None
    st = run.stats([float(v) for v in range(20)])
    assert (st["tail_pct"], st["tail"], st["median"]) == (50.0, 9.0, 9.5)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_zero_is_the_base_config(workload):
    assert run.make_config(workload, 0) == run.WORKLOADS[workload]["config"]
    assert run.make_config(workload, 3) != run.WORKLOADS[workload]["config"]
