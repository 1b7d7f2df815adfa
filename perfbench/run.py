"""End-to-end and per-layer benchmark of `signopt run`.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a signopt checkout; the package is imported from its
`src/` and nothing is installed. For --seconds, it starts one fresh
child process after another (closed loop, one run at a time, BLAS and OpenMP
pinned to 1 thread). Each child loads the workload's JSON config, times one
`harness.execute_experiment(cfg, out_dir)` call and checks its outputs
outside the timed interval (see child.py). Workload configs are generated
from --seed; seed 0 gives the configs below, and only at seed 0 are the
outputs also compared with the committed reference in `reference/`.

With --trace 0 the last stdout line carries the end-to-end metrics, medians
over the children of the run:

- `run_s`: seconds of one `execute_experiment` call: problem build, every
  seed, the checks, f* resolution, CSVs and summary.json;
- `setup_s`: seconds from child start until `signopt.harness` is imported
  and the config loaded, which every `signopt run` pays;
- `cpu_s`: process CPU seconds over the `run_s` interval;
- `peak_rss_mb`: the child's `ru_maxrss` right after the run.

The three times are reported at a reference host speed: each child's time
is scaled by REFERENCE_S over the time of a fixed calibration kernel run in
the same child (see hostspeed.py). Without it, host noise alone moves the
median of a 40 s measurement by up to 25%.

The lines before it print each metric's median, quartiles and the highest
percentile with at least ten samples beyond it, with the sample count, both
scaled and as measured, and `fail_ratio` (failed / attempted runs). A run
fails if it raises or if an output check fails; `fail_ratio` is left out of
BENCHMARK.json's end-to-end list because it is 0 whenever the program is
correct.

With --trace 1 the run alternates untraced and traced children; the last
line carries the per-layer metrics (medians over the traced children, see
tracing.py) and `bench.trace_overhead_s`, the median over back-to-back pairs
of traced minus untraced `run_s`. The spans of the last traced child are
written to `results/`.

Deviations from the ROADMAP's bench item: results go to this benchmark's own
files, `perfbench/results/<workload>-seed<N>-trace<T>.json`, not to
`BENCH_<pr>.json`; there is no `signopt bench` subcommand, because the
benchmark drives the package only through its public API and changes none
of it; it runs three sized workloads, not the five shipped configs, and
measures layers by tracing a whole run rather than by microbenchmarks.

    python3 perfbench/run.py --make-reference

rewrites `reference/<workload>.json` from seed-0 runs of the current code.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
REFERENCES = HERE / "reference"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150.0
MIN_CHILDREN = 3  # untraced children per --trace 0 run, even past --seconds

E2E = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SPEED_SCALED = ("run_s", "setup_s", "cpu_s")

LAYER_UNITS = {
    "rng.draws": "count",
    "rng.self_s": "s",
    "rng.ns_per_draw": "ns",
    "optimizers.run.calls": "count",
    "optimizers.run.s": "s",
    "optimizers.loop.self_s": "s",
    "optimizers.us_per_seed_step": "us",
    "optimizers.refreshes": "count",
    "optimizers.accept_ratio": "ratio",
    "problems.build_s": "s",
    "problems.component_grad.calls": "count",
    "problems.component_grad.self_s": "s",
    "problems.snapshot.calls": "count",
    "problems.snapshot.self_s": "s",
    "problems.full_grad.calls": "count",
    "problems.full_grad.self_s": "s",
    "trace.rows": "count",
    "trace.csv_bytes": "B",
    "trace.csv_write_s": "s",
    "trace.column_bytes": "B.computed",
    "harness.f_star_s": "s",
    "harness.summary_write_s": "s",
    "harness.other_self_s": "s",
    "analysis.checks": "count",
    "analysis.eval_s": "s",
    "bench.spans": "count",
    "bench.wrapper_ns_per_call": "ns",
}

# Why each workload is here, and what it should and should not move. Horizons
# are sized so one run takes 1-2.5 s on a 2-core Xeon: a 40 s run then holds
# 15-30 of them, which is what keeps run medians steady on a noisy shared host.
# For the same reason vr_logistic_wide has n=500 rather than 2000: at n=2000
# numeric_f_star alone takes 5.5 s, leaving 4 runs per measurement.
WORKLOADS = {
    "vr_trig": {
        "why": "criterion 12's signsvrg_v1 traffic: per-step overhead, 2 RNG calls and "
        "2 component gradients dominate; refreshes are rare",
        "config": {
            "problem": {"kind": "trig_nonconvex", "d": 10, "n": 50, "seed": 202, "lam": 0.1},
            "algo": "signsvrg_v1",
            "schedule": "cor1",
            "q": 1,
            "P": 50,
            "T": 1000,
            "seeds": list(range(1, 21)),
            "x1": {"gaussian": 1.0},
            "checks": ["svrg_grad_bound_v1", "rate_bounds_v1", "update_count_bound", "comm_bits_bound"],
        },
    },
    "plus_abs": {
        "why": "the shipped regret_sec2.json: the only workload on the reference-free "
        "signsgd_plus engine, dominated by fixed per-call costs, snapshot and CSV writing",
        "config": {
            "problem": {"kind": "abs_regression", "d": 5, "n": 20, "seed": 77},
            "algo": "signsgd_plus",
            "schedule": "sec2",
            "q": 2,
            "T": 1000,
            "seeds": list(range(1, 21)),
            "x1": {"gaussian": 1.0},
            "checks": ["regret_bound", "final_gap_bound"],
        },
    },
    "vr_logistic_wide": {
        "why": "O(nd) algebra in snapshots and frequent refreshes (P=2), numeric f* "
        "resolution, only 4 seeds: RNG and loop-overhead changes should not move it",
        "config": {
            "problem": {"kind": "logistic", "d": 100, "n": 500, "seed": 101},
            "algo": "signsvrg_v2",
            "schedule": "cor1",
            "q": 2,
            "P": 2,
            "T": 800,
            "seeds": [1, 2, 3, 4],
            "x1": {"gaussian": 1.0},
            "checks": ["svrg_grad_bound_v2", "rate_bounds_v2", "update_count_bound", "comm_bits_bound"],
        },
    },
}


def make_config(workload: str, seed: int) -> dict:
    """The workload's config at a workload seed; seed 0 is the base config."""
    cfg = copy.deepcopy(WORKLOADS[workload]["config"])
    cfg["problem"]["seed"] += seed
    cfg["seeds"] = [s + 1000 * seed for s in cfg["seeds"]]
    return cfg


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def spawn_child(config_path: Path, out_dir: Path, reference: Path | None,
                trace_id: str | None = None, spans: Path | None = None) -> dict:
    """Run one child; return its sample with `setup_s` filled in."""
    cmd = [sys.executable, str(CHILD), "--config", str(config_path), "--out", str(out_dir),
           "--src", str(SRC)]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    if trace_id is not None:
        cmd += ["--trace-id", trace_id]
        if spans is not None:
            cmd += ["--spans", str(spans)]
    shutil.rmtree(out_dir, ignore_errors=True)
    started = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"child exceeded {CHILD_TIMEOUT_S} s"]}
    if proc.returncode == 3:
        sys.stderr.write(proc.stderr)
        raise SystemExit(2)
    lines = proc.stdout.strip().splitlines()
    try:
        sample = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "problems": [f"child exited {proc.returncode}: {tail[0]}"]}
    if "loaded_ns" in sample:
        sample["setup_s"] = (sample["loaded_ns"] - started) * 1e-9
    return sample


def count_failures(samples: list[dict]) -> int:
    """Failed runs: those that raised or failed a check, plus repeats whose
    summary.json differs from the first run's."""
    first = next((s["summary_sha256"] for s in samples if "summary_sha256" in s), None)
    failed = 0
    for s in samples:
        if s.get("ok") and s.get("summary_sha256") == first:
            continue
        if s.get("ok"):
            s["problems"] = ["summary.json differs between repeats of one config"]
        failed += 1
    return failed


def stats(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it (None below eleven samples)."""
    vals = sorted(values)
    n = len(vals)
    q1, med, q3 = statistics.quantiles(vals, n=4) if n > 1 else (vals[0],) * 3
    out = {"n": n, "median": med, "q1": q1, "q3": q3, "tail_pct": None, "tail": None}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = vals[n - 11]
    return out


def fmt(st: dict) -> str:
    tail = (f"p{st['tail_pct']:.0f}={st['tail']:.6g}" if st["tail"] is not None
            else "tail=n/a (<11 samples)")
    return f"median={st['median']:.6g} q1={st['q1']:.6g} q3={st['q3']:.6g} {tail} n={st['n']}"


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    config_path = WORK / f"{workload}.json"
    config_path.write_text(json.dumps(make_config(workload, seed), indent=2))
    reference = REFERENCES / f"{workload}.json" if seed == 0 else None
    spans = RESULTS / f"spans-{workload}-seed{seed}.csv"
    plain, traced_samples = [], []

    def trace_one():
        trace_id = f"{workload}-seed{seed}-run{len(traced_samples)}"
        return spawn_child(config_path, WORK / "out", reference, trace_id, spans)

    deadline = time.monotonic() + seconds
    while True:
        t0 = time.monotonic()
        if traced and len(plain) % 2:  # alternate which side of a pair runs first
            traced_samples.append(trace_one())
        plain.append(spawn_child(config_path, WORK / "out", reference))
        if traced and len(plain) % 2:
            traced_samples.append(trace_one())
        elapsed_one = time.monotonic() - t0
        enough = len(plain) >= (1 if traced else MIN_CHILDREN)
        if enough and time.monotonic() + elapsed_one > deadline:
            break
    shutil.rmtree(WORK, ignore_errors=True)
    samples = plain + traced_samples
    failed = count_failures(samples)
    return {"plain": plain, "traced": traced_samples, "attempted": len(samples),
            "failed": failed}


def report(traced: bool, res: dict) -> dict:
    """Print every metric with its unit; return the result line's metrics
    and the full statistics for the results file."""
    metrics, summary = {}, {}
    plain = [s for s in res["plain"] if "run_s" in s]
    if plain:
        for name, unit in E2E.items():
            wall = stats([s[name] for s in plain])
            scaled = wall
            if name in SPEED_SCALED:
                scaled = stats([s[name] * hostspeed.REFERENCE_S / s["cal_s"] for s in plain])
            summary[name] = {"scaled": scaled, "wall": wall}
            if not traced:
                if name in SPEED_SCALED:
                    print(f"{name} [{unit}, at reference host speed]: {fmt(scaled)}")
                    print(f"{name} [{unit}, as measured]: {fmt(wall)}")
                else:
                    print(f"{name} [{unit}]: {fmt(wall)}")
                metrics[name] = {"value": scaled["median"], "unit": unit}
        summary["cal_s"] = stats([s["cal_s"] for s in plain])
        print(f"host speed: calibration kernel median {summary['cal_s']['median']:.6g} s "
              f"(reference {hostspeed.REFERENCE_S} s)")

    samples = res["plain"] + res["traced"]
    print(f"fail_ratio: {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.6g} ratio")
    devs = [s["ref_max_rel_dev"] for s in samples if "ref_max_rel_dev" in s]
    if devs:
        print(f"reference: worst f/gnorm relative deviation {max(devs):.3g} (tolerance 1e-12)")
    problems = [p for s in samples for p in s.get("problems", [])]
    for problem in dict.fromkeys(problems[:5]):
        print(f"FAILED: {problem}")
    if len(problems) > 5:
        print(f"FAILED: ... {len(problems) - 5} more problems, see the results file")

    layered = [s for s in res["traced"] if "layers" in s]
    if layered:
        for name, unit in LAYER_UNITS.items():
            st = stats([s["layers"][name] for s in layered])
            summary[name] = st
            metrics[name] = {"value": st["median"], "unit": unit}
            print(f"{name}: {st['median']:.6g} {unit}  (n={st['n']})")
        # pairs ran back to back, so their difference cancels slow host phases
        diffs = [t["run_s"] - p["run_s"] for p, t in zip(res["plain"], res["traced"])
                 if "run_s" in p and "run_s" in t]
        if diffs:
            overhead = statistics.median(diffs)
            metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
            print(f"bench.trace_overhead_s: {overhead:.6g} s  (n={len(diffs)} pairs)")
    return {"metrics": metrics, "summary": summary}


def make_reference() -> int:
    REFERENCES.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    from signopt import harness

    import child

    for workload in WORKLOADS:
        out = WORK / "out"
        shutil.rmtree(out, ignore_errors=True)
        result = harness.execute_experiment(harness.config_from_dict(make_config(workload, 0)), out)
        path = REFERENCES / f"{workload}.json"
        path.write_text(json.dumps(child.digest(result), separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="signopt end-to-end and per-layer benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "signopt" / "harness.py").is_file():
        print(f"error: no signopt sources under {SRC}; run from a signopt checkout",
              file=sys.stderr)
        return 2
    if args.make_reference:
        return make_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    traced = bool(args.trace)
    res = run_workload(args.workload, args.seed, args.seconds, traced)
    out = report(traced, res)
    if not out["metrics"]:
        print("error: no run completed", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "config": make_config(args.workload, args.seed),
        "attempted": res["attempted"], "failed": res["failed"],
        "summary": out["summary"], "samples": res,
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
