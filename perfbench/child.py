"""One measured `signopt run`, in a fresh process started by run.py.

    python3 perfbench/child.py --config CFG --out DIR --src SRC
        [--reference REF] [--trace-id ID --spans CSV]

Imports `signopt.harness` from SRC, loads CFG, times one
`execute_experiment(cfg, DIR)` call, then checks the outputs outside the
timed interval. It prints one JSON object as its last stdout line: the
sample (`loaded_ns`, `run_s`, `cpu_s`, `peak_rss_mb`, and `cal_s`, the
calibration kernel's time around the run), `ok`, and the `problems` the
checks found. A run that raises, or whose outputs fail a
check, is reported with `ok: false` and exit code 0; exit code 3 means the
benchmark itself is broken (signopt missing or imported from elsewhere).

With --trace-id the public callables of every layer are wrapped first (see
tracing.py), the spans go to --spans, and the sample carries `layers`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

FLOAT_COLS = ("f", "gnorm1", "gnorm2", "gnorm_inf")
# bit-identical against the reference; f and gnorm* may move by a last ulp
EXACT_COLS = ("k", "bits_cum", "grad_evals_cum", "flags", "dist_to_ref")
CSV_COLS = ("t",) + FLOAT_COLS + EXACT_COLS
COUNTING_BOUNDS = ("update_count_bound", "comm_bits_bound")
REL_TOL = 1e-12
REFERENCE_ROWS = 17  # rows per seed whose f and gnorm* the reference keeps


def _sha(a) -> str:
    import numpy as np

    a = np.ascontiguousarray(a)
    return hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()[:16]


def digest(result) -> dict:
    """Compact, exact fingerprint of a run: what the committed reference holds."""
    import numpy as np

    traces = []
    for tr in result.traces:
        rows = sorted(set(np.linspace(0, tr.T, REFERENCE_ROWS).round().astype(int).tolist()))
        entry = {"x_final": [float(v).hex() for v in tr.x_final], "rows": rows}
        entry.update({col: _sha(getattr(tr, col)) for col in EXACT_COLS})
        entry.update({col: getattr(tr, col)[rows].tolist() for col in FLOAT_COLS})
        traces.append(entry)
    return {"verdicts": [[r.name, bool(r.holds)] for r in result.reports], "traces": traces}


def compare_reference(got: dict, ref: dict) -> tuple[list[str], float]:
    """Problems found against the reference, and the worst relative
    deviation of f and gnorm* over the kept rows."""
    problems = []
    if got["verdicts"] != ref["verdicts"]:
        problems.append(f"verdicts {got['verdicts']} != reference {ref['verdicts']}")
    if len(got["traces"]) != len(ref["traces"]):
        return problems + ["trace count differs from the reference"], float("inf")
    worst = 0.0
    for i, (g, r) in enumerate(zip(got["traces"], ref["traces"])):
        for col in ("x_final", "rows") + EXACT_COLS:
            if g[col] != r[col]:
                problems.append(f"trace {i}: {col} differs from the reference")
        if g["rows"] != r["rows"]:
            continue
        for col in FLOAT_COLS:
            for a, b in zip(g[col], r[col]):
                dev = abs(a - b) / max(abs(b), 1e-300)
                worst = max(worst, dev)
                if not dev <= REL_TOL:
                    problems.append(f"trace {i}: {col} {a!r} vs reference {b!r}")
                    break
    return problems, worst


def check_outputs(result, out_dir: Path) -> list[str]:
    """Checks that hold at any seed: exact CSV round-trip of every column,
    and the exact counting bounds."""
    import numpy as np
    from signopt.trace import read_trace_csv

    problems = []
    for fname, tr in zip(result.trace_paths, result.traces):
        back = read_trace_csv(str(out_dir / fname))
        for col in CSV_COLS:
            a, b = getattr(tr, col), getattr(back, col)
            if a.dtype.kind == "f":
                a, b = a.view(np.int64), np.asarray(b, dtype=np.float64).view(np.int64)
            if a.shape != b.shape or not np.array_equal(a, b):
                problems.append(f"{fname}: column {col} does not round-trip")
    if len(result.trace_paths) != len(result.traces):
        problems.append("not every trace was written")
    for rep in result.reports:
        if rep.name in COUNTING_BOUNDS and not rep.holds:
            problems.append(f"{rep.name} fails: lhs={rep.lhs!r} rhs={rep.rhs!r}")
    return problems


def measure(args: argparse.Namespace) -> dict:
    sample: dict = {"ok": False, "problems": []}
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    try:
        import signopt
        from signopt import harness
    except ImportError as exc:
        print(f"error: cannot import signopt from {src}: {exc}", file=sys.stderr)
        raise SystemExit(3)
    if not Path(signopt.__file__).resolve().is_relative_to(src):
        print(f"error: signopt imported from {signopt.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(3)

    try:
        cfg = harness.load_config(args.config)
    except harness.ConfigError as exc:
        sample["problems"].append(f"ConfigError: {exc}")
        return sample
    sample["loaded_ns"] = time.monotonic_ns()

    execute = harness.execute_experiment
    rec = None
    if args.trace_id:
        import tracing

        inside_ns, outside_ns = tracing.calibrate()
        rec = tracing.Recorder(args.trace_id)
        tracing.install(rec)
        execute = rec.wrap("harness.execute", execute)

    import hostspeed

    cal_before = hostspeed.measure()
    out = Path(args.out)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = execute(cfg, out)
    except Exception as exc:  # a failed run is a measured outcome, not a crash
        sample["problems"].append(f"{type(exc).__name__}: {exc}")
        sample["traceback"] = traceback.format_exc()
        return sample
    t1 = time.perf_counter()
    c1 = time.process_time()
    sample["run_s"] = t1 - t0
    sample["cpu_s"] = c1 - c0
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sample["cal_s"] = (cal_before + hostspeed.measure()) / 2

    problems = check_outputs(result, out)
    sample["verdicts"] = [[r.name, bool(r.holds)] for r in result.reports]
    sample["summary_sha256"] = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    if args.reference:
        ref = json.loads(Path(args.reference).read_text())
        found, worst = compare_reference(digest(result), ref)
        problems += found
        sample["ref_max_rel_dev"] = worst
    if rec is not None:
        refreshes = sum(int(tr.k[-1] - tr.k[0]) for tr in result.traces)
        sample["layers"] = tracing.layer_metrics(
            rec, len(cfg.seeds), cfg.T, refreshes, inside_ns, outside_ns
        )
        if args.spans:
            rec.write_csv(args.spans)
    sample["problems"] = problems
    sample["ok"] = not problems
    return sample


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--reference")
    ap.add_argument("--trace-id")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
