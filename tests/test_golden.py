"""Byte identity of the outputs of 11 runs against tests/golden.json.

The manifest holds the sha256 of every summary.json and trace_seed*.npy
that `execute_experiment` writes for the five shipped configs in
scripts/configs/ and for the three benchmark workloads at workload seeds 0
and 1 (conftest's workload_configs). The test takes the outputs from the
session's one run of each (the shipped_runs and workload_runs fixtures). A
change that keeps every output byte-identical keeps this test passing; one
that changes an output on purpose rewrites the manifest and names the
entries it changed.

It also holds a fingerprint of the numeric build: the sha256 of the outputs
of the numpy kernels the runs rest on, at the shapes they run at. When
outputs differ and the fingerprint does too, the numpy or BLAS build may be
the cause rather than the code.

    PYTHONPATH=src python tests/test_golden.py

rewrites the manifest from the current code and prints each run/file entry
whose hash differs from the manifest it replaces.

A second test runs one workload at 1 and at 2 BLAS threads and asserts
byte-identical outputs: the run loop pins numpy's bundled BLAS to one
thread, so the manifest holds on any thread count.
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import ROOT, SHIPPED_CONFIGS, workload_configs, workload_docs
from signopt.harness import execute_experiment, load_config
from signopt.optimizers import VR_ALGORITHMS, _Chunks, _one_blas_thread

MANIFEST = Path(__file__).resolve().parent / "golden.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_hashes(out: Path) -> dict:
    """file name -> sha256 of the summary.json and trace files in out."""
    return {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())
            if p.name == "summary.json" or p.name.startswith("trace_seed")}


def differing(want: dict, got: dict) -> list[str]:
    """One "run/file state" line for each output file whose hash in the
    run -> file -> sha256 map got is not the one in want."""
    lines = []
    for name in sorted(set(want) | set(got)):
        files_want, files_got = want.get(name, {}), got.get(name, {})
        for fname in sorted(set(files_want) | set(files_got)):
            if files_want.get(fname) != files_got.get(fname):
                state = ("missing" if fname not in files_got else "not in the manifest"
                         if fname not in files_want else "differs")
                lines.append(f"{name}/{fname} {state}")
    return lines


def configs() -> dict:
    """name -> config of every run the manifest holds."""
    return {**{path.stem: load_config(path) for path in SHIPPED_CONFIGS}, **workload_configs()}


def build_fingerprint() -> dict:
    """kernel -> sha256 of its outputs on fixed inputs: the snapshot's two
    matrix products at the shape of a full snapshot chunk of every run in
    the manifest, rows as optimizers._Chunks sizes them (32 rows at d = 100,
    n = 500, 81 at d = 10, n = 50, ...), with the data matrix read
    transposed as the snapshot reads it and BLAS pinned to one thread as
    run_seeds pins it; logaddexp, sin and cos of the first product, vecdot
    on its rows and a block of Philox words."""
    gen = np.random.Generator(np.random.Philox(key=2023))
    out = {"gemm": hashlib.sha256(), "logaddexp": hashlib.sha256(), "sin_cos": hashlib.sha256(),
           "vecdot": hashlib.sha256()}
    specs = [cfg.problem for cfg in configs().values()]  # _Chunks reads n and d alone
    shapes = {(_Chunks(spec, 1, (0,), np.zeros(spec.d), False).size, spec.d, spec.n) for spec in specs}
    with _one_blas_thread():
        for rows, d, n in sorted(shapes):
            xs, a = gen.standard_normal((rows, d)), gen.standard_normal((n, d))
            w = xs @ a.T
            out["gemm"].update(w.tobytes())
            out["gemm"].update((w @ a).tobytes())
            out["logaddexp"].update(np.logaddexp(0.0, w).tobytes())
            out["sin_cos"].update(np.sin(w).tobytes())
            out["sin_cos"].update(np.cos(w).tobytes())
            out["vecdot"].update(np.vecdot(w, w).tobytes())
    fingerprint = {kernel: h.hexdigest() for kernel, h in out.items()}
    fingerprint["philox"] = _sha(np.random.Philox(key=2023).random_raw(4096).tobytes())
    return fingerprint


def test_outputs_match_the_manifest(shipped_runs, workload_runs):
    want = json.loads(MANIFEST.read_text())
    got = {name: output_hashes(out) for name, (out, _) in {**shipped_runs, **workload_runs}.items()}
    differ = differing(want["runs"], got)
    if differ:
        kernels = [k for k, h in build_fingerprint().items() if want["fingerprint"].get(k) != h]
        build = (f"the numeric build's fingerprint differs too ({', '.join(kernels)}), so numpy or "
                 "BLAS may explain it" if kernels else "the numeric build's fingerprint matches")
        raise AssertionError(f"{len(differ)} output files differ from tests/golden.json; {build}:\n"
                             + "\n".join(differ))


def test_repeated_rows_take_their_source_snapshot(shipped_runs, workload_runs):
    # a rejected step repeats its iterate where k steps up, and the snapshot
    # takes the f and gradient norms of the row it repeats, bit for bit
    repeats = 0
    for name, (_, result) in {**shipped_runs, **workload_runs}.items():
        for tr in result.traces:
            if tr.meta["algo"] not in VR_ALGORITHMS:
                continue
            repeated = np.flatnonzero(np.diff(tr.k)) + 1
            repeats += len(repeated)
            for column in ("f", "gnorm1", "gnorm2", "gnorm_inf"):
                values = getattr(tr, column)
                assert values[repeated].tobytes() == values[repeated - 1].tobytes(), (name, tr.meta["seed"], column)
    assert repeats > 0


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # vr_logistic_wide's 32-row snapshot products (n = 500, d = 100) are the
    # ones OpenBLAS sums in another order on 1 thread than on 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload_docs()["vr_logistic_wide-seed0"]))
    hashes = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "signopt", "run", "--config", str(config), "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        hashes[threads] = output_hashes(out)
    assert len(hashes["1"]) == 5  # summary.json and four traces
    assert hashes["1"] == hashes["2"]


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text())["runs"] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for name, cfg in configs().items():
            execute_experiment(cfg, Path(tmp) / name)
            runs[name] = output_hashes(Path(tmp) / name)
    MANIFEST.write_text(json.dumps({"fingerprint": build_fingerprint(), "runs": runs}, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {MANIFEST}: {sum(map(len, runs.values()))} files of {len(runs)} runs")
    changed = differing(old, runs)
    print(f"{len(changed)} entries changed against the manifest it replaces")
    for line in changed:
        print(f"  {line}")
