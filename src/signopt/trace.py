"""Columnar run traces and their two exact file formats.

A trace of a T-iteration run holds T+1 records: entries 1..T are
start-of-iteration snapshots of the iterate x_t (objective, gradient norms,
reference count k(t), distance to the reference point), and entry T+1 is the
terminal state after the last step. Accounting columns (bits_cum,
grad_evals_cum) count everything completed strictly before the snapshot, so
row 1 carries only setup costs (e.g. the initial full-gradient sync of the
variance-reduced methods) and row T+1 carries the full run. The flags column
is the exception: row t flags the step taken from x_t (bit 1 = degenerate,
all-zero noise amplitude on some coordinate).

A trace file holds the ten metric columns. `Trace.to_npy` writes them as
one 1-D structured `.npy` array, one field per CSV_HEADER column with
explicit little-endian `<i8`/`<f8` types, so the file is a fixed header
plus the raw column bytes on any host; `signopt run` writes this format.
`Trace.to_csv` writes the same columns as text under a fixed header, floats
with repr (shortest round-trip), e.g. `read_trace("t.npy").to_csv("t.csv")`.
Both formats round-trip every column by bits, and identical runs produce
byte-identical files in either. `read_trace` reads both.
"""
from __future__ import annotations

import functools
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

__all__ = ["CSV_HEADER", "FLAG_DEGENERATE", "Trace", "read_trace"]

CSV_HEADER = "t,f,gnorm1,gnorm2,gnormInf,k,dist_to_ref,bits_cum,grad_evals_cum,flags"

FLAG_DEGENERATE = 1

_INT_COLUMNS = ("t", "k", "bits_cum", "grad_evals_cum", "flags")
# the one record layout of both formats, little-endian on every host
_TRACE_DTYPE = np.dtype([
    (name, "<i8" if name in _INT_COLUMNS else "<f8") for name in CSV_HEADER.split(",")
])
_CSV_ROW = (",".join("{}" if name in _INT_COLUMNS else "{!r}" for name in _TRACE_DTYPE.names) + "\n").format


@functools.cache
def _npy_header(rows: int) -> bytes:
    """The header np.save writes before `rows` trace records."""
    fmt = np.lib.format
    buf = io.BytesIO()
    fmt.write_array_header_1_0(buf, fmt.header_data_from_array_1_0(np.empty(rows, dtype=_TRACE_DTYPE)))
    return buf.getvalue()


@dataclass
class Trace:
    """Struct-of-arrays record of one run; all arrays have length T+1."""

    # the metric columns, in the order of the file columns (CSV_HEADER)
    COLUMNS: ClassVar[tuple[str, ...]] = (
        "t", "f", "gnorm1", "gnorm2", "gnorm_inf", "k", "dist_to_ref", "bits_cum", "grad_evals_cum", "flags")

    t: np.ndarray
    f: np.ndarray
    gnorm1: np.ndarray
    gnorm2: np.ndarray
    gnorm_inf: np.ndarray
    k: np.ndarray
    dist_to_ref: np.ndarray
    bits_cum: np.ndarray
    grad_evals_cum: np.ndarray
    flags: np.ndarray
    x1: np.ndarray
    x_mean: np.ndarray
    x_final: np.ndarray
    iterates: np.ndarray | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def T(self) -> int:
        """Number of iterations (rows excluding the terminal snapshot)."""
        return len(self.t) - 1

    def gnorm(self, p: float) -> np.ndarray:
        if p == 1:
            return self.gnorm1
        if p == 2:
            return self.gnorm2
        if p == float("inf"):
            return self.gnorm_inf
        raise ValueError(f"p must be one of {{1, 2, inf}}, got {p!r}")

    def to_npy(self, path: str) -> None:
        records = np.empty(len(self.t), dtype=_TRACE_DTYPE)
        for name, column in zip(_TRACE_DTYPE.names, self.COLUMNS):
            records[name] = getattr(self, column)
        with open(path, "wb") as fh:  # the bytes of np.save, which would append ".npy" to a name
            fh.write(_npy_header(len(records)))
            fh.write(records.view(np.uint8))

    def to_csv(self, path: str) -> None:
        cols = [getattr(self, name) for name in self.COLUMNS]
        with open(path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            # a block of rows at a time bounds the Python objects alive at once
            for r in range(0, len(self.t), 64):
                values = [np.asarray(col[r:r + 64], dtype=_TRACE_DTYPE[c]).tolist()
                          for c, col in enumerate(cols)]
                fh.writelines(map(_CSV_ROW, *values))


def read_trace(path: str | Path) -> Trace:
    """Read a trace file written by `Trace.to_npy` (suffix `.npy`) or
    `Trace.to_csv` (suffix `.csv`) back into a (metrics-only) Trace.

    Iterate-dependent fields (x1, x_mean, x_final) are not stored in either
    format and come back as empty arrays; metric columns round-trip exactly,
    the integer ones as int64 rather than through float64. A file whose
    layout is not exactly the trace layout, or that has no rows, raises a
    ValueError naming the file.
    """
    suffix = Path(path).suffix
    if suffix == ".npy":
        try:
            raw = np.load(path, allow_pickle=False)
        except ValueError as exc:  # pickled or not an .npy file at all
            raise ValueError(f"{path}: {exc}") from exc
        if raw.dtype != _TRACE_DTYPE:
            raise ValueError(f"{path}: trace dtype must be {_TRACE_DTYPE}, got {raw.dtype}")
        if raw.ndim != 1:
            raise ValueError(f"{path}: trace array must be 1-D, got shape {raw.shape}")
    elif suffix == ".csv":
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(f"{path}: unexpected CSV header: {header!r}")
            raw = np.loadtxt(fh, delimiter=",", dtype=_TRACE_DTYPE, ndmin=1)
    else:
        raise ValueError(f"{path}: a trace file ends in .npy or .csv")
    if raw.size == 0:
        raise ValueError(f"{path}: trace has no rows")
    cols = {name: np.ascontiguousarray(raw[stored]) for name, stored in zip(Trace.COLUMNS, _TRACE_DTYPE.names)}
    empty = np.empty(0)
    return Trace(**cols, x1=empty, x_mean=empty, x_final=empty)


# the benchmark (perfbench/child.py) imports the reader under its old name
read_trace_csv = read_trace
