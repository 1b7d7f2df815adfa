"""Columnar run traces and their CSV serialization.

A trace of a T-iteration run holds T+1 records: entries 1..T are
start-of-iteration snapshots of the iterate x_t (objective, gradient norms,
reference count k(t), distance to the reference point), and entry T+1 is the
terminal state after the last step. Accounting columns (bits_cum,
grad_evals_cum) count everything completed strictly before the snapshot, so
row 1 carries only setup costs (e.g. the initial full-gradient sync of the
variance-reduced methods) and row T+1 carries the full run. The flags column
is the exception: row t flags the step taken from x_t (bit 1 = degenerate,
all-zero noise amplitude on some coordinate).

CSV layout is fixed; floats are written with repr (shortest round-trip), so
identical runs produce byte-identical files.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["CSV_HEADER", "FLAG_DEGENERATE", "Trace", "read_trace_csv"]

CSV_HEADER = "t,f,gnorm1,gnorm2,gnormInf,k,dist_to_ref,bits_cum,grad_evals_cum,flags"

FLAG_DEGENERATE = 1

_INT_COLUMNS = ("t", "k", "bits_cum", "grad_evals_cum", "flags")
_CSV_DTYPE = np.dtype([
    (name, np.int64 if name in _INT_COLUMNS else np.float64) for name in CSV_HEADER.split(",")
])
_CSV_ROW = (",".join("{}" if name in _INT_COLUMNS else "{!r}" for name in _CSV_DTYPE.names) + "\n").format


@dataclass
class Trace:
    """Struct-of-arrays record of one run; all arrays have length T+1."""

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

    def __len__(self) -> int:
        return self.T

    def gnorm(self, p: float) -> np.ndarray:
        if p == 1:
            return self.gnorm1
        if p == 2:
            return self.gnorm2
        if p == float("inf"):
            return self.gnorm_inf
        raise ValueError(f"p must be one of {{1, 2, inf}}, got {p!r}")

    def to_csv(self, path: str) -> None:
        cols = (self.t, self.f, self.gnorm1, self.gnorm2, self.gnorm_inf, self.k,
                self.dist_to_ref, self.bits_cum, self.grad_evals_cum, self.flags)
        with open(path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            # a block of rows at a time bounds the Python objects alive at once
            for r in range(0, len(self.t), 64):
                values = [np.asarray(col[r:r + 64], dtype=_CSV_DTYPE[c]).tolist()
                          for c, col in enumerate(cols)]
                fh.writelines(map(_CSV_ROW, *values))


def read_trace_csv(path: str) -> Trace:
    """Parse a trace CSV back into a (metrics-only) Trace.

    Iterate-dependent fields (x1, x_mean, x_final) are not stored in the CSV
    and come back as empty arrays; metric columns round-trip exactly, the
    integer ones parsed as int64 rather than through float64.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        raw = np.loadtxt(fh, delimiter=",", dtype=_CSV_DTYPE, ndmin=1)
    if raw.size == 0:
        raise ValueError("trace CSV has no rows")
    cols = {name: np.ascontiguousarray(raw[name]) for name in _CSV_DTYPE.names}
    cols["gnorm_inf"] = cols.pop("gnormInf")
    empty = np.empty(0)
    return Trace(**cols, x1=empty, x_mean=empty, x_final=empty)
