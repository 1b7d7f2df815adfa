"""The sign-based methods and their seed-batched run loop.

Methods (all with constant step size gamma, sign(0) = +1 throughout):

  signsgd       x+ = x - gamma * sign(grad f_i(x))
  signsgd_plus  x+ = x - gamma * sign(grad f_i(x) + G_inf * U),
                U uniform on [-1,1]^d. The added noise makes the expected
                step direction equal to grad f(x) / G_inf coordinatewise, so
                the method inherits SGD-style guarantees that plain sign
                descent provably lacks.
  signgd        deterministic full-gradient sign step.
  signsvrg_v1/2 variance-reduced sign step with a trust radius D around a
                reference point: the sign is taken of
                grad f_i(x) - grad f_i(ref) + grad f(ref) + G_t (.) U
                where the noise amplitude G_t dominates the first three terms
                coordinatewise. Variant 1 uses the scalar amplitude
                L ||x - ref||_q + ||grad f(ref)||_p on every coordinate;
                variant 2 uses L ||x - ref||_q + |grad f(ref)^j| per
                coordinate. A candidate step is accepted only while it stays
                within l_q distance D of the reference; otherwise the iterate
                stands still and the reference is refreshed at x with a full
                gradient.
  sgd, svrg     unsigned baselines; svrg shares the radius-triggered
                reference logic and accounting, stepping along the
                variance-reduced gradient itself.

Randomness is consumed in a fixed order inside each step: the component index
(integers(1, n, endpoint=True)) first, then the noise cube (uniform(-1, 1, d);
signsgd, sgd and svrg draw none, and signgd draws nothing at all). A rejected
step still consumes its draws, so traces are bitwise reproducible from
(config, seed). run_seeds steps all S seeds of a call as one fixed batch, from
the first step to the last, in one step loop for every method: a step forms
one gradient estimate, takes the sign or the unsigned step from it, and only
a reference-point method then checks its radius and refreshes.
vecmath.draw_blocks decodes the draws of every seed a block of steps at a
time from the raw Philox words of its own stream, bit for bit the same as
those calls; a seed's trace never depends on the other seeds of the batch.
A block is as long as keeps all it fills per seed and step (the indices,
the noise, and the amplitudes or precomputed steps below) within one budget
of float64s. The signed variance-reduced methods check the
amplitude premise and flag degenerate steps once per block of draws, not
inside the step; a violation raises AssertionError, also under python -O.
The iterates live in the rows of a step-major snapshot chunk, one contiguous
(S, d) block per row, and each step computes the next row straight into its
slot. Once per chunk of rows, not per step, the loop tests the rows for
finiteness, snapshots f and the gradient norms of the distinct rows of the
seeds that have not failed, a group of a few seeds per call as one
contiguous (G, rows, d) stack, into each seed's trace columns (one 1-D
array per seed and column, named as in Trace), and adds the rows to the
iterate sums, in the order of one row after another. A row that a rejected
step repeated is not evaluated again: it copies its source row's values. A
wide problem's chunk takes more rows and its calls fewer seeds, since each
seed's product streams the whole (n, d) data. A stacked snapshot gives
each seed the bits of a call with its distinct rows alone, so a seed's f
bits depend on its own rejections, and neither the groups nor the blocks
reach a trace. A seed that fails (a
non-finite iterate or a broken amplitude premise) steps on with the others;
seed 0's error is raised at once, any other after the last step, that of
the first failed seed in seed order, as running the seeds one after another
would. When a problem's component subgradients are +-a_i
(FiniteSumProblem.subgradient_rows), signsgd_plus computes both steps that
each draw of a block can give before the iterates are known, and a step
picks one by the sign of a_i^T x - b_i. The loop runs numpy's bundled BLAS
on one thread, so no product's bits depend on the host's thread count.
oracles.reference_run steps one seed at a time with the calls themselves,
and tests hold the two to the bit.

Communication accounting (bits): a sign step uploads d bits; an unsigned
stochastic gradient uploads d * float_bits; a reference refresh (and the
initial reference setup, and every full-gradient step of signgd) uploads
n * d * float_bits.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .problems import FiniteSumProblem
from .trace import FLAG_DEGENERATE, Trace
from .vecmath import (
    ConjugatePair,
    RngStream,
    draw_blocks,
    norm,
    norm_rows,
    row_dot,
)

__all__ = [
    "RunSpec",
    "NonFiniteIterateError",
    "run",
    "run_seeds",
    "ALGORITHMS",
    "VR_ALGORITHMS",
]

class NonFiniteIterateError(RuntimeError):
    """Raised when an iterate leaves the finite floats; carries the row index."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate produced at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class RunSpec:
    """Everything run() needs besides the problem, horizon, and seed."""

    # the run parameters each method records in its traces' meta besides
    # gamma and q, and it takes no other: D and L for the reference-point
    # methods, G_inf for signsgd_plus, and L for signgd. Each is required but
    # signgd's L (OPTIONAL): its step reads none, only its bound
    # (analysis.signgd_bound) does, so it records L when the problem has one
    PARAMS: ClassVar[dict[str, tuple[str, ...]]] = {
        "signsgd": (), "signsgd_plus": ("g_inf",), "signgd": ("L",), "sgd": (),
        "signsvrg_v1": ("D", "L"), "signsvrg_v2": ("D", "L"), "svrg": ("D", "L"),
    }
    OPTIONAL: ClassVar[dict[str, tuple[str, ...]]] = {"signgd": ("L",)}

    algo: str
    gamma: float
    x1: np.ndarray
    q: float = 1.0
    D: float | None = None
    L: float | None = None
    g_inf: float | None = None
    float_bits: int = 32
    keep_iterates: bool = False

    def __post_init__(self) -> None:
        if self.algo not in self.PARAMS:
            raise ValueError(f"unknown algo {self.algo!r}; known: {ALGORITHMS}")
        taken = ("gamma", *self.PARAMS[self.algo])
        for name, what in (("gamma", "step size"), ("D", "trust radius"), ("L", "smoothness constant"),
                           ("g_inf", "gradient bound")):
            value = getattr(self, name)
            if value is None and name in taken and name not in self.OPTIONAL.get(self.algo, ()):
                raise ValueError(f"{self.algo} requires {name}")
            if value is not None and name not in taken:
                raise ValueError(f"{name} is not a parameter of {self.algo}")
            if value is not None and not 0 < value < math.inf:  # also when it is NaN
                raise ValueError(f"{what} {name} must be finite and positive, got {value}")
        ConjugatePair(self.q)  # every algorithm records q in its trace meta
        if self.float_bits < 1:
            raise ValueError(f"float_bits must be >= 1, got {self.float_bits}")


ALGORITHMS = tuple(RunSpec.PARAMS)

# the methods that keep a reference point and a trust radius
VR_ALGORITHMS = tuple(algo for algo, params in RunSpec.PARAMS.items() if "D" in params)


# float64 elements per buffer of the step loop (the draw blocks have theirs
# in vecmath): one seed's iterates of one snapshot chunk (or the premise
# tolerances of a few steps of a block), and one snapshot call's
# (G, rows, max(n, d)) operands
_SNAPSHOT_ELEMENTS = 1 << 12
_GROUP_ELEMENTS = 1 << 14
# the rows a snapshot chunk takes at least, as far as those two budgets
# allow. A stacked matmul is one BLAS product per seed, and each product
# streams the whole (n, d) data: at n = 500, d = 100 one 8-row product took
# 28 us and one 32-row product 62 us (2-core Xeon, BLAS at 1 thread), so
# 32 rows of one seed per call beat 8 rows of each of 4 seeds
_SNAPSHOT_ROWS = 32


def _sign_steps(gamma: float) -> np.ndarray:
    """[-gamma, gamma]: its take(g >= 0) is where(g >= 0, gamma, -gamma)."""
    return np.array([-gamma, gamma])


class _Chunks:
    """Every seed's trace columns, one 1-D array per seed and column named
    as in Trace (Trace.COLUMNS and iterates), and the snapshot chunk where
    the step loop keeps the iterates (and distances) of all S seeds,
    step-major. Row t of all seeds is the contiguous (S, d) block
    x[1 + t % size] (and dist[1 + t % size]), and the step from row t
    computes row t + 1 straight into its slot. A chunk holds
    _SNAPSHOT_ELEMENTS // max(n, d) rows; where that is fewer than
    _SNAPSHOT_ROWS, it holds more, up to _SNAPSHOT_ROWS, as long as one
    seed's rows stay within _SNAPSHOT_ELEMENTS (rows * d) and its snapshot
    operands within _GROUP_ELEMENTS (rows * max(n, d)). So a chunk has one
    row only at max(n, d) > 8192 or d > 2048. On a chunk's last row, before
    the step from it, and at row T + 1, flush tests the chunk's rows for
    finiteness, snapshots them, and adds them to the iterate sums. The
    snapshot evaluates a seed's distinct rows alone, those where k (still
    the 0/1 refresh marks, not yet summed) is 0: it takes the seeds that
    have not failed and have the same count of distinct rows in groups of
    `group`, sized so that one call's (G, rows, max(n, d)) operands stay
    within _GROUP_ELEMENTS: each group is one contiguous (G, rows, d) copy
    of those rows, so the snapshot's BLAS calls see lda = d, and one
    value_and_full_gradient_batch call, whose slices get the bits of one
    call per seed. A repeated row takes the values of its source. Chunk
    bounds depend on n and d alone, so a seed's f and gradient norms
    depend on its own rows and rejections, never on the other seeds of the
    call or on its group. The S seeds are fixed for the whole run: a
    failed seed steps on, errors holds each seed's first error (fail), and
    flush snapshots no failed seed."""

    def __init__(self, prob: FiniteSumProblem, T: int, S: int, x1: np.ndarray, keep_iterates: bool):
        self.prob, self.T = prob, T
        size = T + 1
        self.t = [np.arange(1, size + 1, dtype=np.int64) for _ in range(S)]
        self.f, self.gnorm1, self.gnorm2, self.gnorm_inf = ([np.empty(size) for _ in range(S)] for _ in range(4))
        self.dist_to_ref = [np.zeros(size) for _ in range(S)]
        self.k, self.bits_cum, self.grad_evals_cum, self.flags = (
            [np.zeros(size, dtype=np.int64) for _ in range(S)] for _ in range(4))
        self.iterates = [np.empty((T, prob.d)) if keep_iterates else None for _ in range(S)]
        self.errors: list[Exception | None] = [None] * S
        width = max(prob.n, prob.d)
        self.size = max(1, _SNAPSHOT_ELEMENTS // width,
                        min(_SNAPSHOT_ROWS, _GROUP_ELEMENTS // width, _SNAPSHOT_ELEMENTS // prob.d))
        self.group = max(1, _GROUP_ELEMENTS // (self.size * width))  # seeds per snapshot call
        # slot 0 is spare: flush puts the iterate sums there (dist's is unused)
        self.x = np.empty((self.size + 1, S, prob.d))
        self.x[1] = x1
        self.dist = np.zeros((self.size + 1, S))
        self.x_sum = np.zeros((S, prob.d))  # of rows 1..T

    def fail(self, s: int, error: Exception) -> None:
        """Record error as seed s's unless it has failed before; seed 0's
        is raised at once."""
        if s == 0:
            raise error
        if self.errors[s] is None:
            self.errors[s] = error

    def flush(self, t: int) -> None:
        """Fail every seed with a non-finite row up to row t (0-based) of
        the chunk, then snapshot those rows of every seed that has not
        failed, and add the rows before row T + 1 to the iterate sums. A
        non-finite coordinate never becomes finite again under a
        reference-free step, so a seed's first non-finite row is the
        iteration at which stepping that seed alone fails; a reference-point
        method's row never is one, since a non-finite candidate has a
        non-finite radius and is rejected. A repeated row takes the values
        of the last row before it that is no repeat, which may be the
        previous chunk's last row."""
        c = t % self.size
        finite = np.isfinite(self.x[1:c + 2])
        if not finite.all():  # a whole-array test is far cheaper than one per row
            bad = ~finite.all(axis=2)  # (rows, S)
            for s in np.flatnonzero(bad.any(axis=0)):
                self.fail(s, NonFiniteIterateError(t - c + int(np.argmax(bad[:, s]))))
        rows = slice(t - c, t + 1)
        for s, column in enumerate(self.dist_to_ref):
            column[rows] = self.dist[1:c + 2, s]
        live = [s for s, error in enumerate(self.errors) if error is None]
        seed_major = self.x[1:c + 2].transpose(1, 0, 2)
        distinct = np.array([k[rows] for k in self.k]) == 0  # (S, rows)
        # a call takes the seeds of one count of distinct rows, so a seed's
        # values depend on its own rows and rejections alone
        counts = np.count_nonzero(distinct, axis=1).tolist()
        by_count: dict[int, list[int]] = {}
        for s in live:
            by_count.setdefault(counts[s], []).append(s)
        columns = self.f, self.gnorm1, self.gnorm2, self.gnorm_inf
        for m, seeds in by_count.items():
            for i in range(0, len(seeds) if m else 0, self.group):  # no call where every row repeats
                group = seeds[i:i + self.group]
                if m == c + 1:  # no repeats: a copy and slice writes (the gather cost vr_trig 5% of run_s)
                    xs, at = seed_major[group], [rows] * len(group)  # (G, rows, d), a contiguous copy
                else:  # the distinct rows alone, (G, m, d), also a contiguous copy
                    keep = np.nonzero(distinct[group])[1].reshape(len(group), m)
                    xs, at = seed_major[np.array(group)[:, None], keep], keep + (t - c)
                fval, grad = self.prob.value_and_full_gradient_batch(xs)
                gnorm2 = np.sqrt(row_dot(grad, grad))
                ag = np.abs(grad, out=grad)
                values = fval, np.add.reduce(ag, axis=-1), gnorm2, np.maximum.reduce(ag, axis=-1)
                for column, value in zip(columns, values):
                    for s, where, seed_value in zip(group, at, value):
                        column[s][where] = seed_value
        for s in live:
            if counts[s] <= c:
                # each row's source row, t - c - 1 (the previous chunk's last
                # row) for the repeats that open the chunk
                source = np.maximum.accumulate(np.where(distinct[s], np.arange(c + 1), -1)) + (t - c)
                for column in columns:
                    column[s][rows] = column[s][source]
        if self.iterates[0] is not None:  # kept for every seed or for none
            end = min(t + 1, self.T)  # row T+1 is no iterate
            for s in live:
                self.iterates[s][t - c:end] = seed_major[s, :end - t + c]
        # the sums of [sum; rows] accumulated in place are those of sum += row,
        # row after row (np.add.reduce sums pairwise where the rows are its
        # inner loop, as at S = d = 1); this overwrites every row but the last
        # one added, which the step from row t still reads
        k = c + 1 if t < self.T else c
        if k:
            x = self.x
            x[0] = self.x_sum
            np.add.accumulate(x[:k], axis=0, out=x[:k])
            np.add(x[k - 1], x[k], out=self.x_sum)


def _both_steps(a: np.ndarray, b: np.ndarray, gamma: float, idx: np.ndarray, noise: np.ndarray,
                bufs: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The rows a_i, the targets b_i and the two signsgd_plus steps (up,
    down) that a block of draws idx with its scaled noise can give,
    (steps, S[, d]) each, for a problem whose subgradients are +-a_i
    (FiniteSumProblem.subgradient_rows): up is the step from +a_i, down the
    one from -a_i, each with the float operations of the step from
    component_gradient_batch's +a_i or -a_i. bufs holds rows, targets and
    down, at least `steps` long; up is computed in the noise, which is then
    used up."""
    rows, targets, down = (buf[:len(idx)] for buf in bufs)
    # the draws are valid indices, and clip takes no buffered copy
    a.take(idx, axis=0, out=rows, mode="clip")
    b.take(idx, out=targets, mode="clip")
    np.negative(rows, out=down)
    down += noise
    up = np.add(noise, rows, out=noise)
    sign_steps = _sign_steps(gamma)
    for g in (up, down):
        sign_steps.take(g >= 0.0, out=g, mode="clip")
    return rows, targets, up, down


def _step_loop(spec: RunSpec, prob: FiniteSumProblem, T: int, rngs: list[RngStream], chunks: _Chunks) -> None:
    """The one step loop of every method, all seeds of a call at once.

    Row s of every (S, d) state array is seed s, and its arithmetic is that
    of oracles.reference_run on seed s alone, float operation for float
    operation. A step forms its estimate v (component gradients from
    component_gradient_batch; signgd, whose rows all start at x1 and draw
    nothing, takes the one-vector full_gradient of row 0 and broadcasts its
    step over the rows) and steps by x - gamma v or by
    x - [-gamma, gamma].take(v + amp u >= 0), where signsgd_plus scales a
    block's noise u by amp = g_inf in one multiply. When the problem's
    subgradients are +-a_i (subgradient_rows), both steps of every draw of
    signsgd_plus are computed once per block (_both_steps), and a step is
    one row dot, one a_i^T x >= b_i (which is a_i^T x - b_i >= 0 bit for
    bit, NaN included, for finite b_i), one select and one subtract.

    The reference-point methods keep the iterates and the references in one
    (2, S, d) buffer, so a step takes both component gradients in one call,
    and measure distances with vecmath.norm_rows; a rejected step refreshes
    its seed's reference with the one-vector full_gradient.
    ||x - ref||_q is carried across iterations: the accepted candidate's
    radius check IS the next step's distance. A signed variance-reduced step
    keeps its amplitude in a block buffer and its v in the noise slot it has
    just used; after each block of draws, one pass over them sets
    FLAG_DEGENERATE where some coordinate's amplitude is 0 and checks the
    amplitude premise of every step of every seed (_Chunks.fail). A refresh
    sets its row of k to 1; the snapshot reads these marks, and k, bits_cum
    and grad_evals_cum follow from them after the last flush.
    """
    S, n, d = len(rngs), prob.n, prob.d
    algo, gamma, D, L = spec.algo, spec.gamma, spec.D, spec.L
    vr = algo in VR_ALGORITHMS
    signed = algo not in ("sgd", "svrg")
    plus = algo == "signsgd_plus"
    variant = {"signsvrg_v1": 1, "signsvrg_v2": 2}.get(algo, 0)  # 0: no amplitude
    pair = ConjugatePair(spec.q)
    comp_grads = prob.component_gradient_batch
    sign_steps = _sign_steps(gamma)
    signed_rows = prob.subgradient_rows() if plus else None

    # what the amplitude adds to L ||x - ref||_q at a reference with full gradient g
    amp_floor = np.abs if variant == 2 else lambda g: norm(g, pair.p)
    if vr:
        xr = np.empty((2, S, d))  # row 0: this step's iterates, row 1: the references
        xr[1] = spec.x1
        ref = xr[1]
        g = prob.full_gradient(np.array(spec.x1, dtype=np.float64))
        ref_grad = np.tile(g, (S, 1))
        floor = np.array([amp_floor(g)] * S)  # (S,) for variant 1, (S, d) for 2
        diff = np.empty((S, d))  # candidate minus reference

    chunk_size = chunks.size
    slots, dists = list(chunks.x), list(chunks.dist)  # the (S, d) and (S,) row of every slot
    draws = () if algo == "signgd" else rngs
    # per seed and step, a block also fills the amplitude, or _both_steps'
    # rows, targets and down
    extra = {1: 1, 2: d}.get(variant, 0) if signed_rows is None else 2 * d + 1
    for t0, idx, noise in draw_blocks(draws, n, d if plus or variant else 0, T, extra):
        if t0 == 0 and variant:  # the first block is the longest
            amps = np.empty(noise.shape if variant == 2 else idx.shape)
        if plus:
            noise *= spec.g_inf
        if signed_rows is not None:
            if t0 == 0:
                shape = (*idx.shape, d)
                bufs = np.empty(shape), np.empty(idx.shape), np.empty(shape)
            rows, targets, up, down = _both_steps(*signed_rows, gamma, idx, noise, bufs)
        for j in range(len(idx)):
            t = t0 + j
            slot = 1 + t % chunk_size
            if slot == chunk_size:
                chunks.flush(t)
            nxt = slot % chunk_size + 1
            x, x_next = slots[slot], slots[nxt]
            if signed_rows is not None:
                pick = row_dot(rows[j], x) >= targets[j]
                np.subtract(x, np.where(pick[:, None], up[j], down[j]), out=x_next)
                continue
            # the estimate v, and the noise term w = amp u of a noisy sign step
            if algo == "signgd":
                v = prob.full_gradient(x[0])  # every row equals row 0
            elif vr:
                xr[0] = x
                x = xr[0]  # a copy: at one row per chunk, x_next is x's own slot
                g = comp_grads(idx[j], xr)
                if variant:
                    drift = L * dists[slot]
                    if variant == 1:
                        amp = np.add(drift, floor, out=amps[j])[:, None]
                    else:
                        amp = np.add(drift[:, None], floor, out=amps[j])
                    w = amp * noise[j]
                v = np.subtract(g[0], g[1], out=noise[j] if variant else g[0])  # into the used-up noise slot
                v += ref_grad
            else:
                v = comp_grads(idx[j], x)
                w = noise[j]  # signsgd_plus: g_inf u
            if not signed:
                v *= gamma
                np.subtract(x, v, out=x_next)
            else:
                if plus or variant:
                    v = np.add(v, w, out=w)
                np.subtract(x, sign_steps.take(v >= 0.0), out=x_next)
            if not vr:
                continue
            rad = norm_rows(np.subtract(x_next, ref, out=diff), pair.q, out=dists[nxt])
            if not np.maximum.reduce(rad) <= D:  # also when a radius is NaN
                for s in np.flatnonzero(~(rad <= D)):
                    ref[s] = x_next[s] = x[s]
                    rad[s] = 0.0
                    g = prob.full_gradient(ref[s])
                    ref_grad[s] = g
                    if variant:
                        floor[s] = amp_floor(g)
                    chunks.k[s][t + 1] = 1  # read by flush, summed into k below
        if variant:
            steps = len(idx)
            amp, v = amps[:steps], noise[:steps]
            zero = amp == 0.0
            degenerate = zero if variant == 1 else zero.any(axis=2)
            for s in np.flatnonzero(degenerate.any(axis=0)):
                chunks.flags[s][t0:t0 + steps][degenerate[:, s]] = FLAG_DEGENERATE
            # the premise |v| <= amp + 1e-9 (1 + amp), coordinatewise, as an
            # explicit test, so that it also runs under python -O; a few
            # rows at a time, so that the tolerance stays a small temporary
            held = np.empty((steps, S), dtype=bool)
            span = max(1, _SNAPSHOT_ELEMENTS // amp[0].size)
            for r in range(0, steps, span):
                a, w = amp[r:r + span], v[r:r + span]
                tol = a + 1.0
                tol *= 1e-9
                tol += a
                w = np.abs(w, out=w)
                held[r:r + span] = np.maximum.reduce(w, axis=2) <= tol if variant == 1 else (w <= tol).all(axis=2)
            for s in np.flatnonzero(~held.all(axis=0)):
                chunks.fail(s, AssertionError("noise amplitude violated"))
    chunks.flush(T)
    # every seed pays the initial reference sync (reference-point methods
    # only) and its steps; a refresh pays the sync in place of its step's
    # upload, and n gradient evaluations on top of its step's
    sync_bits = n * d * spec.float_bits
    step_bits = sync_bits if algo == "signgd" else d if signed else d * spec.float_bits
    step_evals = n if algo == "signgd" else 2 if vr else 1
    steps_done = np.arange(T + 1)
    bits_done, evals_done = vr * sync_bits + steps_done * step_bits, vr * n + steps_done * step_evals
    for k, bits, evals in zip(chunks.k, chunks.bits_cum, chunks.grad_evals_cum):
        bits[:], evals[:] = bits_done, evals_done
        if k.any():  # the cumulative sum is the slow part, and most seeds never refresh
            refreshes = np.cumsum(k, out=k)
            bits += refreshes * (sync_bits - step_bits)
            evals += refreshes * n
        k += vr  # the initial reference is k's first


@functools.cache
def _blas_threads() -> tuple | None:
    """The thread count getter and setter of the scipy-openblas that numpy
    bundles (numpy.libs/libscipy_openblas64_*), or None where it has none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    # listdir, not pathlib's glob: a run pays this lookup once per process
    for name in sorted(os.listdir(libs) if os.path.isdir(libs) else ()):
        if name.startswith("libscipy_openblas64_"):
            lib = ctypes.CDLL(os.path.join(libs, name))  # the library numpy has loaded already
            with contextlib.suppress(AttributeError):
                return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's BLAS on one thread, and restore its
    thread count after it. This BLAS sums some products (a 32-row snapshot
    chunk at n = 500, d = 100) in another order on 1 thread than on 2, so
    without the pin a trace's f and gradient norms would depend on the
    host's thread count. Where no setter is found, the block runs as is."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, set_threads = blas
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def run_seeds(spec: RunSpec, prob: FiniteSumProblem, T: int, seeds: Sequence[int]) -> list[Trace]:
    """Execute T iterations for every seed, all seeds stepped as one fixed
    batch, and record one trace per seed (see the trace module for the row
    conventions); a seed's trace does not depend on the other seeds. Aborts
    with AssertionError if a signed variance-reduced step breaks its
    amplitude premise, and with NonFiniteIterateError if an iterate leaves
    the finite floats. A failed seed steps on with the others; the error
    raised is that of the first failed seed in seed order, as running the
    seeds one after another would raise."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    x1 = np.asarray(spec.x1, dtype=np.float64)
    if x1.ndim != 1 or x1.shape[0] != prob.d:
        raise ValueError(f"x1 must be a length-{prob.d} vector, got shape {x1.shape}")
    if not np.all(np.isfinite(x1)):
        raise ValueError("x1 must be finite")

    rngs = [RngStream(seed) for seed in seeds]
    chunks = _Chunks(prob, T, len(seeds), x1, spec.keep_iterates)
    # a diverging seed passes through inf and NaN before its row raises
    # NonFiniteIterateError, which says all that numpy's warnings would
    with np.errstate(over="ignore", invalid="ignore"), _one_blas_thread():
        _step_loop(spec, prob, T, rngs, chunks)
    for error in chunks.errors:  # the first failed seed's, in seed order
        if error is not None:
            raise error

    x_final = chunks.x[1 + T % chunks.size]  # row T + 1 of every seed
    meta = {"algo": spec.algo, "gamma": spec.gamma, "q": spec.q, "D": spec.D, "L": spec.L, "g_inf": spec.g_inf,
            "float_bits": spec.float_bits, "T": T, "n": prob.n, "d": prob.d}
    return [Trace(
        **{name: getattr(chunks, name)[s] for name in Trace.COLUMNS},
        iterates=chunks.iterates[s],
        x1=x1.copy(),
        x_mean=chunks.x_sum[s] / T,
        x_final=x_final[s].copy(),
        meta={**meta, "seed": seed},
    ) for s, seed in enumerate(seeds)]


def run(spec: RunSpec, prob: FiniteSumProblem, T: int, seed: int) -> Trace:
    """run_seeds for the single seed `seed`."""
    return run_seeds(spec, prob, T, (seed,))[0]

