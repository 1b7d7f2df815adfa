"""The sign-based methods: step-size schedules and the seed-batched run loops.

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
the first step to the last. A block of steps at a time, one
vecmath.sample_steps call decodes the draws of every seed at once from the raw
Philox words of its own stream, bit for bit the same as those calls; a seed's
trace never depends on the other seeds of the batch. A variance-reduced step
takes the component gradients at the iterates and at the references in one
call. The signed variance-reduced methods check the amplitude premise and flag
degenerate steps once per block of draws, for every step of the block, not
inside the step; a violation raises AssertionError, also under python -O. The
iterates live in the rows of a step-major snapshot chunk, one contiguous
(S, d) block per row: each step computes its seeds' new iterates (and a
variance-reduced step their distances to the references) straight into the
chunk's next row. Once per chunk of rows, not per step, the loops test the
rows of the reference-free methods for finiteness, snapshot f and the gradient
norms of each seed's rows, copied out contiguous, into its trace columns (one
1-D array per seed and column, named as in Trace), and add the rows to the
iterate sums, in the order of one row after another. A seed that fails (a
non-finite iterate or a broken amplitude premise) steps on with the others;
seed 0's error is raised at once, any other after the last step, that of the
first failed seed in seed order, as running the seeds one after another would.
When a problem's component subgradients are +-a_i
(FiniteSumProblem.subgradient_rows), signsgd, signsgd_plus and sgd compute
both steps that each draw of a block can give before the iterates are known,
and a step only picks one of them by the sign of a_i^T x - b_i. A sign step
picks +-gamma from a [-gamma, gamma] pair. oracles.reference_run steps one
seed at a time with the calls themselves, and tests hold the two to the bit.

Communication accounting (bits): a sign step uploads d bits; an unsigned
stochastic gradient uploads d * float_bits; a reference refresh (and the
initial reference setup, and every full-gradient step of signgd) uploads
n * d * float_bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .problems import FiniteSumProblem
from .trace import FLAG_DEGENERATE, Trace
from .vecmath import (
    ConjugatePair,
    RngStream,
    norm,
    norm_rows,
    row_dot,
    sample_steps,
)

__all__ = [
    "RunSpec",
    "NonFiniteIterateError",
    "schedule_cor1",
    "schedule_cor2",
    "schedule_sec2",
    "run",
    "run_seeds",
    "ALGORITHMS",
    "VR_ALGORITHMS",
]

ALGORITHMS = ("signsgd", "signsgd_plus", "signgd", "sgd", "signsvrg_v1", "signsvrg_v2", "svrg")

# the methods that keep a reference point and a trust radius
VR_ALGORITHMS = ("signsvrg_v1", "signsvrg_v2", "svrg")


class NonFiniteIterateError(RuntimeError):
    """Raised when an iterate leaves the finite floats; carries the row index."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate produced at iteration {iteration}")
        self.iteration = iteration


def schedule_cor1(d: int, q: float, L: float, T: int) -> tuple[float, Callable[[float], float]]:
    """Smoothness-scaled schedule for the nonconvex variance-reduced methods.

    gamma = d^{-1/q} sqrt(2/(L T)); the radius factory maps a reference
    period P to D = P sqrt(2/(L T)). With these choices a fresh reference
    cannot be rejected for at least P steps, since each sign step moves the
    iterate exactly gamma d^{1/q} in l_q distance.
    """
    if d < 1 or T < 1:
        raise ValueError(f"d and T must be >= 1, got d={d}, T={T}")
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    root = math.sqrt(2.0 / (L * T))
    gamma = root / ConjugatePair(q).dim_root(d)

    def d_factory(P: float) -> float:
        if P < 1:
            raise ValueError(f"reference period P must be >= 1, got {P}")
        return P * root

    return gamma, d_factory


def schedule_cor2(alpha: float, d: int, T: int) -> tuple[float, Callable[[float], float]]:
    """Distance-scaled schedule for the convex analysis: gamma = alpha/sqrt(dT),
    D = P/sqrt(T)."""
    if d < 1 or T < 1:
        raise ValueError(f"d and T must be >= 1, got d={d}, T={T}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    gamma = alpha / math.sqrt(d * T)

    def d_factory(P: float) -> float:
        if P < 1:
            raise ValueError(f"reference period P must be >= 1, got {P}")
        return P / math.sqrt(T)

    return gamma, d_factory


def schedule_sec2(dist_to_opt: float, d: int, T: int) -> float:
    """Step size dist/sqrt(dT) for the noise-corrupted sign method on convex
    Lipschitz problems."""
    if d < 1 or T < 1:
        raise ValueError(f"d and T must be >= 1, got d={d}, T={T}")
    if dist_to_opt <= 0:
        raise ValueError(f"dist_to_opt must be positive, got {dist_to_opt}")
    return dist_to_opt / math.sqrt(d * T)


@dataclass(frozen=True)
class RunSpec:
    """Everything run() needs besides the problem, horizon, and seed."""

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
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algo {self.algo!r}; known: {ALGORITHMS}")
        for name in ("gamma", "D", "L", "g_inf"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        ConjugatePair(self.q)  # every algorithm records q in its trace meta
        if self.algo in VR_ALGORITHMS:
            if self.D is None or self.L is None:
                raise ValueError(f"{self.algo} requires both D and L")
            if self.D <= 0:
                raise ValueError(f"trust radius D must be positive, got {self.D}")
            if self.L <= 0:
                raise ValueError(f"smoothness constant L must be positive, got {self.L}")
        if self.algo == "signsgd_plus" and (self.g_inf is None or self.g_inf <= 0):
            raise ValueError("signsgd_plus requires a positive g_inf")
        if self.float_bits < 1:
            raise ValueError(f"float_bits must be >= 1, got {self.float_bits}")


# float64 elements per buffer of the step loops: the noise drawn for one
# block of steps, and one seed's iterates of one snapshot chunk (or the
# premise tolerances of a few steps of a block)
_DRAW_ELEMENTS = 1 << 14
_SNAPSHOT_ELEMENTS = 1 << 12


def _sign_steps(gamma: float) -> np.ndarray:
    """[-gamma, gamma]: its take(g >= 0) is where(g >= 0, gamma, -gamma)."""
    return np.array([-gamma, gamma])


def _draw_blocks(rngs: Sequence[RngStream], n: int, width: int, T: int, d: int):
    """Yields (t0, idx, noise) per block of steps t0, t0 + 1, ...: the
    0-based component indices (steps, S) and noise cubes (steps, S, width)
    of every seed, decoded from its own stream, all seeds of a block in one
    vecmath.sample_steps call."""
    S = len(rngs)
    # even blocks start with no buffered half-word, so the streams stay on
    # the batched decoder from one block to the next
    block = max(2, min(T, _DRAW_ELEMENTS // (max(S, 1) * d)) & ~1)
    out = np.empty((block, S), dtype=np.int64), np.empty((block, S, width))
    for t0 in range(0, T, block):
        yield (t0, *sample_steps(rngs, n, width, min(block, T - t0), out))


class _Chunks:
    """Every seed's trace columns, one 1-D array per seed and column named
    as in Trace (COLUMNS), and the snapshot chunk where the step loops keep
    the iterates (and distances) of all S seeds, step-major. Row t of all
    seeds is the contiguous (S, d) block x[1 + t % size] (and
    dist[1 + t % size]), and the step from row t computes row t + 1 straight
    into its slot. On a chunk's last row, before the step from it, and at
    row T + 1, flush snapshots the chunk's rows per seed, copied contiguous
    so that the snapshot's BLAS calls see lda = d for every S, and adds them
    to the iterate sums. Chunk bounds depend on n and d alone, so a seed's f
    and gradient norms never depend on the other seeds of the call. The S
    seeds are fixed for the whole run: a failed seed steps on, errors holds
    each seed's first error (fail), and flush snapshots no failed seed."""

    COLUMNS = ("t", "f", "gnorm1", "gnorm2", "gnorm_inf", "k", "dist_to_ref",
               "bits_cum", "grad_evals_cum", "flags", "iterates")

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
        self.size = max(1, _SNAPSHOT_ELEMENTS // max(prob.n, prob.d))
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

    def check_finite(self, t: int) -> None:
        """Test the chunk's rows up to row t (0-based) before they are
        flushed, and fail every seed with a non-finite one. A non-finite
        coordinate never becomes finite again under a reference-free step,
        so a seed's first non-finite row is the iteration at which stepping
        that seed alone fails."""
        c = t % self.size
        finite = np.isfinite(self.x[1:c + 2])
        if finite.all():  # a whole-array test is far cheaper than one per row
            return
        bad = ~finite.all(axis=2)  # (rows, S)
        for s in np.flatnonzero(bad.any(axis=0)):
            self.fail(s, NonFiniteIterateError(t - c + int(np.argmax(bad[:, s]))))

    def flush(self, t: int) -> None:
        """Snapshot the chunk's rows up to row t (0-based) of every seed
        that has not failed, and add the rows before row T + 1 to the
        iterate sums."""
        c = t % self.size
        rows = slice(t - c, t + 1)
        for s, error in enumerate(self.errors):
            self.dist_to_ref[s][rows] = self.dist[1:c + 2, s]
            if error is not None:
                continue
            xs = np.ascontiguousarray(self.x[1:c + 2, s])
            fval, grad = self.prob.value_and_full_gradient_batch(xs)
            self.f[s][rows] = fval
            np.sqrt(row_dot(grad, grad), out=self.gnorm2[s][rows])
            ag = np.abs(grad, out=grad)
            np.add.reduce(ag, axis=1, out=self.gnorm1[s][rows])
            np.maximum.reduce(ag, axis=1, out=self.gnorm_inf[s][rows])
            if self.iterates[s] is not None:
                end = min(t + 1, self.T)  # row T+1 is no iterate
                self.iterates[s][t - c:end] = xs[:end - t + c]
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


def _run_vr(spec: RunSpec, prob: FiniteSumProblem, T: int, rngs: list[RngStream], chunks: _Chunks) -> None:
    """Inner loop of the reference-point methods, all seeds of a call at once.

    Row s of every (S, d) state array is seed s, and its arithmetic is that of
    oracles.reference_run on seed s alone, float operation for float
    operation: component gradients come from row-wise dots, distances from
    vecmath.norm_rows, and a rejected step refreshes its seed's reference
    with the one-vector full_gradient. The iterates and the references share
    one (2, S, d) buffer, so a step takes both component gradients in one
    component_gradient_batch call. ||x - ref||_q is carried across
    iterations: the accepted candidate's radius check IS the next step's
    distance. A sign step keeps its noise amplitude in a block buffer and
    its estimate v in the noise slot it has just used; after each block of
    draws, one pass over them sets FLAG_DEGENERATE where some coordinate's
    amplitude is 0 and checks the amplitude premise of every step of every
    seed (_Chunks.fail). An iterate stays finite without a check: a
    candidate with a non-finite coordinate has a non-finite radius, so it is
    rejected. k, bits_cum and grad_evals_cum follow from the refresh steps
    after the loop.
    """
    S = len(rngs)
    n, d = prob.n, prob.d
    gamma, D, L = spec.gamma, spec.D, spec.L
    variant = {"signsvrg_v1": 1, "signsvrg_v2": 2}.get(spec.algo, 0)  # 0: svrg
    pair = ConjugatePair(spec.q)
    comp_grads = prob.component_gradient_batch
    move_bits = d * spec.float_bits if variant == 0 else d
    sync_bits = n * d * spec.float_bits

    def amp_floor(grad: np.ndarray) -> np.ndarray | float:
        """What the amplitude adds to L ||x - ref||_q at a reference with
        full gradient grad."""
        return np.abs(grad) if variant == 2 else norm(grad, pair.p)

    x1 = np.array(spec.x1, dtype=np.float64)
    xr = np.empty((2, S, d))  # row 0: this step's iterates, row 1: the references
    xr[1] = x1
    ref = xr[1]
    g = prob.full_gradient(x1)
    ref_grad = np.tile(g, (S, 1))
    floor = np.array([amp_floor(g)] * S)  # (S,) for variant 1, (S, d) for 2
    chunk_x, chunk_dist, chunk_size = chunks.x, chunks.dist, chunks.size
    sign_steps = _sign_steps(gamma)
    diff = np.empty((S, d))  # candidate minus reference

    for t0, idx, noise in _draw_blocks(rngs, n, d if variant else 0, T, d):
        if t0 == 0 and variant:  # the first block is the longest
            amps = np.empty(noise.shape if variant == 2 else idx.shape)
        for j in range(len(idx)):
            t = t0 + j
            slot = 1 + t % chunk_size
            if slot == chunk_size:
                chunks.flush(t)
            nxt = slot % chunk_size + 1
            xr[0] = chunk_x[slot]
            x = xr[0]
            g = comp_grads(idx[j], xr)
            if variant:
                u = noise[j]
                drift = L * chunk_dist[slot]
                if variant == 1:
                    amp = np.add(drift, floor, out=amps[j])[:, None]
                else:
                    amp = np.add(drift[:, None], floor, out=amps[j])
                arg = amp * u
                v = np.subtract(g[0], g[1], out=u)  # into the used-up noise slot
                v += ref_grad
                arg = np.add(v, arg, out=arg)
                cand = np.subtract(x, sign_steps.take(arg >= 0.0), out=chunk_x[nxt])
            else:
                cand = np.subtract(x, gamma * (g[0] - g[1] + ref_grad), out=chunk_x[nxt])
            rad = norm_rows(np.subtract(cand, ref, out=diff), pair.q, out=chunk_dist[nxt])
            if not np.maximum.reduce(rad) <= D:  # also when a radius is NaN
                for s in np.flatnonzero(~(rad <= D)):
                    ref[s] = cand[s] = x[s]
                    rad[s] = 0.0
                    g = prob.full_gradient(ref[s])
                    ref_grad[s] = g
                    if variant:
                        floor[s] = amp_floor(g)
                    chunks.k[s][t + 1] = 1  # summed into k below
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
            rows = max(1, _SNAPSHOT_ELEMENTS // amp[0].size)
            for r in range(0, steps, rows):
                a, w = amp[r:r + rows], v[r:r + rows]
                tol = a + 1.0
                tol *= 1e-9
                tol += a
                w = np.abs(w, out=w)
                held[r:r + rows] = np.maximum.reduce(w, axis=2) <= tol if variant == 1 else (w <= tol).all(axis=2)
            for s in np.flatnonzero(~held.all(axis=0)):
                chunks.fail(s, AssertionError("noise amplitude violated"))
    steps_done = np.arange(T + 1)
    for k, bits, evals in zip(chunks.k, chunks.bits_cum, chunks.grad_evals_cum):
        refreshes = np.cumsum(k, out=k)
        bits[:] = sync_bits + steps_done * move_bits + refreshes * (sync_bits - move_bits)
        evals[:] = n + 2 * steps_done + refreshes * n
        refreshes += 1


def _both_steps(a: np.ndarray, b: np.ndarray, algo: str, gamma: float, idx: np.ndarray, noise: np.ndarray,
                bufs: tuple[np.ndarray | None, ...]) -> tuple[np.ndarray, ...]:
    """The rows a_i, the targets b_i and the two steps (up, down) that a
    block of draws idx can give, (steps, S[, d]) each, for a problem whose
    subgradients are +-a_i (FiniteSumProblem.subgradient_rows): up is the
    step from +a_i, down the one from -a_i, each with the float operations
    of the step from component_gradient_batch's +a_i or -a_i. bufs holds
    rows, targets, down and up, at least `steps` long; signsgd_plus has no
    up buffer and computes up in the noise, which is then used up."""
    rows, targets, down, up = (None if buf is None else buf[:len(idx)] for buf in bufs)
    # the draws are valid indices, and clip takes no buffered copy
    a.take(idx, axis=0, out=rows, mode="clip")
    b.take(idx, out=targets, mode="clip")
    np.negative(rows, out=down)
    if algo == "sgd":
        np.multiply(rows, gamma, out=up)
        down *= gamma
        return rows, targets, up, down
    if algo == "signsgd_plus":
        down += noise
        up = np.add(noise, rows, out=noise)
    else:
        np.copyto(up, rows)
    sign_steps = _sign_steps(gamma)
    for g in (up, down):
        sign_steps.take(g >= 0.0, out=g, mode="clip")
    return rows, targets, up, down


def _run_ref_free(spec: RunSpec, prob: FiniteSumProblem, T: int, rngs: list[RngStream], chunks: _Chunks) -> None:
    """Inner loop of the reference-free methods, all seeds of a call at once.

    Row s of the (S, d) iterate is seed s, and its arithmetic is that of
    oracles.reference_run on seed s alone, bit for bit: component gradients
    come from component_gradient_batch, and signgd, whose rows all start at
    x1 and draw nothing, takes the one-vector full_gradient of row 0 and
    broadcasts its step over the rows. signsgd_plus scales a block's noise
    by g_inf in one multiply. When the problem's subgradients are +-a_i
    (subgradient_rows), both steps of every draw are computed once per
    block (_both_steps), and a step is one row dot, one a_i^T x >= b_i
    (which is a_i^T x - b_i >= 0 bit for bit, NaN included, for finite
    b_i), one select and one subtract. The iterates are tested for
    finiteness once per chunk (_Chunks.check_finite). bits_cum and
    grad_evals_cum are the steps done times the per-step costs.
    """
    n, d = prob.n, prob.d
    algo, gamma, g_inf = spec.algo, spec.gamma, spec.g_inf
    step_bits = {"signgd": n * d * spec.float_bits, "sgd": d * spec.float_bits}.get(algo, d)
    step_evals = n if algo == "signgd" else 1
    sign_steps = _sign_steps(gamma)
    signed_rows = None if algo == "signgd" else prob.subgradient_rows()

    chunk_size = chunks.size
    slots = list(chunks.x)  # the (S, d) row of every slot
    draws = () if algo == "signgd" else rngs
    for t0, idx, noise in _draw_blocks(draws, n, d if algo == "signsgd_plus" else 0, T, d):
        if algo == "signsgd_plus":
            noise *= g_inf
        if signed_rows is not None:
            if t0 == 0:  # the first block is the longest
                shape = (*idx.shape, d)
                bufs = (np.empty(shape), np.empty(idx.shape), np.empty(shape),
                        None if algo == "signsgd_plus" else np.empty(shape))
            rows, targets, up, down = _both_steps(*signed_rows, algo, gamma, idx, noise, bufs)
        for j in range(len(idx)):
            t = t0 + j
            slot = 1 + t % chunk_size
            if slot == chunk_size:
                chunks.check_finite(t)
                chunks.flush(t)
            x, nxt = slots[slot], slots[slot % chunk_size + 1]
            if signed_rows is not None:
                pick = row_dot(rows[j], x) >= targets[j]
                np.subtract(x, np.where(pick[:, None], up[j], down[j]), out=nxt)
                continue
            if algo == "signgd":
                g = prob.full_gradient(x[0])  # every row equals row 0
            else:
                g = prob.component_gradient_batch(idx[j], x)
            if algo == "sgd":
                g *= gamma
                np.subtract(x, g, out=nxt)
            else:
                if algo == "signsgd_plus":
                    g += noise[j]
                np.subtract(x, sign_steps.take(g >= 0.0), out=nxt)
    chunks.check_finite(T)
    steps_done = np.arange(T + 1)
    for bits, evals in zip(chunks.bits_cum, chunks.grad_evals_cum):
        bits[:] = steps_done * step_bits
        evals[:] = steps_done * step_evals


def run_seeds(spec: RunSpec, prob: FiniteSumProblem, T: int, seeds: Sequence[int]) -> list[Trace]:
    """Execute T iterations for every seed, all seeds stepped as one fixed
    batch, and record one trace per seed (see the trace module for the row
    conventions); a seed's trace does not depend on the other seeds. Aborts
    with AssertionError if a signed variance-reduced step breaks its
    amplitude premise, and with NonFiniteIterateError if an iterate of a
    reference-free method leaves the finite floats. A failed seed steps on
    with the others; the error raised is that of the first failed seed in
    seed order, as running the seeds one after another would raise."""
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
    loop = _run_vr if spec.algo in VR_ALGORITHMS else _run_ref_free
    loop(spec, prob, T, rngs, chunks)
    for error in chunks.errors:  # the first failed seed's, in seed order
        if error is not None:
            raise error
    chunks.flush(T)

    x_final = chunks.x[1 + T % chunks.size]  # row T + 1 of every seed
    traces = []
    for s, seed in enumerate(seeds):
        meta = {
            "algo": spec.algo,
            "gamma": spec.gamma,
            "q": spec.q,
            "D": spec.D,
            "L": spec.L,
            "g_inf": spec.g_inf,
            "float_bits": spec.float_bits,
            "T": T,
            "seed": seed,
            "n": prob.n,
            "d": prob.d,
        }
        traces.append(Trace(
            **{name: getattr(chunks, name)[s] for name in chunks.COLUMNS},
            x1=x1.copy(),
            x_mean=chunks.x_sum[s] / T,
            x_final=x_final[s].copy(),
            meta=meta,
        ))
    return traces


def run(spec: RunSpec, prob: FiniteSumProblem, T: int, seed: int) -> Trace:
    """run_seeds for the single seed `seed`."""
    return run_seeds(spec, prob, T, (seed,))[0]

