"""Independent oracles used to cross-check the main implementation.

Nothing here shares code with the optimizers or analysis: norms are
re-derived by brute force, expectations by direct integration or Monte Carlo,
dynamics by closed-form recursions or by stepping one seed a step at a time
from the problems' one-vector kernels (reference_run), gradients by finite
differences. Tests compare the two routes, and the CLI's
verify-key-identity compares expected_sign_analytic with
monte_carlo_expected_sign.
"""
from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

import numpy as np

from .trace import FLAG_DEGENERATE
from .vecmath import ConjugatePair, RngStream, norm

if TYPE_CHECKING:
    from .optimizers import RunSpec
    from .problems import FiniteSumProblem

__all__ = [
    "expected_sign_analytic",
    "monte_carlo_expected_sign",
    "counterexample_drift",
    "brute_force_opnorm",
    "signgd_1d_closed_form",
    "masked_sigmoid",
    "softplus_libm",
    "reference_run",
    "sign_vec",
    "finite_diff_gradient",
    "estimate_lipschitz_empirical",
]

# slopes of the three linear-plus-quadratic components in the drift instance
_DRIFT_SLOPES = (-3.0, 1.0, 1.0)


def expected_sign_analytic(g: float, G: float) -> float:
    """E[sign(g + G*U)] for U uniform on [-1, 1].

    Equals g/G when |g| <= G (the noise linearizes the sign), and saturates at
    +-1 when the noise amplitude cannot flip the sign.
    """
    if G <= 0:
        raise ValueError(f"noise amplitude G must be positive, got {G}")
    return float(np.clip(g / G, -1.0, 1.0))


def monte_carlo_expected_sign(
    g: float, G: float, n_samples: int, rng: RngStream
) -> tuple[float, float]:
    """Monte Carlo estimate of E[sign(g + G*U)]; returns (mean, stderr)."""
    if G <= 0:
        raise ValueError(f"noise amplitude G must be positive, got {G}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    u = rng.generator.uniform(-1.0, 1.0, size=n_samples)
    s = np.where(g + G * u >= 0.0, 1.0, -1.0)
    mean = float(s.mean())
    stderr = float(s.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return mean, stderr


def counterexample_drift(x: float) -> float:
    """Mean of sign(x + a_i) over the slopes a = (-3, 1, 1), sign(0) = +1.

    This is the expected descent direction (up to the -gamma factor) of
    stochastic sign descent on the instance f_i(x) = (x + a_i)^2 / 2. It is +1/3
    on (-1, 3), so the method drifts away from the optimum x* = 1/3.
    """
    total = 0.0
    for a in _DRIFT_SLOPES:
        total += 1.0 if x + a >= 0.0 else -1.0
    return total / len(_DRIFT_SLOPES)


def _jacobi_spectral_norm(m: np.ndarray) -> float:
    """Largest singular value via cyclic Jacobi on the Gram matrix M^T M."""
    a = m.T @ m
    d = a.shape[0]
    for _ in range(100 * d * d + 100):
        # largest off-diagonal pivot
        off = np.abs(a - np.diag(np.diag(a)))
        i, j = np.unravel_index(np.argmax(off), off.shape)
        if off[i, j] <= 1e-14 * max(1.0, np.abs(np.diag(a)).max()):
            break
        # 2x2 symmetric rotation annihilating a[i, j]
        theta = 0.5 * math.atan2(2.0 * a[i, j], a[i, i] - a[j, j])
        c, s = math.cos(theta), math.sin(theta)
        rot = np.eye(d)
        rot[i, i] = c
        rot[j, j] = c
        rot[i, j] = -s
        rot[j, i] = s
        a = rot.T @ a @ rot
        a = 0.5 * (a + a.T)  # keep symmetric against roundoff
    lam = max(0.0, float(np.diag(a).max()))
    return math.sqrt(lam)


def brute_force_opnorm(m: np.ndarray, q: float) -> float:
    """Operator norm of M from l_q to its Holder conjugate, by enumeration.

    q=1: maximize over the l_1 ball's extreme points (+-e_k), i.e. columns.
    q=inf: maximize ||M s||_1 over all sign vectors s in {-1, +1}^d.
    q=2: largest singular value via a self-contained Jacobi eigensolver.
    Refuses d > 12; this is a test oracle, not a production routine.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    d = m.shape[1]
    if d > 12 or m.shape[0] > 12:
        raise ValueError(f"brute-force oracle limited to d <= 12, got {m.shape}")
    if q == 1:
        best = 0.0
        for k in range(d):  # columns of M are the images of the extreme points
            best = max(best, float(np.abs(m[:, k]).max()))
        return best
    if q == math.inf:
        best = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=d):
            best = max(best, float(np.abs(m @ np.array(signs)).sum()))
        return best
    if q == 2:
        return _jacobi_spectral_norm(m)
    raise ValueError(f"q must be one of {{1, 2, inf}}, got {q!r}")


def signgd_1d_closed_form(x1: float, gamma: float, T: int) -> np.ndarray:
    """|x_t| for t = 1..T under the scalar recursion |x_{t+1}| = ||x_t| - gamma|.

    This is the exact absolute-value trajectory of full-gradient sign descent
    on f(x) = x^2/2: the step is always +-gamma, so |x| decreases by gamma
    until it lands within [0, gamma) and then oscillates forever. In
    particular max(|x_t|, |x_{t+1}|) >= gamma/2 for all t, so no linear rate
    is possible.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    out = np.empty(T)
    a = abs(x1)
    for t in range(T):
        out[t] = a
        a = abs(a - gamma)
    return out


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid by two masked branches: 1/(1 + exp(-z)) where z >= 0
    and exp(z)/(1 + exp(z)) elsewhere, each evaluated on its own gather.

    The bitwise reference for LogisticProblem._sigmoid, which must give the
    same bits from one exp over the whole array.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus_libm(w: float) -> float:
    """log(1 + e^w) from scalar libm calls, in the branches of numpy's
    logaddexp(0, w): log(2) at 0, w + log1p(e^-w) above it and log1p(e^w)
    below.

    The bitwise reference for the logistic values, which must come from
    np.logaddexp rather than from numpy's vectorized exp and log1p: those
    round differently on several percent of elements.
    """
    if w == 0.0:
        return math.log(2.0)
    if w > 0.0:
        return w + math.log1p(math.exp(-w))
    return math.log1p(math.exp(w))


def sign_vec(v: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = +1, so the output is always in {-1, +1}."""
    return np.where(np.asarray(v) >= 0.0, 1.0, -1.0)


def reference_run(spec: RunSpec, prob: FiniteSumProblem, T: int, seed: int) -> dict[str, np.ndarray]:
    """One seed of optimizers.run_seeds, stepped one step at a time.

    Each step calls the seed's Generator itself (the index, then the noise
    cube of the noisy sign methods) and the one-vector component_gradient
    and full_gradient, and measures radii with vecmath.norm. The bitwise
    reference for the seed-batched loop: returns the trace columns
    x_final, iterates (rows 1..T), k, dist_to_ref, bits_cum, grad_evals_cum
    and flags, which run_seeds must reproduce exactly.
    """
    gen = RngStream(seed).generator
    n, d, algo, gamma, q = prob.n, prob.d, spec.algo, spec.gamma, spec.q
    vr = algo in ("signsvrg_v1", "signsvrg_v2", "svrg")
    unsigned = algo in ("sgd", "svrg")
    sync_bits = n * d * spec.float_bits
    step_bits = sync_bits if algo == "signgd" else d * spec.float_bits if unsigned else d
    step_evals = n if algo == "signgd" else 2 if vr else 1
    x = np.array(spec.x1, dtype=np.float64)
    ref, ref_grad = x, prob.full_gradient(x)
    k, bits, evals = (1, sync_bits, n) if vr else (0, 0, 0)
    rows, flags, iterates = [], [], np.empty((T, d))
    for t in range(T):
        iterates[t] = x
        dist = norm(x - ref, q) if vr else 0.0
        rows.append((k, dist, bits, evals))
        if algo != "signgd":
            i = int(gen.integers(1, n, endpoint=True)) - 1
        if algo in ("signsgd_plus", "signsvrg_v1", "signsvrg_v2"):
            u = gen.uniform(-1.0, 1.0, d)
        if algo == "signgd":
            g = prob.full_gradient(x)
        elif vr:
            g = prob.component_gradient(i, x) - prob.component_gradient(i, ref) + ref_grad
        else:
            g = prob.component_gradient(i, x)
        flag = 0
        if algo == "signsgd_plus":
            g = g + spec.g_inf * u
        elif algo in ("signsvrg_v1", "signsvrg_v2"):
            if algo == "signsvrg_v1":
                amp = np.full(d, spec.L * dist + norm(ref_grad, ConjugatePair(q).p))
            else:
                amp = spec.L * dist + np.abs(ref_grad)
            # an explicit raise, so that the premise is also checked under -O
            if not np.all(np.abs(g) <= amp + 1e-9 * (1.0 + amp)):
                raise AssertionError("noise amplitude violated")
            flag = FLAG_DEGENERATE if np.any(amp == 0.0) else 0
            g = g + amp * u
        flags.append(flag)
        cand = x - gamma * g if unsigned else x - gamma * sign_vec(g)
        if not vr or norm(cand - ref, q) <= spec.D:
            x, bits, evals = cand, bits + step_bits, evals + step_evals
        else:  # the iterate stands still and the reference moves to it
            ref, ref_grad, k = x, prob.full_gradient(x), k + 1
            bits, evals = bits + sync_bits, evals + 2 + n
    rows.append((k, norm(x - ref, q) if vr else 0.0, bits, evals))
    k_col, dist_col, bits_col, evals_col = (np.array(c) for c in zip(*rows))
    return {"x_final": x, "iterates": iterates, "k": k_col, "dist_to_ref": dist_col,
            "bits_cum": bits_col, "grad_evals_cum": evals_col, "flags": np.array(flags + [0])}


def finite_diff_gradient(prob: FiniteSumProblem, i: int, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of component i with per-coordinate step
    h * (1 + |x_j|)."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for j in range(len(x)):
        hj = h * (1.0 + abs(float(x[j])))
        e = np.zeros_like(x)
        e[j] = hj
        g[j] = (prob.component_value(i, x + e) - prob.component_value(i, x - e)) / (2.0 * hj)
    return g


def estimate_lipschitz_empirical(
    prob: FiniteSumProblem, q: float, rng: RngStream, trials: int
) -> float:
    """Empirical lower estimate of L_q: max over sampled (i, x, y) of the
    gradient-difference ratio. Never exceeds the analytic constant."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    pair = ConjugatePair(q)
    gen = rng.generator
    best = 0.0
    for _ in range(trials):
        i = int(gen.integers(0, prob.n))
        x = gen.standard_normal(prob.d)
        # mix global and local probes; curvature may vary across scales
        y = x + gen.standard_normal(prob.d) * float(gen.choice([1.0, 1e-3]))
        denom = norm(x - y, q)
        if denom == 0.0:
            continue
        num = norm(prob.component_gradient(i, x) - prob.component_gradient(i, y), pair.p)
        best = max(best, num / denom)
    return best
