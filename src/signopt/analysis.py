"""Evaluators that check convergence/accounting bounds on recorded traces.

Each evaluator takes a seed batch, computes the bound's two sides per seed
and returns the BoundReport that _make_report builds from them by one of
two rules. Monte Carlo, for claims about expectations: the seed means of
the sides, and holds <=> lhs <= rhs + tol, tol being 3 standard errors of
the per-seed (lhs - rhs) gap, floored at 1e-12. Exact at relative tolerance
rel_tol, for claims that hold seed by seed: the worst seed's sides (largest
lhs - rhs, the first on ties) and its tol = rel_tol |rhs|, holding iff
every seed has lhs <= rhs + rel_tol |rhs|.

Evaluators never mutate traces. They read the run's parameters (gamma, D,
L, q, g_inf, float_bits, T, d, n) from the traces' meta, so a bound is only
ever evaluated at the parameters the run used, and take as arguments only
what a trace cannot hold: f*, x*, the reference period P and the problem.
A batch that is empty, whose traces disagree on a recorded parameter, that
lacks one the bound needs (traces read back from a file carry no meta), or
whose algorithm is not one the bound is stated for (_STATED_FOR) raises a
ValueError naming the cause.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizers import VR_ALGORITHMS
from .problems import FiniteSumProblem
from .trace import Trace
from .vecmath import ConjugatePair, RngStream, norm, sample_unit_sphere

__all__ = [
    "BoundReport",
    "Example1Stats",
    "svrg_grad_bound_v1",
    "svrg_grad_bound_v2",
    "svrg_gap_bound",
    "regret_bound",
    "final_gap_bound",
    "signgd_bound",
    "rate_metrics",
    "update_count_bound",
    "comm_bits_bound",
    "example1_stats",
    "linf_constant_expected",
]

# the algorithms each bound is stated for, by the name of its check in
# harness.CHECKS, which applies each check to these algorithms only
_STATED_FOR = {
    "svrg_grad_bound_v1": ("signsvrg_v1",),
    "svrg_grad_bound_v2": ("signsvrg_v2",),
    "svrg_gap_bound": ("signsvrg_v1",),
    "regret_bound": ("signsgd_plus",),
    "final_gap_bound": ("signsgd_plus",),
    "signgd_bound": ("signgd",),
    "rate_bounds_v1": ("signsvrg_v1",),
    "rate_bounds_v2": ("signsvrg_v2",),
    "update_count_bound": VR_ALGORITHMS,
    "comm_bits_bound": VR_ALGORITHMS,
}

# the parameters every trace of a batch must agree on
_RECORDED = ("algo", "gamma", "D", "L", "q", "g_inf", "float_bits", "T", "d", "n")
_TOL_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float
    tol: float
    holds: bool
    n_seeds: int


def _make_report(name: str, lhs_per_seed, rhs_per_seed, rel_tol: float | None = None) -> BoundReport:
    """The report of the per-seed sides by the Monte Carlo rule (rel_tol
    None) or the exact one, in plain python scalars that json.dump takes."""
    lhs_arr = np.asarray(lhs_per_seed, dtype=np.float64)
    rhs_arr = np.asarray(rhs_per_seed, dtype=np.float64)
    n = len(lhs_arr)
    if rel_tol is not None:
        slack = rel_tol * np.abs(rhs_arr)
        i = int(np.argmax(lhs_arr - rhs_arr))
        return BoundReport(name, float(lhs_arr[i]), float(rhs_arr[i]), float(slack[i]),
                           bool(np.all(lhs_arr <= rhs_arr + slack)), n)
    lhs = float(lhs_arr.mean())
    rhs = float(rhs_arr.mean())
    if n > 1:
        gap = lhs_arr - rhs_arr
        tol = max(_TOL_FLOOR, 3.0 * float(gap.std(ddof=1)) / math.sqrt(n))
    else:
        tol = _TOL_FLOOR
    return BoundReport(name, lhs, rhs, tol, lhs <= rhs + tol, n)


def _run_params(traces: list[Trace], bound: str | tuple[str, ...], *names: str) -> tuple:
    """The recorded parameters `names` of the run that made a trace batch
    for the check `bound` (or for any of a tuple of checks).

    Raises ValueError on an empty batch, on traces that disagree on any
    recorded parameter, on one of an algorithm the bound is not stated for,
    and on a batch that does not record one of `names`."""
    if not traces:
        raise ValueError("need at least one trace")
    for key in _RECORDED:
        vals = {tr.meta.get(key) for tr in traces}
        if len(vals) != 1:
            raise ValueError(f"traces disagree on {key}: {sorted(map(str, vals))}")
    meta = traces[0].meta
    missing = [key for key in names if meta.get(key) is None]
    bounds = (bound,) if isinstance(bound, str) else bound
    algos = [algo for name in bounds for algo in _STATED_FOR[name]]
    # a recorded algorithm is checked first, since another algorithm need
    # not record the parameters this bound reads
    if meta.get("algo") not in algos and (meta.get("algo") is not None or not missing):
        raise ValueError(f"{' and '.join(bounds)} is stated for {', '.join(algos)}, "
                         f"not for traces of {meta.get('algo')!r}")
    if missing:
        raise ValueError(f"traces do not record the run's {missing[0]}; the bound needs it")
    return tuple(meta[key] for key in names)


def _descent_rhs(delta, T: int, gamma: float, L: float, q: float, d: int):
    """The descent bound delta/(T gamma) + L gamma d^{2/q} / 2 behind the
    smooth rates, where delta is f(x_1) less f(x_{T+1}) or f*."""
    return delta / (T * gamma) + L * gamma * ConjugatePair(q).dim_root(d) ** 2 / 2.0


def _cor1_gamma(L: float, T: int, q: float, d: int) -> float:
    """cor1's step sqrt(2/(L T)) / d^{1/q}, which minimizes _descent_rhs at
    delta = 1: harness's cor1 rule sets gamma with it and rate_metrics
    requires it of its traces, so the two agree exactly."""
    return math.sqrt(2.0 / (L * T)) / ConjugatePair(q).dim_root(d)


def _distance_rhs(dist: float, gamma: float, d: int, T: int) -> float:
    """The distance bound (dist^2/gamma + gamma d T)/2, dist = ||x_1 - x*||_2."""
    return (dist**2 / gamma + gamma * d * T) / 2.0


def _distance_gamma(alpha: float, d: int, T: int) -> float:
    """cor2's and sec2's step alpha / sqrt(d T), minimizing _distance_rhs at dist = alpha."""
    return alpha / math.sqrt(d * T)


def _gaps(values, f_star: float) -> np.ndarray:
    """values - f*, raising a ValueError when a value lies more than 1e-9
    below f*, which signals a wrong f* or corrupted data."""
    gap = np.asarray(values, dtype=np.float64) - f_star
    if np.any(gap < -1e-9):
        raise ValueError(f"value {np.min(values)} is below the claimed optimum {f_star}; "
                         "corrupted data or wrong f_star")
    return gap


def svrg_grad_bound_v1(traces: list[Trace]) -> BoundReport:
    """Descent bound of the scalar-amplitude variance-reduced sign method:

    E[(1/T) sum_t ||grad f(x_t)||_2^2 / (2 L D + ||grad f(x_t)||_p)]
        <= E[_descent_rhs(f(x_1) - f(x_{T+1}))].
    """
    L, D, q, gamma, T, d = _run_params(traces, "svrg_grad_bound_v1", "L", "D", "q", "gamma", "T", "d")
    p = ConjugatePair(q).p
    lhs, rhs = [], []
    for tr in traces:
        g2 = tr.gnorm2[:T]
        lhs.append(np.mean(g2 * g2 / (2.0 * L * D + tr.gnorm(p)[:T])))
        rhs.append(_descent_rhs(tr.f[0] - tr.f[T], T, gamma, L, q, d))
    return _make_report("svrg_grad_bound_v1", lhs, rhs)


def svrg_grad_bound_v2(traces: list[Trace]) -> BoundReport:
    """Same rhs as variant 1; lhs uses the l_1 gradient norm against the
    coordinatewise amplitude: ||g||_1^2 / (2 L d D + ||g||_1)."""
    L, D, q, gamma, T, d = _run_params(traces, "svrg_grad_bound_v2", "L", "D", "q", "gamma", "T", "d")
    lhs, rhs = [], []
    for tr in traces:
        g1 = tr.gnorm1[:T]
        lhs.append(np.mean(g1 * g1 / (2.0 * L * d * D + g1)))
        rhs.append(_descent_rhs(tr.f[0] - tr.f[T], T, gamma, L, q, d))
    return _make_report("svrg_grad_bound_v2", lhs, rhs)


def svrg_gap_bound(traces: list[Trace], f_star: float, x_star: np.ndarray) -> BoundReport:
    """Convex optimality-gap bound of the variance-reduced sign method:

    E[(1/T) sum_t (f(x_t) - f*) / (2 L D + sqrt(2 L (f(x_t) - f*)))]
        <= _distance_rhs / T = ||x_1 - x*||^2 / (2 T gamma) + gamma d / 2.
    """
    L, D, gamma, T, d = _run_params(traces, "svrg_gap_bound", "L", "D", "gamma", "T", "d")
    lhs, rhs = [], []
    for tr in traces:
        gap = np.maximum(_gaps(tr.f[:T], f_star), 0.0)
        lhs.append(np.mean(gap / (2.0 * L * D + np.sqrt(2.0 * L * gap))))
        rhs.append(_distance_rhs(float(norm(tr.x1 - x_star, 2)), gamma, d, T) / T)
    return _make_report("svrg_gap_bound", lhs, rhs)


def regret_bound(traces: list[Trace], f_star: float, x_star: np.ndarray) -> BoundReport:
    """Regret of the noise-corrupted sign method on convex Lipschitz problems:

    E[sum_t (f(x_t) - f*)] <= G_inf _distance_rhs = (G_inf / 2) (||x_1 - x*||^2 / gamma + gamma d T).
    """
    g_inf, gamma, T, d = _run_params(traces, "regret_bound", "g_inf", "gamma", "T", "d")
    lhs = [float(_gaps(tr.f[:T], f_star).sum()) for tr in traces]
    rhs = [g_inf * _distance_rhs(float(norm(tr.x1 - x_star, 2)), gamma, d, T) for tr in traces]
    return _make_report("regret_bound", lhs, rhs)


def final_gap_bound(traces: list[Trace], prob: FiniteSumProblem, f_star: float, x_star: np.ndarray) -> BoundReport:
    """Gap of the averaged iterate, regret_bound's rhs over T at any gamma:

    E[f(xbar_T) - f*] <= G_inf _distance_rhs / T,

    which at the tuned step gamma = ||x_1 - x*|| / sqrt(dT) is
    G_inf ||x_1 - x*||_2 sqrt(d / T).
    """
    g_inf, gamma, T, d = _run_params(traces, "final_gap_bound", "g_inf", "gamma", "T", "d")
    lhs = _gaps([prob.value(tr.x_mean) for tr in traces], f_star)
    rhs = [g_inf * _distance_rhs(float(norm(tr.x1 - x_star, 2)), gamma, d, T) / T for tr in traces]
    return _make_report("final_gap_bound", lhs, rhs)


def signgd_bound(traces: list[Trace], f_star: float) -> BoundReport:
    """Deterministic full-gradient sign descent bound, for every seed:

    (1/T) sum_t ||grad f(x_t)||_1 <= _descent_rhs(f(x_1) - f*),

    checked by the exact rule at relative tolerance 1e-8.
    """
    L, q, gamma, T, d = _run_params(traces, "signgd_bound", "L", "q", "gamma", "T", "d")
    lhs = [np.mean(tr.gnorm1[:T]) for tr in traces]
    rhs = [_descent_rhs(tr.f[0] - f_star, T, gamma, L, q, d) for tr in traces]
    return _make_report("signgd_bound", lhs, rhs, rel_tol=1e-8)


def rate_metrics(traces: list[Trace], f_star: float) -> tuple[BoundReport, BoundReport]:
    """Rate bounds under the smoothness-scaled schedule cor1, whose step is
    _cor1_gamma; traces run at any other gamma raise a ValueError naming
    gamma. Under cor1, D = P sqrt(2/(L T)) for reference period P.

    Returns (rate_v1_either_bound, rate_max_bound). Gradient norms are
    per-seed time-averages, i.e. Monte Carlo estimates of E||grad f(x_out)||
    at a uniformly selected iterate. Variant 1's rate holds when either
    branch does:

        radius: E||g||_p <= 2 L D  (= 2 P sqrt(2L/T))
        ratio:  (E||g||_2)^2 / E||g||_p <= 2 _descent_rhs(f(x_1) - f*)
                                          (= d^{1/q} (f(x_1) - f* + 1) sqrt(2L/T))

    where the ratio is taken per seed (not debiased). Its report carries the
    radius branch's sides unless only the ratio branch holds. Variant 2's:

        E||g||_1 <= max(2 _descent_rhs(f(x_1) - f*), 2 L D d).
    """
    gamma, D, L, q, T, d = _run_params(traces, ("rate_bounds_v1", "rate_bounds_v2"),
                                       "gamma", "D", "L", "q", "T", "d")
    if gamma != (cor1 := _cor1_gamma(L, T, q, d)):
        raise ValueError(f"the rate bounds are stated at cor1's gamma {cor1!r}, not at the traces' gamma {gamma!r}")
    p = ConjugatePair(q).p
    per_p = np.array([float(np.mean(tr.gnorm(p)[:T])) for tr in traces])
    per_2 = np.array([float(np.mean(tr.gnorm2[:T])) for tr in traces])
    per_1 = np.array([float(np.mean(tr.gnorm1[:T])) for tr in traces])
    f_x1 = float(np.mean([tr.f[0] for tr in traces]))
    descent = 2.0 * _descent_rhs(f_x1 - f_star, T, gamma, L, q, d)

    n, reach = len(traces), 2.0 * L * D
    radius = _make_report("rate_v1_either_bound", per_p, np.full(n, reach))
    ratio = _make_report("rate_v1_either_bound", per_2**2 / per_p, np.full(n, descent))
    v1 = ratio if ratio.holds and not radius.holds else radius
    return v1, _make_report("rate_max_bound", per_1, np.full(n, max(descent, d * reach)))


def update_count_bound(traces: list[Trace], P: float) -> BoundReport:
    """Reference refreshes are rare: k(T) <= ceil(T / P), exactly (tol 0).

    Reads row T, after T - 1 steps, as comm_bits_bound does, and only the k
    column, so traces read back from a file qualify."""
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    return _make_report("update_count_bound", [tr.k[tr.T - 1] for tr in traces],
                        [math.ceil(tr.T / P) for tr in traces], rel_tol=0.0)


def comm_bits_bound(traces: list[Trace], P: float) -> BoundReport:
    """Communication after T iterations: bits_cum(T) <= d (F n + P - 1) ceil(T/P),
    exactly (tol 0).

    The worst case packs one reference sync (n d F bits) plus P - 1 sign
    vectors (d bits each) into every period of P iterations; the initial
    sync occupies the first period's sync slot.

    Reads row T, after T - 1 steps: at T = P with no refresh, row T meets
    the cap exactly and row T + 1, after the full run, exceeds it by d bits.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    float_bits, n, d = _run_params(traces, "comm_bits_bound", "float_bits", "n", "d")
    return _make_report("comm_bits_bound", [tr.bits_cum[tr.T - 1] for tr in traces],
                        [d * (float_bits * n + P - 1) * math.ceil(tr.T / P) for tr in traces], rel_tol=0.0)


@dataclass(frozen=True)
class Example1Stats:
    """Per-sample smoothness constants of f(x) = (zeta^T x)^2 / 2 for random
    unit directions zeta: l1 = ||zeta||_inf^2, l2 = ||zeta||_2^2 (spectral
    norm of the rank-one Hessian, always 1), linf = ||zeta||_1^2."""

    d: int
    l1: np.ndarray
    l2: np.ndarray
    linf: np.ndarray

    @property
    def mean_l1(self) -> float:
        return float(self.l1.mean())

    @property
    def mean_linf(self) -> float:
        return float(self.linf.mean())

    def stderr_linf(self) -> float:
        return float(self.linf.std(ddof=1) / math.sqrt(len(self.linf)))


def linf_constant_expected(d: int) -> float:
    """Exact E[||zeta||_1^2] for zeta uniform on the unit sphere in R^d:
    (1 - 2/pi) + (2/pi) d."""
    return (1.0 - 2.0 / math.pi) + (2.0 / math.pi) * d


def example1_stats(d: int, n_samples: int, rng: RngStream) -> Example1Stats:
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    l1 = np.empty(n_samples)
    l2 = np.empty(n_samples)
    linf = np.empty(n_samples)
    for s in range(n_samples):
        z = sample_unit_sphere(rng, d)
        az = np.abs(z)
        l1[s] = az.max() ** 2
        l2[s] = float(z @ z)
        linf[s] = az.sum() ** 2
    return Example1Stats(d=d, l1=l1, l2=l2, linf=linf)

