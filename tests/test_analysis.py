"""Bound evaluators and the communication arithmetic.

The communication tests reproduce a worked budget by hand: with d=5, F=32,
n=4, P=8 the per-epoch budget is d(Fn + P - 1) bits, so two epochs give
5 * 135 * 2 = 1350, and at T = P the accounting is exactly tight.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from signopt.analysis import (
    BoundReport,
    _make_report,
    comm_bits_bound,
    example1_stats,
    final_gap_bound,
    linf_constant_expected,
    rate_metrics,
    regret_bound,
    signgd_bound,
    svrg_gap_bound,
    svrg_grad_bound_v1,
    svrg_grad_bound_v2,
    update_count_bound,
)
from signopt.harness import CHECKS
from signopt.optimizers import RunSpec, run, run_seeds
from signopt.oracles import finite_diff_gradient
from signopt.problems import ProblemSpec, make_problem
from signopt.trace import read_trace
from signopt.vecmath import ConjugatePair, RngStream

Q1 = ConjugatePair(1.0)


def _vr_batch(algo="signsvrg_v1", d=6, n=8, T=400, P=64.0, q=1.0, seeds=range(1, 7),
              kind="least_squares", prob_seed=5, x1_scale=1.0):
    prob = make_problem(ProblemSpec(kind=kind, d=d, n=n, seed=prob_seed))
    L = prob.lipschitz_constant(q)
    root = math.sqrt(2.0 / (L * T))  # cor1: gamma d^{1/q} P = D
    gamma, D = root / ConjugatePair(q).dim_root(d), P * root
    x1 = x1_scale * RngStream(prob_seed).child("x1").generator.standard_normal(d)
    spec = RunSpec(algo=algo, gamma=gamma, x1=x1, q=q, D=D, L=L)
    traces = [run(spec, prob, T, s) for s in seeds]
    return prob, traces, L, D, gamma


# ---------------------------------------------------------------- report mechanics

def test_make_report_aggregates_seeds():
    rep = _make_report("demo", [1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert rep.lhs == pytest.approx(2.0)
    assert rep.rhs == pytest.approx(4.0)
    assert rep.n_seeds == 3
    assert rep.holds
    # tol is 3 standard errors of the per-seed gap
    gaps = np.array([3.0, 2.0, 1.0])
    assert rep.tol == pytest.approx(3 * gaps.std(ddof=1) / math.sqrt(3))


def test_make_report_tol_floor_single_seed():
    rep = _make_report("demo", [1.0], [0.9999999999999])
    assert rep.tol == 1e-12
    assert rep.holds  # inside the floor


def test_report_serialization_plain_types():
    rep = _make_report("demo", [np.float64(1.0)], [np.float64(2.0)])
    d = rep.as_dict()
    assert type(d["holds"]) is bool and type(d["lhs"]) is float
    assert d["name"] == "demo"


# ---------------------------------------------------------------- bound evaluators

def test_grad_bound_v1_holds_on_schedule_batch():
    _, traces, *_ = _vr_batch()
    rep = svrg_grad_bound_v1(traces)
    assert rep.holds and rep.lhs < rep.rhs
    assert rep.n_seeds == 6


def test_grad_bound_v2_holds_on_schedule_batch():
    _, traces, *_ = _vr_batch(algo="signsvrg_v2")
    rep = svrg_grad_bound_v2(traces)
    assert rep.holds and rep.lhs < rep.rhs


def test_variants_coincide_at_d_1():
    # with a single coordinate the componentwise and norm-based noise
    # amplitudes are the same number, so both variants generate identical runs
    prob = make_problem(ProblemSpec(kind="counterexample", d=1, n=3, seed=0))
    L = prob.lipschitz_constant(2.0)
    gamma = math.sqrt(2.0 / (L * 500))  # cor1 at d = 1, P = 16
    D = 16.0 * gamma
    x1 = np.array([2.0])
    tr1 = [run(RunSpec(algo="signsvrg_v1", gamma=gamma, x1=x1, q=1.0, D=D, L=L), prob, 500, s)
           for s in (1, 2, 3)]
    tr2 = [run(RunSpec(algo="signsvrg_v2", gamma=gamma, x1=x1, q=1.0, D=D, L=L), prob, 500, s)
           for s in (1, 2, 3)]
    for a, b in zip(tr1, tr2):
        np.testing.assert_array_equal(a.x_final, b.x_final)
        np.testing.assert_array_equal(a.k, b.k)
    r1 = svrg_grad_bound_v1(tr1)
    r2 = svrg_grad_bound_v2(tr2)
    assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)
    assert r1.rhs == pytest.approx(r2.rhs, rel=1e-12)


def test_single_step_traces_are_valid_input():
    _, traces, *_ = _vr_batch(T=1, P=1.0, seeds=range(1, 4))
    rep = svrg_grad_bound_v1(traces)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)


def test_mismatched_traces_rejected():
    _, traces, *_ = _vr_batch(seeds=(1, 2))
    _, other, *_ = _vr_batch(T=200, seeds=(3,))
    with pytest.raises(ValueError, match="disagree on gamma"):
        svrg_grad_bound_v1(traces + other)


@pytest.mark.parametrize("param, value", [("g_inf", 2.0), ("float_bits", 64)])
def test_runs_differing_in_one_parameter_rejected(param, value):
    # every recorded parameter is compared, including the ones that only
    # scale a bound's rhs (g_inf) or only count bits (float_bits)
    prob = make_problem(ProblemSpec(kind="abs_regression", d=5, n=12, seed=3))
    x_star, f_star = prob.optimum()
    spec = RunSpec(algo="signsgd_plus", gamma=0.01, x1=np.ones(5), g_inf=prob.grad_bound_inf())
    traces = run_seeds(spec, prob, 50, (1, 2))
    other = run_seeds(replace(spec, **{param: value}), prob, 50, (3,))
    regret_bound(traces, f_star, x_star)  # the batch of one run is valid input
    with pytest.raises(ValueError, match=f"disagree on {param}"):
        regret_bound(traces + other, f_star, x_star)
    with pytest.raises(ValueError, match=f"disagree on {param}"):
        final_gap_bound(traces + other, prob, f_star, x_star)


def test_traces_of_another_algorithm_rejected():
    # a bound is evaluated only on runs of the algorithms it is stated for,
    # also when the caller bypasses harness.CHECKS: a signsvrg_v2 run carries
    # no variant-1 descent bound, and a signsvrg_v1 run, which records no
    # g_inf, no regret bound
    _, v2, *_ = _vr_batch(algo="signsvrg_v2", T=50, seeds=(1, 2))
    with pytest.raises(ValueError, match="svrg_grad_bound_v1 is stated for signsvrg_v1, not for traces of 'signsvrg_v2'"):
        svrg_grad_bound_v1(v2)
    prob, v1, L, D, gamma = _vr_batch(T=50, seeds=(1,))
    x_star, f_star = prob.optimum()
    spec = RunSpec(algo="signsvrg_v1", gamma=gamma, x1=v1[0].x1, q=1.0, D=D, L=L)
    with pytest.raises(ValueError, match="regret_bound is stated for signsgd_plus, not for traces of 'signsvrg_v1'"):
        regret_bound(run_seeds(spec, prob, 50, (1, 2)), f_star, x_star)


def test_traces_without_meta_name_the_missing_parameter(tmp_path):
    # read_trace gives back the metric columns only, not the run's parameters
    _, traces, *_ = _vr_batch(T=20, seeds=(1,))
    traces[0].to_npy(str(tmp_path / "t.npy"))
    back = read_trace(tmp_path / "t.npy")
    with pytest.raises(ValueError, match="do not record the run's L"):
        svrg_grad_bound_v1([back])
    with pytest.raises(ValueError, match="do not record the run's float_bits"):
        comm_bits_bound(back, 8.0)
    assert update_count_bound(back, 8.0) == update_count_bound(traces[0], 8.0)


def test_empty_trace_list_rejected():
    with pytest.raises(ValueError):
        svrg_grad_bound_v1([])


def test_gap_bound_holds_and_guards_f_star():
    prob, traces, L, *_ = _vr_batch(T=600, P=64.0)
    x_star, f_star = prob.optimum()
    # cor2-style run for the convex guarantee
    alpha = 2.0
    spec = RunSpec(algo="signsvrg_v1", gamma=alpha / math.sqrt(6 * 600), x1=traces[0].x1, q=1.0,
                   D=64.0 / math.sqrt(600), L=L)
    traces2 = [run(spec, prob, 600, s) for s in (1, 2, 3, 4)]
    rep = svrg_gap_bound(traces2, f_star, x_star)
    assert rep.holds
    with pytest.raises(ValueError):
        svrg_gap_bound(traces2, f_star + 100.0, x_star)


@pytest.mark.parametrize("scale", [1.0, 0.05, 0.2, 5.0, 20.0])
def test_regret_and_final_gap_bounds(scale):
    # at any step, tuned or not, both bounds hold and the final gap's rhs is
    # the regret's over T
    prob = make_problem(ProblemSpec(kind="abs_regression", d=5, n=12, seed=3))
    x_star, f_star = prob.optimum()
    g_inf = prob.grad_bound_inf()
    x1 = np.ones(5)
    gamma = float(np.linalg.norm(x1 - x_star)) / math.sqrt(5 * 2000)
    spec = RunSpec(algo="signsgd_plus", gamma=scale * gamma, x1=x1, g_inf=g_inf)
    traces = run_seeds(spec, prob, 2000, range(1, 9))
    rep = regret_bound(traces, f_star, x_star)
    assert rep.holds
    rep2 = final_gap_bound(traces, prob, f_star, x_star)
    assert rep2.holds
    assert rep2.rhs == pytest.approx(rep.rhs / 2000, rel=1e-12)
    if scale == 1.0:
        # at the tuned step the final-gap comparison value is dimension-aware
        assert rep2.rhs == pytest.approx(
            g_inf * float(np.linalg.norm(x1 - x_star)) * math.sqrt(5 / 2000), rel=1e-12
        )


def test_final_gap_bound_rejects_a_wrong_f_star():
    # f(xbar) - f* below -1e-9 signals a wrong f*, as a trace value below
    # f* does to regret_bound and svrg_gap_bound
    prob = make_problem(ProblemSpec(kind="abs_regression", d=5, n=12, seed=3))
    x_star, f_star = prob.optimum()
    spec = RunSpec(algo="signsgd_plus", gamma=0.01, x1=np.ones(5), g_inf=prob.grad_bound_inf())
    traces = run_seeds(spec, prob, 50, (1, 2))
    final_gap_bound(traces, prob, f_star, x_star)
    for bound in (regret_bound, lambda trs, f, x: final_gap_bound(trs, prob, f, x)):
        with pytest.raises(ValueError, match="below the claimed optimum"):
            bound(traces, f_star + 100.0, x_star)


def test_signgd_bound_is_deterministic_and_tight_tolerance():
    prob = make_problem(ProblemSpec(kind="trig_nonconvex", d=5, n=8, seed=3, lam=0.1))
    L = prob.lipschitz_constant(2.0)
    gamma = math.sqrt(2.0 / (L * 400)) / math.sqrt(5)  # cor1 at q = 2
    tr = run(RunSpec(algo="signgd", gamma=gamma, x1=np.ones(5), q=2.0, L=L), prob, 400, 0)
    rep = signgd_bound(tr, -1.0)
    assert rep.holds
    assert rep.tol == pytest.approx(1e-8 * abs(rep.rhs))


def _branch(per_seed_lhs, rhs):
    """(lhs, rhs, holds) of a Monte Carlo branch with a constant rhs."""
    n = len(per_seed_lhs)
    tol = max(1e-12, 3.0 * float(np.std(per_seed_lhs, ddof=1)) / math.sqrt(n))
    lhs = float(np.mean(per_seed_lhs))
    return lhs, rhs, lhs <= rhs + tol


def test_rate_metrics_disjunction_consistency():
    # both v1 branches recomputed from the per-seed trace means: a far start
    # breaks the radius branch, and a large f* breaks only the ratio branch
    T, seen = 800, set()
    for x1_scale in (1.0, 1e3):
        _, traces, L, D, gamma = _vr_batch(T=T, P=64.0, x1_scale=x1_scale)
        P = D * math.sqrt(L * T / 2.0)
        rate = math.sqrt(2.0 * L / T)
        per_p = np.array([np.mean(tr.gnorm(Q1.p)[:T]) for tr in traces])
        per_2 = np.array([np.mean(tr.gnorm2[:T]) for tr in traces])
        f_x1 = float(np.mean([tr.f[0] for tr in traces]))
        for f_star in (0.0, 1e6):
            radius = _branch(per_p, 2.0 * P * rate)
            ratio = _branch(per_2**2 / per_p, Q1.dim_root(6) * (f_x1 - f_star + 1.0) * rate)
            v1, v2 = rate_metrics(traces, f_star)
            assert (v1.name, v2.name) == ("rate_v1_either_bound", "rate_max_bound")
            assert v1.holds == (radius[2] or ratio[2])
            lhs, rhs, _ = ratio if ratio[2] and not radius[2] else radius
            assert v1.lhs == lhs
            assert v1.rhs == pytest.approx(rhs, rel=1e-12)
            seen.add((radius[2], ratio[2]))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("scale", [1e-3, 30.0])
def test_rate_metrics_reject_traces_off_cor1s_gamma(scale):
    # the rates are stated at cor1's gamma; the radius alone, from which P
    # is rebuilt, does not tell a run at another gamma apart
    prob, traces, L, D, gamma = _vr_batch(T=50, seeds=(1, 2))
    spec = RunSpec(algo="signsvrg_v1", gamma=scale * gamma, x1=traces[0].x1, q=1.0, D=D, L=L)
    with pytest.raises(ValueError, match="gamma"):
        rate_metrics(run_seeds(spec, prob, 50, (1, 2)), 0.0)
    rate_metrics(traces, 0.0)  # cor1's own gamma


def _closed_form_report(check, traces, prob, dv):
    """The report of `check` from the closed forms the evaluators used
    before each right-hand side was written once: every rhs spelled out,
    the tuned ones at their schedule's gamma."""
    m = traces[0].meta
    L, D, gamma, T, d, g_inf, n = (m[k] for k in ("L", "D", "gamma", "T", "d", "g_inf", "n"))
    pair, S = ConjugatePair(m["q"]), len(traces)

    def descent(delta):
        return delta / (T * gamma) + L * gamma * pair.dim_root(d) ** 2 / 2.0

    dist = [float(np.linalg.norm(tr.x1 - dv.x_star)) for tr in traces] if dv.x_star is not None else []
    gaps = [np.maximum(tr.f[:T] - dv.f_star, 0.0) for tr in traces] if dv.f_star is not None else []
    if check in ("update_count_bound", "comm_bits_bound"):  # the worst seed's sides
        col, per_period = (("k", 1) if check == "update_count_bound"
                           else ("bits_cum", d * (m["float_bits"] * n + dv.P - 1)))
        lhs = max(float(getattr(tr, col)[T - 1]) for tr in traces)
        rhs = float(per_period * math.ceil(T / dv.P))
        return BoundReport(check, lhs, rhs, 0.0, lhs <= rhs, S)
    if check == "signgd_bound":
        lhs, rhs = float(np.mean(traces[0].gnorm1[:T])), float(descent(traces[0].f[0] - dv.f_star))
        return BoundReport(check, lhs, rhs, 1e-8 * abs(rhs), lhs <= rhs + 1e-8 * abs(rhs), 1)
    if check == "svrg_grad_bound_v1":
        return _make_report(check, [np.mean(tr.gnorm2[:T] ** 2 / (2 * L * D + tr.gnorm(pair.p)[:T]))
                                    for tr in traces], [descent(tr.f[0] - tr.f[T]) for tr in traces])
    if check == "svrg_grad_bound_v2":
        return _make_report(check, [np.mean(tr.gnorm1[:T] ** 2 / (2 * L * d * D + tr.gnorm1[:T]))
                                    for tr in traces], [descent(tr.f[0] - tr.f[T]) for tr in traces])
    if check == "svrg_gap_bound":
        return _make_report(check, [np.mean(g / (2 * L * D + np.sqrt(2 * L * g))) for g in gaps],
                            [r**2 / (2 * T * gamma) + gamma * d / 2 for r in dist])
    if check == "regret_bound":
        return _make_report(check, [g.sum() for g in gaps],
                            [g_inf / 2 * (r**2 / gamma + gamma * d * T) for r in dist])
    if check == "final_gap_bound":
        return _make_report(check, [prob.value(tr.x_mean) - dv.f_star for tr in traces],
                            [g_inf * r * math.sqrt(d / T) for r in dist])
    # the rates, at cor1's gamma and its radius D = P sqrt(2/(LT))
    P, rate = D * math.sqrt(L * T / 2), math.sqrt(2 * L / T)
    per = {p: np.array([np.mean(tr.gnorm(p)[:T]) for tr in traces]) for p in (pair.p, 2.0, 1.0)}
    f_x1 = float(np.mean([tr.f[0] for tr in traces]))
    scaled_gap = pair.dim_root(d) * (f_x1 - dv.f_star + 1)
    if check == "rate_bounds_v2":
        return _make_report("rate_max_bound", per[1.0], np.full(S, rate * max(scaled_gap, 2 * d * P)))
    radius = _make_report("rate_v1_either_bound", per[pair.p], np.full(S, 2 * P * rate))
    ratio = _make_report("rate_v1_either_bound", per[2.0] ** 2 / per[pair.p], np.full(S, scaled_gap * rate))
    return ratio if ratio.holds and not radius.holds else radius


def test_reports_match_their_closed_forms(shipped_runs, workload_runs):
    # every report of the shipped configs and the benchmark workloads has the
    # closed form's verdict and, to rounding, its rhs
    seen = set()
    for name, (_, result) in {**shipped_runs, **workload_runs}.items():
        cfg = result.config_echo
        prob = make_problem(ProblemSpec(**cfg["problem"]))
        for check, rep in zip(cfg["checks"], result.reports, strict=True):
            want = _closed_form_report(check, result.traces, prob, result.derived)
            assert (rep.name, rep.holds) == (want.name, want.holds), (name, check)
            assert rep.rhs == pytest.approx(want.rhs, rel=1e-12, abs=0), (name, check)
            seen.add(check)
    assert seen == set(CHECKS)


# ---------------------------------------------------------------- counting bounds

def test_update_count_bound_on_batch():
    _, traces, *_ = _vr_batch(T=400, P=64.0)
    for tr in traces:
        rep = update_count_bound(tr, 64.0)
        assert rep.holds and rep.tol == 0.0
        assert rep.rhs == math.ceil(400 / 64.0)


def test_comm_budget_worked_example():
    # two reference periods of the worked budget: 5 * (32*4 + 8 - 1) * 2 = 1350
    _, traces, *_ = _vr_batch(d=5, n=4, T=16, P=8.0, prob_seed=2, seeds=(1, 2, 3))
    for tr in traces:
        rep = comm_bits_bound(tr, 8.0)
        assert rep.rhs == 1350.0
        assert rep.holds


def test_comm_budget_exactly_tight_at_one_period():
    # T = P under the coupled schedule: no refresh can trigger, so the count
    # is the initial broadcast plus P-1 sign steps, meeting the budget exactly
    _, traces, *_ = _vr_batch(d=5, n=4, T=8, P=8.0, prob_seed=2, seeds=(1, 2, 3, 4))
    for tr in traces:
        rep = comm_bits_bound(tr, 8.0)
        assert rep.lhs == rep.rhs == 5 * (32 * 4 + 8 - 1)
        assert tr.k[-1] == 1


def test_comm_budget_symbolic_form():
    # with P = (Fn - 1)/beta the per-period budget is (1 + beta) d P, so over
    # T = 10 P steps the cap collapses to (1 + beta) d T
    beta, F, n, d = 1.0, 32, 4, 3
    P = (F * n - 1) / beta  # 127
    T = int(10 * P)
    _, traces, *_ = _vr_batch(d=d, n=n, T=T, P=P, prob_seed=7, seeds=(1, 2))
    for tr in traces:
        rep = comm_bits_bound(tr, P)
        assert rep.rhs == (1 + beta) * d * T
        assert rep.holds


def test_counting_bound_validation():
    _, traces, *_ = _vr_batch(T=50, P=16.0, seeds=(1,))
    with pytest.raises(ValueError):
        update_count_bound(traces[0], 0.5)
    with pytest.raises(ValueError):
        comm_bits_bound(traces[0], 0.5)


# ---------------------------------------------------------------- sphere statistics

def test_example1_stats_d1_everything_is_one():
    stats = example1_stats(1, 500, RngStream(0))
    assert linf_constant_expected(1) == pytest.approx(1.0)
    np.testing.assert_allclose(stats.l1, 1.0, atol=1e-12)
    np.testing.assert_allclose(stats.l2, 1.0, atol=1e-12)
    np.testing.assert_allclose(stats.linf, 1.0, atol=1e-12)


def test_example1_stats_ordering_and_consistency():
    stats = example1_stats(16, 4000, RngStream(8))
    assert np.all(stats.l1 <= stats.l2 + 1e-12)
    assert np.all(stats.l2 <= stats.linf + 1e-12)
    np.testing.assert_allclose(stats.l2, 1.0, atol=1e-9)
    expected = linf_constant_expected(16)
    assert abs(stats.mean_linf - expected) <= 4 * stats.stderr_linf()


def test_example1_stats_validation():
    with pytest.raises(ValueError):
        example1_stats(4, 1, RngStream(0))


# ---------------------------------------------------------------- finite differences

def test_finite_diff_gradient_accuracy(ls_small):
    x = RngStream(44).generator.standard_normal(4)
    g = finite_diff_gradient(ls_small, 2, x, 1e-6)
    np.testing.assert_allclose(g, ls_small.component_gradient(2, x), atol=1e-7)
    with pytest.raises(ValueError):
        finite_diff_gradient(ls_small, 2, x, 0.0)
