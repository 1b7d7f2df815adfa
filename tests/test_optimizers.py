"""The cor1 step rule, the seed-batched run loop and trace accounting.

The frozen end states pin exact arithmetic (argument order of every random
draw included); the equivalence tests then certify that the seed-batched
loop inside run_seeds() is bit-for-bit the same dynamics as
oracles.reference_run, which steps one seed at a time.
"""
import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import signopt
from conftest import workload_configs
from signopt import optimizers, vecmath
from signopt.harness import SCHEDULES, config_from_dict, execute_experiment
from signopt.optimizers import (
    ALGORITHMS,
    NonFiniteIterateError,
    RunSpec,
    run,
    run_seeds,
)
from signopt.oracles import reference_run
from signopt.problems import AbsRegressionProblem, ProblemSpec, make_problem
from signopt.trace import FLAG_DEGENERATE, Trace
from signopt.vecmath import ConjugatePair, RngStream


def _ls(d=4, n=6, seed=42):
    return make_problem(ProblemSpec(kind="least_squares", d=d, n=n, seed=seed))


# ---------------------------------------------------------------- frozen runs

def test_frozen_simple_runs():
    prob = _ls()
    x1 = np.ones(4)
    expect = {
        "signsgd": (
            [0.5000000000000001, 0.5000000000000001, 1.3000000000000003, 0.9],
            20, 5.0,
        ),
        "signsgd_plus": (
            [0.7000000000000001, 0.9, 1.1, 1.1],
            20, 5.0,
        ),
        "signgd": (
            [0.5000000000000001] * 4,
            3840, 30.0,
        ),
        "sgd": (
            [0.6259430108544171, 0.3601508517550634, 0.9930508822367927, 0.3157404623664477],
            640, 5.0,
        ),
    }
    for algo, (xf, bits, evals) in expect.items():
        kw = dict(algo=algo, gamma=0.1, x1=x1)
        if algo == "signsgd_plus":
            kw["g_inf"] = 8.0
        if algo == "signgd":
            kw["L"] = prob.lipschitz_constant(1.0)
        tr = run(RunSpec(**kw), prob, 5, 7)
        np.testing.assert_allclose(tr.x_final, xf, rtol=0, atol=0)
        assert int(tr.bits_cum[-1]) == bits
        assert float(tr.grad_evals_cum[-1]) == evals


def test_frozen_vr_runs():
    prob = _ls()
    L = prob.lipschitz_constant(1.0)
    assert L == pytest.approx(1.453092136506372, rel=1e-15)
    x1 = np.ones(4)
    tr1 = run(RunSpec(algo="signsvrg_v1", gamma=0.05, x1=x1, q=1.0, D=0.6, L=L), prob, 8, 7)
    np.testing.assert_allclose(tr1.x_final, [0.7499999999999998] * 4, rtol=0, atol=0)
    assert tr1.k.tolist() == [1, 1, 1, 1, 2, 2, 2, 2, 2]
    assert tr1.bits_cum.tolist() == [768, 772, 776, 780, 1548, 1552, 1556, 1560, 1564]

    tr2 = run(RunSpec(algo="signsvrg_v2", gamma=0.05, x1=x1, q=1.0, D=0.6, L=L), prob, 8, 7)
    np.testing.assert_allclose(
        tr2.x_final,
        [0.6499999999999997, 0.8499999999999999, 0.7499999999999998, 0.7499999999999998],
        rtol=0, atol=0,
    )
    assert tr2.bits_cum.tolist() == tr1.bits_cum.tolist()

    tr3 = run(RunSpec(algo="svrg", gamma=0.05, x1=x1, q=1.0, D=0.6, L=L), prob, 8, 7)
    assert tr3.k.tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert tr3.bits_cum.tolist() == [768, 896, 1024, 1792, 1920, 2048, 2816, 2944, 3072]


def test_frozen_logistic_vr_run():
    # pinned before the logistic kernels were rewritten: refreshes every few
    # steps take the one-vector full gradient, the steps the batched
    # component gradients and the snapshots the batched full gradient
    prob = make_problem(ProblemSpec(kind="logistic", d=6, n=9, seed=11, label_noise=0.2))
    L = prob.lipschitz_constant(2.0)
    assert L.hex() == "0x1.b3146be2c0171p-2"
    spec = RunSpec(algo="signsvrg_v2", gamma=0.03, x1=np.full(6, 0.5), q=2.0,
                   D=2 * 0.03 * 6 ** 0.5, L=L)
    expect = [
        (["0x1.30a3d70a3d70dp+0", "-0x1.7ae147ae147b4p-2", "0x1.a3d70a3d70a3cp-2",
          "0x1.e66666666666ap-1", "-0x1.f5c28f5c28f64p-2", "0x1.4f5c28f5c28f9p+0"],
         18, "0x1.1b1183ff4bb20p-1", "0x1.759be384ca951p-5"),
        (["0x1.3851eb851eb88p+0", "-0x1.99999999999a0p-2", "0x1.c28f5c28f5c28p-2",
          "0x1.f5c28f5c28f60p-1", "-0x1.1eb851eb851f0p-2", "0x1.28f5c28f5c292p+0"],
         19, "0x1.1e985c5151f42p-1", "0x1.86143257d7b46p-5"),
        (["0x1.3851eb851eb88p+0", "-0x1.1eb851eb851f0p-2", "0x1.c28f5c28f5c28p-2",
          "0x1.199999999999cp+0", "-0x1.99999999999a8p-4", "0x1.3851eb851eb88p+0"],
         17, "0x1.238968157136fp-1", "0x1.948001799e5d3p-5"),
    ]
    for tr, (xf, k, f, g2) in zip(run_seeds(spec, prob, 60, (3, 4, 5)), expect):
        assert [float(v).hex() for v in tr.x_final] == xf
        assert int(tr.k[-1]) == k
        assert (float(tr.f[-1]).hex(), float(tr.gnorm2[-1]).hex()) == (f, g2)


def test_frozen_logistic_vr_run_at_benchmark_shape():
    # pinned before the logistic rows were stored signed: at vr_logistic_wide's
    # d = 100, n = 500, P = 2 and cor1 schedule, BLAS takes other kernels for
    # the snapshots' matrix products and the refreshes' (n, d) products than
    # at the d = 6, n = 9 pin above; the run refreshes every few steps.
    # f(T) and ||grad f||^2(T) also depend on the snapshot's 32 rows per
    # chunk at this shape and on which of them a refresh repeated (a call
    # takes a seed's distinct rows alone), which x_final and k(T) do not.
    # Evaluating the distinct rows alone moved neither pin
    prob = make_problem(ProblemSpec(kind="logistic", d=100, n=500, seed=101))
    L = prob.lipschitz_constant(2.0)
    root = math.sqrt(2.0 / (L * 800))
    gamma = root / ConjugatePair(2.0).dim_root(100)
    assert (L.hex(), gamma.hex()) == ("0x1.9ab4ba3498153p-2", "0x1.02b46ad87f8d9p-7")
    spec = RunSpec(algo="signsvrg_v2", gamma=gamma, x1=RngStream(0).generator.standard_normal(100),
                   q=2.0, D=2 * root, L=L)
    expect = [  # sha256 of x_final's bytes, k(T), f(T), ||grad f||^2(T)
        ("c5f8c347336ce1d6b527b1704e1c842eaea975bc4ac029541c2e8d539895f064", 10,
         "0x1.759af7fed152ep-1", "0x1.8df84998950bap-5"),
        ("bb8932fcff599eba8b9dc17d06b7d6cefdecbc0a6599070defa04959074d69e1", 10,
         "0x1.7651828fecea2p-1", "0x1.8f1697cf68601p-5"),
    ]
    # one comparison that prints every pin, so that a moved pin cannot hide another
    got = [(hashlib.sha256(tr.x_final.tobytes()).hexdigest(), int(tr.k[-1]), float(tr.f[-1]).hex(),
            float(tr.gnorm2[-1]).hex()) for tr in run_seeds(spec, prob, 40, (1, 2))]
    assert got == expect, got


# ---------------------------------------------------------------- the cor1 rule

def _cor1(d, q, L, T, P=None):
    """gamma and D from harness.SCHEDULES' cor1 rule, which reads q and T."""
    return SCHEDULES["cor1"][2](SimpleNamespace(q=q, T=T), d, L, None, P)


def test_schedule_cor1():
    gamma, D = _cor1(16, 1.0, 2.0, 800, P=5)
    assert gamma == pytest.approx((1 / 16) * math.sqrt(2 / (2 * 800)), rel=1e-15)
    assert D == pytest.approx(5 * math.sqrt(2 / (2 * 800)), rel=1e-15)
    # q = inf: no dimension shrink on the step
    gamma_inf, _ = _cor1(16, math.inf, 2.0, 800, P=5)
    assert gamma_inf == pytest.approx(math.sqrt(2 / 1600), rel=1e-15)
    # no reference period, no trust radius
    assert _cor1(16, 1.0, 2.0, 800) == (gamma, None)


def test_schedule_cor1_step_times_p_reaches_d():
    # P sign steps from a fresh reference move at most P * gamma * d^{1/q} = D(P)
    # in the q-norm, so a reference refresh cannot happen more than once per P
    for q in (1.0, 2.0, math.inf):
        gamma, D = _cor1(9, q, 3.0, 400, P=7)
        pair = ConjugatePair(q)
        assert gamma * pair.dim_root(9) * 7 == pytest.approx(D, rel=1e-12)


# ---------------------------------------------------------------- fused loop equivalence

BATCH_SEEDS = (11, 4, 27, 8)
TRACE_COLUMNS = ("t", "f", "gnorm1", "gnorm2", "gnorm_inf", "k", "dist_to_ref",
                 "bits_cum", "grad_evals_cum", "flags", "x_mean", "x_final", "iterates")


ORACLE_COLUMNS = ("x_final", "iterates", "k", "dist_to_ref", "bits_cum", "grad_evals_cum", "flags")

# radii in sign steps of length 0.03 d^{1/q}: a third of a step rejects every
# sign step, five and a half refresh now and then, 333 never do
RADII = {"reject_heavy": 1 / 3, "mixed": 5.5, "accept_only": 333.0}

# (d, n) of each problem kind in the step loop tests. At n = 7 the horizon
# lies inside one snapshot chunk of 585 rows; at n = 300 chunks hold 32
# rows, so chunks are flushed mid-horizon. sphere_quadratic (a one-row
# least-squares problem, whose single component's draw, integers(1, 1),
# consumes no word) and the d = 1 counterexample (a three-row one) run on
# the least-squares kernels, each at its one shape.
SHAPES = {"sphere_quadratic": ((5, 1),), "counterexample": ((1, 3),)}
DATA_SHAPES = ((5, 7), (5, 300))
KINDS = ("least_squares", "abs_regression", "trig_nonconvex", "logistic", "sphere_quadratic", "counterexample")


def _problem(kind, d, n):
    return make_problem(ProblemSpec(kind=kind, d=d, n=n, seed=3, lam=0.1 if kind == "trig_nonconvex" else 0.0))


def _chunk_rows(prob):
    """The rows of one snapshot chunk of run_seeds on prob."""
    return optimizers._Chunks(prob, 1, 1, np.zeros(prob.d), False).size


def _assert_matches_reference(tr, spec, prob, seed):
    ref = reference_run(spec, prob, tr.T, seed)
    for col in ORACLE_COLUMNS:
        np.testing.assert_array_equal(getattr(tr, col), ref[col], err_msg=f"{seed} {col}")
    # the batch sums a chunk of iterates at a time; x_mean must still be the
    # sum of rows 1..T taken one row after another, over T
    x_sum = np.zeros(prob.d)
    for x in ref["iterates"]:
        x_sum += x
    np.testing.assert_array_equal(tr.x_mean, x_sum / tr.T, err_msg=f"{seed} x_mean")


def _assert_repeats_take_their_source(tr, prob):
    """A row where k steps up repeats the iterate before it, and its f and
    gradient norms are that row's, bit for bit; every row's are those of
    the one-vector kernels at its iterate, to 1e-12 relative. tr keeps its
    iterates."""
    x = np.vstack([tr.iterates, tr.x_final])
    repeated = np.flatnonzero(np.diff(tr.k)) + 1
    np.testing.assert_array_equal(x[repeated], x[repeated - 1])
    f, grad = zip(*map(prob.value_and_full_gradient, x))
    grad = np.abs(grad)
    want = {"f": f, "gnorm1": grad.sum(axis=1), "gnorm2": np.sqrt((grad * grad).sum(axis=1)),
            "gnorm_inf": grad.max(axis=1)}
    for name, value in want.items():
        column = getattr(tr, name)
        assert column[repeated].tobytes() == column[repeated - 1].tobytes(), name
        np.testing.assert_allclose(column, value, rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("kind", ["least_squares", "trig_nonconvex", "logistic", "sphere_quadratic", "counterexample"])
@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("algo", ["signsvrg_v1", "signsvrg_v2", "svrg"])
def test_seed_batch_matches_steppers_and_single_runs(algo, q, kind):
    T = 120  # no multiple of 32, so at n = 300 the last chunk is partial
    for (d, n), (radius, steps) in itertools.product(SHAPES.get(kind, DATA_SHAPES), RADII.items()):
        # the unsigned steps need a longer stride to refresh as often, and a
        # longer one still at n = 300, whose full gradients are smaller
        gamma = {1: 1.0, 3: 1.0, 7: 0.3, 300: 0.5}[n] if algo == "svrg" else 0.03
        prob = _problem(kind, d, n)
        assert n != 300 or T % _chunk_rows(prob) and T > _chunk_rows(prob)
        L = prob.lipschitz_constant(q)
        D = steps * 0.03 * ConjugatePair(q).dim_root(d)
        spec = RunSpec(algo=algo, gamma=gamma, x1=0.5 * np.ones(d), q=q, D=D, L=L, keep_iterates=True)
        batch = run_seeds(spec, prob, T, BATCH_SEEDS)
        refreshes = [int(tr.k[-1]) - 1 for tr in batch]
        if kind in SHAPES and algo == "svrg":
            pass  # its estimate x - ref + grad f(ref) there hardly depends on the draw
        elif radius == "reject_heavy":
            assert min(refreshes) > T // 2, (n, radius)
        elif radius == "mixed":
            # every seed refreshes, not all at the same steps
            assert min(refreshes) > 0 and len({tuple(tr.k) for tr in batch}) > 1, (n, radius)
        else:
            assert max(refreshes) == 0, (n, radius)
        for seed, tr in zip(BATCH_SEEDS, batch):
            assert tr.meta["seed"] == seed
            single = run(spec, prob, T, seed)
            for col in TRACE_COLUMNS:
                np.testing.assert_array_equal(getattr(tr, col), getattr(single, col), err_msg=f"{n} {col}")
            _assert_matches_reference(tr, spec, prob, seed)


def test_seed_batch_raises_first_failing_seed_in_seed_order():
    # the batch tests its iterates for finiteness once per snapshot chunk
    # and must raise what running the seeds one after another raises: the
    # iteration of the first failing seed in seed order, although a later
    # seed fails sooner
    # - sgd: an unstable unsigned step overflows, each seed at its own
    #   iteration; seed 3 runs twice, so two seeds fail at one step
    # - signsgd, signsgd_plus: sign steps of 1e307 on the cosine family
    #   without its ridge walk the iterates off the floats, each seed at an
    #   even row. At n = 178 a chunk holds 32 rows, so over a horizon of 68
    #   steps seed 2's row 68 is the last row of the last chunk, rows
    #   64..68, and seed 33 (signsgd, row 66) or 14 (signsgd_plus, row 64)
    #   fails earlier in the same chunk; all of it falls inside one block
    #   of draws, the whole horizon
    # - signsgd_plus on abs_regression, whose +-a_i subgradients take the
    #   per-block candidate steps: seed 7 fails at row 60, inside the chunk
    #   of rows 32..63, and seed 8 earlier in it, at row 50
    # - signsgd_plus on the cosine family over 140 steps: seed 12 fails at
    #   row 104, in the chunk of rows 96..127, and seed 15 three chunks
    #   earlier, at row 24. Seed 15 steps on, and both stay non-finite
    #   through the last chunk, rows 128..140, whose test must keep each
    #   seed's first non-finite row
    ls = _ls(d=5, n=7, seed=3)
    trig = make_problem(ProblemSpec(kind="trig_nonconvex", d=5, n=178, seed=3))
    absr = make_problem(ProblemSpec(kind="abs_regression", d=5, n=178, seed=3))
    assert _chunk_rows(trig) == 32
    huge = dict(gamma=1e307, x1=0.5 * np.ones(5))
    # expected: the first failed seed, its row, whether the later seed
    # fails in the same chunk, and whether the row is its chunk's last
    cases = (
        (RunSpec(algo="sgd", gamma=6.0, x1=0.5 * np.ones(5)), ls, 1090, (0, 2, 3, 3, 6), None),
        (RunSpec(algo="signsgd", **huge), trig, 68, (0, 2, 14, 33), (2, 68, True, True)),
        (RunSpec(algo="signsgd_plus", g_inf=10.0, **huge), trig, 68, (0, 2, 14, 33), (2, 68, True, True)),
        (RunSpec(algo="signsgd_plus", g_inf=10.0, **huge), absr, 80, (0, 2, 7, 8), (7, 60, True, False)),
        (RunSpec(algo="signsgd_plus", g_inf=10.0, **huge), trig, 140, (1, 12, 15), (12, 104, False, False)),
    )
    for spec, prob, T, seeds, expected in cases:
        case = f"{spec.algo} {type(prob).__name__}"
        outcome = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for seed in seeds:
                try:
                    run(spec, prob, T, seed)
                    outcome[seed] = None
                except NonFiniteIterateError as exc:
                    outcome[seed] = exc.iteration
            first = next(s for s in seeds if outcome[s] is not None)
            later = [outcome[s] for s in seeds[seeds.index(first) + 1:] if outcome[s] is not None]
            # the setup must tell seed order from time order: a seed before
            # the first failure finishes, and a later seed fails sooner
            assert seeds.index(first) > 0 and later and min(later) < outcome[first], case
            if expected is not None:
                assert (first, outcome[first]) == expected[:2], case
                rows = _chunk_rows(prob)
                chunk_start = outcome[first] - outcome[first] % rows
                # both in one chunk, or the later seed in an earlier chunk
                assert (chunk_start <= min(later)) == expected[2], case
                assert (outcome[first] == min(chunk_start + rows - 1, T)) == expected[3], case
            with pytest.raises(NonFiniteIterateError) as caught:
                run_seeds(spec, prob, T, seeds)
        assert caught.value.iteration == outcome[first], case


def test_reference_run_steps_on_past_a_non_finite_iterate():
    # the one-vector cosine gradient takes np.sin, which gives NaN on an
    # overflowed dot where math.sin raised: the oracle steps seed 2 of the
    # first-failure case to the end, and its first non-finite iterate is the
    # row at which run_seeds stops
    trig = make_problem(ProblemSpec(kind="trig_nonconvex", d=5, n=178, seed=3))
    spec = RunSpec(algo="signsgd", gamma=1e307, x1=0.5 * np.ones(5))
    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference_run(spec, trig, 80, 2)
        with pytest.raises(NonFiniteIterateError) as caught:
            run_seeds(spec, trig, 80, (2,))
    finite = np.isfinite(ref["iterates"]).all(axis=1)
    assert finite[0] and not finite.all()
    assert int(np.argmin(finite)) == caught.value.iteration == 68


def test_a_finite_radius_keeps_svrg_iterates_finite():
    # the same unstable step as above: a candidate that overflows has no
    # finite distance to its reference, so it is rejected and never becomes
    # the iterate (which is why RunSpec wants a finite D)
    prob = _ls(d=5, n=7, seed=3)
    spec = RunSpec(algo="svrg", gamma=6.0, x1=0.5 * np.ones(5), q=1.0, D=1e300,
                   L=prob.lipschitz_constant(1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        traces = run_seeds(spec, prob, 1090, (0, 2, 3, 6))
    assert all(np.isfinite(tr.x_final).all() for tr in traces)
    assert [tr.k[-1] > 1 for tr in traces] == [False, True, True, True]  # seed 0 never overflows

    # a sign step of 1e307 walks the iterates to within one step of the
    # largest float, where a candidate that moves outward overflows; the
    # subgradients of absolute-loss regression stay finite there, so the
    # amplitude premise holds throughout
    prob = make_problem(ProblemSpec(kind="abs_regression", d=5, n=7, seed=3))
    gamma, edge = 1e307, np.finfo(np.float64).max - 1e307
    for algo in ("signsvrg_v1", "signsvrg_v2"):
        spec = RunSpec(algo=algo, gamma=gamma, x1=0.5 * np.ones(5), q=1.0, D=1e308, L=1.0,
                       keep_iterates=True)
        with np.errstate(over="ignore", invalid="ignore"):
            traces = run_seeds(spec, prob, 2000, (0, 3))
            for seed, tr in zip((0, 3), traces):
                assert np.isfinite(tr.iterates).all() and np.isfinite(tr.x_final).all(), algo
                assert (np.abs(tr.iterates) > edge).any(), algo
                _assert_matches_reference(tr, spec, prob, seed)


def test_seed_batch_premise_violation_mid_batch():
    # L far below the true smoothness constant lets |v| outgrow the noise
    # amplitude for some seeds only
    prob = _ls(d=5, n=7, seed=3)
    spec = RunSpec(algo="signsvrg_v1", gamma=0.03, x1=0.5 * np.ones(5), q=1.0, D=0.6,
                   L=0.2 * prob.lipschitz_constant(1.0))
    T = 60
    violates = {}
    for seed in range(8):
        try:
            run(spec, prob, T, seed)
            violates[seed] = False
        except AssertionError:
            violates[seed] = True
    good = [s for s in violates if not violates[s]]
    bad = [s for s in violates if violates[s]]
    assert good and bad
    assert len(run_seeds(spec, prob, T, good)) == len(good)
    with pytest.raises(AssertionError, match="noise amplitude"):
        run_seeds(spec, prob, T, good[:2] + bad[:1] + good[2:])


def _breaks_premise(call, *args) -> bool:
    try:
        call(*args)
    except AssertionError as exc:
        assert "noise amplitude" in str(exc)
        return True
    return False


def test_block_premise_check_raises_exactly_when_a_seed_does():
    # the batch checks the premise once per block of draws: for every
    # horizon, odd ones ending on a one-step block, it must raise exactly
    # when some seed's step-by-step reference run does, and a single seed
    # exactly when its own does. Seeds 6, 7 and 3 first break the premise
    # at steps 14, 36 and 59 (seed 3's falls in the one-step block of T = 59,
    # which decodes two steps and yields one)
    prob = _ls(d=5, n=7, seed=3)
    spec = RunSpec(algo="signsvrg_v1", gamma=0.03, x1=0.5 * np.ones(5), q=1.0, D=0.6,
                   L=0.2 * prob.lipschitz_constant(1.0))
    seeds = (7, 0, 6, 1, 3, 2)
    outcomes = set()
    for T in range(1, 61):
        violates = [_breaks_premise(reference_run, spec, prob, T, seed) for seed in seeds]
        assert [_breaks_premise(run, spec, prob, T, seed) for seed in seeds] == violates, T
        assert _breaks_premise(run_seeds, spec, prob, T, seeds) == any(violates), T
        outcomes.add((violates[0], any(violates)))
    # horizons with no violation, with a violation of a later seed only (the
    # first seed runs on), and with the first seed's, which is raised at once
    assert outcomes == {(False, False), (False, True), (True, True)}

    # variant 2 at half the smoothness constant: seed 1 first breaks the
    # premise at step 228, late in one long block
    spec = dataclasses.replace(spec, algo="signsvrg_v2", L=0.5 * prob.lipschitz_constant(1.0))
    seeds = (0, 4, 1, 9)
    for T in (227, 228, 400):
        violates = [_breaks_premise(reference_run, spec, prob, T, seed) for seed in seeds]
        assert violates == [False, False, T >= 228, False], T
        assert _breaks_premise(run_seeds, spec, prob, T, seeds) == (T >= 228), T


def test_amplitude_premise_is_checked_under_python_O():
    script = textwrap.dedent("""
        import numpy as np
        from signopt.optimizers import RunSpec, run_seeds
        from signopt.oracles import reference_run
        from signopt.problems import ProblemSpec, make_problem
        assert False, "python -O strips assert statements"
        prob = make_problem(ProblemSpec(kind="least_squares", d=5, n=7, seed=3))
        L = 0.2 * prob.lipschitz_constant(1.0)
        spec = RunSpec(algo="signsvrg_v1", gamma=0.03, x1=0.5 * np.ones(5), q=1.0, D=0.6, L=L)
        for seed in range(8):
            try:
                reference_run(spec, prob, 60, seed)
            except AssertionError as exc:
                print("oracle:", exc)
                break
        try:
            run_seeds(spec, prob, 60, range(8))
        except AssertionError as exc:
            print("batch:", exc)
    """)
    src = str(Path(signopt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env=env, check=True, timeout=60)
    assert out.stdout.splitlines() == ["oracle: noise amplitude violated",
                                       "batch: noise amplitude violated"]


def test_run_seeds_rejects_an_empty_batch():
    with pytest.raises(ValueError):
        run_seeds(RunSpec(algo="signsgd", gamma=0.1, x1=np.ones(4)), _ls(), 5, ())


def test_run_seeds_rejects_a_seed_outside_64_bits():
    # seed -1 would otherwise run on the stream of 2**64 - 1
    with pytest.raises(ValueError, match="seed"):
        run_seeds(RunSpec(algo="signsgd", gamma=0.1, x1=np.ones(4)), _ls(), 5, (0, -1))


@pytest.mark.parametrize("algo", ["signsgd", "signsgd_plus", "sgd", "signgd"])
def test_fused_simple_loop_matches_reference_run(algo):
    # at n = 300, 150 is no multiple of the chunk's 32 rows while 160 is
    cases = [(kind, d, n, T) for kind in KINDS for d, n in SHAPES.get(kind, DATA_SHAPES)
             for T in ((150, 160) if n == 300 else (150,))]
    for kind, d, n, T in cases:
        prob = _problem(kind, d, n)
        assert n != 300 or (T % _chunk_rows(prob) == 0) == (T == 160)
        spec = RunSpec(algo=algo, gamma=0.02, x1=0.5 * np.ones(d), g_inf=9.0 if algo == "signsgd_plus" else None,
                       keep_iterates=True)
        for seeds in ((13,), BATCH_SEEDS):
            for seed, tr in zip(seeds, run_seeds(spec, prob, T, seeds)):
                single = run(spec, prob, T, seed)
                for col in TRACE_COLUMNS:
                    np.testing.assert_array_equal(getattr(tr, col), getattr(single, col),
                                                  err_msg=f"{kind} {n} {T} {seed} {col}")
                _assert_matches_reference(tr, spec, prob, seed)


class _RecordedChunks(optimizers._Chunks):
    """_Chunks that keeps every instance, so that a batch's columns can be
    read after run_seeds has raised its failed seed's error."""

    made: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


def _survivors(spec, prob, T, seeds):
    """{seed: its columns, x_mean and x_final} of every seed of one batch
    that does not fail, and the seeds that do."""
    _RecordedChunks.made.clear()
    try:
        run_seeds(spec, prob, T, seeds)
    except (NonFiniteIterateError, AssertionError):
        pass
    chunks, = _RecordedChunks.made
    x_final = chunks.x[1 + T % chunks.size]
    live = {seed: {**{name: getattr(chunks, name)[s] for name in Trace.COLUMNS},
                   "x_mean": chunks.x_sum[s] / T, "x_final": x_final[s]}
            for s, seed in enumerate(seeds) if chunks.errors[s] is None}
    return live, [seed for seed in seeds if seed not in live]


@pytest.mark.parametrize("case", ["signsvrg_v1", "signsgd_plus", "signsgd"])
def test_snapshot_groups_and_draw_blocks_never_change_a_seed(case, monkeypatch):
    # at the default budgets the draw blocks are long, and the seeds go in
    # groups of 4 through chunks of 585 rows (n = 7) or in groups of 2
    # through chunks of 32 rows (n = 178). Here 5 seeds go in groups of 2
    # through chunks of 5 rows and blocks of 2 steps over an odd horizon,
    # and the third seed fails mid-run, which regroups the seeds after it:
    # every other seed's columns must be those of the default budgets and
    # of its run alone, bit for bit. signsvrg_v1 at a fifth of its smoothness
    # constant breaks the amplitude premise on seed 6 at step 14;
    # signsgd_plus on abs_regression (the candidate path) and signsgd on the
    # cosine family (the general one) at steps of 1e307 leave the floats on
    # seed 7 at row 60 and seed 2 at row 68
    monkeypatch.setattr(optimizers, "_Chunks", _RecordedChunks)
    huge = dict(gamma=1e307, x1=0.5 * np.ones(5))
    ls = _ls(d=5, n=7, seed=3)
    spec, prob, T, seeds = {
        "signsvrg_v1": (RunSpec(algo="signsvrg_v1", gamma=0.03, x1=0.5 * np.ones(5), q=1.0, D=0.6,
                                L=0.2 * ls.lipschitz_constant(1.0)), ls, 59, (0, 1, 6, 2, 4)),
        "signsgd_plus": (RunSpec(algo="signsgd_plus", g_inf=10.0, **huge),
                         make_problem(ProblemSpec(kind="abs_regression", d=5, n=178, seed=3)), 79, (0, 1, 7, 2, 3)),
        "signsgd": (RunSpec(algo="signsgd", **huge),
                    make_problem(ProblemSpec(kind="trig_nonconvex", d=5, n=178, seed=3)), 79, (0, 1, 2, 3, 4)),
    }[case]
    with np.errstate(over="ignore", invalid="ignore"):
        default, failed = _survivors(spec, prob, T, seeds)
        assert failed == [seeds[2]]
        singles = {seed: _survivors(spec, prob, T, (seed,))[0][seed] for seed in default}
        width = max(prob.n, prob.d)
        monkeypatch.setattr(optimizers, "_SNAPSHOT_ELEMENTS", 5 * width)
        monkeypatch.setattr(optimizers, "_GROUP_ELEMENTS", 2 * 5 * width)
        monkeypatch.setattr(optimizers, "_SNAPSHOT_ROWS", 5)
        monkeypatch.setattr(vecmath, "_DRAW_ELEMENTS", 1)
        small = optimizers._Chunks(prob, T, len(seeds), spec.x1, False)
        assert (small.size, small.group) == (5, 2)
        assert next(vecmath.draw_blocks([RngStream(0)], prob.n, 5, T, 16))[1].shape == (2, 1)
        grouped, failed = _survivors(spec, prob, T, seeds)
        assert failed == [seeds[2]]
    if case == "signsvrg_v1":
        # every seed refreshes, and in some 5-row chunks seed 4 does while
        # seed 2, its group-mate in seed order, does not; seed 0 and seed 1
        # likewise. A call takes the seeds of one count of distinct rows
        chunks = {seed: set((np.flatnonzero(np.diff(columns["k"])) + 1) // 5) for seed, columns in grouped.items()}
        assert chunks[4] - chunks[2] and chunks[1] - chunks[0] and chunks[0] - chunks[1]
    for seed, columns in grouped.items():
        for name, column in columns.items():
            for other in (default[seed][name], singles[seed][name]):
                assert column.tobytes() == other.tobytes(), (seed, name)


def test_one_row_chunks_match_reference_run():
    # at max(n, d) > 8192 a snapshot chunk holds one row, so every step writes
    # its new iterates over the row it steps from: a rejected
    # variance-reduced candidate must still restore the iterate it replaced
    prob = _ls(d=3, n=8200, seed=3)
    assert _chunk_rows(prob) == 1
    for algo in ALGORITHMS:
        vr = algo in ("signsvrg_v1", "signsvrg_v2", "svrg")
        spec = RunSpec(algo=algo, gamma=0.5 if algo == "svrg" else 0.05, x1=np.ones(3), q=1.0,
                       D=0.3 if vr else None, L=prob.lipschitz_constant(1.0) if vr or algo == "signgd" else None,
                       g_inf=50.0 if algo == "signsgd_plus" else None, keep_iterates=True)
        batch = run_seeds(spec, prob, 40, (1, 2))
        assert not vr or min(tr.k[-1] for tr in batch) > 5, algo  # every seed refreshes
        for seed, tr in zip((1, 2), batch):
            _assert_matches_reference(tr, spec, prob, seed)
            # a repeated row is a chunk of its own, whose source is the
            # previous chunk's one row
            _assert_repeats_take_their_source(tr, prob)


def test_a_repeated_row_takes_its_source_snapshot():
    # a rejected step repeats its iterate, and the snapshot takes the f and
    # gradient norms of the row it repeats rather than evaluating it again.
    # Logistic at n = 300 takes chunks of 32 rows, and at a radius of 2.5
    # sign steps every seed refreshes, some on a chunk's first row, whose
    # source is the previous chunk's last row. The kept iterates are
    # reference_run's, the repeated rows included
    prob = _problem("logistic", 5, 300)
    size = _chunk_rows(prob)
    spec = RunSpec(algo="signsvrg_v2", gamma=0.03, x1=0.5 * np.ones(5), q=2.0,
                   D=2.5 * 0.03 * ConjugatePair(2.0).dim_root(5), L=prob.lipschitz_constant(2.0),
                   keep_iterates=True)
    batch = run_seeds(spec, prob, 120, BATCH_SEEDS)
    firsts = [r for tr in batch for r in np.flatnonzero(np.diff(tr.k)) + 1 if r % size == 0]
    assert size == 32 and len(firsts) >= 3
    for seed, tr in zip(BATCH_SEEDS, batch):
        _assert_repeats_take_their_source(tr, prob)
        _assert_matches_reference(tr, spec, prob, seed)


def test_a_radius_below_one_step_repeats_every_row():
    # a manual-schedule run whose D lies below one sign step rejects every
    # candidate: every row repeats x1, so no chunk after the first has a
    # distinct row, and every row takes the first row's f and gradient norms
    doc = {"problem": {"kind": "logistic", "d": 5, "n": 300, "seed": 3}, "algo": "signsvrg_v1",
           "schedule": "manual", "gamma": 0.03, "D": 0.01, "q": 2, "T": 100, "seeds": [1, 2],
           "x1": {"gaussian": 1.0}, "checks": []}
    cfg = config_from_dict(doc)
    prob = make_problem(cfg.problem)
    assert _chunk_rows(prob) == 32 and 0.03 * math.sqrt(5) > 0.01
    for tr in execute_experiment(cfg).traces:
        assert tr.k.tolist() == list(range(1, 102))
        np.testing.assert_array_equal(tr.x_final, tr.x1)
        f, grad = prob.value_and_full_gradient(tr.x1)
        for name, value in (("f", f), ("gnorm1", np.abs(grad).sum()), ("gnorm2", math.sqrt(grad @ grad)),
                            ("gnorm_inf", np.abs(grad).max())):
            column = getattr(tr, name)
            assert column.tobytes() == np.full(101, column[0]).tobytes(), name
            assert column[0] == pytest.approx(value, rel=1e-12, abs=0), name


@pytest.mark.parametrize("n", [500, 2000])
def test_snapshot_rows_never_reach_the_trajectory(n, monkeypatch):
    # vr_logistic_wide's problem and schedule at n = 500 and 2000, where
    # the row floor gives a snapshot call 32 and 8 rows in place of
    # 4096 // n = 8 and 2. No step reads a snapshot, so the trajectory keeps
    # its bits; f and the gradient norms may move in their last bits, since
    # BLAS sums a product of another row count in another order
    prob = make_problem(ProblemSpec(kind="logistic", d=100, n=n, seed=101))
    L = prob.lipschitz_constant(2.0)
    root = math.sqrt(2.0 / (L * 800))
    spec = RunSpec(algo="signsvrg_v2", gamma=root / ConjugatePair(2.0).dim_root(100),
                   x1=RngStream(0).generator.standard_normal(100), q=2.0, D=2 * root, L=L)
    seeds, T = (1, 2, 3, 4), 100
    default = run_seeds(spec, prob, T, seeds)
    assert _chunk_rows(prob) == {500: 32, 2000: 8}[n]
    monkeypatch.setattr(optimizers, "_SNAPSHOT_ROWS", 1)
    assert _chunk_rows(prob) == 4096 // n
    floorless = run_seeds(spec, prob, T, seeds)
    assert min(int(tr.k[-1]) for tr in default) > 10  # the run refreshes
    for seed, tr, other in zip(seeds, default, floorless):
        for name in ("t", "k", "dist_to_ref", "bits_cum", "grad_evals_cum", "flags", "x_final", "x_mean"):
            assert getattr(tr, name).tobytes() == getattr(other, name).tobytes(), (seed, name)
        for name in ("f", "gnorm1", "gnorm2", "gnorm_inf"):
            np.testing.assert_allclose(getattr(tr, name), getattr(other, name), rtol=1e-13, atol=0,
                                       err_msg=f"{seed} {name}")


def test_snapshot_chunks_take_the_row_floor_within_both_budgets():
    # a chunk takes 4096 // max(n, d) rows, or more, up to 32, as long as a
    # seed's rows * d stay within 4096 float64s and a call's
    # (G, rows, max(n, d)) operands within 2^14; the seeds per call keep
    # their formula, and only a wide problem's one-row chunk exceeds a budget
    for n, d, S in itertools.product((1, 7, 20, 50, 127, 128, 129, 178, 300, 500, 512, 513, 2000, 4200,
                                      8192, 8193, 20000), (1, 5, 100, 2048, 2049, 5000), (1, 4, 20)):
        chunks = optimizers._Chunks(SimpleNamespace(n=n, d=d), 1, S, np.zeros(d), False)
        rows, group, width = chunks.size, chunks.group, max(n, d)
        assert group == max(1, (1 << 14) // (rows * width)), (n, d, S)
        assert rows == 1 or group * rows * width <= 1 << 14 and rows * d <= 4096, (n, d, S)
        if 4096 // width >= 32:
            assert rows == 4096 // width, (n, d, S)
        else:  # one more row would break the floor or a budget
            assert rows == 32 or (rows + 1) * width > 1 << 14 or (rows + 1) * d > 4096, (n, d, S)
        assert (rows == 1) == (width > 8192 or d > 2048), (n, d, S)


def test_workload_snapshot_shapes():
    # (rows, seeds per call) of the benchmark workloads' snapshots
    want = {"vr_trig": (81, 4), "plus_abs": (204, 4), "vr_logistic_wide": (32, 1)}
    for name, cfg in workload_configs().items():
        chunks = optimizers._Chunks(cfg.problem, 1, len(cfg.seeds), np.zeros(cfg.problem.d), False)
        assert (chunks.size, chunks.group) == want[name.rsplit("-", 1)[0]], name


def test_candidate_steps_take_a_zero_residual_as_plus():
    # |x - 0| from x1 = +-0.0 with steps of 0.5: the residual is exactly 0
    # on every other step, where the +a_i subgradient must be the one taken,
    # by signsgd_plus's precomputed steps (_both_steps) as by the general
    # path of signsgd and sgd
    prob = AbsRegressionProblem(np.array([[1.0]]), np.array([0.0]))
    assert prob.subgradient_rows() is not None
    for algo, x1 in itertools.product(("signsgd", "signsgd_plus", "sgd"), (0.0, -0.0)):
        spec = RunSpec(algo=algo, gamma=0.5, x1=np.array([x1]), g_inf=0.25 if algo == "signsgd_plus" else None,
                       keep_iterates=True)
        tr = run(spec, prob, 6, 4)
        if algo != "signsgd_plus":
            assert tr.x_final[0] == 0.0 and tr.iterates[1, 0] == -0.5, algo
        _assert_matches_reference(tr, spec, prob, 4)


# ---------------------------------------------------------------- invariants

def test_vr_radius_invariant():
    prob = _ls(d=6, n=9, seed=5)
    L = prob.lipschitz_constant(2.0)
    tr = run(
        RunSpec(algo="signsvrg_v1", gamma=0.05, x1=np.ones(6), q=2.0, D=0.4, L=L),
        prob, 400, 21,
    )
    assert tr.dist_to_ref.max() <= 0.4 + 1e-12
    assert tr.k[-1] > 1  # the bound actually binds in this setup


def test_vr_step_report_exclusivity():
    # each step either moves (d sign bits or d floats, two component
    # gradients) or refreshes the reference at the unmoved iterate (n d F
    # bits, n more gradients), and a refresh happens exactly where k increments
    prob = _ls()
    L = prob.lipschitz_constant(1.0)
    n, d = prob.n, prob.d
    for algo, gamma, move_bits in (("signsvrg_v1", 0.05, d), ("svrg", 0.02, d * 32)):
        spec = RunSpec(algo=algo, gamma=gamma, x1=np.ones(4), q=1.0, D=0.25, L=L,
                       keep_iterates=True)
        for tr in run_seeds(spec, prob, 50, (3, 4, 5, 6)):
            step_k = np.diff(tr.k)
            assert set(step_k) == {0, 1}, algo
            refresh = step_k == 1
            np.testing.assert_array_equal(np.diff(tr.bits_cum), np.where(refresh, n * d * 32, move_bits))
            np.testing.assert_array_equal(np.diff(tr.grad_evals_cum), np.where(refresh, 2 + n, 2))
            np.testing.assert_array_equal(tr.dist_to_ref[1:][refresh], 0.0)
            x = np.vstack([tr.iterates, tr.x_final])
            stood_still = np.all(x[1:] == x[:-1], axis=1)
            np.testing.assert_array_equal(stood_still[refresh], True)


def test_every_step_rejects_when_radius_below_step():
    # a sign step moves exactly gamma * d^{1/q} in the q-norm, so D below that
    # forces a reference refresh on every iteration and x never moves
    prob = _ls()
    L = prob.lipschitz_constant(1.0)
    gamma, d = 0.05, 4
    T = 30
    tr = run(
        RunSpec(algo="signsvrg_v1", gamma=gamma, x1=np.ones(4), q=1.0,
                D=0.9 * gamma * d, L=L),
        prob, T, 2,
    )
    assert tr.k.tolist() == list(range(1, T + 2))
    np.testing.assert_array_equal(tr.x_final, np.ones(4))


def test_vr_gradient_amplitude_bound():
    # |v_t| <= L ||x_t - ref||_q + the variant's reference amplitude: with
    # the true L the oracle checks it on every step of runs that both move
    # and refresh, and with L far too small it raises
    prob = _ls(d=5, n=7, seed=3)
    L = prob.lipschitz_constant(1.0)
    for algo in ("signsvrg_v1", "signsvrg_v2"):
        spec = RunSpec(algo=algo, gamma=0.03, x1=0.5 * np.ones(5), q=1.0, D=0.6, L=L)
        for seed in range(8):
            assert 1 < reference_run(spec, prob, 100, seed)["k"][-1] < 50
        with pytest.raises(AssertionError, match="noise amplitude"):
            for seed in range(8):
                reference_run(dataclasses.replace(spec, L=0.2 * L), prob, 60, seed)


def test_signgd_descent_accounting(trig_small):
    # telescoped per-step inequality:
    # f(x_{T+1}) <= f(x_1) - gamma * sum_t ||g_t||_1 + T * gamma^2 * L * d^{2/q} / 2
    prob = trig_small
    for q in (1.0, 2.0, math.inf):
        L = prob.lipschitz_constant(q)
        pair = ConjugatePair(q)
        gamma = 0.01 / pair.dim_root(prob.d)
        tr = run(RunSpec(algo="signgd", gamma=gamma, x1=np.ones(prob.d), q=q, L=L), prob, 300, 0)
        slack = (
            tr.f[0]
            - gamma * tr.gnorm1[:-1].sum()
            + 300 * gamma**2 * L * pair.dim_root(prob.d) ** 2 / 2
            - tr.f[-1]
        )
        assert slack >= -1e-9 * (1 + abs(tr.f[-1]))


def test_signgd_multi_seed_identical():
    prob = _ls()
    spec = RunSpec(algo="signgd", gamma=0.05, x1=np.ones(4), L=prob.lipschitz_constant(1.0))
    a = run(spec, prob, 50, 1)
    b = run(spec, prob, 50, 999)
    np.testing.assert_array_equal(a.x_final, b.x_final)  # deterministic method


def test_signgd_batch_takes_one_full_gradient_per_step():
    prob = _ls(d=5, n=7, seed=3)
    calls = []

    def full_gradient(x):
        calls.append(1)
        return type(prob).full_gradient(prob, x)

    spec = RunSpec(algo="signgd", gamma=0.03, x1=np.ones(5), L=prob.lipschitz_constant(1.0), keep_iterates=True)
    singles = [run(spec, prob, 40, seed) for seed in (2, 9, 5)]
    prob.full_gradient = full_gradient
    batch = run_seeds(spec, prob, 40, (2, 9, 5))
    assert len(calls) == 40
    for tr, single in zip(batch, singles):
        assert tr.meta["seed"] == single.meta["seed"]
        for col in TRACE_COLUMNS:
            np.testing.assert_array_equal(getattr(tr, col), getattr(single, col), err_msg=col)
    # each trace owns its arrays
    batch[1].x_final[0] = 99.0
    batch[1].f[0] = 99.0
    assert batch[0].x_final[0] == batch[2].x_final[0] != 99.0
    assert batch[0].f[0] == batch[2].f[0] != 99.0


def test_run_determinism():
    prob = _ls(d=5, n=7, seed=3)
    L = prob.lipschitz_constant(1.0)
    spec = RunSpec(algo="signsvrg_v2", gamma=0.04, x1=np.ones(5), q=1.0, D=0.5, L=L)
    a, b = run(spec, prob, 300, 17), run(spec, prob, 300, 17)
    np.testing.assert_array_equal(a.x_final, b.x_final)
    np.testing.assert_array_equal(a.f, b.f)
    np.testing.assert_array_equal(a.bits_cum, b.bits_cum)
    c = run(spec, prob, 300, 18)
    assert not np.array_equal(a.x_final, c.x_final)


def test_divergent_sgd_raises():
    prob = _ls()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteIterateError):
        run(RunSpec(algo="sgd", gamma=1e3, x1=np.ones(4)), prob, 3000, 0)


def test_trace_shapes_and_snapshot_semantics():
    prob = _ls()
    T = 12
    tr = run(RunSpec(algo="signsgd", gamma=0.1, x1=np.ones(4), keep_iterates=True), prob, T, 5)
    assert tr.T == T
    assert tr.f.shape == (T + 1,)  # rows 1..T plus the terminal snapshot
    assert tr.iterates.shape == (T, 4)
    np.testing.assert_array_equal(tr.iterates[0], np.ones(4))  # row 1 is x_1
    assert tr.f[0] == pytest.approx(prob.value(np.ones(4)))
    assert tr.bits_cum[0] == 0  # nothing sent before the first snapshot
    assert tr.bits_cum[-1] == T * 4
    np.testing.assert_allclose(tr.x_mean, tr.iterates.mean(axis=0), atol=1e-12)


def test_degenerate_flag_on_stationary_reference():
    # start a variance-reduced run exactly at a point of exactly-zero gradient:
    # the first candidate direction is built from an all-zero estimate
    from signopt.problems import LeastSquaresProblem

    prob = LeastSquaresProblem(np.eye(3), np.zeros(3))
    tr = run(
        RunSpec(algo="signsvrg_v1", gamma=0.01, x1=np.zeros(3), q=1.0, D=0.3,
                L=prob.lipschitz_constant(1.0)),
        prob, 5, 0,
    )
    assert tr.flags[0] & FLAG_DEGENERATE


def test_v2_degenerate_flags_across_mid_block_refreshes():
    # a zero column of A zeroes that coordinate of every gradient, so the
    # variant-2 amplitude of that coordinate is exactly 0 on every step that
    # starts at its reference: row 1 and each row after a refresh; T spans
    # three blocks of draws
    from signopt.problems import LeastSquaresProblem

    gen = np.random.default_rng(5)
    a = gen.standard_normal((6, 4))
    a[:, 2] = 0.0
    prob = LeastSquaresProblem(a, gen.standard_normal(6))
    spec = RunSpec(algo="signsvrg_v2", gamma=0.01, x1=np.ones(4), q=1.0, D=0.1,
                   L=prob.lipschitz_constant(1.0))
    T, seeds = 3000, (0, 1, 2)
    for seed, tr in zip(seeds, run_seeds(spec, prob, T, seeds)):
        ref = reference_run(spec, prob, T, seed)
        np.testing.assert_array_equal(tr.flags, ref["flags"])
        np.testing.assert_array_equal(tr.k, ref["k"])
        flagged = np.flatnonzero(tr.flags & FLAG_DEGENERATE)
        # blocks have an even length, so an odd row never starts one
        assert (flagged % 2 == 1).any() and flagged.max() > 2 * T // 3, seed
        assert 0 < len(flagged) < T, seed


def test_runspec_validation():
    x1 = np.ones(3)
    with pytest.raises(ValueError):
        RunSpec(algo="nope", gamma=0.1, x1=x1)
    with pytest.raises(ValueError):
        RunSpec(algo="signsgd", gamma=0.0, x1=x1)
    with pytest.raises(ValueError):
        RunSpec(algo="signsgd_plus", gamma=0.1, x1=x1)  # g_inf missing
    with pytest.raises(ValueError):
        RunSpec(algo="signsvrg_v1", gamma=0.1, x1=x1)  # D, L missing
    with pytest.raises(ValueError):
        RunSpec(algo="signsvrg_v1", gamma=0.1, x1=x1, D=0.5)  # L missing
    with pytest.raises(ValueError, match="trust radius"):
        RunSpec(algo="svrg", gamma=0.1, x1=x1, D=0.0, L=1.0)
    with pytest.raises(ValueError, match="smoothness"):
        RunSpec(algo="signsvrg_v2", gamma=0.1, x1=x1, D=0.5, L=-1.0)
    # a NaN passes every "<= 0" test, and an infinite D or L no radius check
    for bad in ({"gamma": math.nan}, {"gamma": math.inf}, {"D": math.nan}, {"D": math.inf},
                {"L": math.nan}, {"L": math.inf}):
        kw = dict({"gamma": 0.1, "D": 0.5, "L": 1.0}, **bad)
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be finite"):
            RunSpec(algo="signsvrg_v1", x1=x1, **kw)
    for g_inf in (math.nan, math.inf):
        with pytest.raises(ValueError, match="g_inf must be finite"):
            RunSpec(algo="signsgd_plus", gamma=0.1, x1=x1, g_inf=g_inf)
    # every algorithm records q in its trace meta, so every one validates it
    for algo, extra in (("signsgd", {}), ("signgd", {"L": 1.0}), ("signsgd_plus", {"g_inf": 1.0}),
                        ("signsvrg_v1", {"D": 0.5, "L": 1.0})):
        with pytest.raises(ValueError, match="q must be one of"):
            RunSpec(algo=algo, gamma=0.1, x1=x1, q=3.0, **extra)
        assert RunSpec(algo=algo, gamma=0.1, x1=x1, q=math.inf, **extra).q == math.inf
    assert set(ALGORITHMS) == {
        "signsgd", "signsgd_plus", "signgd", "sgd",
        "signsvrg_v1", "signsvrg_v2", "svrg",
    }


# the run parameters each method's step or bound reads, besides gamma and q
RECORDED = {"signsgd": (), "signsgd_plus": ("g_inf",), "signgd": ("L",), "sgd": (),
            "signsvrg_v1": ("D", "L"), "signsvrg_v2": ("D", "L"), "svrg": ("D", "L")}


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_runspec_takes_exactly_what_its_method_records(algo):
    # RunSpec writes D, L and g_inf into every trace's meta, where the bound
    # evaluators read them: one the method does not read is refused, not
    # recorded, and one its step reads must be given; signgd's step reads no
    # L, so it records None without one
    prob, values = _ls(d=3), {"D": 0.5, "L": 1.0, "g_inf": 1.0}
    needed = {name: values[name] for name in RECORDED[algo]}
    tr = run(RunSpec(algo=algo, gamma=0.1, x1=np.ones(3), **needed), prob, 2, 0)
    assert {name for name in values if tr.meta[name] is not None} == set(needed)
    for name in values.keys() - needed.keys():
        with pytest.raises(ValueError, match=f"{name} is not a parameter of {algo}"):
            RunSpec(algo=algo, gamma=0.1, x1=np.ones(3), **needed, **{name: values[name]})
    for name in needed:
        rest = {k: v for k, v in needed.items() if k != name}
        if (algo, name) == ("signgd", "L"):
            assert run(RunSpec(algo=algo, gamma=0.1, x1=np.ones(3), **rest), prob, 2, 0).meta[name] is None
            continue
        with pytest.raises(ValueError, match=f"{algo} requires {name}"):
            RunSpec(algo=algo, gamma=0.1, x1=np.ones(3), **rest)


def test_run_rejects_bad_horizon_and_x1():
    prob = _ls()
    with pytest.raises(ValueError):
        run(RunSpec(algo="signsgd", gamma=0.1, x1=np.ones(4)), prob, 0, 1)
    with pytest.raises(ValueError):
        run(RunSpec(algo="signsgd", gamma=0.1, x1=np.ones(3)), prob, 5, 1)
    with pytest.raises(ValueError):
        run(RunSpec(algo="signsgd", gamma=0.1, x1=np.array([1.0, np.nan, 0, 0])), prob, 5, 1)
