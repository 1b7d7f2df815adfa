"""Independent reference implementations used to validate the fast paths."""
import math

import numpy as np
import pytest

from signopt.oracles import (
    brute_force_opnorm,
    counterexample_drift,
    expected_sign_analytic,
    masked_sigmoid,
    monte_carlo_expected_sign,
    signgd_1d_closed_form,
    softplus_libm,
)
from signopt.problems import LogisticProblem, ProblemSpec, make_problem
from signopt.vecmath import RngStream


def test_expected_sign_analytic_is_clipped_ratio():
    assert expected_sign_analytic(0.25, 0.5) == 0.5
    assert expected_sign_analytic(-0.25, 0.5) == -0.5
    assert expected_sign_analytic(0.0, 1.0) == 0.0
    # saturates outside the noise range
    assert expected_sign_analytic(3.0, 1.0) == 1.0
    assert expected_sign_analytic(-9.0, 2.0) == -1.0
    with pytest.raises(ValueError):
        expected_sign_analytic(0.1, 0.0)


def test_monte_carlo_matches_analytic():
    for g, G in [(0.3, 1.0), (-0.7, 1.0), (0.0, 0.5), (1.5, 3.0)]:
        mean, se = monte_carlo_expected_sign(g, G, 40_000, RngStream(17))
        assert abs(mean - expected_sign_analytic(g, G)) <= 4 * se


def test_monte_carlo_endpoints_are_exact():
    # |g| >= G: every draw has the same sign, so stderr is 0 and the mean exact
    mean, se = monte_carlo_expected_sign(1.0, 1.0, 5000, RngStream(1))
    assert mean == 1.0 and se == 0.0
    mean, se = monte_carlo_expected_sign(-2.5, 1.0, 5000, RngStream(2))
    assert mean == -1.0 and se == 0.0


def test_drift_pushes_away_from_minimizer():
    # inside (-1, 3) the gradient signs are (-1, +1, +1), so the mean sign is
    # +1/3 and the expected sign step -gamma/3 points left, away from x* = 1/3
    assert counterexample_drift(0.0) == pytest.approx(1.0 / 3.0)
    assert counterexample_drift(0.3333) == pytest.approx(1.0 / 3.0)
    assert counterexample_drift(2.9) == pytest.approx(1.0 / 3.0)
    # outside the trap the drift turns around and herds iterates back in
    assert counterexample_drift(5.0) == pytest.approx(1.0)
    assert counterexample_drift(-2.0) == pytest.approx(-1.0)


def test_drift_consistent_with_problem_gradients():
    prob = make_problem(ProblemSpec(kind="counterexample", d=1, n=3, seed=0))
    for x in (-2.0, -0.5, 0.0, 1.0, 2.5, 4.0):
        signs = [
            1.0 if prob.component_gradient(i, np.array([x]))[0] >= 0 else -1.0
            for i in range(3)
        ]
        assert counterexample_drift(x) == pytest.approx(np.mean(signs))


def test_brute_force_opnorm_identity():
    eye = np.eye(4)
    assert brute_force_opnorm(eye, 1.0) == pytest.approx(1.0)
    assert brute_force_opnorm(eye, 2.0) == pytest.approx(1.0)
    assert brute_force_opnorm(eye, math.inf) == pytest.approx(4.0)


def test_brute_force_opnorm_rank_one():
    a = np.array([1.0, -2.0, 3.0])
    m = np.outer(a, a)
    assert brute_force_opnorm(m, 1.0) == pytest.approx(9.0)       # max |a_i|^2
    assert brute_force_opnorm(m, 2.0) == pytest.approx(14.0)      # ||a||_2^2
    assert brute_force_opnorm(m, math.inf) == pytest.approx(36.0)  # ||a||_1^2


def test_brute_force_opnorm_2x2_spectral():
    m = np.array([[3.0, 1.0], [1.0, 2.0]])
    assert brute_force_opnorm(m, 2.0) == pytest.approx((5 + math.sqrt(5)) / 2, rel=1e-12)


def test_brute_force_opnorm_dimension_cap():
    with pytest.raises(ValueError):
        brute_force_opnorm(np.eye(13), math.inf)


def test_signgd_closed_form_sequence():
    got = signgd_1d_closed_form(1.0, 0.3, 7)
    np.testing.assert_allclose(got, [1.0, 0.7, 0.4, 0.1, 0.2, 0.1, 0.2], atol=1e-15)


def test_signgd_closed_form_recursion():
    seq = signgd_1d_closed_form(0.83, 0.07, 40)
    for a, b in zip(seq, seq[1:]):
        assert b == pytest.approx(abs(a - 0.07), abs=1e-15)


SIGMOID_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                          1e-17, -1e-17, 36.7, -36.7, 709.7, -709.7, 710.0, -710.0,
                          745.1, -745.1, 746.0, -746.0, 1e308, -1e308, np.inf, -np.inf])


def test_sigmoid_matches_masked_oracle_bit_for_bit():
    edges = SIGMOID_EDGES
    rng = np.random.default_rng(5)
    cases = [edges, np.float64(-3.5), np.array(0.0), np.array(-746.0), np.array([-0.0]),
             rng.standard_normal(4) * 40, rng.standard_normal(500) * 40,
             rng.standard_normal((8, 500)) * 40, np.tile(edges, (3, 1))]
    for z in cases:
        got = np.asarray(LogisticProblem._sigmoid(np.asarray(z)))
        want = masked_sigmoid(z)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), z
        if np.ndim(z) == 0:
            continue
        # in place: into a separate buffer, and over z itself
        buf = np.full_like(z, np.nan)
        assert LogisticProblem._sigmoid(z, out=buf) is buf
        assert buf.tobytes() == want.tobytes(), z
        z = z.copy()
        assert LogisticProblem._sigmoid(z, out=z) is z
        assert z.tobytes() == want.tobytes()


def test_sigmoid_numerator_is_the_where_form_bit_for_bit_at_nan():
    # _sigmoid's numerator max(e, z >= 0) must give the bits of
    # where(z >= 0, 1, e), e = exp(-|z|), NaNs of either sign and any payload
    # included. masked_sigmoid already differs from both at +NaN, so the
    # where form is the reference here
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000000123],
                    dtype=np.uint64).view(np.float64)
    assert np.isnan(nans).all() and np.signbit(nans).tolist() == [False, True, False, True]

    def where_form(z):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0, e) / (e + 1.0)

    z = np.concatenate([nans, SIGMOID_EDGES])
    for case in (z, z[::-1], np.tile(z, (3, 1)), np.repeat(z, 17)):
        want = where_form(case)
        assert LogisticProblem._sigmoid(case.copy()).tobytes() == want.tobytes(), case
        buf = case.copy()
        assert LogisticProblem._sigmoid(buf, out=buf).tobytes() == want.tobytes(), case


def test_logistic_values_match_libm_softplus_bit_for_bit():
    # one row with a = y = 1: every value kernel returns the single term
    # log(1 + e^-x) itself, so a last-ulp change of any element shows
    prob = LogisticProblem(np.ones((1, 1)), np.ones(1))
    xs = np.linspace(-40.0, 40.0, 2001)[:, None]
    batch, _ = prob.value_and_full_gradient_batch(xs)
    for x, v in zip(xs, batch):
        want = softplus_libm(-x[0])
        got = (v, prob.value_and_full_gradient(x)[0], prob.value(x), prob.component_value(0, x))
        assert got == (want,) * 4, x
