"""Benchmark problem families: gradients, smoothness constants, optima.

Every analytic constant is cross-checked against an independent route:
finite differences for gradients, sampled difference quotients for the
smoothness constants, and hand-constructed worst-case directions for
tightness.
"""
import math

import numpy as np
import pytest

from signopt.oracles import (
    brute_force_opnorm,
    estimate_lipschitz_empirical,
    finite_diff_gradient,
    masked_sigmoid,
)
from signopt.problems import (
    AbsRegressionProblem,
    LeastSquaresProblem,
    LogisticProblem,
    ProblemSpec,
    make_problem,
    numeric_f_star,
)
from signopt.vecmath import ConjugatePair, RngStream, norm, row_dot

QS = (1.0, 2.0, math.inf)

def _rows(prob):
    """The rows a_i; a logistic problem stores the signed rows -y_i a_i."""
    if isinstance(prob, LogisticProblem):
        return -prob.y[:, None] * prob.ya
    return prob.a


SMOOTH_SPECS = [
    ProblemSpec(kind="least_squares", d=6, n=10, seed=1),
    ProblemSpec(kind="logistic", d=5, n=12, seed=2),
    ProblemSpec(kind="trig_nonconvex", d=4, n=7, seed=3, lam=0.2),
    ProblemSpec(kind="sphere_quadratic", d=8, n=1, seed=4),
]


@pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=lambda s: s.kind)
def test_component_gradients_match_finite_differences(spec):
    prob = make_problem(spec)
    gen = RngStream(99).generator
    for _ in range(20):
        i = int(gen.integers(0, prob.n))
        x = gen.standard_normal(prob.d)
        g = prob.component_gradient(i, x)
        g_fd = finite_diff_gradient(prob, i, x, 1e-5)
        denom = max(1.0, float(norm(g, 2)))
        assert float(norm(g - g_fd, 2)) / denom < 1e-5


@pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=lambda s: s.kind)
def test_full_gradient_is_component_mean(spec):
    prob = make_problem(spec)
    gen = RngStream(5).generator
    for _ in range(5):
        x = gen.standard_normal(prob.d)
        mean_g = np.mean([prob.component_gradient(i, x) for i in range(prob.n)], axis=0)
        np.testing.assert_allclose(prob.full_gradient(x), mean_g, atol=1e-12, rtol=1e-12)
        mean_f = np.mean([prob.component_value(i, x) for i in range(prob.n)])
        assert prob.value(x) == pytest.approx(mean_f, abs=1e-12)


@pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("q", QS, ids=("q1", "q2", "qinf"))
def test_smoothness_upper_bound_with_analytic_constant(spec, q):
    """f_i(y) <= f_i(x) + <g_i(x), y-x> + (L_q/2) ||y-x||_q^2 for all sampled pairs."""
    prob = make_problem(spec)
    L = prob.lipschitz_constant(q)
    assert L is not None and L > 0
    gen = RngStream(31).generator
    for _ in range(40):
        i = int(gen.integers(0, prob.n))
        x = gen.standard_normal(prob.d)
        y = x + 0.5 * gen.standard_normal(prob.d)
        lhs = prob.component_value(i, y)
        rhs = (
            prob.component_value(i, x)
            + float(prob.component_gradient(i, x) @ (y - x))
            + 0.5 * L * norm(y - x, q) ** 2
        )
        assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


@pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=lambda s: s.kind)
def test_constants_ordered_in_q(spec):
    prob = make_problem(spec)
    l1, l2, linf = (prob.lipschitz_constant(q) for q in QS)
    assert l1 <= l2 * (1 + 1e-12)
    assert l2 <= linf * (1 + 1e-12)


@pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("q", QS, ids=("q1", "q2", "qinf"))
def test_empirical_constant_never_exceeds_analytic(spec, q):
    prob = make_problem(spec)
    est = estimate_lipschitz_empirical(prob, q, RngStream(13), trials=300)
    assert est <= prob.lipschitz_constant(q) * (1 + 1e-9)


def _fd_hessian(prob, i, x, h=1e-4):
    """Hessian of f_i at x by central differences of component_gradient."""
    cols = []
    for k in range(prob.d):
        e = np.zeros(prob.d)
        e[k] = h
        cols.append((prob.component_gradient(i, x + e) - prob.component_gradient(i, x - e)) / (2 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("spec", SMOOTH_SPECS[:3], ids=lambda s: s.kind)
def test_lipschitz_constant_bounds_every_component_hessian(spec):
    """L_q, the premise of every variance-reduced bound, is at least the
    q -> p operator norm of each component Hessian, and equals the largest
    one on points chosen to reach it: any x for least squares, x = 0 for
    logistic (curvature 1/4) and a_i^T x = pi for trig (cos = -1, so the
    Hessian is a_i a_i^T + lam I)."""
    prob = make_problem(spec)
    tol = 1e-9 if spec.kind == "least_squares" else 1e-6  # difference-quotient error
    tight = [np.zeros(prob.d)] + [math.pi * a / float(a @ a) for a in _rows(prob)]
    xs = tight + list(RngStream(17).generator.standard_normal((4, prob.d)))
    hessians = [_fd_hessian(prob, i, x) for x in xs for i in range(prob.n)]
    for q in QS:
        L = prob.lipschitz_constant(q)
        worst = max(brute_force_opnorm(h, q) for h in hessians)
        assert worst <= L * (1 + tol)
        assert worst >= L * (1 - tol)


def test_logistic_infimum_is_certified_on_separable_data():
    prob = make_problem(ProblemSpec(kind="logistic", d=5, n=12, seed=2))
    assert float((prob.y * (_rows(prob) @ prob.separator)).min()) > 0.0
    assert prob.f_infimum() == 0.0
    assert prob.optimum() is None  # the infimum is not attained
    for spec in SMOOTH_SPECS[:1] + SMOOTH_SPECS[2:]:
        assert make_problem(spec).f_infimum() is None


def test_logistic_infimum_needs_every_margin_positive():
    prob = make_problem(ProblemSpec(kind="logistic", d=5, n=12, seed=2))
    flipped = prob.y.copy()
    flipped[3] = -flipped[3]
    assert LogisticProblem(_rows(prob), flipped, prob.separator).f_infimum() is None
    assert LogisticProblem(_rows(prob), prob.y).f_infimum() is None  # no separator
    noisy = make_problem(ProblemSpec(kind="logistic", d=5, n=12, seed=2, label_noise=0.2))
    assert float((noisy.y * (_rows(noisy) @ noisy.separator)).min()) < 0.0
    assert noisy.f_infimum() is None
    # a margin within the dot product's rounding error certifies nothing
    for tail, certified in ((1e-20, None), (1e-3, 0.0)):
        rows = np.array([[1.0, -1.0, tail], [1.0, 1.0, 1.0]])
        assert LogisticProblem(rows, np.ones(2), np.ones(3)).f_infimum() == certified
    with pytest.raises(ValueError, match="separator"):
        LogisticProblem(rows, np.ones(2), np.ones(2))


def test_logistic_value_falls_to_the_infimum_along_the_separator():
    prob = make_problem(ProblemSpec(kind="logistic", d=5, n=12, seed=2))
    vals = [prob.value(c * prob.separator) for c in (1.0, 10.0, 100.0, 1000.0)]
    assert all(later < earlier for earlier, later in zip(vals, vals[1:]))
    assert 0.0 < vals[-1] < 1e-8


class _LabelForm:
    """The logistic kernels on the rows a and labels y, with the margins
    written -(y * (a @ x)): the form LogisticProblem's signed rows -y_i a_i
    must reproduce bit for bit."""

    def __init__(self, a, y):
        self.a, self.y, self.n = a, y, len(y)

    def component_value(self, i, x):
        return float(np.logaddexp(0.0, -(self.y[i] * (self.a[i] @ x))))

    def component_gradient(self, i, x):
        return -self.y[i] * masked_sigmoid(-(self.y[i] * (self.a[i] @ x))) * self.a[i]

    def value(self, x):
        return float(np.logaddexp(0.0, -(self.y * (self.a @ x))).mean())

    def full_gradient(self, x):
        return -(self.a.T @ (self.y * masked_sigmoid(-(self.y * (self.a @ x))))) / self.n

    def value_and_full_gradient(self, x):
        w = -(self.y * (self.a @ x))
        return float(np.add.reduce(np.logaddexp(0.0, w)) / self.n), -(self.a.T @ (self.y * masked_sigmoid(w))) / self.n

    def component_gradient_batch(self, idx, xs):
        rows, y = self.a.take(idx, axis=0), self.y.take(idx)
        return (-y * masked_sigmoid(-(y * row_dot(rows, xs))))[..., None] * rows

    def value_and_full_gradient_batch(self, xs):
        w = -(self.y * (xs @ self.a.T))
        return np.add.reduce(np.logaddexp(0.0, w), axis=1) / self.n, -((self.y * masked_sigmoid(w)) @ self.a) / self.n


@pytest.mark.parametrize("d, n", [(7, 40), (100, 500)])
def test_logistic_signed_rows_match_the_label_form_bit_for_bit(d, n):
    # flipped labels give rows of both signs; the scales take the margins
    # from 0 (x = 0) through both saturated tails of the sigmoid and the
    # exp underflow of logaddexp. array_equal counts -0.0 as 0.0
    prob = make_problem(ProblemSpec(kind="logistic", d=d, n=n, seed=d, label_noise=0.3))
    rows = _rows(prob)
    ref = _LabelForm(rows, prob.y)
    assert (prob.y < 0).any() and (prob.y > 0).any()
    gen = RngStream(n).generator
    xs = gen.standard_normal((5, d)) * np.array([0.0, 1.0, 30.0, 1e3, 1e6])[:, None]
    idx = gen.integers(0, n, size=5)
    assert np.abs(rows @ xs[-1]).min() > 800.0  # past exp's overflow either way
    for x in xs:
        for i in idx:
            i = int(i)
            assert prob.component_value(i, x).hex() == ref.component_value(i, x).hex()
            assert np.array_equal(prob.component_gradient(i, x), ref.component_gradient(i, x))
        assert prob.value(x).hex() == ref.value(x).hex()
        assert np.array_equal(prob.full_gradient(x), ref.full_gradient(x))
        (val, grad), (want_val, want_grad) = prob.value_and_full_gradient(x), ref.value_and_full_gradient(x)
        assert val.hex() == want_val.hex() and np.array_equal(grad, want_grad)
    for stack in (xs, np.stack([xs, xs[::-1]])):
        assert np.array_equal(prob.component_gradient_batch(idx, stack), ref.component_gradient_batch(idx, stack))
    for got, want in zip(prob.value_and_full_gradient_batch(xs), ref.value_and_full_gradient_batch(xs)):
        assert np.array_equal(got, want)
    for q in QS:
        want = 0.25 * float(np.max([norm(row, ConjugatePair(q).p) for row in rows])) ** 2
        assert prob.lipschitz_constant(q).hex() == want.hex()


def test_logistic_rows_stay_the_constructors_and_read_only():
    # the stored signed rows give back the constructor's rows bit for bit,
    # signed zeros under either label included
    gen = RngStream(8).generator
    rows = gen.standard_normal((30, 6))
    rows[:2, :2] = (0.0, -0.0)
    y = np.where(gen.uniform(size=30) < 0.5, -1.0, 1.0)
    y[:2] = (1.0, -1.0)
    prob = LogisticProblem(rows, y)
    assert _rows(prob).tobytes() == rows.tobytes()
    assert prob.ya.shape == (30, 6) and not prob.ya.flags.writeable
    with pytest.raises(ValueError):
        prob.ya[0, 0] = 1.0


def test_least_squares_constants_are_tight():
    """For each q the analytic constant max_i ||a_i||_p^2 is achieved by a
    hand-picked displacement along the worst row."""
    prob = make_problem(ProblemSpec(kind="least_squares", d=6, n=10, seed=1))
    rows = prob.a
    for q in QS:
        pair = ConjugatePair(q)
        L = prob.lipschitz_constant(q)
        norms = [norm(rows[i], pair.p) ** 2 for i in range(prob.n)]
        i_star = int(np.argmax(norms))
        a = rows[i_star]
        if q == 2.0:
            y = a.copy()
        elif q == 1.0:
            y = np.zeros(prob.d)
            y[int(np.argmax(np.abs(a)))] = 1.0
        else:
            y = np.where(a >= 0, 1.0, -1.0)
        x = np.zeros(prob.d)
        ratio = norm(
            prob.component_gradient(i_star, y) - prob.component_gradient(i_star, x),
            pair.p,
        ) / norm(y, q)
        assert ratio == pytest.approx(L, rel=1e-9)


def test_constants_coincide_at_d_1():
    prob = make_problem(ProblemSpec(kind="least_squares", d=1, n=5, seed=8))
    l1, l2, linf = (prob.lipschitz_constant(q) for q in QS)
    assert l1 == pytest.approx(l2, rel=1e-14)
    assert l2 == pytest.approx(linf, rel=1e-14)


# ---------------------------------------------------------------- frozen constants

def test_least_squares_handmade_constants():
    a = np.array([[1.0, 2.0], [0.0, -3.0]])
    b = np.array([0.0, 0.0])
    prob = LeastSquaresProblem(a, b)
    # rows (1,2) and (0,-3): max row inf-norms^2 = 9, 2-norms^2 = 9, 1-norms^2 = 9
    assert prob.lipschitz_constant(1.0) == pytest.approx(9.0)
    assert prob.lipschitz_constant(2.0) == pytest.approx(9.0)
    assert prob.lipschitz_constant(math.inf) == pytest.approx(9.0)
    a2 = np.array([[2.0, 0.0], [1.0, 2.0]])
    prob2 = LeastSquaresProblem(a2, b)
    assert prob2.lipschitz_constant(1.0) == pytest.approx(4.0)   # max {4, 4}
    assert prob2.lipschitz_constant(2.0) == pytest.approx(5.0)   # max {4, 5}
    assert prob2.lipschitz_constant(math.inf) == pytest.approx(9.0)  # max {4, 9}


def test_logistic_frozen_values():
    prob = make_problem(ProblemSpec(kind="logistic", d=4, n=6, seed=0))
    x0 = np.zeros(4)
    assert prob.value(x0) == pytest.approx(math.log(2.0), rel=1e-14)
    # grad at 0 is -(1/n) sum y_i a_i / 2
    expect = -np.mean(prob.y[:, None] * _rows(prob), axis=0) / 2.0
    np.testing.assert_allclose(prob.full_gradient(x0), expect, atol=1e-14)
    # curvature factor sigma'(z) <= 1/4
    for q in QS:
        pair = ConjugatePair(q)
        worst = max(norm(row, pair.p) ** 2 for row in _rows(prob))
        assert prob.lipschitz_constant(q) == pytest.approx(worst / 4.0, rel=1e-14)


def test_trig_constants_and_floor():
    spec = ProblemSpec(kind="trig_nonconvex", d=3, n=5, seed=7, lam=0.5)
    prob = make_problem(spec)
    for q, ident in ((1.0, 1.0), (2.0, 1.0), (math.inf, 3.0)):
        pair = ConjugatePair(q)
        worst = max(norm(prob.a[i], pair.p) ** 2 for i in range(prob.n))
        assert prob.lipschitz_constant(q) == pytest.approx(worst + 0.5 * ident, rel=1e-14)
    # cos >= -1 and the ridge is nonnegative
    assert prob.f_lower_bound() == -1.0
    gen = RngStream(2).generator
    for _ in range(50):
        assert prob.value(gen.standard_normal(3)) >= -1.0


def test_abs_regression_interpolates():
    prob = make_problem(ProblemSpec(kind="abs_regression", d=5, n=20, seed=9))
    x_star, f_star = prob.optimum()
    assert f_star == 0.0
    assert prob.value(x_star) == pytest.approx(0.0, abs=1e-12)
    assert prob.grad_bound_inf() == pytest.approx(float(np.abs(prob.a).max()))
    # subgradients match sign of the residual away from kinks
    gen = RngStream(4).generator
    for _ in range(30):
        i = int(gen.integers(0, prob.n))
        x = gen.standard_normal(5)
        r = float(prob.a[i] @ x - prob.b[i])
        if abs(r) < 1e-3:
            continue
        expect = prob.a[i] if r >= 0 else -prob.a[i]
        np.testing.assert_allclose(prob.component_gradient(i, x), expect, atol=1e-14)


def test_sphere_quadratic_exact_properties():
    prob = make_problem(ProblemSpec(kind="sphere_quadratic", d=8, n=1, seed=5))
    z = prob.a[0]
    assert abs(norm(z, 2) - 1.0) < 1e-12
    assert prob.lipschitz_constant(2.0) == pytest.approx(1.0, abs=1e-12)
    assert prob.lipschitz_constant(1.0) == pytest.approx(norm(z, math.inf) ** 2, rel=1e-14)
    assert prob.lipschitz_constant(math.inf) == pytest.approx(norm(z, 1) ** 2, rel=1e-14)
    x_star, f_star = prob.optimum()
    np.testing.assert_array_equal(x_star, np.zeros(8))
    assert f_star == 0.0


def test_counterexample_frozen_values():
    prob = make_problem(ProblemSpec(kind="counterexample", d=1, n=3, seed=0))
    x_star, f_star = prob.optimum()
    assert x_star[0] == pytest.approx(1.0 / 3.0)
    assert f_star == pytest.approx(-1.0 / 18.0)
    assert prob.value(x_star) == pytest.approx(f_star, abs=1e-15)
    assert prob.value(np.array([-1.0])) - f_star == pytest.approx(8.0 / 9.0)
    assert prob.lipschitz_constant(2.0) == pytest.approx(1.0)
    # slopes of the three components at the origin
    slopes = sorted(float(prob.component_gradient(i, np.zeros(1))[0]) for i in range(3))
    assert slopes == pytest.approx([-3.0, 1.0, 1.0])


# ---------------------------------------------------------------- optima

def test_least_squares_optimum_is_stationary():
    prob = make_problem(ProblemSpec(kind="least_squares", d=6, n=10, seed=1))
    x_star, f_star = prob.optimum()
    assert float(norm(prob.full_gradient(x_star), 2)) < 1e-10
    gen = RngStream(6).generator
    for _ in range(20):
        assert prob.value(x_star + 0.3 * gen.standard_normal(6)) >= f_star - 1e-12


def test_numeric_f_star_agrees_with_closed_form():
    prob = make_problem(ProblemSpec(kind="least_squares", d=5, n=9, seed=2))
    _, f_star = prob.optimum()
    assert numeric_f_star(prob) == pytest.approx(f_star, abs=1e-8)


def test_numeric_f_star_logistic_is_pinned():
    # the fused value-and-gradient call shares one margin vector y * (a @ x)
    # and must leave the descent, and so f*, exactly as separate calls did
    prob = make_problem(ProblemSpec(kind="logistic", d=5, n=12, seed=2, label_noise=0.2))
    for x in RngStream(4).generator.standard_normal((5, 5)):
        val, grad = prob.value_and_full_gradient(x)
        assert val == prob.value(x)
        np.testing.assert_array_equal(grad, prob.full_gradient(x))
    assert numeric_f_star(prob, iters=3000) == 0.6401290891364709
    assert numeric_f_star(prob, iters=0) == prob.value(np.zeros(5)) == math.log(2.0)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(kind="least_squares", d=0, n=5, seed=1)
    with pytest.raises(ValueError):
        ProblemSpec(kind="nope", d=2, n=2, seed=1)
    with pytest.raises(ValueError):
        make_problem(ProblemSpec(kind="sphere_quadratic", d=4, n=2, seed=1))  # needs n = 1
    with pytest.raises(ValueError):
        make_problem(ProblemSpec(kind="counterexample", d=2, n=3, seed=1))  # needs d = 1
    # a field the kind ignores: lam is trig_nonconvex's, label_noise logistic's
    with pytest.raises(ValueError, match="lam"):
        ProblemSpec(kind="least_squares", d=2, n=2, seed=1, lam=0.1)
    with pytest.raises(ValueError, match="label_noise"):
        ProblemSpec(kind="trig_nonconvex", d=2, n=2, seed=1, label_noise=0.1)


def test_problem_arrays_are_frozen():
    prob = make_problem(ProblemSpec(kind="least_squares", d=3, n=4, seed=1))
    with pytest.raises(ValueError):
        prob.a[0, 0] = 99.0


def test_problem_freezes_a_copy_not_the_callers_array():
    rows = np.arange(12, dtype=np.float64).reshape(4, 3)
    y = np.array([1.0, -1.0, 1.0, -1.0])
    prob = LogisticProblem(rows, y)
    assert rows.flags.writeable and y.flags.writeable
    rows[0, 2] = 1e-3
    assert _rows(prob)[0, 2] == 2.0
    assert not prob.ya.flags.writeable


def test_same_seed_same_problem():
    a = make_problem(ProblemSpec(kind="logistic", d=4, n=8, seed=77))
    b = make_problem(ProblemSpec(kind="logistic", d=4, n=8, seed=77))
    np.testing.assert_array_equal(a.ya, b.ya)
    np.testing.assert_array_equal(a.y, b.y)


ALL_SPECS = SMOOTH_SPECS + [
    ProblemSpec(kind="abs_regression", d=5, n=9, seed=5),
    ProblemSpec(kind="counterexample", d=1, n=3, seed=0),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_component_gradient_batch_is_rowwise_bitwise(spec):
    prob = make_problem(spec)
    gen = RngStream(17).generator
    xs = gen.standard_normal((40, prob.d))
    idx = gen.integers(0, prob.n, size=40)
    got = prob.component_gradient_batch(idx, xs)
    want = np.array([prob.component_gradient(int(i), x) for i, x in zip(idx, xs)])
    np.testing.assert_array_equal(got, want)
    # a stack (2, S, d) against the same idx (S,), as the variance-reduced
    # loop evaluates its iterates and references in one call
    stacked = np.stack([xs, gen.standard_normal((40, prob.d))])
    got = prob.component_gradient_batch(idx, stacked)
    assert got.shape == stacked.shape
    for xm, gm in zip(stacked, got):
        np.testing.assert_array_equal(gm, [prob.component_gradient(int(i), x) for i, x in zip(idx, xm)])


def test_abs_regression_batch_subgradient_takes_sign_zero_as_plus():
    prob = AbsRegressionProblem(np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([3.0, 2.0]))
    xs = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])  # residual 0, then < 0
    idx = np.array([0, 1, 0, 1])
    np.testing.assert_array_equal(prob.component_gradient_batch(idx, xs),
                                  [[1.0, 2.0], [3.0, -1.0], [-1.0, -2.0], [-3.0, 1.0]])


def test_subgradient_rows_match_component_gradient_bitwise():
    # subgradient_rows() promises that component i's gradient is +a_i where
    # a_i^T x - b_i >= 0 and -a_i otherwise, bit for bit; the run loop tests
    # a_i^T x >= b_i, which must choose alike. Checked at residuals of
    # exactly 0, at -0.0 iterates, and at NaN and infinite ones
    probs = [make_problem(spec) for spec in ALL_SPECS]
    assert [type(p).__name__ for p in probs if p.subgradient_rows() is not None] == ["AbsRegressionProblem"]
    probs.append(AbsRegressionProblem(np.array([[1.0, 2.0], [3.0, -1.0], [-0.5, 0.25]]),
                                      np.array([3.0, 0.0, -0.0])))
    gen = RngStream(29).generator
    for prob in probs:
        rows = prob.subgradient_rows()
        if rows is None:
            continue
        a, b = rows
        assert a.shape == (prob.n, prob.d) and b.shape == (prob.n,) and np.isfinite(b).all()
        xs = [gen.standard_normal(prob.d), np.ones(prob.d), np.zeros(prob.d), np.full(prob.d, -0.0),
              np.full(prob.d, np.nan), np.full(prob.d, np.inf), np.full(prob.d, -np.inf)]
        if prob.optimum() is not None:
            xs.append(prob.optimum()[0])
        idx = np.arange(prob.n)
        zero_residuals = 0
        with np.errstate(invalid="ignore"):
            for x in xs:
                stack = np.tile(x, (prob.n, 1))
                residual = np.array([a[i] @ x - b[i] for i in idx])
                zero_residuals += int(np.sum(residual == 0.0))
                want = np.where((residual >= 0.0)[:, None], a, -a)
                np.testing.assert_array_equal(row_dot(a, stack) >= b, residual >= 0.0)
                np.testing.assert_array_equal([prob.component_gradient(int(i), x) for i in idx], want)
                np.testing.assert_array_equal(prob.component_gradient_batch(idx, stack), want)
        assert zero_residuals > 0
    with pytest.raises(ValueError, match="targets"):
        AbsRegressionProblem(np.ones((2, 2)), np.array([1.0, np.inf]))


def test_counterexample_batch_kernels_are_its_one_vector_methods_bit_for_bit():
    # elementwise kernels with no sum in another order: every row is exact
    prob = make_problem(ProblemSpec(kind="counterexample", d=1, n=3, seed=0))
    xs = np.concatenate([10.0 * RngStream(3).generator.standard_normal((20, 1)), [[0.0], [-0.0], [1.0 / 3.0]]])
    vals, grads = prob.value_and_full_gradient_batch(xs)
    for x, val, grad in zip(xs, vals, grads):
        want_val, want_grad = prob.value_and_full_gradient(x)
        assert val.hex() == want_val.hex() and grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_value_and_full_gradient_batch_matches_one_vector_route(spec):
    # matrix products sum in another order than matrix-vector ones, so rows
    # may differ in the last ulps, never more
    prob = make_problem(spec)
    xs = RngStream(23).generator.standard_normal((30, prob.d))
    vals, grads = prob.value_and_full_gradient_batch(xs)
    assert vals.shape == (30,) and grads.shape == (30, prob.d)
    for x, val, grad in zip(xs, vals, grads):
        want_val, want_grad = prob.value_and_full_gradient(x)
        assert val == pytest.approx(want_val, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-15)
