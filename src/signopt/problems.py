"""Finite-sum benchmark problems f(x) = (1/n) sum_i f_i(x).

Each problem exposes component values/gradients (0-based index i), the exact
full gradient, and analytic smoothness constants L_q measured in the operator
norm from l_q to its Holder conjugate l_p:

    || grad f_i(x) - grad f_i(y) ||_p <= L_q ||x - y||_q.

For rank-one Hessians a a^T this norm is ||a||_p^2, which is where the
closed-form constants below come from. Methods return None where a quantity
genuinely does not exist or is not known in closed form (e.g. smoothness of
the absolute-loss model). Every problem brings its own batch kernels.

ProblemSpec owns a problem's recipe: building one parses every field and
checks its kind's rules, raising a ConfigError named problem.<field>.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from .vecmath import ConjugatePair, RngStream, norm, norm_rows, row_dot, sample_unit_sphere

__all__ = [
    "FiniteSumProblem",
    "ProblemSpec",
    "LeastSquaresProblem",
    "LogisticProblem",
    "TrigProblem",
    "AbsRegressionProblem",
    "make_problem",
    "numeric_f_star",
]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name (harness exports it)."""

    def __init__(self, fld: str, msg: str):
        super().__init__(f"config error in {fld!r}: {msg}")
        self.field = fld


def _int(fld: str, raw: Any) -> int:
    """raw itself when it is an int; JSON true/false and 1.5 are not."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(fld, f"must be an integer, got {raw!r}")
    return raw


def _number(fld: str, raw: Any) -> float:
    """raw as a float when it is a finite int or float; JSON true/false,
    strings, NaN and Infinity (which Python's JSON reader accepts) are not."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(fld, f"must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an int beyond the floats
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(fld, f"must be a finite number, got {raw!r}")
    return value


def _str(fld: str, raw: Any) -> str:
    """raw itself when it is a string; numbers and lists are not."""
    if not isinstance(raw, str):
        raise ConfigError(fld, f"must be a string, got {raw!r}")
    return raw


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy; the caller's own array stays writable."""
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


class FiniteSumProblem(ABC):
    """Contract shared by all problems. Component index i is 0-based."""

    n: int
    d: int

    @abstractmethod
    def component_value(self, i: int, x: np.ndarray) -> float: ...

    @abstractmethod
    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def value(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def full_gradient(self, x: np.ndarray) -> np.ndarray: ...

    def value_and_full_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Both at once; hot problems override to share the residual."""
        return self.value(x), self.full_gradient(x)

    @abstractmethod
    def component_gradient_batch(self, idx: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Row s is component_gradient(idx[s], xs[s]), bit for bit, for xs
        of shape (S, d) or a stack (m, S, d) against the same idx (S,); the
        data-driven problems take row-wise dots (vecmath.row_dot)."""

    @abstractmethod
    def value_and_full_gradient_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and the full gradient at every row of xs, an (m, d) block or a
        stack (..., m, d) of them: shapes (..., m) and (..., m, d).

        Matrix products sum in another order than the one-vector methods:
        results may differ in the last ulp, and a row's result may depend on
        the other rows of its (m, d) slice, but not on the other slices of a
        stack: each slice gets the bits of a call with it alone (a stacked
        matmul is one product per slice, and every sum runs over axis -1).
        """

    def subgradient_rows(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(a, b), rows (n, d) and finite targets (n,), when the (sub)gradient
        of component i is +a_i where a_i^T x - b_i >= 0 and -a_i otherwise
        (NaN included), bit for bit as component_gradient returns it; else
        None. With it, the run loop computes both possible signsgd_plus
        steps of a block of draws before its iterates are known."""
        return None

    def lipschitz_constant(self, q: float) -> float | None:
        """Analytic L_q valid for every component (and hence for f), or None."""
        return None

    def grad_bound_inf(self) -> float | None:
        """Global bound on ||grad f_i||_inf over all i and x, or None."""
        return None

    def optimum(self) -> tuple[np.ndarray, float] | None:
        """(x*, f*) when known in closed form, else None."""
        return None

    def f_infimum(self) -> float | None:
        """inf f when it is certified exactly but not attained, else None."""
        return None

    def f_lower_bound(self) -> float | None:
        """A valid lower bound on f, or None; callers try optimum() first."""
        return None


@dataclass(frozen=True)
class ProblemSpec:
    """Serializable recipe for a generated problem instance.

    Identical specs always produce bitwise-identical data: rows, planted
    targets, and label noise all come from labeled children of
    RngStream(seed). Building one parses every field (ints stay ints, lam
    and label_noise become floats) and checks the kind's rules: a bad field
    is a ConfigError naming problem.<field>.
    """

    kind: str
    d: int
    n: int
    seed: int
    lam: float = 0.0
    label_noise: float = 0.0

    def __post_init__(self) -> None:
        for name, parse in (("kind", _str), ("d", _int), ("n", _int), ("seed", _int), ("lam", _number),
                            ("label_noise", _number)):
            object.__setattr__(self, name, parse(f"problem.{name}", getattr(self, name)))
        if self.kind not in _KINDS:
            raise ConfigError("problem.kind", f"unknown problem kind {self.kind!r}; known: {sorted(_KINDS)}")
        # seed: the seeds RngStream takes, checked here to name the field
        for name, ok, rule in (("d", self.d >= 1, ">= 1"), ("n", self.n >= 1, ">= 1"),
                               ("seed", 0 <= self.seed < 1 << 64, "in [0, 2**64)"), ("lam", self.lam >= 0, ">= 0"),
                               ("label_noise", 0 <= self.label_noise <= 1, "in [0, 1]")):
            if not ok:
                raise ConfigError(f"problem.{name}", f"must be {rule}, got {getattr(self, name)}")
        # a field the kind would ignore is an error, not a silent no-op
        for name, kind in (("lam", "trig_nonconvex"), ("label_noise", "logistic")):
            if (value := getattr(self, name)) != 0 and self.kind != kind:
                raise ConfigError(f"problem.{name}", f"applies to kind {kind!r} only, got {value} on {self.kind!r}")
        # a kind of fixed shape takes no other
        for name, size in _KINDS[self.kind][1].items():
            if (value := getattr(self, name)) != size:
                raise ConfigError(f"problem.{name}", f"is {size} for kind {self.kind!r}, got {value}")


def _gaussian_rows(spec: ProblemSpec) -> np.ndarray:
    # rows scaled by 1/sqrt(d) so ||a_i||_2 is O(1) regardless of dimension
    gen = RngStream(spec.seed).child("rows").generator
    return gen.standard_normal((spec.n, spec.d)) / math.sqrt(spec.d)


def _row_norm_sq_max(a: np.ndarray, q: float) -> float:
    return float(norm_rows(a, ConjugatePair(q).p).max()) ** 2


class LeastSquaresProblem(FiniteSumProblem):
    """f_i(x) = (a_i^T x - b_i)^2 / 2. Hessian of f_i is a_i a_i^T.

    The sphere_quadratic kind is its one-row instance a = zeta^T, b = 0 with
    ||zeta||_2 = 1: f(x) = (zeta^T x)^2 / 2, whose every smoothness constant
    L_q = ||zeta||_p^2 is exact (L_2 = 1), and whose optimum is (0, 0).

    The counterexample kind is its three-row instance a = 1, b = (3, -1, -1)
    at d = 1: f_i(x) = (x + a_i)^2 / 2 with slopes a = (-3, 1, 1) and optimum
    x* = 1/3, on which plain stochastic sign descent fails, as the majority
    of component gradient signs points away from x* everywhere on (-1, 3).
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = _frozen(np.atleast_2d(a))
        self.b = _frozen(np.atleast_1d(b))
        if self.a.shape[0] != self.b.shape[0]:
            raise ValueError("row/target count mismatch")
        self.n, self.d = self.a.shape

    def component_value(self, i: int, x: np.ndarray) -> float:
        return 0.5 * float(self.a[i] @ x - self.b[i]) ** 2

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        return (self.a[i] @ x - self.b[i]) * self.a[i]

    def value(self, x: np.ndarray) -> float:
        r = self.a @ x - self.b
        return 0.5 * float(r @ r) / self.n

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.a.T @ (self.a @ x - self.b) / self.n

    def component_gradient_batch(self, idx: np.ndarray, xs: np.ndarray) -> np.ndarray:
        rows = self.a.take(idx, axis=0)
        return (row_dot(rows, xs) - self.b.take(idx))[..., None] * rows

    def value_and_full_gradient_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = xs @ self.a.T - self.b
        return 0.5 * row_dot(r, r) / self.n, r @ self.a / self.n

    def lipschitz_constant(self, q: float) -> float:
        return _row_norm_sq_max(self.a, q)

    def optimum(self) -> tuple[np.ndarray, float]:
        # minimum-norm least-squares solution covers the rank-deficient case
        x_star, *_ = np.linalg.lstsq(self.a, self.b, rcond=None)
        return x_star, self.value(x_star)


class LogisticProblem(FiniteSumProblem):
    """f_i(x) = log(1 + exp(w_i)), margin w_i = -y_i a_i^T x, labels y_i = +-1.

    Holds the signed rows ya_i = -y_i a_i: w = ya x is the label form bit for
    bit, as +-1 factors and negations commute with every product and BLAS sum
    (rounding to nearest is sign-symmetric) but for a zero margin's sign, which
    no kernel tells apart; -y_i ya_i gives back the rows a_i bit for bit. A
    separator (the labels' planted direction) lets f_infimum certify inf f = 0.
    """

    def __init__(self, a: np.ndarray, y: np.ndarray, separator: np.ndarray | None = None):
        a = np.atleast_2d(a)
        self.y = _frozen(np.atleast_1d(y))
        if a.shape[0] != self.y.shape[0]:
            raise ValueError("row/label count mismatch")
        if not np.all(np.abs(self.y) == 1.0):
            raise ValueError("labels must be +-1")
        self.ya = np.multiply(a, -self.y[:, None], dtype=np.float64, order="C")
        self.ya.setflags(write=False)
        self.n, self.d = self.ya.shape
        self.separator = None if separator is None else _frozen(separator)
        if self.separator is not None and self.separator.shape != (self.d,):
            raise ValueError(f"separator must have length d={self.d}")

    @staticmethod
    def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # 1/(1 + e) for z >= 0, else e/(1 + e), e = exp(-|z|): stable on both tails, the bits
        # of two masked branches (oracles.masked_sigmoid); the mask is taken first, so out may be z.
        # e lies in [0, 1] or is NaN, so max(e, pos) is where(pos, 1, e) bit for bit
        pos = z >= 0
        e = np.exp(np.negative(np.abs(z, out=out), out=out), out=out)
        return np.divide(np.maximum(e, pos), np.add(e, 1.0, out=out), out=out)

    def component_value(self, i: int, x: np.ndarray) -> float:
        return float(np.logaddexp(0.0, self.ya[i] @ x))

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        return self._sigmoid(self.ya[i] @ x) * self.ya[i]

    def value(self, x: np.ndarray) -> float:
        return float(np.logaddexp(0.0, self.ya @ x).mean())

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.ya.T @ self._sigmoid(self.ya @ x) / self.n

    def value_and_full_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        w = self.ya @ x  # read by the value before the sigmoid overwrites it
        return float(np.add.reduce(np.logaddexp(0.0, w)) / self.n), self.ya.T @ self._sigmoid(w, out=w) / self.n

    def component_gradient_batch(self, idx: np.ndarray, xs: np.ndarray) -> np.ndarray:
        rows = self.ya.take(idx, axis=0)
        return self._sigmoid(row_dot(rows, xs))[..., None] * rows

    def value_and_full_gradient_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = xs @ self.ya.T  # read by the values before the sigmoid overwrites it
        return np.add.reduce(np.logaddexp(0.0, w), axis=-1) / self.n, self._sigmoid(w, out=w) @ self.ya / self.n

    def lipschitz_constant(self, q: float) -> float:
        return 0.25 * _row_norm_sq_max(self.ya, q)  # curvature <= 1/4; norms are sign-blind

    def f_infimum(self) -> float | None:
        """0.0 when the separator provably classifies every row, else None.

        f > 0, and with every margin m_i = y_i a_i^T s positive, f(c s) -> 0 as
        c grows: inf f = 0, never attained. A computed dot of length d is off
        by at most d eps sum_k |a_ik s_k| <= d eps ||a_i||_2 ||s||_2, so a margin
        must clear that allowance to count: one positive only through rounding
        certifies nothing. One O(nd) pass, m = -(ya s), with no (n, d) temporary.
        """
        if self.separator is None:
            return None
        s_norm = float(norm(self.separator, 2))
        allowance = self.d * np.finfo(np.float64).eps * s_norm * np.sqrt(row_dot(self.ya, self.ya))
        return 0.0 if bool(np.all(-(self.ya @ self.separator) > allowance)) else None


class TrigProblem(FiniteSumProblem):
    """f_i(x) = cos(a_i^T x) + (lam/2) ||x||_2^2: bounded nonconvex test."""

    def __init__(self, a: np.ndarray, lam: float = 0.0):
        self.a = _frozen(np.atleast_2d(a))
        if lam < 0:
            raise ValueError("lam must be >= 0")
        self.lam = float(lam)
        self.n, self.d = self.a.shape

    def component_value(self, i: int, x: np.ndarray) -> float:
        return float(np.cos(self.a[i] @ x)) + 0.5 * self.lam * float(x @ x)

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        # np.sin, not math.sin: an overflowed dot gives NaN, not a ValueError
        return self.lam * x - np.sin(self.a[i] @ x) * self.a[i]

    def value(self, x: np.ndarray) -> float:
        return float(np.cos(self.a @ x).mean()) + 0.5 * self.lam * float(x @ x)

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        return -(self.a.T @ np.sin(self.a @ x)) / self.n + self.lam * x

    def component_gradient_batch(self, idx: np.ndarray, xs: np.ndarray) -> np.ndarray:
        rows = self.a.take(idx, axis=0)
        return self.lam * xs - np.sin(row_dot(rows, xs))[..., None] * rows

    def value_and_full_gradient_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = xs @ self.a.T
        vals = np.add.reduce(np.cos(z), axis=-1) / self.n + 0.5 * self.lam * row_dot(xs, xs)
        return vals, -(np.sin(z) @ self.a) / self.n + self.lam * xs

    def lipschitz_constant(self, q: float) -> float:
        # Hessian of the ridge term is lam*I; ||I||_{q->p} is 1, 1, d
        identity_norm = {1.0: 1.0, 2.0: 1.0, math.inf: float(self.d)}[ConjugatePair(q).q]
        return _row_norm_sq_max(self.a, q) + self.lam * identity_norm

    def f_lower_bound(self) -> float:
        return -1.0  # cos >= -1 and the ridge term is nonnegative


class AbsRegressionProblem(FiniteSumProblem):
    """f_i(x) = |a_i^T x - b_i|: convex, nonsmooth, bounded subgradients.

    component_gradient returns the subgradient sign(a_i^T x - b_i) * a_i with
    sign(0) = +1 (and -a_i at NaN), which subgradient_rows exposes to the run
    loops; the targets must be finite. When constructed with a planted point
    (b = A x0) the optimum (x0, 0) is exposed.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, planted: np.ndarray | None = None):
        self.a = _frozen(np.atleast_2d(a))
        self.b = _frozen(np.atleast_1d(b))
        if self.a.shape[0] != self.b.shape[0]:
            raise ValueError("row/target count mismatch")
        self.n, self.d = self.a.shape
        if not np.all(np.isfinite(self.b)):
            raise ValueError("targets must be finite")
        self._planted = None if planted is None else _frozen(planted)
        if self._planted is not None:
            if not np.allclose(self.a @ self._planted, self.b, atol=1e-12):
                raise ValueError("planted point does not interpolate the targets")

    def component_value(self, i: int, x: np.ndarray) -> float:
        return abs(float(self.a[i] @ x - self.b[i]))

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        r = float(self.a[i] @ x - self.b[i])
        return self.a[i] if r >= 0.0 else -self.a[i]

    def value(self, x: np.ndarray) -> float:
        return float(np.abs(self.a @ x - self.b).mean())

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        r = self.a @ x - self.b
        return self.a.T @ np.where(r >= 0.0, 1.0, -1.0) / self.n

    def component_gradient_batch(self, idx: np.ndarray, xs: np.ndarray) -> np.ndarray:
        rows = self.a.take(idx, axis=0)
        r = row_dot(rows, xs) - self.b.take(idx)
        return np.where((r >= 0.0)[..., None], rows, -rows)

    def value_and_full_gradient_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = xs @ self.a.T - self.b
        grad = np.where(r >= 0.0, 1.0, -1.0) @ self.a / self.n
        return np.add.reduce(np.abs(r, out=r), axis=-1) / self.n, grad

    def subgradient_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return self.a, self.b

    def grad_bound_inf(self) -> float:
        return float(np.abs(self.a).max())

    def optimum(self) -> tuple[np.ndarray, float] | None:
        if self._planted is None:
            return None
        return self._planted, 0.0


def _make_least_squares(spec: ProblemSpec) -> LeastSquaresProblem:
    a = _gaussian_rows(spec)
    target = RngStream(spec.seed).child("target").generator.standard_normal(spec.d)
    noise = RngStream(spec.seed).child("noise").generator.standard_normal(spec.n)
    return LeastSquaresProblem(a, a @ target + 0.1 * noise)


def _make_logistic(spec: ProblemSpec) -> LogisticProblem:
    a = _gaussian_rows(spec)
    target = RngStream(spec.seed).child("target").generator.standard_normal(spec.d)
    y = np.where(a @ target >= 0.0, 1.0, -1.0)
    if spec.label_noise > 0.0:
        flips = RngStream(spec.seed).child("labels").generator.uniform(size=spec.n)
        y = np.where(flips < spec.label_noise, -y, y)
    return LogisticProblem(a, y, separator=target)


def _make_trig(spec: ProblemSpec) -> TrigProblem:
    return TrigProblem(_gaussian_rows(spec), lam=spec.lam)


def _make_abs_regression(spec: ProblemSpec) -> AbsRegressionProblem:
    a = _gaussian_rows(spec)
    planted = RngStream(spec.seed).child("target").generator.standard_normal(spec.d)
    return AbsRegressionProblem(a, a @ planted, planted=planted)


def _make_sphere_quadratic(spec: ProblemSpec) -> LeastSquaresProblem:
    zeta = sample_unit_sphere(RngStream(spec.seed).child("rows"), spec.d)
    return LeastSquaresProblem(zeta[None, :], np.zeros(1))


# kind -> (its builder, the sizes the kind is fixed at), checked by ProblemSpec
_KINDS = {
    "least_squares": (_make_least_squares, {}),
    "logistic": (_make_logistic, {}),
    "trig_nonconvex": (_make_trig, {}),
    "abs_regression": (_make_abs_regression, {}),
    "sphere_quadratic": (_make_sphere_quadratic, {"n": 1}),
    "counterexample": (lambda spec: LeastSquaresProblem(np.ones((3, 1)), np.array([3.0, -1.0, -1.0])),
                       {"d": 1, "n": 3}),
}


def make_problem(spec: ProblemSpec) -> FiniteSumProblem:
    return _KINDS[spec.kind][0](spec)


def numeric_f_star(prob: FiniteSumProblem, iters: int = 20000) -> float:
    """Surrogate optimal value via deterministic gradient descent.

    For problems with neither a closed-form optimum nor a certified infimum,
    e.g. logistic data whose label noise flipped a label against the planted
    separator; without flips LogisticProblem.f_infimum certifies the exact 0
    and this descent never runs. Uses step 1/L_2 when available, else a
    conservative line-search-free step. Returns the best value seen;
    deterministic for a given problem.

    The value is an upper end of f*: as f* in a bound's right-hand side,
    f(x_1) - f* is then smaller than with the true f*, so the check is
    stricter, never looser.
    """
    l2 = prob.lipschitz_constant(2.0)
    step = 1.0 / l2 if l2 else 1e-2
    x = np.zeros(prob.d)
    best, grad = prob.value_and_full_gradient(x)
    for _ in range(iters):
        x -= step * grad
        fval, grad = prob.value_and_full_gradient(x)
        best = min(best, fval)
    return best
