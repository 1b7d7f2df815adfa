"""Command line entry points.

Subcommands:
  run                   execute a JSON-configured experiment, write traces + summary
  verify-key-identity   Monte Carlo check that E[sign(g + G u)] = g/G on a grid
  example1              sphere-instance smoothness statistics vs the closed form
  nonconvergence-demo   plain sign steps stall on a crafted instance; noisy ones don't

Exit codes: 0 success / all checks hold, 2 a check failed (or an iterate left
the declared box in the demo), 1 bad configuration or arguments (argument
errors included), an output directory that cannot be written, or a run whose
iterates left the finite floats.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .analysis import example1_stats, final_gap_bound, linf_constant_expected
from .harness import execute_experiment, load_config
from .optimizers import NonFiniteIterateError, RunSpec, run
from .problems import ProblemSpec, make_problem
from .vecmath import RngStream

__all__ = ["main"]


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        result = execute_experiment(cfg, args.out)
    # a ConfigError is a ValueError; an OSError is an --out that cannot be written
    except (ValueError, ArithmeticError, NonFiniteIterateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rep in result.reports:
        status = "holds" if rep.holds else "VIOLATED"
        print(
            f"{rep.name}: lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} tol={rep.tol:.3g} "
            f"seeds={rep.n_seeds} -> {status}"
        )
    print(f"wrote {len(result.trace_paths)} trace(s) and summary.json to {args.out}")
    print(f"total time: {result.timing['total_s']:.2f}s")
    if not result.reports:
        print("no checks requested")
        return 0
    if result.all_hold:
        print("all checks hold")
        return 0
    print("some checks VIOLATED")
    return 2


def _cmd_verify_key_identity(args: argparse.Namespace) -> int:
    from .oracles import expected_sign_analytic, monte_carlo_expected_sign

    if args.N < 2:
        print("error: --N must be at least 2", file=sys.stderr)
        return 1
    try:
        g_values = [float(v) for v in args.G_values.split(",") if v.strip()]
    except ValueError:
        print(f"error: cannot parse --G-values {args.G_values!r}", file=sys.stderr)
        return 1
    if not g_values:
        print("error: --G-values is empty", file=sys.stderr)
        return 1
    for g_amp in g_values:
        if not 0 < g_amp < math.inf:  # also when it is NaN
            print(f"error: noise amplitude must be finite and positive, got G={g_amp}", file=sys.stderr)
            return 1

    ratios = np.linspace(-1.0, 1.0, 9)  # -1, -0.75, ..., 1
    root = RngStream(args.seed)
    worst = 0.0
    ok = True
    for g_amp in g_values:
        for r in ratios:
            g = r * g_amp
            expected = expected_sign_analytic(g, g_amp)
            rng = root.child(f"g={g!r}:G={g_amp!r}")
            mean, stderr = monte_carlo_expected_sign(g, g_amp, args.N, rng)
            dev = abs(mean - expected)
            band = 4.0 * stderr
            passed = dev <= band
            ok = ok and passed
            if stderr > 0:
                worst = max(worst, dev / stderr)
            line = (
                f"g={g:+.3f} G={g_amp:.2f}: mc={mean:+.6f} exact={expected:+.6f} "
                f"dev={dev:.2e} 4se={band:.2e} {'ok' if passed else 'FAIL'}"
            )
            print(line)
    print(f"worst deviation: {worst:.3f} standard errors (threshold 4)")
    if ok:
        print("identity verified")
        return 0
    print("identity check FAILED")
    return 2


def _cmd_example1(args: argparse.Namespace) -> int:
    if args.d < 1 or args.samples < 2:
        print("error: need --d >= 1 and --samples >= 2", file=sys.stderr)
        return 1
    stats = example1_stats(args.d, args.samples, RngStream(args.seed))
    expected = linf_constant_expected(args.d)
    l2_lo, l2_hi = float(stats.l2.min()), float(stats.l2.max())
    se3 = 3.0 * stats.stderr_linf()
    l1_scaled = stats.mean_l1 * args.d / math.log(math.e * args.d)

    print(f"d={args.d} samples={args.samples}")
    print(f"mean L1 constant: {stats.mean_l1:.6f}  (x d/log(ed) = {l1_scaled:.4f})")
    print(f"L2 constant range: [{l2_lo:.12f}, {l2_hi:.12f}]  (should be exactly 1)")
    print(f"mean Linf constant: {stats.mean_linf:.6f}")
    print(f"closed form (1 - 2/pi) + (2/pi) d = {expected:.6f}, 3 x stderr = {se3:.6f}")

    l2_ok = abs(l2_lo - 1.0) <= 1e-9 and abs(l2_hi - 1.0) <= 1e-9
    linf_ok = abs(stats.mean_linf - expected) <= se3
    if l2_ok and linf_ok:
        print("sphere statistics consistent")
        return 0
    if not l2_ok:
        print("FAIL: L2 constant deviates from 1")
    if not linf_ok:
        print("FAIL: mean Linf constant outside 3 stderr of the closed form")
    return 2


def _cmd_nonconvergence_demo(args: argparse.Namespace) -> int:
    if not 0 < args.gamma < math.inf:  # also when it is NaN
        print(f"error: gamma must be finite and positive, got {args.gamma}", file=sys.stderr)
        return 1
    if args.T < 10:
        print("error: need T >= 10", file=sys.stderr)
        return 1
    prob = make_problem(ProblemSpec(kind="counterexample", d=1, n=3, seed=0))
    x_star, f_star = prob.optimum()
    x1 = x_star.copy()  # start exactly at the minimizer
    g_inf = 7.0  # max component slope magnitude on the box [-4, 4]
    box = 4.0

    plain = run(
        RunSpec(algo="signsgd", gamma=args.gamma, x1=x1, keep_iterates=True),
        prob, args.T, args.seed,
    )
    noisy = run(
        RunSpec(algo="signsgd_plus", gamma=args.gamma, x1=x1, g_inf=g_inf, keep_iterates=True),
        prob, args.T, args.seed,
    )
    for name, tr in (("signsgd", plain), ("signsgd_plus", noisy)):
        iterates = np.concatenate([tr.iterates[:, 0], [tr.x_final[0]]])
        worst = float(np.abs(iterates).max())
        if worst > box:
            print(
                f"{name}: iterate left the box [-{box}, {box}] (|x| reached {worst:.3f}); "
                "the gradient bound G only holds inside the box"
            )
            return 2

    tail = plain.iterates[args.T // 2:, 0]
    tail_mean = float(tail.mean())
    drift_ok = tail_mean <= -0.5
    print(f"signsgd from x1=x*={x1[0]:.6f}: mean of last {tail.size} iterates = {tail_mean:.4f}")
    print("  plain sign steps drift away from the minimizer" if drift_ok
          else "  expected drift below -0.5 NOT observed")

    rep = final_gap_bound([noisy], prob, f_star, x_star)
    print(f"signsgd_plus average iterate: f(x_bar) - f* = {rep.lhs:.6f} <= bound {rep.rhs:.6f}: "
          f"{'yes' if rep.holds else 'NO'}")

    if drift_ok and rep.holds:
        print("demo: noise-free sign steps fail where noise-corrupted ones provably work")
        return 0
    return 2


class _Parser(argparse.ArgumentParser):
    """Exits 1 on an argument error, as on any other bad input: argparse's
    own status 2 means a check failed here. Subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A --seed value: an integer in [0, 2**64), as RngStream takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"need an integer in [0, 2**64), got {text!r}")
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="signopt",
        description="sign-based finite-sum optimization experiments and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON-configured experiment")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", required=True, help="output directory for traces and summary")
    p_run.set_defaults(func=_cmd_run)

    p_vki = sub.add_parser(
        "verify-key-identity",
        help="Monte Carlo check of E[sign(g + G u)] = g/G over a (g, G) grid",
    )
    p_vki.add_argument("--N", type=int, default=1_000_000, help="samples per grid point")
    p_vki.add_argument("--seed", type=_seed, default=0)
    p_vki.add_argument(
        "--G-values", dest="G_values", default="0.5,1,3",
        help="comma-separated noise amplitudes (must be positive)",
    )
    p_vki.set_defaults(func=_cmd_verify_key_identity)

    p_ex1 = sub.add_parser(
        "example1",
        help="smoothness statistics of the random-sphere quadratic family",
    )
    p_ex1.add_argument("--d", type=int, required=True)
    p_ex1.add_argument("--samples", type=int, default=10_000)
    p_ex1.add_argument("--seed", type=_seed, default=0)
    p_ex1.set_defaults(func=_cmd_example1)

    p_ncd = sub.add_parser(
        "nonconvergence-demo",
        help="plain sign steps stall on a crafted 1-d instance; noisy ones converge",
    )
    p_ncd.add_argument("--T", type=int, default=10_000)
    p_ncd.add_argument("--gamma", type=float, default=0.01)
    p_ncd.add_argument("--seed", type=_seed, default=0)
    p_ncd.set_defaults(func=_cmd_nonconvergence_demo)

    args = parser.parse_args(argv)
    return args.func(args)
