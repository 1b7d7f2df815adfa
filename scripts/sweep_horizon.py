#!/usr/bin/env python3
"""Horizon-scaling sweep for the variance-reduced sign method.

For a grid of horizons T, runs the coupled schedule (gamma and D both scale
with 1/sqrt(T)) and prints the mean trajectory gradient norm per horizon.
With the period P fixed the mean max-norm should trend like 1/sqrt(T); with
P = F*n the noise amplitude dominates and the curve flattens, which is the
communication-optimal but statistically lazy regime. Useful for picking P.

From a checkout, without installing:

    PYTHONPATH=src python scripts/sweep_horizon.py --horizons 2500,10000
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from signopt.optimizers import RunSpec, run_seeds, schedule_cor1
from signopt.problems import ProblemSpec, make_problem
from signopt.vecmath import RngStream


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=10)
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--lam", type=float, default=0.1)
    ap.add_argument("--problem-seed", type=int, default=202)
    ap.add_argument("--P", type=float, default=50.0)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--horizons", default="2500,10000,40000,160000")
    args = ap.parse_args(argv)

    prob = make_problem(ProblemSpec(kind="trig_nonconvex", d=args.d, n=args.n,
                                    seed=args.problem_seed, lam=args.lam))
    L = prob.lipschitz_constant(1.0)
    x1 = RngStream(args.problem_seed).child("x1").generator.standard_normal(args.d)

    print(f"# trig_nonconvex d={args.d} n={args.n} lam={args.lam} P={args.P} "
          f"seeds={args.seeds}")
    print("T,mean_ginf,rate_sqrt_T")
    for T in (int(t) for t in args.horizons.split(",")):
        gamma, d_of_p = schedule_cor1(args.d, 1.0, L, T)
        spec = RunSpec(algo="signsvrg_v1", gamma=gamma, x1=x1, q=1.0,
                       D=d_of_p(args.P), L=L)
        seeds = range(1, args.seeds + 1)
        vals = [tr.gnorm_inf[:T].mean() for tr in run_seeds(spec, prob, T, seeds)]
        mean = float(np.mean(vals))
        print(f"{T},{mean:.6f},{mean * np.sqrt(T):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
