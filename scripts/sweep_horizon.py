#!/usr/bin/env python3
"""Horizon-scaling sweep for the variance-reduced sign method.

For a grid of horizons T, runs one config per horizon through the harness,
under the coupled schedule cor1 (gamma and D both scale with 1/sqrt(T)), and
prints the mean trajectory gradient norm per horizon.
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

from signopt.harness import config_from_dict, execute_experiment


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

    print(f"# trig_nonconvex d={args.d} n={args.n} lam={args.lam} P={args.P} "
          f"seeds={args.seeds}")
    print("T,mean_ginf,rate_sqrt_T")
    for T in (int(t) for t in args.horizons.split(",")):
        cfg = config_from_dict({
            "problem": {"kind": "trig_nonconvex", "d": args.d, "n": args.n,
                        "seed": args.problem_seed, "lam": args.lam},
            "algo": "signsvrg_v1", "schedule": "cor1", "q": 1, "T": T, "P": args.P,
            "seeds": list(range(1, args.seeds + 1)), "x1": {"gaussian": 1.0},
        })
        vals = [tr.gnorm_inf[:T].mean() for tr in execute_experiment(cfg).traces]
        mean = float(np.mean(vals))
        print(f"{T},{mean:.6f},{mean * np.sqrt(T):.4f}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
