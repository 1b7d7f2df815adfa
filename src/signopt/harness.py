"""Experiment configuration, execution, and summary emission.

A JSON config fully determines an experiment: problem recipe, algorithm,
schedule, horizon, seed list, start point, and the list of bound checks to
evaluate on the recorded traces. Outputs: one `.npy` trace file per seed
plus a summary.json whose bytes depend only on the config (wall-clock timing
goes to a separate timing.json so the deterministic artifacts stay
byte-identical across reruns).

Each entry of CHECKS names the algorithms a check applies to, what it needs
of the optimum and its evaluator. What the requested checks need is resolved
once, before any step runs: x* only from a closed-form optimum, f* from the
first of the optimum, an exact infimum, a lower bound and a numeric descent
that the problem provides. A check that needs x* on a problem with no
closed-form optimum is a ConfigError, raised before the run.

Config schema (see README for the prose version):

    {
      "problem": {"kind": str, "d": int, "n": int, "seed": int,
                   "lam": float?, "label_noise": float?},
      "algo": "signsgd"|"signsgd_plus"|"signgd"|"sgd"
              |"signsvrg_v1"|"signsvrg_v2"|"svrg",
      "schedule": "cor1"|"cor2"|"sec2"|"manual",
      "q": 1|2|"inf",
      "T": int,
      "seeds": [int, ...],          # distinct
      "x1": "zeros"|{"gaussian": scale}|[floats],
      "P": float?,                  # reference period; default F*n
      "alpha": float?,              # cor2/sec2 distance; default ||x1 - x*||
      "gamma": float?, "D": float?, # manual schedule only
      "g_inf": float?,              # override for signsgd_plus
      "F": int?,                    # bits per float, default 32
      "checks": [str, ...]
    }

P and D apply to the reference-point methods only; a field the run would
ignore is a ConfigError naming it.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .analysis import (
    _STATED_FOR,
    BoundReport,
    comm_bits_bound,
    final_gap_bound,
    rate_metrics,
    regret_bound,
    signgd_bound,
    svrg_gap_bound,
    svrg_grad_bound_v1,
    svrg_grad_bound_v2,
    update_count_bound,
)
from .optimizers import (  # noqa: F401 (run stays importable: perfbench/tracing.py wraps harness.run)
    ALGORITHMS,
    VR_ALGORITHMS,
    RunSpec,
    run,
    run_seeds,
    schedule_cor1,
    schedule_cor2,
    schedule_sec2,
)
from .problems import FiniteSumProblem, ProblemSpec, make_problem, numeric_f_star
from .trace import Trace
from .vecmath import ConjugatePair, RngStream, norm

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "load_config",
    "config_from_dict",
    "execute_experiment",
    "CHECKS",
    "SCHEDULES",
]

SCHEDULES = ("cor1", "cor2", "sec2", "manual")

# which algorithms each schedule rule may drive
_SCHEDULE_ALGOS = {
    "cor1": {"signsvrg_v1", "signsvrg_v2", "svrg", "signgd"},
    "cor2": {"signsvrg_v1"},
    "sec2": {"signsgd_plus"},
    "manual": set(ALGORITHMS),
}


def _worst_seed(reports: list[BoundReport]) -> BoundReport:
    """Exact per-seed bounds as one report: the worst seed's sides, holding
    iff every seed's do."""
    worst = max(reports, key=lambda r: r.lhs)
    return replace(worst, holds=all(r.holds for r in reports), n_seeds=len(reports))


# check name -> (algorithms it applies to, what it needs of the optimum,
# evaluator(prob, derived, traces) -> BoundReport). The algorithms are those
# the analysis module states each bound for, and its evaluators reject traces
# of any other. The need is None, "x_star" (a closed-form minimizer) or
# "f_star" (f* from any source). The evaluators read the run's parameters
# from the traces' meta, and name the analysis functions at call time, so a
# wrapper set on this module's attributes sees every call.
CHECKS = {name: (_STATED_FOR[name], need, evaluate) for name, (need, evaluate) in {
    "svrg_grad_bound_v1": (None, lambda prob, dv, trs: svrg_grad_bound_v1(trs)),
    "svrg_grad_bound_v2": (None, lambda prob, dv, trs: svrg_grad_bound_v2(trs)),
    "svrg_gap_bound": ("x_star", lambda prob, dv, trs: svrg_gap_bound(trs, dv.f_star, dv.x_star)),
    "regret_bound": ("x_star", lambda prob, dv, trs: regret_bound(trs, dv.f_star, dv.x_star)),
    "final_gap_bound": ("x_star", lambda prob, dv, trs: final_gap_bound(trs, prob, dv.f_star, dv.x_star)),
    "signgd_bound": ("f_star", lambda prob, dv, trs: signgd_bound(trs[0], dv.f_star)),
    "rate_bounds_v1": ("f_star", lambda prob, dv, trs: rate_metrics(trs, dv.f_star)[0]),
    "rate_bounds_v2": ("f_star", lambda prob, dv, trs: rate_metrics(trs, dv.f_star)[1]),
    "update_count_bound": (None, lambda prob, dv, trs: _worst_seed(
        [update_count_bound(tr, dv.P) for tr in trs])),
    "comm_bits_bound": (None, lambda prob, dv, trs: _worst_seed([comm_bits_bound(tr, dv.P) for tr in trs])),
}.items()}


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, fld: str, msg: str):
        super().__init__(f"config error in {fld!r}: {msg}")
        self.field = fld


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    algo: str
    schedule: str
    q: float
    T: int
    seeds: tuple[int, ...]
    x1: Any  # "zeros" | {"gaussian": scale} | tuple of floats
    P: float | None = None
    alpha: float | None = None
    gamma: float | None = None
    D: float | None = None
    g_inf: float | None = None
    F: int = 32
    checks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.algo not in ALGORITHMS:
            raise ConfigError("algo", f"unknown algorithm {self.algo!r}; known: {sorted(ALGORITHMS)}")
        if self.schedule not in SCHEDULES:
            raise ConfigError("schedule", f"unknown schedule {self.schedule!r}; known: {sorted(SCHEDULES)}")
        if self.algo not in _SCHEDULE_ALGOS[self.schedule]:
            raise ConfigError(
                "schedule",
                f"schedule {self.schedule!r} does not apply to algorithm {self.algo!r}",
            )
        try:
            ConjugatePair(self.q)
        except ValueError as exc:
            raise ConfigError("q", str(exc)) from None
        if self.T < 1:
            raise ConfigError("T", f"T must be >= 1, got {self.T}")
        if not self.seeds:
            raise ConfigError("seeds", "need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds", "seeds must be distinct")
        # RngStream keys on a seed mod 2**64, so seeds outside the range alias
        if not all(0 <= s < 1 << 64 for s in self.seeds):
            raise ConfigError("seeds", f"seeds must lie in [0, 2**64), got {list(self.seeds)}")
        if not 0 <= self.problem.seed < 1 << 64:
            raise ConfigError("problem", f"seed must lie in [0, 2**64), got {self.problem.seed}")
        if self.F < 1:
            raise ConfigError("F", f"F must be >= 1, got {self.F}")
        # config_from_dict checks these too, but a config built in Python skips it
        for name in ("P", "alpha", "gamma", "D", "g_inf"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(name, f"must be a finite number, got {value!r}")
        if isinstance(self.x1, (dict, tuple)):
            scales = self.x1.values() if isinstance(self.x1, dict) else self.x1
            if not all(math.isfinite(v) for v in scales):
                raise ConfigError("x1", f"must hold finite numbers only, got {self.x1!r}")
        if self.P is not None and self.P < 1:
            raise ConfigError("P", f"P must be >= 1, got {self.P}")
        # a field the run would ignore is an error, not a silent no-op
        for name, used in (("gamma", self.schedule == "manual"),
                           ("D", self.schedule == "manual" and self.algo in VR_ALGORITHMS),
                           ("P", self.algo in VR_ALGORITHMS),
                           ("g_inf", self.algo == "signsgd_plus"),
                           ("alpha", self.schedule in ("cor2", "sec2"))):
            if getattr(self, name) is not None and not used:
                raise ConfigError(name, f"is not used by algorithm {self.algo!r} under schedule {self.schedule!r}")
        if self.schedule == "manual" and (self.gamma is None or self.gamma <= 0):
            raise ConfigError("gamma", "manual schedule requires a positive gamma")
        if self.schedule == "manual" and self.algo in VR_ALGORITHMS and (self.D is None or self.D <= 0):
            raise ConfigError("D", "manual schedule with a reference-point method requires D > 0")
        for name in self.checks:
            if name not in CHECKS:
                raise ConfigError("checks", f"unknown check {name!r}; known: {sorted(CHECKS)}")
            if self.algo not in CHECKS[name][0]:
                raise ConfigError(
                    "checks", f"check {name!r} does not apply to algorithm {self.algo!r}"
                )


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


def _parse_q(raw: Any) -> float:
    if not isinstance(raw, bool) and raw in (1, 2):
        return float(raw)
    if raw in ("inf", "Inf", "INF") or raw == math.inf:
        return math.inf
    raise ConfigError("q", f"q must be 1, 2, or \"inf\", got {raw!r}")


def _str(fld: str, raw: Any) -> str:
    """raw itself when it is a string; numbers and lists are not."""
    if not isinstance(raw, str):
        raise ConfigError(fld, f"must be a string, got {raw!r}")
    return raw


def config_from_dict(doc: dict[str, Any]) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a single JSON object")
    known = {f.name: f for f in fields(ExperimentConfig)}
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown config field")
    missing = [k for k, f in known.items() if f.default is MISSING and k not in doc]
    if missing:
        raise ConfigError(missing[0], "required field missing")
    pdoc = doc["problem"]
    if not isinstance(pdoc, dict):
        raise ConfigError("problem", "must be an object")
    kind = _str("problem.kind", pdoc.get("kind", ""))
    sizes = {k: _int(f"problem.{k}", pdoc.get(k, 0)) for k in ("d", "n", "seed")}
    rates = {k: _number(f"problem.{k}", pdoc.get(k, 0.0)) for k in ("lam", "label_noise")}
    try:
        pspec = ProblemSpec(kind=kind, **sizes, **rates)
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from None
    seeds = doc["seeds"]
    if not isinstance(seeds, list):
        raise ConfigError("seeds", f"must be a list of integers, got {seeds!r}")
    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("checks", f"must be a list of strings, got {checks!r}")
    x1 = doc["x1"]
    if isinstance(x1, list):
        x1 = tuple(_number("x1", v) for v in x1)
    elif isinstance(x1, dict):
        if set(x1) != {"gaussian"} or _number("x1", x1["gaussian"]) <= 0:
            raise ConfigError("x1", 'object form must be {"gaussian": positive_scale}')
        x1 = {"gaussian": float(x1["gaussian"])}
    elif x1 != "zeros":
        raise ConfigError("x1", f'must be "zeros", {{"gaussian": scale}}, or a list, got {x1!r}')
    optional = {
        k: None if doc.get(k) is None else _number(k, doc[k])
        for k in ("P", "alpha", "gamma", "D", "g_inf")
    }
    return ExperimentConfig(
        problem=pspec,
        algo=_str("algo", doc["algo"]),
        schedule=_str("schedule", doc["schedule"]),
        q=_parse_q(doc["q"]),
        T=_int("T", doc["T"]),
        seeds=tuple(_int("seeds", s) for s in seeds),
        x1=x1,
        F=_int("F", doc.get("F", 32)),
        **optional,
        checks=tuple(_str("checks", c) for c in checks),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from None
    return config_from_dict(doc)


@dataclass(frozen=True)
class _Derived:
    """What is resolved from (config, problem) before running: the run's
    spec, the reference period and the optimum the checks need."""

    spec: RunSpec
    P: float
    f_star: float | None = None
    f_star_source: str | None = None
    x_star: np.ndarray | None = None

    def as_dict(self) -> dict:
        spec = self.spec
        return {
            "x1": [float(v) for v in spec.x1],
            "gamma": spec.gamma,
            "D": spec.D,
            "L": spec.L,
            "P": self.P,
            "g_inf": spec.g_inf,
            "q": "inf" if spec.q == math.inf else int(spec.q),
            "f_star": self.f_star,
            "f_star_source": self.f_star_source,
            "x_star": None if self.x_star is None else [float(v) for v in self.x_star],
        }


def _resolve_x1(cfg: ExperimentConfig, prob: FiniteSumProblem) -> np.ndarray:
    if cfg.x1 == "zeros":
        return np.zeros(prob.d)
    if isinstance(cfg.x1, dict):
        scale = cfg.x1["gaussian"]
        gen = RngStream(cfg.problem.seed).child("x1").generator
        return scale * gen.standard_normal(prob.d)
    x1 = np.asarray(cfg.x1, dtype=np.float64)
    if x1.shape != (prob.d,):
        raise ConfigError("x1", f"explicit x1 must have length d={prob.d}, got {x1.shape}")
    if not np.all(np.isfinite(x1)):
        raise ConfigError("x1", "explicit x1 must be finite")
    return x1


def _resolve_alpha(cfg: ExperimentConfig, opt: tuple | None, x1: np.ndarray) -> float:
    if cfg.alpha is not None:
        if cfg.alpha <= 0:
            raise ConfigError("alpha", f"alpha must be positive, got {cfg.alpha}")
        return cfg.alpha
    if opt is None:
        raise ConfigError(
            "alpha",
            f"schedule {cfg.schedule!r} needs a distance to the optimum; problem "
            f"{cfg.problem.kind!r} has no closed-form optimum, supply alpha explicitly",
        )
    dist = float(norm(x1 - opt[0], 2))
    if dist <= 0:
        raise ConfigError("alpha", "x1 coincides with the optimum; supply alpha explicitly")
    return dist


def _resolve(cfg: ExperimentConfig, prob: FiniteSumProblem) -> tuple[_Derived, float]:
    """The derived quantities, and the seconds numeric_f_star took (0 when
    f* came from elsewhere). Raises every ConfigError that depends on the
    problem, so none comes after a step has run."""
    x1 = _resolve_x1(cfg, prob)
    P = float(cfg.P) if cfg.P is not None else float(cfg.F * prob.n)
    needs = {CHECKS[name][1] for name in cfg.checks} - {None}
    alpha_from_opt = cfg.schedule in ("cor2", "sec2") and cfg.alpha is None
    opt = prob.optimum() if needs or alpha_from_opt else None

    needs_l = cfg.algo in VR_ALGORITHMS or cfg.algo == "signgd"
    L = prob.lipschitz_constant(cfg.q) if needs_l else None
    if needs_l and L is None:
        raise ConfigError(
            "algo",
            f"algorithm {cfg.algo!r} needs an analytic smoothness constant, but problem "
            f"{cfg.problem.kind!r} provides none",
        )

    if cfg.schedule == "cor1":
        gamma, d_factory = schedule_cor1(prob.d, cfg.q, L, cfg.T)
        D = d_factory(P) if cfg.algo in VR_ALGORITHMS else None
    elif cfg.schedule == "cor2":
        gamma, d_factory = schedule_cor2(_resolve_alpha(cfg, opt, x1), prob.d, cfg.T)
        D = d_factory(P)
    elif cfg.schedule == "sec2":
        gamma = schedule_sec2(_resolve_alpha(cfg, opt, x1), prob.d, cfg.T)
        D = None
    else:  # manual
        gamma = float(cfg.gamma)
        D = cfg.D

    g_inf = cfg.g_inf
    if cfg.algo == "signsgd_plus" and g_inf is None:
        g_inf = prob.grad_bound_inf()
        if g_inf is None:
            raise ConfigError(
                "g_inf",
                f"signsgd_plus needs a gradient bound; problem {cfg.problem.kind!r} "
                "provides none, supply g_inf explicitly",
            )
    spec = RunSpec(algo=cfg.algo, gamma=gamma, x1=x1, q=cfg.q, D=D, L=L, g_inf=g_inf,
                   float_bits=cfg.F)

    # f* sources in order: optimum, infimum, lower bound, numeric descent
    if needs and opt is not None:
        return _Derived(spec, P, float(opt[1]), "optimum", opt[0]), 0.0
    if "x_star" in needs:
        name = next(c for c in cfg.checks if CHECKS[c][1] == "x_star")
        raise ConfigError(
            "checks",
            f"check {name!r} needs a closed-form optimum; problem {cfg.problem.kind!r} provides none",
        )
    if not needs:
        return _Derived(spec, P), 0.0
    for source, resolve in (("infimum", prob.f_infimum), ("lower_bound", prob.f_lower_bound)):
        f_star = resolve()
        if f_star is not None:
            return _Derived(spec, P, float(f_star), source), 0.0
    t0 = time.perf_counter()
    f_star = numeric_f_star(prob)
    f_star_s = time.perf_counter() - t0
    return _Derived(spec, P, float(f_star), "numeric"), f_star_s


@dataclass
class ExperimentResult:
    config_echo: dict
    derived: _Derived
    traces: list[Trace]
    trace_paths: list[str]
    reports: list[BoundReport]
    all_hold: bool
    # the phases timing.json records, in seconds; not deterministic
    timing: dict[str, float]

    def summary_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "derived": self.derived.as_dict(),
            "traces": self.trace_paths,
            "reports": [r.as_dict() for r in self.reports],
            "all_hold": self.all_hold,
            "meta": {"package_version": __version__},
        }


def execute_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Run all seeds, evaluate all requested checks, optionally write
    trace_seed<s>.npy files, summary.json, and timing.json under out_dir."""
    t_start = time.perf_counter()
    prob = make_problem(cfg.problem)
    derived, f_star_s = _resolve(cfg, prob)
    t_run = time.perf_counter()
    traces = run_seeds(derived.spec, prob, cfg.T, cfg.seeds)

    t_checks = time.perf_counter()
    reports = [CHECKS[name][2](prob, derived, traces) for name in cfg.checks]
    all_hold = all(r.holds for r in reports)
    t_end = time.perf_counter()
    timing = {
        "build_s": t_run - t_start - f_star_s,
        "run_seeds_s": t_checks - t_run,
        "f_star_s": f_star_s,
        "checks_s": t_end - t_checks,
        "wall_time_s": t_end - t_start,
    }

    trace_paths: list[str] = []
    result = ExperimentResult(
        config_echo={**asdict(cfg), "q": "inf" if cfg.q == math.inf else int(cfg.q)},
        derived=derived,
        traces=traces,
        trace_paths=trace_paths,
        reports=reports,
        all_hold=all_hold,
        timing=timing,
    )
    if out_dir is None:
        timing["total_s"] = timing["wall_time_s"]
    else:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        t_traces = time.perf_counter()
        for seed, tr in zip(cfg.seeds, traces):
            fname = f"trace_seed{seed}.npy"
            tr.to_npy(str(out / fname))
            trace_paths.append(fname)
        timing["traces_s"] = time.perf_counter() - t_traces
        with open(out / "summary.json", "w") as fh:
            json.dump(result.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        timing["total_s"] = time.perf_counter() - t_start
        with open(out / "timing.json", "w") as fh:
            json.dump(timing, fh)
            fh.write("\n")
    return result
