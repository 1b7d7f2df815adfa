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
                  "lam": float?,           # trig_nonconvex only
                  "label_noise": float?},  # logistic only
      "algo": "signsgd"|"signsgd_plus"|"signgd"|"sgd"
              |"signsvrg_v1"|"signsvrg_v2"|"svrg",
      "schedule": "cor1"|"cor2"|"sec2"|"manual",
      "q": 1|2|"inf",
      "T": int,
      "seeds": [int, ...],          # distinct
      "x1": "zeros"|{"gaussian": scale}|[floats],  # a list has length d
      "P": float?,                  # reference period; default F*n
      "alpha": float?,              # cor2/sec2 distance; default ||x1 - x*||
      "gamma": float?, "D": float?, # manual schedule only
      "g_inf": float?,              # override for signsgd_plus
      "F": int?,                    # bits per float, default 32
      "checks": [str, ...]          # the rate checks under cor1 only
    }

An unknown or missing key, at the top or in "problem", is a ConfigError
naming it. P and D apply to the reference-point methods only; a field the
run would ignore is a ConfigError too. ProblemSpec parses the problem's
fields and checks its kind's rules, raising ConfigError("problem.<field>"),
and ExperimentConfig every other field, so a config built in Python gets
the same checks and errors as one read from JSON.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .analysis import (
    _STATED_FOR,
    _cor1_gamma,
    _distance_gamma,
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
)
from .problems import ConfigError, FiniteSumProblem, ProblemSpec, _int, _number, _str, make_problem, numeric_f_star
from .trace import Trace
from .vecmath import RngStream, norm

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


def _cor1(cfg, d, L, alpha, P):
    """cor1's rule. One sign step moves exactly gamma d^{1/q} in l_q distance
    and D = P gamma d^{1/q}, so a fresh reference holds for P steps."""
    return _cor1_gamma(L, cfg.T, cfg.q, d), None if P is None else P * math.sqrt(2.0 / (L * cfg.T))


# schedule -> (the algorithms it drives, the config fields it reads, its
# rule). A rule maps (cfg, d, L, alpha, P) to gamma and the trust radius D of
# the reference period P; D is None when P is, for a method that records no
# D. Every method cor1 drives records L.
SCHEDULES = {
    "cor1": ((*VR_ALGORITHMS, "signgd"), (), _cor1),
    "cor2": (("signsvrg_v1",), ("alpha",),
             lambda cfg, d, L, alpha, P: (_distance_gamma(alpha, d, cfg.T), P / math.sqrt(cfg.T))),
    "sec2": (("signsgd_plus",), ("alpha",), lambda cfg, d, L, alpha, P: (_distance_gamma(alpha, d, cfg.T), None)),
    "manual": (ALGORITHMS, ("gamma", "D"), lambda cfg, d, L, alpha, P: (cfg.gamma, cfg.D)),
}


# check name -> (algorithms it applies to, what it needs of the optimum,
# evaluator(prob, derived, traces) -> BoundReport, which takes the whole seed
# batch and aggregates it by analysis's report rules). The algorithms are those
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
    "signgd_bound": ("f_star", lambda prob, dv, trs: signgd_bound(trs, dv.f_star)),
    # under cor1 only (_COR1_ONLY): their right-hand sides take cor1's gamma and D
    "rate_bounds_v1": ("f_star", lambda prob, dv, trs: rate_metrics(trs, dv.f_star)[0]),
    "rate_bounds_v2": ("f_star", lambda prob, dv, trs: rate_metrics(trs, dv.f_star)[1]),
    "update_count_bound": (None, lambda prob, dv, trs: update_count_bound(trs, dv.P)),
    "comm_bits_bound": (None, lambda prob, dv, trs: comm_bits_bound(trs, dv.P)),
}.items()}
_COR1_ONLY = ("rate_bounds_v1", "rate_bounds_v2")


def _parse_q(fld: str, raw: Any) -> float:
    if not isinstance(raw, bool) and raw in (1, 2):
        return float(raw)
    if raw in ("inf", "Inf", "INF") or raw == math.inf:
        return math.inf
    raise ConfigError(fld, f"q must be 1, 2, or \"inf\", got {raw!r}")


def _tuple_of(parse):
    """The parser of a list (or tuple) of what parse parses."""
    def parse_list(fld: str, raw: Any) -> tuple:
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(fld, f"must be a list, got {raw!r}")
        return tuple(parse(fld, v) for v in raw)
    return parse_list


def _parse_x1(fld: str, raw: Any) -> Any:
    if isinstance(raw, (list, tuple)):
        return _tuple_of(_number)(fld, raw)
    if isinstance(raw, dict) and set(raw) == {"gaussian"}:
        scale = _number(fld, raw["gaussian"])
        if scale > 0:
            return {"gaussian": scale}
    elif isinstance(raw, str) and raw == "zeros":
        return raw
    raise ConfigError(fld, f'must be "zeros", {{"gaussian": positive_scale}}, or a list, got {raw!r}')


# field -> its parser, for a JSON and a Python value alike: each checks the
# type and finiteness and returns the one form a config stores, where ints
# stay ints, numbers become floats, lists tuples and "inf" math.inf
_PARSERS = {"algo": _str, "schedule": _str, "q": _parse_q, "T": _int,
            "seeds": _tuple_of(_int), "x1": _parse_x1, "F": _int, "checks": _tuple_of(_str),
            **dict.fromkeys(("P", "alpha", "gamma", "D", "g_inf"),
                            lambda fld, raw: None if raw is None else _number(fld, raw))}


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
        if not isinstance(self.problem, ProblemSpec):
            raise ConfigError("problem", f"must be a ProblemSpec, got {self.problem!r}")
        for name, parse in _PARSERS.items():
            object.__setattr__(self, name, parse(name, getattr(self, name)))
        if self.algo not in ALGORITHMS:
            raise ConfigError("algo", f"unknown algorithm {self.algo!r}; known: {sorted(ALGORITHMS)}")
        if self.schedule not in SCHEDULES:
            raise ConfigError("schedule", f"unknown schedule {self.schedule!r}; known: {sorted(SCHEDULES)}")
        algos, reads, _ = SCHEDULES[self.schedule]
        if self.algo not in algos:
            raise ConfigError(
                "schedule",
                f"schedule {self.schedule!r} does not apply to algorithm {self.algo!r}",
            )
        for name in ("T", "F", "P"):
            if (value := getattr(self, name)) is not None and value < 1:
                raise ConfigError(name, f"{name} must be >= 1, got {value}")
        for name in ("alpha", "gamma", "D", "g_inf"):
            if (value := getattr(self, name)) is not None and value <= 0:
                raise ConfigError(name, f"must be positive, got {value}")
        if not self.seeds:
            raise ConfigError("seeds", "need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds", "seeds must be distinct")
        # the seeds RngStream takes, checked here to name the field
        if not all(0 <= s < 1 << 64 for s in self.seeds):
            raise ConfigError("seeds", f"seeds must lie in [0, 2**64), got {list(self.seeds)}")
        if isinstance(self.x1, tuple) and len(self.x1) != self.problem.d:
            raise ConfigError("x1", f"explicit x1 must have length d={self.problem.d}, got {len(self.x1)}")
        # a field the run would ignore is an error, not a silent no-op; P
        # sets the radius D of a method that records one. The manual rule
        # requires the gamma and D it uses.
        params = RunSpec.PARAMS[self.algo]
        used = {"gamma": "gamma" in reads, "D": "D" in reads and "D" in params, "P": "D" in params,
                "g_inf": "g_inf" in params, "alpha": "alpha" in reads}
        for name, use in used.items():
            if getattr(self, name) is not None and not use:
                raise ConfigError(name, f"is not used by algorithm {self.algo!r} under schedule {self.schedule!r}")
            if getattr(self, name) is None and use and name in ("gamma", "D"):
                raise ConfigError(name, f"schedule {self.schedule!r} requires {name} for algorithm {self.algo!r}")
        for name in self.checks:
            if name not in CHECKS:
                raise ConfigError("checks", f"unknown check {name!r}; known: {sorted(CHECKS)}")
            if self.algo not in CHECKS[name][0]:
                raise ConfigError(
                    "checks", f"check {name!r} does not apply to algorithm {self.algo!r}"
                )
            if name in _COR1_ONLY and self.schedule != "cor1":
                raise ConfigError("checks", f"check {name!r} applies under schedule 'cor1' only")


def _check_keys(prefix: str, doc: dict, cls: type) -> None:
    """Rejects a key of doc that names no field of cls, then the first field
    of cls without a default that doc lacks."""
    required = {f.name: f.default is MISSING for f in fields(cls)}
    for key in doc:
        if key not in required:
            raise ConfigError(prefix + key, "unknown config field")
    for key, needed in required.items():
        if needed and key not in doc:
            raise ConfigError(prefix + key, "required field missing")


def config_from_dict(doc: dict[str, Any]) -> ExperimentConfig:
    """The config a JSON object describes. Only the object structure is
    checked here; ProblemSpec and ExperimentConfig parse each field."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a single JSON object")
    _check_keys("", doc, ExperimentConfig)
    if not isinstance(doc["problem"], dict):
        raise ConfigError("problem", "must be an object")
    _check_keys("problem.", doc["problem"], ProblemSpec)
    return ExperimentConfig(**{**doc, "problem": ProblemSpec(**doc["problem"])})


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
    spec, the reference period (None for a method without a reference
    point) and the optimum the checks need."""

    spec: RunSpec
    P: float | None
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
    return np.asarray(cfg.x1, dtype=np.float64)


def _resolve_alpha(cfg: ExperimentConfig, opt: tuple | None, x1: np.ndarray) -> float:
    if cfg.alpha is not None:
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
    params = RunSpec.PARAMS[cfg.algo]
    _, reads, rule = SCHEDULES[cfg.schedule]
    P = float(cfg.F * prob.n if cfg.P is None else cfg.P) if "D" in params else None
    needs = {CHECKS[name][1] for name in cfg.checks} - {None}
    opt = prob.optimum() if needs or ("alpha" in reads and cfg.alpha is None) else None

    L = prob.lipschitz_constant(cfg.q) if "L" in params else None
    # an optional L (signgd's) is needed only where cor1's rule or signgd_bound reads it
    if L is None and "L" in params and ("L" not in RunSpec.OPTIONAL.get(cfg.algo, ())
                                        or cfg.schedule == "cor1" or "signgd_bound" in cfg.checks):
        raise ConfigError(
            "algo",
            f"algorithm {cfg.algo!r} needs an analytic smoothness constant, but problem "
            f"{cfg.problem.kind!r} provides none",
        )
    alpha = _resolve_alpha(cfg, opt, x1) if "alpha" in reads else None
    gamma, D = rule(cfg, prob.d, L, alpha, P)

    g_inf = cfg.g_inf
    if "g_inf" in params and g_inf is None:
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
            "reports": [asdict(r) for r in self.reports],
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
