"""Config validation, experiment execution, artifact formats, exit codes."""
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import signopt.cli
from signopt import harness
from signopt.cli import main
from signopt.harness import (
    CHECKS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    execute_experiment,
    load_config,
)
from signopt.optimizers import ALGORITHMS
from signopt.problems import FiniteSumProblem, ProblemSpec, make_problem
from signopt.trace import _TRACE_DTYPE, CSV_HEADER, Trace, read_trace

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.json"))

BASE = {
    "problem": {"kind": "least_squares", "d": 6, "n": 10, "seed": 5},
    "algo": "signsvrg_v1",
    "schedule": "cor1",
    "q": 1,
    "T": 300,
    "P": 64,
    "seeds": [1, 2, 3],
    "x1": {"gaussian": 1.0},
    "checks": ["svrg_grad_bound_v1", "update_count_bound", "comm_bits_bound"],
}


class _Replace(dict):
    """Fields to set with dataclasses.replace on a valid config."""


class _ReplaceProblem(_Replace):
    """Fields to set with dataclasses.replace on a valid config's problem."""


def _cfg(**over):
    doc = json.loads(json.dumps(BASE))
    doc.update(over)
    return doc


# ---------------------------------------------------------------- validation

def test_config_roundtrip():
    cfg = config_from_dict(_cfg())
    assert cfg.algo == "signsvrg_v1"
    assert cfg.q == 1.0
    assert cfg.seeds == (1, 2, 3)
    assert cfg.F == 32


REJECTIONS = [
    ({"algo": "adam"}, "algo"),
    ({"schedule": "warmup"}, "schedule"),
    ({"schedule": "sec2"}, "schedule"),  # wrong algo for sec2
    ({"q": 3}, "q"),
    ({"T": 0}, "T"),
    ({"seeds": []}, "seeds"),
    ({"seeds": [1, 1]}, "seeds"),
    ({"checks": ["nope"]}, "checks"),
    ({"checks": ["regret_bound"]}, "checks"),  # check/algo mismatch
    ({"x1": "origin"}, "x1"),
    ({"F": 0}, "F"),
    ({"P": 0}, "P"),
    ({"bogus_key": 1}, "bogus_key"),
    # strict types: no bool for an int, no truncated float, no numeric string
    ({"q": True}, "q"),
    ({"T": 1.5}, "T"),
    ({"T": True}, "T"),
    ({"seeds": [1.7]}, "seeds"),
    ({"seeds": [1, False]}, "seeds"),
    ({"seeds": "12"}, "seeds"),
    ({"F": 32.9}, "F"),
    ({"F": None}, "F"),
    ({"problem": dict(BASE["problem"], kind=["logistic"])}, "problem.kind"),
    ({"problem": dict(BASE["problem"], d="10")}, "problem.d"),
    ({"problem": dict(BASE["problem"], n=10.0)}, "problem.n"),
    ({"problem": dict(BASE["problem"], seed=True)}, "problem.seed"),
    ({"problem": dict(BASE["problem"], lam="0.1")}, "problem.lam"),
    ({"problem": dict(BASE["problem"], label_noise=None)}, "problem.label_noise"),
    ({"P": "64"}, "P"),
    ({"P": True}, "P"),
    ({"alpha": "1"}, "alpha"),
    ({"gamma": [0.1]}, "gamma"),
    ({"D": False}, "D"),
    ({"g_inf": "2"}, "g_inf"),
    ({"x1": [0.0, True, 0, 0, 0, 0]}, "x1"),
    ({"x1": {"gaussian": "1"}}, "x1"),
    ({"checks": "regret_bound"}, "checks"),  # a string is not a list of checks
    ({"checks": [["svrg_grad_bound_v1"]]}, "checks"),
    ({"algo": 5}, "algo"),
    ({"algo": ["signsvrg_v1"]}, "algo"),
    ({"schedule": 1}, "schedule"),
    # finite numbers only: Python's JSON reader accepts NaN and Infinity
    ({"g_inf": math.inf}, "g_inf"),
    ({"P": math.inf}, "P"),
    ({"gamma": math.nan}, "gamma"),
    ({"x1": {"gaussian": math.nan}}, "x1"),
    ({"x1": [0.0, -math.inf, 0, 0, 0, 0]}, "x1"),
    ({"alpha": math.nan}, "alpha"),
    ({"D": -math.inf}, "D"),
    ({"problem": dict(BASE["problem"], lam=math.inf)}, "problem.lam"),
    ({"P": 10**400}, "P"),  # an int beyond the floats
    # a config built in Python never passes through config_from_dict
    (_Replace(P=math.inf), "P"),
    (_Replace(alpha=math.nan), "alpha"),
    (_Replace(gamma=-math.inf), "gamma"),
    (_Replace(D=math.inf), "D"),
    (_Replace(g_inf=math.nan), "g_inf"),
    (_Replace(x1=(0.0, math.inf, 0.0, 0.0, 0.0, 0.0)), "x1"),
    (_Replace(x1={"gaussian": math.nan}), "x1"),
    # the random streams take seeds in [0, 2**64) only
    ({"seeds": [-1, 2**64 - 1]}, "seeds"),
    ({"problem": dict(BASE["problem"], seed=2**64)}, "problem.seed"),
    # a field the run would ignore: cor1 derives gamma and D, only
    # signsgd_plus reads g_inf, only cor2 and sec2 read alpha, and only
    # the reference-point methods read P
    ({"gamma": 0.1}, "gamma"),
    ({"D": 1.0}, "D"),
    ({"g_inf": 5.0}, "g_inf"),
    ({"alpha": 1.0}, "alpha"),
    ({"algo": "signsgd_plus", "schedule": "sec2", "checks": [], "P": 64}, "P"),
    # positive numbers, checked when the config is built, JSON or Python
    ({"algo": "signsgd_plus", "schedule": "sec2", "checks": [], "P": None, "g_inf": -5}, "g_inf"),
    ({"algo": "signsgd_plus", "schedule": "sec2", "checks": [], "P": None, "g_inf": 0}, "g_inf"),
    ({"schedule": "cor2", "alpha": 0}, "alpha"),
    ({"x1": {"gaussian": -1.0}}, "x1"),
    ({"x1": {"gaussian": 0}}, "x1"),
    ({"x1": {"uniform": 1.0}}, "x1"),
    (_Replace(algo="signsgd_plus", schedule="sec2", checks=(), P=None, g_inf=-5.0), "g_inf"),
    (_Replace(schedule="cor2", alpha=0.0), "alpha"),
    (_Replace(x1={"gaussian": -1.0}), "x1"),
    (_Replace(x1={"gaussian": 0.0}), "x1"),
    # every field is parsed when the config is built, JSON or Python
    (_Replace(T="10"), "T"),
    (_Replace(F="32"), "F"),
    (_Replace(alpha="2"), "alpha"),
    (_Replace(x1={"gaussian": "1"}), "x1"),
    (_Replace(x1=("a",) * 6), "x1"),
    (_Replace(seeds=(1.5,)), "seeds"),
    (_Replace(seeds=(True,)), "seeds"),
    # problem keys: none unknown, and kind, d, n and seed required
    ({"problem": dict(BASE["problem"], lamda=0.1)}, "problem.lamda"),
    ({"problem": {"kind": "least_squares", "d": 6, "n": 10}}, "problem.seed"),
    ({"problem": {"d": 6, "n": 10, "seed": 5}}, "problem.kind"),
    # a problem field the kind ignores
    ({"problem": dict(BASE["problem"], lam=0.1)}, "problem.lam"),
    ({"problem": dict(BASE["problem"], label_noise=0.1)}, "problem.label_noise"),
    ({"problem": dict(BASE["problem"], kind="trig_nonconvex", label_noise=0.1)}, "problem.label_noise"),
    # the rate checks' right-hand sides take cor1's gamma and D
    ({"schedule": "manual", "gamma": 0.05, "D": 0.4, "checks": ["rate_bounds_v1"]}, "checks"),
    ({"schedule": "cor2", "alpha": 1.0, "checks": ["rate_bounds_v1"]}, "checks"),
    ({"algo": "signsvrg_v2", "schedule": "manual", "gamma": 0.05, "D": 0.4,
      "checks": ["rate_bounds_v2"]}, "checks"),
    # a problem built in Python gets the same parsing, and a kind of fixed
    # shape takes no other: sphere_quadratic has one row, counterexample d = 1
    (_ReplaceProblem(d="10"), "problem.d"),
    (_ReplaceProblem(d=2.5), "problem.d"),
    (_ReplaceProblem(seed=1.5), "problem.seed"),
    (_ReplaceProblem(lam=True), "problem.lam"),
    ({"problem": dict(BASE["problem"], kind="sphere_quadratic", n=2)}, "problem.n"),
    (_ReplaceProblem(kind="counterexample", d=2, n=3), "problem.d"),
]


@pytest.mark.parametrize("patch,field", REJECTIONS)
def test_config_rejections_name_the_field(patch, field):
    valid = config_from_dict(_cfg())
    with pytest.raises(ConfigError) as err:
        if isinstance(patch, _ReplaceProblem):
            dataclasses.replace(valid.problem, **patch)
        elif isinstance(patch, _Replace):
            dataclasses.replace(valid, **patch)
        else:
            config_from_dict(_cfg(**patch))
    assert err.value.field == field
    assert field in str(err.value)


TOP_LEVEL_REJECTIONS = [(patch, field) for patch, field in REJECTIONS if not isinstance(patch, _Replace)
                        and set(patch) <= {f.name for f in dataclasses.fields(ExperimentConfig)} - {"problem"}]


@pytest.mark.parametrize("patch,field", TOP_LEVEL_REJECTIONS)
def test_top_level_rejections_are_the_same_for_a_config_built_in_python(patch, field):
    valid = config_from_dict(_cfg())
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(valid, **patch)
    assert err.value.field == field


@given(
    field=st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)]
                          + [f"problem.{f.name}" for f in dataclasses.fields(ProblemSpec)]),
    value=st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
        st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=2)), max_size=7),
        st.dictionaries(st.sampled_from(["gaussian", "kind", ""]), st.one_of(st.floats(), st.text(max_size=2))),
    ),
)
def test_a_config_built_in_python_raises_only_config_errors(field, value):
    # no TypeError or OverflowError from a value of the wrong type or size,
    # at the top or in the problem
    valid = config_from_dict(_cfg())
    group, _, key = field.rpartition(".")
    try:
        if group:
            dataclasses.replace(valid, problem=dataclasses.replace(valid.problem, **{key: value}))
        else:
            dataclasses.replace(valid, **{field: value})
    except ConfigError:
        pass


def test_a_string_of_checks_is_not_a_list():
    valid = config_from_dict(_cfg())
    for build in (lambda: config_from_dict(_cfg(checks="regret_bound")),
                  lambda: dataclasses.replace(valid, checks="regret_bound")):
        with pytest.raises(ConfigError, match="must be a list") as err:
            build()
        assert err.value.field == "checks"


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_built_in_python_equals_the_loaded_one(path):
    doc = json.loads(path.read_text())
    problem = doc.pop("problem")
    assert ExperimentConfig(problem=ProblemSpec(**problem), **doc) == load_config(path)


def test_readme_config_schema_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Config schema\n")[1].split("\n## ")[0]
    config_from_dict(json.loads(section.split("```json\n")[1].split("```")[0]))


@given(
    field=st.sampled_from(["T", "F", "seeds", "problem.d", "problem.n", "problem.seed"]),
    value=st.one_of(st.integers(-3, 40), st.floats(allow_nan=False), st.booleans(),
                    st.text(max_size=3), st.none()),
)
def test_integer_fields_accept_ints_and_keep_them(field, value):
    doc = _cfg()
    group, _, key = field.rpartition(".")
    (doc[group] if group else doc)[key] = [value] if key == "seeds" else value
    valid = type(value) is int and value >= (0 if key in ("seeds", "seed") else 1)
    try:
        cfg = config_from_dict(doc)
    except ConfigError as exc:
        assert not valid and exc.field == field
        return
    assert valid
    got = cfg.seeds[0] if key == "seeds" else getattr(cfg.problem if group else cfg, key)
    assert type(got) is int and got == value


def test_load_config_rejects_the_json_nan_and_infinity_tokens(tmp_path):
    path = tmp_path / "config.json"
    for token, field in (("Infinity", "g_inf"), ("-Infinity", "g_inf"), ("NaN", "g_inf")):
        path.write_text(json.dumps(BASE)[:-1] + f', "g_inf": {token}}}')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field == field


def test_manual_schedule_requires_gamma_and_d():
    doc = _cfg(schedule="manual", checks=[])
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.field == "gamma"
    doc["gamma"] = 0.05
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.field == "D"
    doc["D"] = 0.4
    config_from_dict(doc)  # now fine


# (schedule, algo, the fields its rule reads or the method rejects): every
# schedule on a method with a reference point and on one without
SCHEDULE_RUNS = [
    ("cor1", "signsvrg_v1", {}),
    ("cor1", "signgd", {"P": None}),
    ("cor2", "signsvrg_v1", {"alpha": 2.0}),
    ("sec2", "signsgd_plus", {"alpha": 2.0, "g_inf": 5.0, "P": None}),
    ("manual", "svrg", {"gamma": 0.05, "D": 0.4}),
    ("manual", "sgd", {"gamma": 0.05, "P": None}),
]


@pytest.mark.parametrize("schedule, algo, fields", SCHEDULE_RUNS, ids=[f"{s}-{a}" for s, a, _ in SCHEDULE_RUNS])
def test_schedule_sets_gamma_and_d(schedule, algo, fields):
    # the closed forms written out: d = 6, T = 50, P = 64 and L = L_q
    d, T, P = 6, 50, 64.0
    for q in (1.0, 2.0, math.inf):
        cfg = config_from_dict(_cfg(algo=algo, schedule=schedule, q=q, T=T, seeds=[1], checks=[],
                                    **fields))
        derived = execute_experiment(cfg).derived.as_dict()
        root = math.sqrt(2.0 / (make_problem(cfg.problem).lipschitz_constant(q) * T))
        gamma, D = {
            "cor1": (root / d ** (1 / q), P * root),
            "cor2": (2.0 / math.sqrt(d * T), P / math.sqrt(T)),
            "sec2": (2.0 / math.sqrt(d * T), None),
            "manual": (0.05, 0.4),
        }[schedule]
        assert derived["gamma"] == pytest.approx(gamma, rel=1e-15), q
        if derived["P"] is None:
            assert derived["D"] is None, q
            continue
        assert derived["P"] == P
        assert derived["D"] == pytest.approx(D, rel=1e-15), q
        if schedule == "cor1":
            # P sign steps from a fresh reference move exactly P gamma d^{1/q}
            # in the q-norm, so a reference holds for at least P steps
            assert derived["gamma"] * d ** (1 / q) * P == pytest.approx(derived["D"], rel=1e-12), q


def test_q_inf_token():
    cfg = config_from_dict(_cfg(q="inf"))
    assert cfg.q == math.inf


def test_explicit_x1_wrong_length():
    with pytest.raises(ConfigError) as err:
        config_from_dict(_cfg(x1=[0.0, 0.0]))
    assert err.value.field == "x1"


def test_alpha_needed_without_optimum():
    doc = _cfg(
        problem={"kind": "trig_nonconvex", "d": 4, "n": 6, "seed": 1, "lam": 0.1},
        schedule="cor2",
        checks=[],
    )
    with pytest.raises(ConfigError) as err:
        execute_experiment(config_from_dict(doc))
    assert err.value.field == "alpha"
    doc["alpha"] = 2.0
    execute_experiment(config_from_dict(doc))  # explicit distance unblocks it


# ---------------------------------------------------------------- execution

TRACE_NAMES = ["trace_seed1.npy", "trace_seed2.npy", "trace_seed3.npy"]


def test_execute_writes_all_artifacts(tmp_path):
    cfg = config_from_dict(_cfg())
    result = execute_experiment(cfg, tmp_path)
    assert result.all_hold
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "summary.json", "timing.json", *TRACE_NAMES,
    ]
    assert np.load(tmp_path / "trace_seed1.npy").dtype == _TRACE_DTYPE
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["traces"] == TRACE_NAMES
    assert doc["all_hold"] is True
    assert [r["name"] for r in doc["reports"]] == list(cfg.checks)
    assert doc["config"]["algo"] == "signsvrg_v1"
    assert doc["derived"]["gamma"] > 0
    assert doc["meta"]["package_version"]

    # a written trace exports to the same CSV bytes as the in-memory trace
    for tr, name in zip(result.traces, TRACE_NAMES):
        tr.to_csv(tmp_path / "want.csv")
        read_trace(tmp_path / name).to_csv(tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    with open(tmp_path / "got.csv") as fh:
        assert fh.readline().rstrip("\n") == CSV_HEADER


def _assert_columns_bitwise(back, tr):
    for col in ("t", "k", "bits_cum", "grad_evals_cum", "flags"):
        assert getattr(back, col).dtype == np.int64
        assert getattr(back, col).tolist() == getattr(tr, col).tolist(), col
    for col in ("f", "gnorm1", "gnorm2", "gnorm_inf", "dist_to_ref"):
        np.testing.assert_array_equal(getattr(back, col).view(np.int64),
                                      getattr(tr, col).view(np.int64), err_msg=col)


def test_trace_csv_roundtrip(tmp_path):
    cfg = config_from_dict(_cfg(seeds=[4]))
    result = execute_experiment(cfg, tmp_path)
    read_trace(tmp_path / "trace_seed4.npy").to_csv(tmp_path / "t.csv")
    _assert_columns_bitwise(read_trace(tmp_path / "t.csv"), result.traces[0])


def test_trace_npy_roundtrip(tmp_path):
    cfg = config_from_dict(_cfg(seeds=[4]))
    result = execute_experiment(cfg, tmp_path)
    _assert_columns_bitwise(read_trace(tmp_path / "trace_seed4.npy"), result.traces[0])


def _edge_trace():
    # signed zero, the smallest subnormal, a huge float, and ints beyond 2^53
    f = np.array([-0.0, 5e-324, 1e308, 0.1])
    big = np.array([2**53 + 1, 2**62 + 3, 2**63 - 1, 0], dtype=np.int64)
    return Trace(t=np.arange(1, 5), f=f, gnorm1=f[::-1].copy(), gnorm2=-f, gnorm_inf=f + 1.0,
                 k=big[::-1].copy(), dist_to_ref=f * 0.5, bits_cum=big, grad_evals_cum=big - 1,
                 flags=np.array([0, 1, 0, 1]), x1=np.empty(0), x_mean=np.empty(0),
                 x_final=np.empty(0))


def test_trace_csv_bytes_match_the_per_row_format(tmp_path):
    tr = _edge_trace()
    tr.to_csv(tmp_path / "t.csv")
    want = CSV_HEADER + "\n" + "".join(
        f"{int(tr.t[i])},{float(tr.f[i])!r},{float(tr.gnorm1[i])!r},"
        f"{float(tr.gnorm2[i])!r},{float(tr.gnorm_inf[i])!r},{int(tr.k[i])},"
        f"{float(tr.dist_to_ref[i])!r},{int(tr.bits_cum[i])},"
        f"{int(tr.grad_evals_cum[i])},{int(tr.flags[i])}\n"
        for i in range(len(tr.t))
    )
    assert (tmp_path / "t.csv").read_bytes() == want.encode()


def test_trace_csv_integer_columns_round_trip_beyond_2_pow_53(tmp_path):
    tr = _edge_trace()
    tr.to_csv(tmp_path / "t.csv")
    _assert_columns_bitwise(read_trace(tmp_path / "t.csv"), tr)


def test_trace_npy_edge_values_round_trip_by_bits(tmp_path):
    tr = _edge_trace()
    tr.to_npy(tmp_path / "t.npy")
    _assert_columns_bitwise(read_trace(tmp_path / "t.npy"), tr)
    # a fixed header, then the raw little-endian records
    raw = (tmp_path / "t.npy").read_bytes()
    assert raw.startswith(b"\x93NUMPY")
    assert raw.endswith(np.load(tmp_path / "t.npy").tobytes())


@pytest.mark.parametrize("rows", [1, 2, 10, 1001, 123457])
def test_trace_npy_bytes_are_those_of_np_save(tmp_path, rows):
    # to_npy writes a cached header and the raw records; np.save of the same
    # records must give the same file, header included, at every row count
    base = _edge_trace()
    columns = {name: np.resize(getattr(base, name), rows) for name in
               ("t", "f", "gnorm1", "gnorm2", "gnorm_inf", "k", "dist_to_ref", "bits_cum",
                "grad_evals_cum", "flags")}
    tr = Trace(**columns, x1=np.empty(0), x_mean=np.empty(0), x_final=np.empty(0))
    tr.to_npy(tmp_path / "t.npy")
    records = np.empty(rows, dtype=_TRACE_DTYPE)
    for name, col in zip(CSV_HEADER.split(","), columns.values()):
        records[name] = col
    with open(tmp_path / "want.npy", "wb") as fh:
        np.save(fh, records, allow_pickle=False)
    assert (tmp_path / "t.npy").read_bytes() == (tmp_path / "want.npy").read_bytes()


@pytest.mark.parametrize("bad", ["wrong_dtype", "big_endian", "pickled", "two_d", "empty", "text"])
def test_read_trace_rejects_a_malformed_npy(tmp_path, bad):
    good = np.zeros(3, dtype=_TRACE_DTYPE)
    path = tmp_path / "t.npy"
    if bad == "wrong_dtype":
        np.save(path, np.zeros((3, 10)))
    elif bad == "big_endian":
        np.save(path, good.astype(_TRACE_DTYPE.newbyteorder(">")))
    elif bad == "pickled":
        np.save(path, np.array([{"t": 1}, None], dtype=object), allow_pickle=True)
    elif bad == "two_d":
        np.save(path, good.reshape(1, 3))
    elif bad == "empty":
        np.save(path, good[:0])
    else:
        path.write_text(CSV_HEADER + "\n1,0.0,0.0,0.0,0.0,1,0.0,0,0,0\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_trace(path)


def test_read_trace_rejects_an_unknown_suffix_and_csv_header(tmp_path):
    (tmp_path / "t.txt").write_text(CSV_HEADER + "\n1,0.0,0.0,0.0,0.0,1,0.0,0,0,0\n")
    with pytest.raises(ValueError, match="t.txt"):
        read_trace(tmp_path / "t.txt")
    (tmp_path / "t.csv").write_text("t,f\n1,0.0\n")
    with pytest.raises(ValueError, match="t.csv"):
        read_trace(tmp_path / "t.csv")


def test_reruns_are_byte_identical(tmp_path):
    cfg = config_from_dict(_cfg())
    execute_experiment(cfg, tmp_path / "a")
    execute_experiment(cfg, tmp_path / "b")
    for name in ["summary.json", *TRACE_NAMES]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_x1_shared_across_seeds():
    result = execute_experiment(config_from_dict(_cfg()))
    f0 = [tr.f[0] for tr in result.traces]
    assert f0[0] == f0[1] == f0[2]  # same start point for every seed
    # but the trajectories differ
    assert not np.array_equal(result.traces[0].x_final, result.traces[1].x_final)


def test_v2_and_rate_checks_run():
    doc = _cfg(algo="signsvrg_v2",
               checks=["svrg_grad_bound_v2", "rate_bounds_v2", "update_count_bound"])
    result = execute_experiment(config_from_dict(doc))
    assert [r.name for r in result.reports] == [
        "svrg_grad_bound_v2", "rate_max_bound", "update_count_bound",
    ]


def test_rate_v1_reported_as_single_disjunction():
    doc = _cfg(checks=["rate_bounds_v1"])
    result = execute_experiment(config_from_dict(doc))
    assert len(result.reports) == 1
    assert result.reports[0].name == "rate_v1_either_bound"


def test_every_check_has_an_owner(shipped_runs):
    # every entry names known algorithms and a known need, and some shipped
    # config requests it, so test_shipped_configs_report_plain_bools runs
    # every evaluator
    assert set(CHECKS) == {
        "svrg_grad_bound_v1", "svrg_grad_bound_v2", "svrg_gap_bound",
        "regret_bound", "final_gap_bound", "signgd_bound",
        "rate_bounds_v1", "rate_bounds_v2", "update_count_bound", "comm_bits_bound",
    }
    for name, (algos, need, _) in CHECKS.items():
        assert set(algos) <= set(ALGORITHMS), name
        assert need in (None, "x_star", "f_star"), name
    shipped = {name for _, result in shipped_runs.values() for name in result.config_echo["checks"]}
    assert shipped == set(CHECKS)


# what a check needs of the optimum is resolved before the run: an unmet
# x* need stops the experiment before any step, and an optimum computed only
# for the cor2 distance alpha is not reported as the checks' f* and x*
NEED_CASES = {
    "x_star_unmet": (
        _cfg(problem={"kind": "trig_nonconvex", "d": 4, "n": 6, "seed": 1}, checks=["svrg_gap_bound"]),
        "checks",
    ),
    "optimum_for_alpha_only": (_cfg(schedule="cor2", checks=["update_count_bound"]), None),
}


@pytest.mark.parametrize("doc, error_field", NEED_CASES.values(), ids=NEED_CASES)
def test_check_needs_resolved_before_the_run(tmp_path, monkeypatch, doc, error_field):
    cfg = config_from_dict(doc)
    if error_field is not None:
        def no_run(*args):
            raise AssertionError("run_seeds ran before the config error")

        monkeypatch.setattr(harness, "run_seeds", no_run)
        with pytest.raises(ConfigError) as exc:
            execute_experiment(cfg, tmp_path)
        assert exc.value.field == error_field
        return
    execute_experiment(cfg, tmp_path)
    derived = json.loads((tmp_path / "summary.json").read_text())["derived"]
    assert derived["f_star"] is None
    assert derived["x_star"] is None
    assert derived["f_star_source"] is None


def test_shipped_configs_report_plain_bools(shipped_runs):
    assert len(shipped_runs) == 5
    for name, (_, result) in shipped_runs.items():
        assert result.reports, name
        for rep in result.reports:
            assert type(rep.holds) is bool, (name, rep.name)


def test_sec2_regret_pipeline():
    doc = {
        "problem": {"kind": "abs_regression", "d": 4, "n": 10, "seed": 2},
        "algo": "signsgd_plus",
        "schedule": "sec2",
        "q": 2,
        "T": 1500,
        "seeds": [1, 2, 3, 4, 5],
        "x1": {"gaussian": 1.0},
        "checks": ["regret_bound", "final_gap_bound"],
    }
    result = execute_experiment(config_from_dict(doc))
    assert result.all_hold
    assert result.derived.spec.g_inf is not None  # pulled from the problem
    assert result.derived.f_star_source == "optimum"


# a signgd run on a nonsmooth problem, which has no analytic L
SIGNGD_WITHOUT_L = {"problem": {"kind": "abs_regression", "d": 3, "n": 5, "seed": 1}, "algo": "signgd",
                    "schedule": "manual", "q": 2, "T": 10, "seeds": [1], "x1": "zeros", "gamma": 0.1, "checks": []}


def test_signgd_runs_without_an_l_that_no_step_or_check_reads(tmp_path):
    result = execute_experiment(config_from_dict(SIGNGD_WITHOUT_L), tmp_path)
    assert result.derived.spec.L is None and result.traces[0].meta["L"] is None
    assert json.loads((tmp_path / "summary.json").read_text())["derived"]["L"] is None
    # where cor1's rule or signgd_bound reads L, its absence is a ConfigError before any step
    for doc in (dict(SIGNGD_WITHOUT_L, checks=["signgd_bound"]),
                dict(SIGNGD_WITHOUT_L, schedule="cor1", gamma=None)):
        with pytest.raises(ConfigError, match="analytic smoothness constant") as err:
            execute_experiment(config_from_dict(doc))
        assert err.value.field == "algo"


def test_signgd_f_star_fallback_to_lower_bound():
    doc = {
        "problem": {"kind": "trig_nonconvex", "d": 4, "n": 6, "seed": 1, "lam": 0.0},
        "algo": "signgd",
        "schedule": "cor1",
        "q": 2,
        "T": 200,
        "seeds": [1],
        "x1": "zeros",
        "checks": ["signgd_bound"],
    }
    result = execute_experiment(config_from_dict(doc))
    assert result.derived.f_star == -1.0
    assert result.derived.f_star_source == "lower_bound"
    assert result.all_hold


# logistic data whose label noise flipped a label against the planted
# separator, so f_infimum certifies nothing and f* comes from numeric_f_star
NOISY_SIGNGD = {
    "problem": {"kind": "logistic", "d": 3, "n": 8, "seed": 4, "label_noise": 0.1},
    "algo": "signgd",
    "schedule": "cor1",
    "q": 1,
    "T": 100,
    "seeds": [1],
    "x1": "zeros",
    "checks": ["signgd_bound"],
}


def test_signgd_f_star_numeric_fallback(monkeypatch):
    cfg = config_from_dict(NOISY_SIGNGD)
    assert make_problem(cfg.problem).f_infimum() is None
    calls = []
    monkeypatch.setattr(FiniteSumProblem, "optimum", lambda self: calls.append(self))
    result = execute_experiment(cfg)
    assert len(calls) == 1  # every f* source is tried once, before the run
    assert result.derived.f_star_source == "numeric"
    assert result.derived.f_star > 0.0
    assert result.all_hold


def test_signgd_f_star_infimum_on_separable_logistic():
    doc = dict(NOISY_SIGNGD, problem=dict(NOISY_SIGNGD["problem"], label_noise=0.0))
    result = execute_experiment(config_from_dict(doc))
    assert result.derived.f_star == 0.0
    assert result.derived.f_star_source == "infimum"
    assert result.derived.x_star is None  # an infimum has no minimizer
    assert result.timing["f_star_s"] == 0.0
    assert result.all_hold


def test_timing_json_splits_the_phases(tmp_path):
    numeric = dict(NOISY_SIGNGD, seeds=[1, 2])
    infimum = dict(numeric, problem={"kind": "logistic", "d": 3, "n": 8, "seed": 4})
    optimum = dict(numeric, problem={"kind": "least_squares", "d": 3, "n": 8, "seed": 4})
    for doc, source in ((numeric, "numeric"), (infimum, "infimum"), (optimum, "optimum"), (BASE, None)):
        out = tmp_path / str(source)
        result = execute_experiment(config_from_dict(doc), out)
        assert result.derived.f_star_source == source
        timing = json.loads((out / "timing.json").read_text())
        assert timing == result.timing
        assert sorted(timing) == [
            "build_s", "checks_s", "f_star_s", "run_seeds_s", "total_s", "traces_s", "wall_time_s",
        ]
        assert (timing["f_star_s"] > 0.0) == (source == "numeric")
        assert min(timing.values()) >= 0.0
        phases = timing["build_s"] + timing["run_seeds_s"] + timing["f_star_s"] + timing["checks_s"]
        assert phases <= timing["wall_time_s"]
        assert timing["wall_time_s"] + timing["traces_s"] <= timing["total_s"]


def test_timing_without_out_dir_ends_at_the_checks():
    result = execute_experiment(config_from_dict(BASE))
    assert "traces_s" not in result.timing
    assert result.timing["total_s"] == result.timing["wall_time_s"]


# ---------------------------------------------------------------- cli exit codes

def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_run_all_hold_exits_zero(tmp_path, capsys):
    code = main(["run", "--config", _write(tmp_path, _cfg()), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks hold" in out
    assert out.count("-> holds") == 3
    # the printed time ends after the artifacts are written
    timing = json.loads((tmp_path / "out" / "timing.json").read_text())
    assert f"total time: {timing['total_s']:.2f}s" in out
    assert sorted(p.name for p in (tmp_path / "out").glob("trace_*")) == TRACE_NAMES


def test_cli_run_violation_exits_two(tmp_path, capsys):
    # manual D far below the coupled schedule forces a refresh every step,
    # so the refresh-count cap at the scheduled period is provably exceeded
    doc = _cfg(schedule="manual", gamma=0.05, D=1e-6,
               checks=["update_count_bound"])
    code = main(["run", "--config", _write(tmp_path, doc), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 2
    assert "VIOLATED" in out


def test_cli_run_config_error_exits_one(tmp_path, capsys):
    code = main(["run", "--config", _write(tmp_path, _cfg(algo="adam")),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "algo" in err


# an unsigned step of 1000 on least squares overflows within a few hundred steps
DIVERGING = {"problem": {"kind": "least_squares", "d": 4, "n": 6, "seed": 42}, "algo": "sgd",
             "schedule": "manual", "gamma": 1000, "q": 1, "T": 3000, "seeds": [0, 1], "x1": "zeros"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_run_non_finite_iterate_exits_one(tmp_path, capsys):
    # the run reports the error and writes no artifacts; run_seeds silences
    # the overflow on the way itself, with no errstate here
    out = tmp_path / "out"
    code = main(["run", "--config", _write(tmp_path, DIVERGING), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: non-finite iterate produced at iteration 120\n"
    assert not out.exists()


def test_cli_run_non_finite_iterate_prints_only_the_error(tmp_path):
    # from the command line, under numpy's default error state: no
    # RuntimeWarning (with its source path) precedes the error line
    src = str(Path(signopt.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONWARNINGS", None)
    args = ["run", "--config", _write(tmp_path, DIVERGING), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-m", "signopt", *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "error: non-finite iterate produced at iteration 120\n"


def test_cli_run_unwritable_out_exits_one(tmp_path, capsys):
    # --out under a regular file: the run reports the OSError in one line
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["run", "--config", _write(tmp_path, _cfg()), "--out", str(blocker / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_run_missing_file_exits_one(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_cli_run_invalid_json_exits_one(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1


def test_cli_verify_key_identity_small(capsys):
    assert main(["verify-key-identity", "--N", "20000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "identity verified" in out


def test_cli_verify_key_identity_rejects_zero_amplitude(capsys):
    for values in ("0,1", "nan,1", "inf", "1,-0.5"):
        assert main(["verify-key-identity", "--N", "1000", "--G-values", values]) == 1, values


def test_cli_example1(capsys):
    assert main(["example1", "--d", "8", "--samples", "3000", "--seed", "1"]) == 0
    assert main(["example1", "--d", "8", "--samples", "1", "--seed", "1"]) == 1


def test_cli_nonconvergence_demo(capsys):
    assert main(["nonconvergence-demo", "--T", "3000", "--gamma", "0.01", "--seed", "0"]) == 0
    capsys.readouterr()
    for gamma in ("-1", "nan", "inf"):
        assert main(["nonconvergence-demo", "--T", "100", "--gamma", gamma, "--seed", "0"]) == 1, gamma
        err = capsys.readouterr().err
        assert err.startswith("error: gamma must be finite and positive") and err.count("\n") == 1, err
    # a huge step escapes the region where the gradient bound is valid
    assert main(["nonconvergence-demo", "--T", "200", "--gamma", "3.0", "--seed", "0"]) == 2


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["run"], ["example1"], ["verify-key-identity", "--N", "abc"],
    ["example1", "--d", "3", "--seed", "-1"], ["verify-key-identity", "--seed", str(2**64)],
])
def test_cli_argument_errors_exit_one(argv, capsys):
    # argparse's own status 2 would read as a failed check
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: signopt" in capsys.readouterr().err


def test_cli_subcommands_are_the_documented_four(capsys):
    # no hidden entry points: the parser offers exactly the subcommands that
    # the module docstring and the README list
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    offered = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")
    doc = signopt.cli.__doc__.split("Subcommands:")[1].split("\n\n")[0]
    docstring = [line.split()[0] for line in doc.strip().splitlines()]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    usage = readme.split("has four subcommands:")[1].split("```")[1]
    listed = [line.split()[1] for line in usage.strip().splitlines()]
    assert offered == docstring == listed == ["run", "verify-key-identity", "example1",
                                              "nonconvergence-demo"]


def test_python_m_signopt_is_the_one_module_entry():
    # the documented `python -m signopt` runs the CLI; `python -m signopt.cli`
    # only imports the module, as cli.py has no second entry of its own
    src = str(Path(signopt.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    procs = [subprocess.run([sys.executable, "-m", module, "--help"], capture_output=True, text=True,
                            env=env, timeout=120) for module in ("signopt", "signopt.cli")]
    assert [proc.returncode for proc in procs] == [0, 0]
    offered = re.search(r"\{([^}]*)\}", procs[0].stdout).group(1).split(",")
    assert offered == ["run", "verify-key-identity", "example1", "nonconvergence-demo"]
    assert procs[1].stdout == ""
