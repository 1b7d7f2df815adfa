"""Span recorder and the wrappers that trace signopt's layers from outside.

Nothing here edits the package: `install` replaces public callables with
span-recording wrappers by attribute substitution, in the child process only.

- problems: the instance's `component_gradient`, `value_and_full_gradient`
  (the per-row snapshot) and `full_gradient`; `make_problem` as the build;
- optimizers: `run`, and the `integers`/`uniform` calls of a generator proxy
  handed out by a stand-in for `signopt.optimizers.RngStream`;
- harness: `numeric_f_star` and the instance's `optimum`/`f_lower_bound`
  (f* resolution);
- analysis: every evaluator `signopt.harness` imported;
- trace: `Trace.to_csv`.

A span is (name, parent, start_ns, end_ns); every span of one run carries
the recorder's trace id. Calls made inside a snapshot or an f* span are not
recorded, so the snapshot owns the `value`/`full_gradient` calls of problems
without a fused `value_and_full_gradient`, and `numeric_f_star` owns its
20 000 gradient-descent steps.
"""
from __future__ import annotations

import os
import statistics
import time

# spans under which nested calls are charged to the enclosing span
OPAQUE = ("problems.snapshot", "harness.f_star")

ANALYSIS_EVALUATORS = (
    "comm_bits_bound",
    "final_gap_bound",
    "rate_metrics",
    "regret_bound",
    "signgd_bound",
    "svrg_gap_bound",
    "svrg_grad_bound_v1",
    "svrg_grad_bound_v2",
    "update_count_bound",
)

_PROBLEM_METHODS = (
    ("component_gradient", "problems.component_grad"),
    ("value_and_full_gradient", "problems.snapshot"),
    ("full_gradient", "problems.full_grad"),
    ("optimum", "harness.f_star"),
    ("f_lower_bound", "harness.f_star"),
)


class Recorder:
    """In-memory span store; spans are written out once, after the run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._opaque = [0]  # depth of open opaque spans

    def wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, opaque = self._stack, self._opaque
        clock = time.perf_counter_ns
        is_opaque = name in OPAQUE

        def traced(*args, **kwargs):
            if opaque[0]:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            if is_opaque:
                opaque[0] += 1
            starts[sid] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                if is_opaque:
                    opaque[0] -= 1
                stack.pop()

        return traced

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("trace_id,span_id,parent_id,name,start_ns,end_ns\n")
            for sid, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{self.trace_id},{sid},{parent},{name},{start},{end}\n")


def calibrate(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Per-call wrapper cost in ns as (inside the span, outside the span).

    The inside part inflates the wrapped span's own duration; the outside
    part lands in the parent's self time. Both are medians over `repeats`
    timings of `calls` calls of a wrapped no-op against the bare no-op.
    """

    def noop():
        return None

    inside, outside = [], []
    clock = time.perf_counter_ns
    for _ in range(repeats):
        rec = Recorder("calibration")
        traced = rec.wrap("noop", noop)
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        bare = (t1 - t0) / calls
        total = (t2 - t1) / calls - bare
        recorded = sum(e - s for s, e in zip(rec.starts, rec.ends)) / calls - bare
        inside.append(max(recorded, 0.0))
        outside.append(max(total - recorded, 0.0))
    return statistics.median(inside), statistics.median(outside)


def install(rec: Recorder) -> None:
    """Substitute span-recording wrappers for the public callables of each
    layer. Call once per process, before `execute_experiment`."""
    import signopt.harness as harness
    import signopt.optimizers as optimizers
    import signopt.trace as trace_mod

    build = rec.wrap("problems.build", harness.make_problem)

    def make_problem(spec):
        prob = build(spec)
        for attr, name in _PROBLEM_METHODS:
            setattr(prob, attr, rec.wrap(name, getattr(prob, attr)))
        return prob

    harness.make_problem = make_problem
    harness.run = rec.wrap("optimizers.run", harness.run)
    harness.numeric_f_star = rec.wrap("harness.f_star", harness.numeric_f_star)
    for name in ANALYSIS_EVALUATORS:
        setattr(harness, name, rec.wrap("analysis.eval", getattr(harness, name)))

    write = rec.wrap("trace.to_csv", trace_mod.Trace.to_csv)

    def to_csv(self, path):
        write(self, path)
        rec.add("trace.rows", len(self.t))
        rec.add("trace.csv_bytes", os.path.getsize(path))

    trace_mod.Trace.to_csv = to_csv

    real_stream = optimizers.RngStream

    class _GeneratorProxy:
        __slots__ = ("integers", "uniform")

        def __init__(self, gen):
            self.integers = rec.wrap("rng.integers", gen.integers)
            self.uniform = rec.wrap("rng.uniform", gen.uniform)

    class TracedRngStream:
        __slots__ = ("seed", "generator")

        def __init__(self, seed):
            stream = real_stream(seed)
            self.seed = stream.seed
            self.generator = _GeneratorProxy(stream.generator)

    optimizers.RngStream = TracedRngStream


def layer_metrics(
    rec: Recorder, seeds: int, T: int, refreshes: int, inside_ns: float, outside_ns: float
) -> dict[str, float]:
    """Per-layer metrics of one traced run, whose root span is the first.

    Self time is a span's duration minus the time its child spans cover,
    corrected by the calibrated wrapper cost: `inside_ns` per span and
    `outside_ns` per child span.
    """
    names, parents, root = rec.names, rec.parents, 0
    dur = [e - s for s, e in zip(rec.starts, rec.ends)]
    self_ns = [d - inside_ns for d in dur]
    subtree = [1] * len(names)  # spans in each span's subtree, itself included
    for sid in range(len(names) - 1, -1, -1):
        parent = parents[sid]
        if parent >= 0:
            self_ns[parent] -= dur[sid] + outside_ns
            subtree[parent] += subtree[sid]
    wrapper_ns = inside_ns + outside_ns
    # a span's duration with the wrapper cost of its descendants removed
    net = [d - inside_ns - (subtree[sid] - 1) * wrapper_ns for sid, d in enumerate(dur)]

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for sid, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_ns[sid] * 1e-9
        total_s[name] = total_s.get(name, 0.0) + net[sid] * 1e-9

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    draws = c("rng.integers") + c("rng.uniform")
    rng_self = s("rng.integers") + s("rng.uniform")
    last_csv_end = max(
        (rec.ends[sid] for sid, name in enumerate(names) if name == "trace.to_csv"),
        default=rec.ends[root],
    )
    summary_write = (rec.ends[root] - last_csv_end) * 1e-9
    steps = seeds * T
    return {
        "rng.draws": draws,
        "rng.self_s": rng_self,
        "rng.ns_per_draw": rng_self / draws * 1e9 if draws else 0.0,
        "optimizers.run.calls": c("optimizers.run"),
        "optimizers.run.s": total_s.get("optimizers.run", 0.0),
        "optimizers.loop.self_s": s("optimizers.run"),
        "optimizers.us_per_seed_step": total_s.get("optimizers.run", 0.0) / steps * 1e6,
        "optimizers.refreshes": refreshes,
        "optimizers.accept_ratio": (steps - refreshes) / steps,
        "problems.build_s": total_s.get("problems.build", 0.0),
        "problems.component_grad.calls": c("problems.component_grad"),
        "problems.component_grad.self_s": s("problems.component_grad"),
        "problems.snapshot.calls": c("problems.snapshot"),
        "problems.snapshot.self_s": s("problems.snapshot"),
        "problems.full_grad.calls": c("problems.full_grad"),
        "problems.full_grad.self_s": s("problems.full_grad"),
        "trace.rows": rec.counts.get("trace.rows", 0),
        "trace.csv_bytes": rec.counts.get("trace.csv_bytes", 0),
        "trace.csv_write_s": total_s.get("trace.to_csv", 0.0),
        "trace.column_bytes": seeds * (T + 1) * 10 * 8,
        "harness.f_star_s": total_s.get("harness.f_star", 0.0),
        "harness.summary_write_s": summary_write,
        "harness.other_self_s": self_ns[root] * 1e-9 - summary_write,
        "analysis.checks": c("analysis.eval"),
        "analysis.eval_s": total_s.get("analysis.eval", 0.0),
        "bench.spans": len(names),
        "bench.wrapper_ns_per_call": wrapper_ns,
    }
