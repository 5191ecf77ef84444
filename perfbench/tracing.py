"""Spans for the traced run, recorded from outside ccdlab.

``install`` rebinds the public entry points of each ccdlab module to
wrappers that record a span per call: name, start, end, parent span,
experiment id and whether the call is the outermost of its name. Spans stay
in memory; ``layer_metrics`` turns them into per-layer numbers at the end.
Nothing under ``src/ccdlab`` is edited, and ``uninstall`` restores every
original.

Pool workers are forked with the wrappers in place. Each worker task records
its own spans and ships them back to the parent inside the returned trace's
``meta``, where the parent takes them out again before anything else reads the
trace. The CSV files never contain ``meta``, so outputs stay byte-identical.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

WORKER_KEY = "perfbench_spans"
_MISSING = object()

GRAD_METHODS = ("block_grad", "full_grad", "batch_block_grad", "batch_full_grad")


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        # (name, start_ns, end_ns, parent_index, experiment, outermost)
        self.spans: list = []
        self.worker_spans: list[list] = []  # one list per pool task
        self.counts: Counter = Counter()
        self.pool_runs: list = []  # (span index, jobs, summed seed wall_total_ns)
        self.experiment = None
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_exit=None):
        """``fn`` recording a span per call; ``on_exit(index, args, kwargs,
        out)`` runs after each call that is the outermost of its ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            outer = self._depth[name] == 0
            self._depth[name] += 1
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._depth[name] -= 1
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.experiment, outer)
            if on_exit is not None and outer:
                on_exit(index, args, kwargs, out)
            return out

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def worker_entry(self, fn):
        """Pool task entry: in a worker, record fresh spans and ship them back."""

        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() == self.pid:
                return fn(task)
            # a forked worker starts with a copy of the parent's spans
            self.spans, self._stack, self.counts = [], [], Counter()
            self._depth = Counter()
            trace = fn(task)
            trace.meta[WORKER_KEY] = (self.spans, dict(self.counts))
            self.spans, self.counts = [], Counter()
            return trace

        return wrapper

    def patch(self, owner, attr, make):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- hooks ------------------------------------------------------------

    def _run_done(self, index, args, kwargs, out):
        trace = out[1]
        self.counts["algorithms.cycles"] += trace.cycles
        self.counts["problems.work_modeled"] += trace.work[-1]

    def _draw_done(self, index, args, kwargs, out):
        self.counts["sampling.indices_drawn"] += len(out)

    def _checks_done(self, index, args, kwargs, out):
        self.counts["checks.rows"] += sum(len(r.rows) for r in out)

    def _traces_done(self, index, args, kwargs, out):
        _, traces, _ = out
        for trace in traces:
            shipped = trace.meta.pop(WORKER_KEY, None)
            if shipped is not None:
                spans, counts = shipped
                self.worker_spans.append([s[:4] + (self.experiment,) + s[5:] for s in spans])
                self.counts.update(counts)
        jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
        if jobs > 1 and len(traces) > 1:
            seed_ns = sum(t.meta["wall_total_ns"] for t in traces)
            self.pool_runs.append((index, jobs, seed_ns))


def _cost_hook(tracer, method):
    def hook(index, args, kwargs, out):
        flops, nbytes = arithmetic_cost(method, args)
        tracer.counts["problems.flops_computed"] += flops
        tracer.counts["problems.bytes_computed"] += nbytes

    return hook


def arithmetic_cost(method: str, args) -> tuple[int, int]:
    """(flops, bytes) of one ``problems`` call, computed from argument shapes.

    Counts the dominant terms: a multiply-add is 2 flops, and bytes are 8 per
    float64 entry the arithmetic reads. A finite-sum batch of c < n
    components reads c curvature slices; the full batch (c == n) and the
    exact gradients use the mean matrix once. The streaming quadratic shares
    one curvature matrix, so only its linear terms scale with the batch.
    Computed, not measured.
    """
    from ccdlab.problems import QuadraticFiniteSum, StreamingQuadratic

    prob = args[0]
    part = prob.partition
    d = part.dim
    if method in ("value", "batch_value"):
        c = len(args[1].lin) if method == "batch_value" else 0
        return 2 * d * d + c * d + 4 * d, 8 * (d * d + c * d + 2 * d)
    if method in ("block_grad", "batch_block_grad"):
        d_sel = part.block_sizes[args[-2]]
    else:
        d_sel = d
    if isinstance(prob, StreamingQuadratic):
        c = len(args[1].lin)
        return 2 * d_sel * d + c * d_sel, 8 * (d_sel * d + c * d_sel + d)
    if not isinstance(prob, QuadraticFiniteSum):
        raise TypeError(f"no cost model for {type(prob).__name__}")
    c = len(args[1]) if method.startswith("batch_") else prob.n
    if c == prob.n:
        c = 1  # the mean matrix
    return 2 * c * d_sel * d + 2 * c * d_sel, 8 * (c * d_sel * (d + 1) + d)


def install(tracer: Tracer):
    """Rebind every traced entry point; ``tracer.uninstall()`` undoes it."""
    from ccdlab import algorithms, harness, problems, sampling
    from ccdlab.blocks import BlockPartition

    for cls in (problems.QuadraticFiniteSum, problems.StreamingQuadratic):
        for method in GRAD_METHODS + ("value", "batch_value"):
            if not hasattr(cls, method):
                continue
            name = "problems.value" if method.endswith("value") else "problems.grad"
            hook = _cost_hook(tracer, method)
            tracer.patch(cls, method, lambda fn, n=name, h=hook: tracer.span(n, fn, h))
    tracer.patch(problems.StreamingQuadratic, "draw_batch",
                 lambda fn: tracer.span("problems.stream_draw", fn))
    # metric calibration and coupling matrices, looked up as problems.<name>
    for fname in ("exact_quadratic_metric", "exact_coupling_matrices"):
        tracer.patch(problems, fname, lambda fn: tracer.span("problems.coupling", fn))

    tracer.patch(sampling, "draw_minibatch",
                 lambda fn: tracer.span("sampling.draw", fn, tracer._draw_done))
    # algorithms imports these by name, so they are rebound there
    tracer.patch(algorithms, "bernoulli_switch", lambda fn: tracer.span("sampling.switch", fn))
    tracer.patch(algorithms, "metric_prox", lambda fn: tracer.span("regularizers.prox", fn))
    tracer.patch(algorithms, "total_value", lambda fn: tracer.span("regularizers.value", fn))

    tracer.patch(BlockPartition, "block_slice", lambda fn: tracer.counter("blocks.slice_calls", fn))

    for fname in ("pccd_run", "vrccd_run"):
        tracer.patch(algorithms, fname,
                     lambda fn: tracer.span("algorithms.run", fn, tracer._run_done))

    tracer.patch(harness, "run_checks",
                 lambda fn: tracer.span("checks.run", fn, tracer._checks_done))
    tracer.patch(harness, "resolve", lambda fn: tracer.span("harness.resolve", fn))
    tracer.patch(harness, "reference_minimum", lambda fn: tracer.span("harness.reference_min", fn))
    tracer.patch(harness, "write_report", lambda fn: tracer.span("harness.report_write", fn))
    for method in ("__init__", "sink", "close"):
        tracer.patch(harness.TraceCsvWriter, method,
                     lambda fn: tracer.span("harness.trace_write", fn))
    tracer.patch(harness, "run_traces",
                 lambda fn: tracer.span("harness.run_traces", fn, tracer._traces_done))
    tracer.patch(harness, "_run_one", tracer.worker_entry)


def _child_ns(spans):
    """Per span, the time its direct children cover."""
    child = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def layer_metrics(tracer: Tracer, rounds: int, experiments_ns: float) -> dict:
    """Per-round layer numbers from every span the traced rounds recorded."""
    inclusive, calls, self_ns = Counter(), Counter(), Counter()
    experiments_checked = Counter()
    for spans in [tracer.spans] + tracer.worker_spans:
        child = _child_ns(spans)
        for i, (name, start, end, _, experiment, outer) in enumerate(spans):
            self_ns[name] += end - start - child[i]
            if outer:
                inclusive[name] += end - start
                calls[name] += 1
            if name == "checks.run":
                experiments_checked[experiment] += 1

    pool_ns = pool_capacity_ns = seed_ns = 0
    for index, jobs, wall_ns in tracer.pool_runs:
        _, start, end, _, _, _ = tracer.spans[index]
        resolve_ns = sum(
            e - s for name, s, e, parent, _, _ in tracer.spans
            if parent == index and name == "harness.resolve"
        )
        pool_ns += end - start - resolve_ns
        pool_capacity_ns += jobs * (end - start - resolve_ns)
        seed_ns += wall_ns
    # the experiment spans are the roots; their children are the module spans
    parent_child = _child_ns(tracer.spans)
    covered = sum(parent_child[i] for i, span in enumerate(tracer.spans) if span[3] < 0)

    c = tracer.counts
    per = 1.0 / rounds

    def secs(name):
        return inclusive[name] * 1e-9 * per

    cycles = c["algorithms.cycles"]
    work = c["problems.work_modeled"]
    return {
        "problems.grad_s": (secs("problems.grad"), "s"),
        "problems.grad_calls": (calls["problems.grad"] * per, "count"),
        "problems.value_s": (secs("problems.value"), "s"),
        "problems.stream_draw_s": (secs("problems.stream_draw"), "s"),
        "problems.coupling_s": (secs("problems.coupling"), "s"),
        "problems.work_modeled": (work * per, "count"),
        "problems.flops_computed": (c["problems.flops_computed"] * per, "flop"),
        "problems.bytes_computed": (c["problems.bytes_computed"] * per, "bytes"),
        "problems.flops_per_work": (
            c["problems.flops_computed"] / work if work else 0.0, "flop/work"),
        "sampling.draw_s": (secs("sampling.draw"), "s"),
        "sampling.draw_calls": (calls["sampling.draw"] * per, "count"),
        "sampling.indices_drawn": (c["sampling.indices_drawn"] * per, "count"),
        "sampling.switch_s": (secs("sampling.switch"), "s"),
        "sampling.switch_calls": (calls["sampling.switch"] * per, "count"),
        "regularizers.prox_s": (secs("regularizers.prox"), "s"),
        "regularizers.prox_calls": (calls["regularizers.prox"] * per, "count"),
        "regularizers.value_s": (secs("regularizers.value"), "s"),
        "blocks.slice_calls": (c["blocks.slice_calls"] * per, "count"),
        "algorithms.self_s": (self_ns["algorithms.run"] * 1e-9 * per, "s"),
        "algorithms.cycles": (cycles * per, "count"),
        "algorithms.self_us_per_cycle": (
            self_ns["algorithms.run"] * 1e-3 / cycles if cycles else 0.0, "us/cycle"),
        "checks.s": (secs("checks.run") - secs("harness.reference_min"), "s"),
        "checks.rows": (c["checks.rows"] * per, "count"),
        "checks.escalations": (
            sum(1 for n in experiments_checked.values() if n > 1) * per, "count"),
        "harness.resolve_s": (secs("harness.resolve"), "s"),
        "harness.resolve_calls": (calls["harness.resolve"] * per, "count"),
        "harness.reference_min_s": (secs("harness.reference_min"), "s"),
        "harness.trace_write_s": (secs("harness.trace_write"), "s"),
        "harness.report_write_s": (secs("harness.report_write"), "s"),
        "harness.pool_s": (pool_ns * 1e-9 * per, "s"),
        "harness.pool_efficiency": (
            seed_ns / pool_capacity_ns if pool_capacity_ns else 0.0, "share"),
        "trace.unattributed_share": (1.0 - covered / experiments_ns, "share"),
    }
