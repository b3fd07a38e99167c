"""Outside-in tracing for the traced benchmark run.

The untraced run installs nothing.  The traced run calls
:func:`install` (and, inside the compile daemon, :func:`install_service`),
which replaces each layer's public entry point with a shim that records
a span around the call.  A span is ``(id, parent, name, start, end, op)``:
``op`` is shared by every span of one pass or one request, and ``parent``
is the span that was open in the same thread when the call began.  Spans
stay in memory until :meth:`Tracer.write` dumps them as JSON lines.

Span names are ``layer.part``; names starting with ``bench.`` belong to
the benchmark itself (the pass, request and program brackets, and the
host-speed probes, whose time is not counted as op time).  A layer's
self time is its duration minus the time its child spans cover, so the
named layers of an op add up to the op's duration less the benchmark's
own self time -- :func:`summarize` reports that share as the coverage.

Garbage-collector pauses come from ``gc.callbacks`` and are recorded as
``gc.pause`` spans under whatever span was open when the collection ran.

Counts (lanes, mem events, instructions, scheduler chunks, per-pass
seconds) are read from the arguments and return values of the shimmed
calls -- the traces handed to ``time_gpu_kernel``, the ``DeviceReport``
it returns, the ``PassManager`` handed to ``pipeline_stage`` -- never
from inside the program.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: PassManager statistic names (pass function ``__name__``) -> the
#: pass-registry names the per-layer metrics use.
PASS_NAMES = {
    "eliminate_tail_recursion": "tailrec",
    "inline_calls": "inline",
    "promote_memory_to_registers": "mem2reg",
    "constant_fold": "constfold",
    "common_subexpression_elimination": "cse",
    "dead_code_elimination": "dce",
    "simplify_cfg": "simplifycfg",
    "loop_invariant_code_motion": "licm",
    "expand_virtual_calls": "devirt",
    "reduce_cacheline_contention": "l3opt",
    "lower_svm_pointers": "svmlower",
    "optimize_pointer_translations": "ptropt",
    "unroll_loops": "unroll",
}

HYBRID = "sched.hybrid"
#: The benchmark's host-speed probes (see ``common.Speedometer``).
PROBE = "bench.probe"


class Tracer:
    def __init__(self):
        self.spans: list = []
        #: op id -> {count name: value}
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        #: op id -> label (e.g. the request path)
        self.ops: dict = {}
        self.gc_outside_ops = 0.0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list = []

    # -- spans --------------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
            local.gc_start = None
        return local

    def begin(self, name: str) -> list:
        local = self._state()
        stack = local.stack
        frame = [next(self._ids), stack[-1][0] if stack else 0, name, perf_counter(), local.op]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = perf_counter()
        self._local.stack.pop()
        self.spans.append((frame[0], frame[1], frame[2], frame[3], end, frame[4]))

    def parent_name(self):
        """Name of the innermost open span in this thread (``None`` at
        the top level)."""
        stack = self._state().stack
        return stack[-1][2] if stack else None

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    @contextmanager
    def op(self, name: str, label: str = ""):
        """One pass or request: a root span whose id every span opened
        inside it (in this thread) carries as its ``op``."""
        local = self._state()
        previous = local.op
        op_id = next(self._ids)
        self.ops[op_id] = label or name
        local.op = op_id
        frame = self.begin(name)
        try:
            yield op_id
        finally:
            self.end(frame)
            local.op = previous

    def count(self, name: str, value: float = 1.0) -> None:
        op = self._state().op
        if op is not None:
            self.counts[op][name] += value

    # -- shims --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a shim that records span ``name``
        around each call, then calls ``after(tracer, args, kwargs,
        result)`` (outside the span) to take counts."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def shim(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(frame)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, shim)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- garbage collector -------------------------------------------------

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, _info) -> None:
        local = self._state()
        if phase == "start":
            local.gc_start = perf_counter()
            return
        start, local.gc_start = local.gc_start, None
        if start is None:
            return
        end = perf_counter()
        if local.op is None:
            self.gc_outside_ops += end - start
            return
        stack = local.stack
        parent = stack[-1][0] if stack else 0
        self.spans.append((next(self._ids), parent, "gc.pause", start, end, local.op))

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump every span (one JSON object per line) and the per-op
        counts (a final ``{"counts": ...}`` line)."""
        with open(path, "w") as handle:
            for sid, parent, name, start, end, op in self.spans:
                handle.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start": start, "end": end, "op": op}
                    )
                    + "\n"
                )
            handle.write(
                json.dumps(
                    {
                        "ops": {str(k): v for k, v in self.ops.items()},
                        "counts": {str(k): dict(v) for k, v in self.counts.items()},
                    }
                )
                + "\n"
            )


def read_spans(path: str):
    """Inverse of :meth:`Tracer.write`: ``(spans, ops, counts)``."""
    spans, ops, counts = [], {}, {}
    with open(path) as handle:
        for line in handle:
            doc = json.loads(line)
            if "counts" in doc:
                ops = {int(k): v for k, v in doc["ops"].items()}
                counts = {int(k): v for k, v in doc["counts"].items()}
            else:
                spans.append(
                    (doc["id"], doc["parent"], doc["name"], doc["start"], doc["end"], doc["op"])
                )
    return spans, ops, counts


# -- shim installation -----------------------------------------------------


def _gpu_lanes_after(tracer, args, _kwargs, _result):
    if tracer.parent_name() == HYBRID:
        tracer.count("sched.chunks_gpu")
        tracer.count("sched.items_gpu", len(args[2]))


def _cpu_after(tracer, args, _kwargs, _result):
    # launch/reduce(self, kinfo, span, ...) and run_reduce(self, kinfo, n, body)
    items = args[2] if isinstance(args[2], int) else len(args[2])
    tracer.count("exec.lanes", items)
    if tracer.parent_name() == HYBRID:
        tracer.count("sched.chunks_cpu")
        tracer.count("sched.items_cpu", items)


def _gpu_timing_after(tracer, args, _kwargs, report):
    traces = args[2]
    tracer.count("exec.lanes", len(traces))
    tracer.count("exec.sim_instructions", report.instructions)
    tracer.count("gpu.mem_events_kept", sum(len(t.mem_events) for t in traces))
    tracer.count("gpu.mem_events_dropped", sum(t.mem_events_dropped for t in traces))
    tracer.count("gpu.mem_transactions", report.mem_transactions)
    tracer.count("gpu.l3_hits", report.l3_hits)
    tracer.count("gpu.l3_accesses", report.l3_hits + report.l3_misses)


def _cpu_timing_after(tracer, _args, _kwargs, report):
    tracer.count("exec.sim_instructions", report.instructions)


def _wrap_pipeline(tracer, compiler) -> None:
    """``pipeline_stage`` runs with a benchmark-owned ``PassManager``
    when its caller passed none (a manager only keeps statistics, so the
    compiled program is the same); the per-pass seconds it accumulates
    during the call become counts."""
    from repro.passes import OptConfig
    from repro.passes.pipeline import PassManager

    original = compiler.pipeline_stage

    @functools.wraps(original)
    def pipeline_stage(front, config=None, observer=None, manager=None):
        if manager is None:
            manager = PassManager(verify=(config or OptConfig.gpu_all()).verify)
        before = {name: stat.seconds for name, stat in manager.stats.items()}
        frame = tracer.begin("passes.pipeline")
        try:
            return original(front, config, observer=observer, manager=manager)
        finally:
            tracer.end(frame)
            for name, stat in manager.stats.items():
                tracer.count(
                    "passes." + PASS_NAMES.get(name, name),
                    stat.seconds - before.get(name, 0.0),
                )

    compiler.pipeline_stage = pipeline_stage
    tracer._patches.append((compiler, "pipeline_stage", original))


def install(tracer: Tracer) -> None:
    """Shim every simulator-side layer entry point (see module doc)."""
    from repro.backend import cpu as cpu_backend
    from repro.backend import gpu as gpu_backend
    from repro.backend import vector as vector_backend
    from repro.cpu import timing as cpu_timing
    from repro.runtime import compiler
    from repro.runtime import runtime as runtime_mod
    from repro.sched import scheduler
    from repro.workloads import all_workloads

    wrap = tracer.wrap
    wrap(compiler, "frontend_stage", "minicpp.frontend")
    _wrap_pipeline(tracer, compiler)
    wrap(compiler, "closure_stage", "codegen.closure")
    wrap(compiler, "compile_source", "runtime.compile")
    wrap(compiler, "compile_cached", "runtime.compile")

    runtime_cls = runtime_mod.ConcordRuntime
    wrap(runtime_cls, "__init__", "runtime.init")
    wrap(runtime_cls, "parallel_for_hetero", "runtime.construct")
    wrap(runtime_cls, "parallel_reduce_hetero", "runtime.construct")
    for cls in all_workloads().values():
        wrap(cls, "build", "workloads.build")
        wrap(cls, "run", "workloads.run")
        wrap(cls, "validate", "workloads.validate")

    wrap(scheduler.Scheduler, "run_split", HYBRID)
    wrap(gpu_backend.GpuBackend, "_gpu_traces", "exec.gpu_lanes", after=_gpu_lanes_after)
    wrap(vector_backend.VectorBackend, "_gpu_traces", "exec.vector", after=_gpu_lanes_after)
    for attr in ("launch", "reduce", "run_reduce"):
        wrap(cpu_backend.CpuBackend, attr, "exec.cpu", after=_cpu_after)
    wrap(gpu_backend.GpuBackend, "join_copies", "backend.join")

    wrap(gpu_backend, "time_gpu_kernel", "gpu.timing", after=_gpu_timing_after)
    # Each importer binds its own name; the scheduler imports from the
    # defining module at call time.
    for module in (cpu_backend, gpu_backend, cpu_timing):
        wrap(module, "time_cpu_execution", "cpu.timing", after=_cpu_timing_after)
    tracer.install_gc()


def install_service(tracer: Tracer) -> None:
    """Shim the compile daemon's request path on top of :func:`install`.
    Each ``POST`` becomes one op (``bench.request``, labelled with the
    request path)."""
    from repro.service import daemon, store

    wrap = tracer.wrap
    wrap(daemon.CompileService, "compile", "service.handler")
    wrap(daemon.CompileService, "run", "service.run_wait")
    wrap(daemon.CompileService, "_run_workload", "service.handler")
    wrap(store.ArtifactStore, "get", "service.store_get")
    wrap(store.ArtifactStore, "put", "service.store_put")
    wrap(daemon._Handler, "_payload", "service.http")
    wrap(daemon._Handler, "_reply", "service.http")

    original = daemon._Handler.__dict__["do_POST"]

    @functools.wraps(original)
    def do_POST(handler):
        with tracer.op("bench.request", handler.path):
            return original(handler)

    daemon._Handler.do_POST = do_POST
    tracer._patches.append((daemon._Handler, "do_POST", original))


# -- aggregation -------------------------------------------------------------


def summarize(spans, counts, ops=None, want=None) -> dict:
    """Per-op self time by layer.  ``want`` (optional) filters ops by
    label.  Returns ``{op: {"seconds": root duration, "layers": {name:
    self seconds}, "bench_self": seconds, "coverage": share, "counts":
    {...}, "vector": [attempted, vectorized]}}``."""
    child_time: dict = defaultdict(float)
    child_names: dict = defaultdict(set)
    for sid, parent, name, start, end, _op in spans:
        if parent:
            child_time[parent] += end - start
            child_names[parent].add(name)
    per_op: dict = {}
    for sid, parent, name, start, end, op in spans:
        if op is None or (want is not None and ops.get(op) not in want):
            continue
        entry = per_op.get(op)
        if entry is None:
            entry = per_op[op] = {
                "seconds": 0.0,
                "layers": defaultdict(float),
                "bench_self": 0.0,
                "vector": [0, 0],
                "label": (ops or {}).get(op, ""),
            }
        duration = end - start
        own = duration - child_time.get(sid, 0.0)
        if parent == 0:
            entry["seconds"] += duration
        if name == PROBE:
            # Host-speed probes are not part of the op.
            entry["seconds"] -= duration
        elif name.startswith("bench."):
            entry["bench_self"] += own
        else:
            entry["layers"][name] += own
        if name == "exec.vector":
            entry["vector"][0] += 1
            if "exec.gpu_lanes" not in child_names.get(sid, ()):
                entry["vector"][1] += 1
    for op, entry in per_op.items():
        entry["counts"] = dict(counts.get(op, {}))
        seconds = entry["seconds"]
        entry["coverage"] = 1.0 - entry["bench_self"] / seconds if seconds > 0 else 0.0
    return per_op
