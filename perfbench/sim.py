"""The two simulator workloads: ``paper-sweep`` and ``gpu-vector``.

``paper-sweep`` repeats the Ultrabook Fig. 7/8 sweep the way
``python -m repro.eval`` measures it (``repro.eval.runner``): for each
of the nine workloads, compile the four paper configurations with
``compile_source``, then run the CPU, GPU, GPU+PTROPT, GPU+L3OPT,
GPU+ALL and HYBRID cells on the compiled engine, each on a fresh
runtime.  ``gpu-vector`` runs GPU+ALL for the nine workloads on the
columnar vector engine, with programs compiled and vector code warmed
during set-up.

The seed only shuffles the order of cells (and of workloads); the
inputs themselves are fixed-seeded inside ``repro.workloads``.

Checks on every cell: the workload's ``validate()`` against its pure-Python
reference; the cell's simulated numbers (seconds, energy, every
``DeviceReport`` counter) identical in every pass of the run, traced or
not; and for ``gpu-vector`` identical to the compiled-engine reference
pass run during set-up.
"""

from __future__ import annotations

import random
import time
from statistics import fmean
import warnings
from contextlib import nullcontext

from common import Speedometer, digest, median, note, percentile, reports_signature

WORKLOAD_SCALE = {"paper-sweep": 0.5, "gpu-vector": 1.0}


class Cell:
    """One measured op: a compile or a workload run."""

    def __init__(self, kind: str, workload: str, label: str):
        self.kind = kind  # "compile" | "run"
        self.workload = workload
        self.label = label

    @property
    def key(self) -> str:
        return f"{self.workload}/{self.label}"


class SimBench:
    """One simulator workload: holds the program handles and the per-cell
    expectations established by the first pass (or by set-up)."""

    def __init__(self, name: str, seed: int, scale=None, workloads=None):
        from repro.eval.runner import WORKLOAD_ORDER
        from repro.passes import OptConfig
        from repro.runtime import compiler
        from repro.runtime.system import ultrabook
        from repro.workloads import all_workloads

        self.name = name
        self.scale = WORKLOAD_SCALE[name] if scale is None else scale
        self.rng = random.Random(seed)
        registry = all_workloads()
        self.order = list(workloads or WORKLOAD_ORDER)
        self.classes = {w: registry[w] for w in self.order}
        self.configs = {c.label: c for c in OptConfig.all_configs()}
        self.compiler = compiler
        self.system = ultrabook
        self.speed = Speedometer()
        self.programs: dict = {}
        #: cell key -> signature every later run of the cell must match
        self.expected: dict = {}
        #: mean compile ms of each set-up round, scaled to the reference speed
        self.setup_compiles: list = []
        self.failures: list = []

    # -- primitives ----------------------------------------------------------

    def compile(self, workload: str, label: str):
        cls = self.classes[workload]
        # Looked up through the module so the traced run's shim applies.
        return self.compiler.compile_source(
            cls.source, self.configs[label], module_name=cls.name
        )

    def run_cell(self, workload: str, program, engine: str, on_cpu=False, policy="gpu"):
        from repro.runtime import ConcordRuntime

        cls = self.classes[workload]
        rt = ConcordRuntime(
            program, self.system(), region_size=cls.region_size, engine=engine, policy=policy
        )
        instance = cls()
        state = instance.build(rt, self.scale)
        reports = instance.run(rt, state, on_cpu=on_cpu)
        instance.validate(rt, state)
        return reports

    def check(self, key: str, signature) -> None:
        want = self.expected.setdefault(key, signature)
        if want != signature:
            raise AssertionError(f"{key}: simulated numbers differ from the first run")

    # -- set-up -----------------------------------------------------------------

    def compile_all(self, label: str, keep: bool) -> None:
        """One set-up round: compile every program, record the mean
        compile time and the round's host-speed factor, and keep the
        programs (first round) or drop them (later rounds time only)."""
        first = len(self.speed.samples)
        self.speed.probe()
        times = []
        for workload in self.order:
            self.speed.maybe_probe()
            start = time.perf_counter()
            program = self.compile(workload, label)
            times.append((time.perf_counter() - start) * 1e3)
            if keep:
                self.programs[(workload, label)] = program
        self.setup_compiles.append(fmean(times) * self.speed.factor(first))

    def reference_pass(self) -> None:
        """gpu-vector set-up: the compiled-engine reference every vector
        cell must equal, then one vector pass to warm the columnar code
        caches and routing memos (checked against the reference too).
        A timed compile round follows each, so the set-up compile
        figure samples three moments of the set-up."""
        for workload in self.order:
            self.speed.maybe_probe()
            reports = self.run_cell(workload, self.programs[(workload, "GPU+ALL")], "compiled")
            self.expected[f"{workload}/GPU+ALL"] = reports_signature(reports)
        self.compile_all("GPU+ALL", keep=False)
        for workload in self.order:
            self.speed.maybe_probe()
            reports = self.run_cell(workload, self.programs[(workload, "GPU+ALL")], "vector")
            self.check(f"{workload}/GPU+ALL", reports_signature(reports))
        self.compile_all("GPU+ALL", keep=False)

    # -- passes -------------------------------------------------------------

    def plan(self) -> list:
        """One pass's ops in a seed-shuffled order: workloads shuffled;
        for paper-sweep each workload's four compiles (shuffled) come
        before its six cells (shuffled)."""
        workloads = list(self.order)
        self.rng.shuffle(workloads)
        ops = []
        for workload in workloads:
            if self.name == "gpu-vector":
                ops.append([Cell("run", workload, "GPU+ALL")])
                continue
            compiles = [Cell("compile", workload, label) for label in self.configs]
            runs = [Cell("run", workload, label) for label in ("CPU", *self.configs, "HYBRID")]
            self.rng.shuffle(compiles)
            self.rng.shuffle(runs)
            ops.append(compiles + runs)
        return ops

    def execute(self, cell: Cell, programs: dict):
        if cell.kind == "compile":
            programs[cell.workload, cell.label] = self.compile(cell.workload, cell.label)
            return
        if self.name == "gpu-vector":
            program = self.programs[cell.workload, "GPU+ALL"]
            reports = self.run_cell(cell.workload, program, "vector")
        elif cell.label == "CPU":
            program = programs[cell.workload, "GPU+ALL"]
            reports = self.run_cell(cell.workload, program, "compiled", on_cpu=True)
        elif cell.label == "HYBRID":
            program = programs[cell.workload, "GPU+ALL"]
            reports = self.run_cell(cell.workload, program, "compiled", policy="hybrid")
        else:
            program = programs[cell.workload, cell.label]
            reports = self.run_cell(cell.workload, program, "compiled")
        self.check(cell.key, reports_signature(reports))

    def one_pass(self, tracer=None) -> dict:
        """Run every op once, probing the host speed before each
        workload's ops.  Returns the pass record: host seconds (probes
        excluded), per-op latencies, the pass's speed factor and the
        failure count."""
        record = {"ops": [], "failed": 0, "attempted": 0}
        programs: dict = {}
        first, spent = len(self.speed.samples), self.speed.spent
        start = time.perf_counter()
        with tracer.op("bench.pass") if tracer else nullcontext():
            for group in self.plan():
                with tracer.span("bench.probe") if tracer else nullcontext():
                    self.speed.probe(2)
                workload = group[0].workload
                with tracer.span(f"bench.program:{workload}") if tracer else nullcontext():
                    for cell in group:
                        t0 = time.perf_counter()
                        ok = True
                        try:
                            self.execute(cell, programs)
                        except Exception as exc:  # counted, reported, and the pass goes on
                            ok = False
                            self.failures.append(f"{cell.kind} {cell.key}: {type(exc).__name__}: {exc}")
                        ms = (time.perf_counter() - t0) * 1e3
                        record["ops"].append((cell.kind, cell.key, ms, ok))
                        record["attempted"] += 1
                        record["failed"] += 0 if ok else 1
        record["seconds"] = time.perf_counter() - start - (self.speed.spent - spent)
        record["factor"] = self.speed.factor(first)
        return record


def setup(name: str, seed: int, scale=None, workloads=None) -> SimBench:
    """Everything before the first timed op (imports happen before).
    ``bench.speed`` holds the host-speed probes taken along the way."""
    warnings.simplefilter("ignore")  # restriction-fallback ConcordWarnings are expected
    bench = SimBench(name, seed, scale=scale, workloads=workloads)
    if name == "gpu-vector":
        bench.compile_all("GPU+ALL", keep=True)
        bench.reference_pass()
    return bench


def measure(bench: SimBench, seconds: float, tracer=None) -> list:
    """The whole number of passes (at least one) whose total time is
    nearest to ``seconds``: another pass starts while, lasting as long
    as the median pass so far, it would end less than half a pass past
    ``seconds``."""
    passes, walls = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + median(walls) / 2 < seconds:
        began = time.perf_counter()
        passes.append(bench.one_pass(tracer))
        walls.append(time.perf_counter() - began)
    return passes


def _group(samples, reduce=median) -> dict:
    """``reduce`` of the values of each key of ``(key, value)`` samples."""
    groups: dict = {}
    for key, value in samples:
        groups.setdefault(key, []).append(value)
    return {key: reduce(values) for key, values in groups.items()}


def end_to_end(bench: SimBench, passes: list) -> dict:
    """The end-to-end figures of a set of passes, every time scaled to
    the reference host speed by its pass's factor.

    A run holds one to a few passes, too few repeats for a percentile
    over single ops to settle, so each op (a compile or a cell) counts
    with its median over the run's passes.  ``p90_ms`` is the tail of
    the per-program rows (one workload's ops in a pass, median over
    passes): with nine programs, the slowest row.  ``cold_p50_ms`` is
    the median over passes (gpu-vector: over its set-up rounds) of the
    mean compile, because programs differ so much in compile time that
    the median program would jump between neighbours from run to run."""
    ops = [
        (kind, key, ms * p["factor"], index)
        for index, p in enumerate(passes)
        for kind, key, ms, ok in p["ops"]
        if ok
    ]
    every = _group((key, ms) for _kind, key, ms, _i in ops)
    runs = _group((key, ms) for kind, key, ms, _i in ops if kind == "run")
    rows = _group((((i, key.split("/")[0]), ms) for _kind, key, ms, i in ops), sum)
    slowest = _group((program, ms) for (_i, program), ms in rows.items())
    compiles = _group(((i, ms) for kind, _key, ms, i in ops if kind == "compile"), fmean)
    # gpu-vector compiles only in set-up
    compile_means = list(compiles.values()) or bench.setup_compiles
    seconds = [p["seconds"] * p["factor"] for p in passes]
    return {
        "pass_s": median(seconds),
        "req_per_s": len(ops) / sum(seconds),
        "p50_ms": percentile(every.values(), 50),
        "p90_ms": percentile(slowest.values(), 90),
        "cold_p50_ms": median(compile_means),
        "run_p50_ms": percentile(runs.values(), 50),
    }


def report_failures(bench: SimBench) -> None:
    for line in bench.failures[:20]:
        note(f"FAILED {line}")


def run_digest(bench: SimBench) -> str:
    return digest({key: sig for key, sig in bench.expected.items()})
