"""Self-test of the benchmark's tracing, on small inputs (under a minute).

    python3 perfbench/selftest.py

Checks that

* the shims leave every simulated number unchanged: a traced pass must
  reproduce the untraced pass's cell signatures exactly, on the compiled
  engine (with hybrid cells and a reduction) and on the vector engine;
* named layers cover at least 95% of every traced pass, and of the
  traced daemon's requests taken together;
* uninstalling restores every shimmed entry point;
* the traced daemon answers compile and run requests correctly and
  writes its spans at shutdown;
* each run produces every metric BENCHMARK.json lists.

Exit status 0 when all checks pass.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import use_repo_sources, work_dir  # noqa: E402

SMALL = ["BFS", "ClothPhysics", "SkipList"]


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        raise SystemExit(1)


def entry_points():
    from repro.backend.gpu import GpuBackend
    from repro.runtime import compiler

    return (compiler.pipeline_stage, compiler.frontend_stage, GpuBackend._gpu_traces)


def simulator(name: str, spec) -> None:
    import run
    import sim
    import tracer as tr

    bench = sim.setup(name, seed=7, scale=0.05, workloads=SMALL)
    untraced = sim.measure(bench, 0)
    before = entry_points()
    recorder = tr.Tracer()
    tr.install(recorder)
    try:
        traced = sim.measure(bench, 0, recorder)
    finally:
        recorder.uninstall()
    check(entry_points() == before, f"{name}: uninstall restores the entry points")
    failures = sum(p["failed"] for p in untraced + traced)
    check(failures == 0, f"{name}: traced cells equal the untraced ones ({bench.failures[:1]})")
    per_op = tr.summarize(recorder.spans, recorder.counts)
    worst, _overall = run.coverage_check(per_op)
    check(worst >= run.MIN_COVERAGE, f"{name}: named layers cover {worst:.2%} of the traced pass")
    values = run.layer_values(per_op)
    engine_span = "exec.vector_s" if name == "gpu-vector" else "exec.gpu_lanes_s"
    check(values[engine_span] > 0 and values["gpu.timing_s"] > 0, f"{name}: lane and timing spans recorded")
    if name == "paper-sweep":
        check(values["sched.chunks_gpu"] > 0 and values["backend.join_s"] > 0,
              f"{name}: hybrid chunks and the reduction join recorded")
        check(values["passes.pipeline_s"] > 0 and values["passes.mem2reg_s"] > 0,
              f"{name}: compile stages and per-pass seconds recorded")
    values.update(sim.end_to_end(bench, untraced))
    values.update({"rss_mb": 1.0, "setup_s": 1.0, "trace.overhead_ratio": 1.0, "trace.coverage": worst})
    values.update({k: 0.0 for k in run.SERVICE_ONLY})
    values.update({e["name"]: 0.0 for e in spec["per_layer"] if e["name"].startswith("program.")})
    run.pick(spec["end_to_end"] + spec["per_layer"], values)
    check(True, f"{name}: every listed metric has a value")


def service(spec) -> None:
    import run
    import service_mix as sm
    import tracer as tr

    base = work_dir("selftest")
    spans = os.path.join(base, "spans.jsonl")
    reference = sm.Reference(seed=7)
    daemon = sm.Daemon(os.path.join(base, "store"), base, spans=spans)
    try:
        stream = sm.Stream(7, reference)
        prefilled = sm.prefill(daemon, stream, 4)
        result = sm.drive(daemon, stream, 1.5)
        daemon.stop()
    finally:
        daemon.kill()
    samples = prefilled["samples"] + result["samples"]
    failures = prefilled["failures"] + result["failures"]
    check(not failures, f"service-mix: {len(samples)} traced replies correct {failures[:1]}")
    check(len(prefilled["samples"]) == 4, "service-mix: prefill sent exactly its cold compiles")
    kinds = {s[0] for s in result["samples"]}
    check({"cold", "warm", "run"} <= kinds, f"service-mix: stream issued {sorted(kinds)}")
    loaded, ops, counts = tr.read_spans(spans)
    per_op = tr.summarize(loaded, counts, ops, want={"/v1/compile", "/v1/run"})
    check(len(per_op) == len(samples), "service-mix: one traced op per request")
    _worst, overall = run.coverage_check(per_op)
    check(overall >= run.MIN_COVERAGE, f"service-mix: named layers cover {overall:.2%} of request time")
    values = run.layer_values(per_op)
    check(values["service.handler_s"] > 0 and values["minicpp.frontend_s"] > 0,
          "service-mix: daemon-side spans recorded")
    shutil.rmtree(base, ignore_errors=True)


def main() -> int:
    use_repo_sources()
    import run

    spec = run.load_spec()
    simulator("paper-sweep", spec)
    simulator("gpu-vector", spec)
    service(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
