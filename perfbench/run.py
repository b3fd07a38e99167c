"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-sweep|gpu-vector|service-mix \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` first measures an untraced half (for the overhead ratio),
then installs the shims of ``tracer.py`` and reports the per-layer
metrics of the traced half.  The metric names and units are the ones
listed in ``BENCHMARK.json``; ``spec.json`` defines each of them per
workload.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
state the seed, the pass or request counts, the simulated digest and
any failed op.  Span files land in ``perfbench/_work/``.

``--setup-only`` performs one set-up, tears it down and prints
``{"setup_s": ...}``; the measured run starts it twice more in fresh
processes and reports the median of three set-ups as ``setup_s``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import PASS_NAMES  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    SetupError,
    Speedometer,
    emit_result,
    median,
    metric,
    note,
    self_peak_rss_mb,
    work_dir,
)

WORKLOADS = ("paper-sweep", "gpu-vector", "service-mix")
SETUP_REPEATS = 3
#: Host-speed probes taken right after set-up (see ``common.Speedometer``).
SETUP_PROBES = 8
#: Units of the times a host-speed factor applies to.
TIME_UNITS = ("s", "ms", "ns")
#: A traced op must have at least this share of its time in named layers.
MIN_COVERAGE = 0.95

#: Span names whose self time is reported as ``<name>_s`` per op.
LAYER_SPANS = (
    "minicpp.frontend",
    "passes.pipeline",
    "codegen.closure",
    "runtime.compile",
    "runtime.init",
    "workloads.build",
    "workloads.run",
    "workloads.validate",
    "runtime.construct",
    "sched.hybrid",
    "exec.gpu_lanes",
    "exec.vector",
    "exec.cpu",
    "backend.join",
    "gpu.timing",
    "cpu.timing",
    "gc.pause",
    "service.handler",
    "service.store_get",
    "service.store_put",
    "service.http",
)
EXEC_SPANS = ("exec.gpu_lanes", "exec.vector", "exec.cpu")
#: Per-op counts taken straight from the shims.
COUNTS = (
    "exec.sim_instructions",
    "exec.lanes",
    "gpu.mem_events_kept",
    "gpu.mem_events_dropped",
    "gpu.mem_transactions",
    "sched.chunks_gpu",
    "sched.chunks_cpu",
)
#: /v1/stats counters reported per request.
SERVICE_COUNTERS = (
    "memory_hits", "store_hits", "store_misses", "store_puts", "cache_corrupt",
)
#: Per-layer metrics only service-mix has; 0 on the simulator workloads.
SERVICE_ONLY = (
    "gc.client_pause_s", "service.transport_ms", "service.store_bytes", "latency.p99_ms",
    *(f"service.{name}" for name in SERVICE_COUNTERS),
)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        return json.load(handle)


def pick(entries: list, values: dict) -> dict:
    """The result's metrics: exactly the listed names, with their units."""
    missing = [e["name"] for e in entries if e["name"] not in values]
    if missing:
        raise SetupError(f"no value for metrics {missing}")
    return {e["name"]: metric(values[e["name"]], e["unit"]) for e in entries}


def scale_times(values: dict, spec: dict, factor: float) -> dict:
    """Per-layer times scaled to the reference host speed."""
    units = {e["name"]: e["unit"] for e in spec["per_layer"]}
    return {k: v * factor if units.get(k) in TIME_UNITS else v for k, v in values.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- per-layer figures ------------------------------------------------------------


def layer_values(per_op: dict, extra_runs=None) -> dict:
    """Average per op of every layer's self time and every count, plus
    the derived ratios.  ``extra_runs`` (service-mix) lists the ops that
    are run requests, over which ``service.run_wait_s`` is averaged."""
    ops = list(per_op.values())
    n = max(1, len(ops))
    total = {}
    for entry in ops:
        for name, seconds in entry["layers"].items():
            total[name] = total.get(name, 0.0) + seconds
        for name, value in entry["counts"].items():
            total[name] = total.get(name, 0.0) + value
    values = {f"{name}_s": total.get(name, 0.0) / n for name in LAYER_SPANS}
    for name in COUNTS:
        values[name] = total.get(name, 0.0) / n
    for name in PASS_NAMES.values():
        values[f"passes.{name}_s"] = total.get(f"passes.{name}", 0.0) / n
    exec_seconds = sum(total.get(name, 0.0) for name in EXEC_SPANS)
    instructions = total.get("exec.sim_instructions", 0.0)
    kept = total.get("gpu.mem_events_kept", 0.0)
    dropped = total.get("gpu.mem_events_dropped", 0.0)
    items_gpu = total.get("sched.items_gpu", 0.0)
    items_cpu = total.get("sched.items_cpu", 0.0)
    values.update(
        {
            "exec.ns_per_instr": _ratio(exec_seconds * 1e9, instructions),
            "gpu.drop_ratio": _ratio(dropped, kept + dropped),
            "gpu.timing_ns_per_event": _ratio(total.get("gpu.timing", 0.0) * 1e9, kept),
            "gpu.l3_hit_ratio": _ratio(total.get("gpu.l3_hits", 0.0), total.get("gpu.l3_accesses", 0.0)),
            "sched.gpu_item_share": _ratio(items_gpu, items_gpu + items_cpu),
            "vector.launches_attempted": sum(e["vector"][0] for e in ops) / n,
            "vector.launches_vectorized": sum(e["vector"][1] for e in ops) / n,
            "trace.ops": float(len(ops)),
        }
    )
    run_ops = [per_op[op]["layers"].get("service.run_wait", 0.0) for op in (extra_runs or ())]
    values["service.run_wait_s"] = sum(run_ops) / len(run_ops) if run_ops else 0.0
    return values


def coverage_check(per_op: dict) -> tuple:
    """``(worst op share, aggregate share)`` of op time in named layers."""
    if not per_op:
        return 0.0, 0.0
    worst = min(entry["coverage"] for entry in per_op.values())
    seconds = sum(entry["seconds"] for entry in per_op.values())
    own = sum(entry["bench_self"] for entry in per_op.values())
    return worst, 1.0 - own / seconds


# -- set-up repetitions ----------------------------------------------------------


def probe_setups(workload: str, seed: int, count: int) -> list:
    """``count`` more set-ups, each in a fresh process (in a session of
    its own, so a hung one is killed together with any daemon it
    started)."""
    timings = []
    for _ in range(count):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise SetupError("set-up probe timed out") from None
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {err.strip()[-400:]}")
        timings.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return timings


# -- simulator workloads -----------------------------------------------------------


def run_sim(args, spec) -> int:
    import sim
    import tracer as tr

    bench = sim.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - PROCESS_START
    bench.speed.probe(SETUP_PROBES)
    setup_factor = bench.speed.factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * setup_factor}))
        return 0
    note(
        f"{args.workload}: seed {args.seed} shuffles the cell order; the workload inputs "
        f"are fixed-seeded inside repro.workloads; scale {bench.scale}"
    )
    if args.trace:
        untraced = sim.measure(bench, args.seconds / 2)
        recorder = tr.Tracer()
        tr.install(recorder)
        try:
            traced = sim.measure(bench, args.seconds / 2, recorder)
        finally:
            recorder.uninstall()
        recorder.write(os.path.join(work_dir(), f"spans-{args.workload}.jsonl"))
        passes = untraced + traced
        per_op = tr.summarize(recorder.spans, recorder.counts)
        values = layer_values(per_op)
        for workload in bench.order:
            spans = [s for s in recorder.spans if s[2] == f"bench.program:{workload}"]
            values[f"program.{workload}_s"] = sum(s[4] - s[3] for s in spans) / max(1, len(per_op))
        values = scale_times(values, spec, median([p["factor"] for p in traced]))
        values["trace.overhead_ratio"] = median(
            [p["seconds"] * p["factor"] for p in traced]
        ) / median([p["seconds"] * p["factor"] for p in untraced])
        worst, overall = coverage_check(per_op)
        values["trace.coverage"] = worst
        for name in SERVICE_ONLY:
            values[name] = 0.0
        note(
            f"traced {len(traced)} pass(es) after {len(untraced)} untraced; named layers cover "
            f"{worst:.2%} of the worst pass ({overall:.2%} overall)"
        )
        coverage_ok = worst >= MIN_COVERAGE
        metrics = pick(spec["per_layer"], values)
    else:
        passes = sim.measure(bench, args.seconds)
        values = sim.end_to_end(bench, passes)
        values["rss_mb"] = self_peak_rss_mb()
        setups = [setup_s * setup_factor] + probe_setups(args.workload, args.seed, SETUP_REPEATS - 1)
        values["setup_s"] = median(setups)
        coverage_ok = True
        metrics = pick(spec["end_to_end"], values)
        note(
            f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s; host speed factors "
            f"{', '.join(f'{factor:.3f}' for factor in (p['factor'] for p in passes))}"
        )
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    sim.report_failures(bench)
    note(
        f"{len(passes)} pass(es), {attempted} ops, {failed} failed "
        f"(fail_ratio {failed / attempted:.4f}); simulated digest {sim.run_digest(bench)}"
    )
    emit_result(failed == 0 and coverage_ok, attempted, failed, metrics)
    return 0


# -- service-mix ----------------------------------------------------------------------


def run_service(args, spec) -> int:
    import service_mix as sm
    import tracer as tr

    base = work_dir("service", str(os.getpid()))
    daemons = []
    try:
        reference = sm.Reference(args.seed)
        daemons.append(sm.Daemon(os.path.join(base, "store-a"), base))
        stream = sm.Stream(args.seed, reference)
        results = [sm.prefill(daemons[0], stream)]
        setup_s = time.perf_counter() - PROCESS_START
        speed = Speedometer()
        speed.probe(SETUP_PROBES)
        setup_s *= speed.factor()
        if args.setup_only:
            daemons.pop().stop()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        note(
            f"service-mix: seed {args.seed} generates the source pool and the request stream; "
            f"{sm.CLIENTS} closed-loop clients; run requests at scale {sm.RUN_SCALE}"
        )
        seconds = args.seconds / 2 if args.trace else args.seconds
        sampler = sm.RssSampler(daemons[0].proc.pid)
        sampler.start()
        first = sm.drive(daemons[0], stream, seconds)
        rss = sampler.stop()
        hwm = daemons[0].peak_rss_mb()
        daemons.pop().stop()
        results.append(first)
        if args.trace:
            spans_path = os.path.join(work_dir(), "spans-service-mix.jsonl")
            daemons.append(sm.Daemon(os.path.join(base, "store-b"), base, spans=spans_path))
            stream = sm.Stream(args.seed, reference)
            prefilled = sm.prefill(daemons[0], stream)
            results.append(prefilled)
            before = daemons[0].stats().get("counters", {})
            client_gc = tr.Tracer()
            client_gc.install_gc()
            try:
                second = sm.drive(daemons[0], stream, seconds)
            finally:
                client_gc.uninstall()
            stats = daemons[0].stats()
            daemons.pop().stop()
            results.append(second)
            spans, ops, counts = tr.read_spans(spans_path)
            per_op = tr.summarize(spans, counts, ops, want={"/v1/compile", "/v1/run"})
            # Op ids are sequential and the set-up prefill ends before the
            # measured stream starts, so its requests are the first ops.
            per_op = dict(sorted(per_op.items())[len(prefilled["samples"]):])
            runs = [op for op, entry in per_op.items() if entry["label"] == "/v1/run"]
            values = layer_values(per_op, extra_runs=runs)
            requests = max(1, len(per_op))
            for entry in spec["per_layer"]:
                if entry["name"].startswith("program."):
                    values[entry["name"]] = 0.0
            counters = stats.get("counters", {})
            for name in SERVICE_COUNTERS:
                key = f"service.{name}"
                values[key] = (counters.get(key, 0) - before.get(key, 0)) / requests
            values["service.store_bytes"] = stats["store"]["bytes"] / len(stream.sent)
            client_ms = sm.end_to_end(second, 1.0)["p50_ms"]
            # Server time of a request: its do_POST span in the daemon (the
            # /v1/stats percentiles would also count the prefill).
            server_ms = median([entry["seconds"] for entry in per_op.values()]) * 1e3
            values["service.transport_ms"] = client_ms - server_ms
            values["gc.client_pause_s"] = client_gc.gc_outside_ops / max(1, len(second["samples"]))
            untraced = sm.end_to_end(first, 1.0)
            values["trace.overhead_ratio"] = client_ms / untraced["p50_ms"]
            values["latency.p99_ms"] = untraced["p99_ms"]
            worst, overall = coverage_check(per_op)
            values["trace.coverage"] = overall
            coverage_ok = overall >= MIN_COVERAGE
            note(
                f"traced {len(per_op)} request(s) after {len(first['samples'])} untraced; named "
                f"layers cover {overall:.2%} of request time (worst single request {worst:.2%})"
            )
            metrics = pick(spec["per_layer"], values)
        else:
            samples = first["samples"]
            wall = max(s[3] for s in samples) - first["start"]
            values = sm.end_to_end(first, wall)
            values["rss_mb"] = rss
            setups = [setup_s] + probe_setups(args.workload, args.seed, SETUP_REPEATS - 1)
            values["setup_s"] = median(setups)
            coverage_ok = True
            metrics = pick(spec["end_to_end"], values)
            note(
                f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s; daemon resident set "
                f"mean {rss:.1f} MiB, high-water mark {hwm:.1f} MiB"
            )
    finally:
        for daemon in daemons:
            daemon.kill()
        shutil.rmtree(base, ignore_errors=True)
    samples = [s for result in results for s in result["samples"]]
    failures = [f for result in results for f in result["failures"]]
    for line in failures[:20]:
        note(f"FAILED {line}")
    attempted, failed = len(samples), len(failures)
    kinds = {k: sum(1 for s in samples if s[0] == k) for k in ("cold", "warm", "run")}
    measured = len(first["samples"])
    beyond = measured - 1 - int(measured * 0.99)
    note(
        f"{attempted} requests ({kinds['cold']} cold, {kinds['warm']} warm, {kinds['run']} run; "
        f"{sm.PREFILL} cold per daemon in set-up), {failed} failed (fail_ratio "
        f"{failed / max(1, attempted):.4f}); {measured} measured, {beyond} beyond p99; "
        f"simulated digest {reference.digest()}"
    )
    emit_result(failed == 0 and coverage_ok and attempted > 0, max(1, attempted), failed, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        from common import use_repo_sources

        use_repo_sources()
        spec = load_spec()
        if args.workload == "service-mix":
            return run_service(args, spec)
        return run_sim(args, spec)
    except (SetupError, OSError, ImportError) as exc:
        print(f"perfbench: cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
