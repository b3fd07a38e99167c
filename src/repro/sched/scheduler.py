"""The construct scheduler (dispatch, history, hybrid split machinery).

The scheduler sits between ``ConcordRuntime``'s public constructs and the
device backends.  Single-device policies delegate to a backend's
construct-level path unchanged (bit-identical to the pre-refactor
monolith); the ``auto``/``hybrid`` policies use :meth:`Scheduler.run_split`
to partition one index space across both backends with greedy
earliest-completion-time chunk dispatch:

* Functional execution stays **sequential in global index order**: chunks
  are carved off the front of the remaining range one at a time and run
  immediately on whichever device the dispatcher picked, so a split
  construct mutates the shared region in exactly the order a
  single-device launch would — that is what makes hybrid runs
  bit-identical to ``gpu`` runs.

* Modeled *time* overlaps: each device keeps a virtual clock that
  advances by its chunks' modeled seconds, a chunk goes to the device
  with the earliest estimated completion, and the construct's wall time
  is the later of the two final clocks.  Each backend's chunks price
  against a cache model threaded through the whole construct, so a split
  launch warms the L3/LLC like one big launch.

* Measured chunk throughput feeds the per-kernel history (shared across
  constructs and seedable from a prior profile); the CPU:GPU throughput
  ratio sizes GPU chunks, prices the one-time CPU probe, and backs the
  end-game guard that keeps a slow device from overhanging the finish.
  ``sched.repartition`` counts calibration moves beyond
  :data:`REPARTITION_DELTA`.
"""

from __future__ import annotations

import weakref
from typing import Optional

from ..gpu.cache import CacheModel
from ..gpu.timing import DeviceReport
from ..svm import address_of

#: Policy used when a runtime is built without an explicit one —
#: paper-faithful GPU offload.
DEFAULT_POLICY = "gpu"

#: A chunk whose recalibrated GPU share moved by more than this counts as
#: a re-partition event (``sched.repartition``).
REPARTITION_DELTA = 0.1

#: Prior CPU slowdown vs the GPU, used to price the CPU probe before any
#: CPU measurement exists for a kernel.
PRIOR_CPU_SLOWDOWN = 8.0

#: A CPU chunk is only dispatched when its estimated completion, padded
#: by this safety factor (chunk cost varies across the index space),
#: still beats the GPU alternative — the end-game guard that keeps the
#: slower device from overhanging the construct's finish.
CPU_SAFETY = 1.25

#: GPU chunks are the CPU chunk size times the calibrated throughput
#: ratio, capped here (keeps launch counts sane on extreme ratios).
MAX_GPU_CHUNK_RATIO = 64


def parallel_report(parts, device: str = "hybrid") -> DeviceReport:
    """Merge per-device totals modeled as executing *concurrently*: wall
    seconds/cycles take the max (the devices overlap), while event counts
    and energy sum.  Compare ``DeviceReport.__add__``, which models
    *sequential* composition by summing seconds."""
    parts = [part for part in parts if part is not None]
    if not parts:
        return DeviceReport(device=device, seconds=0.0, energy_joules=0.0)
    return DeviceReport(
        device=device,
        seconds=max(part.seconds for part in parts),
        energy_joules=sum(part.energy_joules for part in parts),
        cycles=max(part.cycles for part in parts),
        instructions=sum(part.instructions for part in parts),
        issue_slots=sum(part.issue_slots for part in parts),
        mem_transactions=sum(part.mem_transactions for part in parts),
        l3_hits=sum(part.l3_hits for part in parts),
        l3_misses=sum(part.l3_misses for part in parts),
        contention_events=sum(part.contention_events for part in parts),
        contention_cycles=sum(part.contention_cycles for part in parts),
        divergence_waste=sum(part.divergence_waste for part in parts),
        translations=sum(part.translations for part in parts),
    )


class Scheduler:
    """Dispatches constructs through a pluggable placement policy."""

    def __init__(self, rt, policy: str = DEFAULT_POLICY):
        from .policies import POLICIES

        if policy not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; choose from "
                f"{sorted(POLICIES)}"
            )
        # weak for the same reason as Backend.rt: the runtime owns us
        self._rt = weakref.ref(rt)
        self.policy = policy
        self._policies = {name: cls() for name, cls in POLICIES.items()}
        #: (body-class name, device) -> [items, device seconds] observed,
        #: plus an engine-qualified (key, device, engine) row per
        #: observation; every recorded launch/chunk refines the estimates.
        #: The engine rows let placement prefer measurements from the lane
        #: engine actually running (columnar vector vs threaded-code) and
        #: keep profiles seeded from one engine from mispricing another.
        self.history: dict[tuple, list] = {}
        self.repartitions = 0

    # -- plumbing ----------------------------------------------------------

    @property
    def rt(self):
        return self._rt()

    @property
    def counters(self):
        obs = self.rt.obs
        return obs.counters if obs is not None else None

    def backend(self, name: str):
        return self.rt.backends[name]

    def key_of(self, kinfo) -> str:
        """History key: the body class is stable across the CPU/GPU kernel
        forms (whose IR function names differ)."""
        return kinfo.body_class.name

    def engine_of(self, device: str) -> str:
        """The lane engine executing on ``device`` in this runtime.  The
        vector engine only replaces the GPU backend; CPU lanes (and the
        vector backend's own per-kernel fallback) run threaded code."""
        engine = self.rt.engine
        if device != "gpu" and engine == "vector":
            return "compiled"
        return engine

    # -- dispatch ----------------------------------------------------------

    def run(self, kinfo, n, body, construct, on_cpu=False, policy=None):
        name = policy if policy is not None else self.policy
        if name not in self._policies:
            raise ValueError(
                f"unknown scheduling policy {name!r}; choose from "
                f"{sorted(self._policies)}"
            )
        fallback = ""
        if on_cpu:
            # paper-faithful on_cpu=True: force the CPU path, no fallback
            name = "cpu"
        elif kinfo.cpu_only and name != "cpu":
            name = "cpu"
            fallback = "restriction fallback"
        counters = self.counters
        if counters is not None:
            counters.add("sched.constructs")
            counters.add(f"sched.policy.{name}")
            telemetry = self.rt.obs.telemetry
            if telemetry is not None:
                telemetry.emit(
                    "sched",
                    self.key_of(kinfo),
                    decision="policy",
                    policy=name,
                    construct=construct,
                    n=n,
                    fallback=fallback,
                )
        chosen = self._policies[name]
        if construct == "reduce":
            report = chosen.run_reduce(self, kinfo, n, body)
        else:
            report = chosen.run_for(self, kinfo, n, body)
        if fallback:
            report.fallback_reason = fallback
        return report

    # -- throughput history ------------------------------------------------

    def record(
        self,
        key: str,
        device: str,
        items: int,
        seconds: float,
        engine: Optional[str] = None,
    ) -> None:
        if items <= 0 or seconds <= 0.0:
            return
        if engine is None:
            engine = self.engine_of(device)
        for hkey in ((key, device), (key, device, engine)):
            entry = self.history.setdefault(hkey, [0, 0.0])
            entry[0] += items
            entry[1] += seconds

    def throughput(
        self, key: str, device: str, engine: Optional[str] = None
    ) -> Optional[float]:
        """Observed items/second for one kernel on one device, or ``None``
        before any measurement.  Measurements taken under the engine that
        will actually run (``engine``, defaulting to this runtime's) are
        preferred; the per-device aggregate is the fallback, so history
        seeded by an older profile without engine rows still primes the
        estimate."""
        if engine is None:
            engine = self.engine_of(device)
        entry = self.history.get((key, device, engine))
        if entry is None:
            entry = self.history.get((key, device))
        if entry is None or entry[1] <= 0.0:
            return None
        return entry[0] / entry[1]

    def gpu_share(self, key: str, default: float = 0.5) -> float:
        """The calibrated GPU fraction of the index space: with measured
        throughputs ``tg``/``tc``, splitting ``tg/(tg+tc)`` of the items
        to the GPU makes both devices finish together."""
        tg = self.throughput(key, "gpu")
        tc = self.throughput(key, "cpu")
        if tg is None or tc is None:
            return default
        return tg / (tg + tc)

    def seed_from_profile(self, doc: dict) -> int:
        """Seed the throughput history from a prior ``repro.obs`` profile
        document (``repro.obs.profile/v1``), so ``auto``/``hybrid`` start
        calibrated instead of probing.  Returns the number of construct
        records absorbed."""
        names = {}
        for kinfo in self.rt.program.kernels.values():
            key = self.key_of(kinfo)
            names[kinfo.kernel.name] = key
            names[kinfo.gpu_kernel.name] = key
        # Profiles record which lane engine produced them (meta.engine);
        # seed the matching engine-qualified rows so a vector-engine
        # profile doesn't skew placement for a threaded-code runtime (or
        # vice versa).  CPU lanes always ran threaded code under vector.
        profile_engine = (doc.get("meta") or {}).get("engine")
        seeded = 0
        for construct in doc.get("constructs", []):
            device = construct.get("device")
            key = names.get(construct.get("kernel"))
            if device not in ("cpu", "gpu") or key is None:
                continue
            n = construct.get("n") or 0
            phases = construct.get("phases") or {}
            seconds = phases.get("launch", construct.get("seconds", 0.0))
            if n and seconds:
                engine = profile_engine or "unknown"
                if engine == "vector" and device != "gpu":
                    engine = "compiled"
                self.record(key, device, n, seconds, engine=engine)
                seeded += 1
        return seeded

    # -- split (hybrid / auto warm-up) execution ---------------------------

    def run_split(self, kinfo, n, body, construct, chunk_items, policy_name):
        """One construct partitioned across both backends (see module
        docstring).  ``chunk_items`` is the CPU-side chunk granularity;
        GPU chunks scale up by the calibrated throughput ratio.  Each
        chunk is dispatched to the device with the earliest estimated
        completion, with a cold-start CPU probe and an end-game guard."""
        rt = self.rt
        gpu = self.backend("gpu")
        cpu = self.backend("cpu")
        key = self.key_of(kinfo)
        kernel_name = kinfo.gpu_kernel.name
        counters = self.counters
        # One cache model per device per construct: chunks price like
        # consecutive slices of a single launch.
        gdev, cdev = rt.system.gpu, rt.system.cpu
        caches = {
            "gpu": CacheModel(gdev.l3_size_bytes, gdev.l3_line_bytes, gdev.l3_assoc),
            "cpu": CacheModel(cdev.llc_size_bytes, cdev.llc_line_bytes, cdev.llc_assoc),
        }
        budget = rt.mem_event_cap  # construct-global mem-event budget
        # Per-device virtual clocks and in-construct throughput (fresher
        # than the cross-construct history, so it wins when present).
        clock = {"gpu": 0.0, "cpu": 0.0}
        items = {"gpu": 0, "cpu": 0}
        totals = {"gpu": None, "cpu": None}
        traces = {"gpu": [], "cpu": []}

        def est(device):
            if clock[device] > 0.0 and items[device] > 0:
                return items[device] / clock[device]
            return self.throughput(key, device)

        # Chunks are rounded up to warp (SIMD-width) multiples so GPU
        # chunks keep the exact lane grouping a single launch would have —
        # a misaligned chunk boundary would change the divergence model's
        # warp packing and break timing comparability with ``gpu`` runs.
        warp = max(1, rt.system.gpu.simd_width)
        chunk_items = -(-max(1, chunk_items) // warp) * warp
        with rt._span(
            f"construct:{kernel_name}",
            "construct",
            device="hybrid",
            n=n,
            policy=policy_name,
        ) as cspan:
            with rt._span("jit", "phase") as jit_span:
                jit_seconds = gpu.prepare(kinfo)
            addr = address_of(body)
            copies = None
            if construct == "reduce":
                copies = gpu.alloc_copies(kinfo, addr, n)
            with rt._span("launch", "phase") as launch_span:
                lo = 0
                index = 0
                last_share = None
                while lo < n:
                    remaining = n - lo
                    device, size = self._pick(
                        est("gpu"), est("cpu"), clock, remaining,
                        chunk_items, counters,
                    )
                    span = range(lo, lo + size)
                    backend = gpu if device == "gpu" else cpu
                    with rt._span(
                        f"launch:{device}",
                        "phase",
                        chunk=index,
                        lo=lo,
                        items=size,
                    ) as chunk_span:
                        if construct == "reduce":
                            result = backend.reduce(
                                kinfo, span, copies,
                                timing_cache=caches[device], budget=budget,
                            )
                        else:
                            result = backend.launch(
                                kinfo, span, addr,
                                timing_cache=caches[device], budget=budget,
                            )
                    budget = max(0, budget - result.kept_events)
                    report = result.report
                    if chunk_span is not None:
                        chunk_span.sim_seconds = report.seconds
                    clock[device] += report.seconds
                    items[device] += size
                    totals[device] = (
                        report if totals[device] is None
                        else totals[device] + report
                    )
                    traces[device].extend(result.traces)
                    self.record(key, device, size, report.seconds)
                    if counters is not None:
                        counters.add(f"sched.chunks.{device}")
                        counters.add(f"sched.items.{device}", size)
                        telemetry = rt.obs.telemetry
                        if telemetry is not None:
                            telemetry.emit(
                                "sched",
                                key,
                                decision="chunk",
                                device=device,
                                chunk=index,
                                lo=lo,
                                items=size,
                            )
                    share = self.gpu_share(key)
                    if (
                        last_share is not None
                        and abs(share - last_share) > REPARTITION_DELTA
                    ):
                        self.repartitions += 1
                        if counters is not None:
                            counters.add("sched.repartition")
                    last_share = share
                    lo += size
                    index += 1
            total = parallel_report([totals["gpu"], totals["cpu"]])
            launch_seconds = total.seconds
            join = None
            if construct == "reduce":
                join = gpu.join_copies(kinfo, addr, copies)
                if join.joined:
                    total.cycles += join.local_cycles
                    total.seconds += join.local_seconds
                gpu.free_copies(copies)

        if totals["gpu"] is not None:
            rt.total_gpu_report += totals["gpu"]
        if totals["cpu"] is not None:
            rt.total_cpu_report += totals["cpu"]
        if rt.obs is not None:
            from ..cpu.timing import time_cpu_execution

            host_join_seconds = 0.0
            host_trace = join.host_trace if join is not None else None
            if host_trace is not None:
                host_join_seconds = time_cpu_execution(
                    rt.system.cpu, [host_trace]
                ).seconds
            seconds = total.seconds + jit_seconds + host_join_seconds
            phases = {"jit": jit_seconds, "launch": launch_seconds}
            span_seconds = [(jit_span, jit_seconds), (launch_span, launch_seconds)]
            all_traces = traces["gpu"] + traces["cpu"]
            line_samples = []
            if traces["gpu"]:
                line_samples.append((kinfo.gpu_kernel, "gpu", traces["gpu"]))
            if traces["cpu"]:
                line_samples.append((kinfo.kernel, "cpu", traces["cpu"]))
            if construct == "reduce":
                phases["reduce_tree"] = join.local_seconds
                phases["host_join"] = host_join_seconds
                span_seconds.append((join.tree_span, join.local_seconds))
                span_seconds.append((join.host_span, host_join_seconds))
                if host_trace is not None:
                    all_traces = all_traces + [host_trace]
                    line_samples.append((join.host_fn, "cpu", [host_trace]))
            rt._record_construct(
                cspan,
                kernel_name,
                construct,
                "hybrid",
                n,
                seconds=seconds,
                energy_joules=total.energy_joules,
                phases=phases,
                traces=all_traces,
                span_seconds=span_seconds,
                line_samples=line_samples,
            )
        from ..runtime.runtime import ExecutionReport

        # The final virtual clocks are each device's launch occupancy —
        # the task graph uses them to overlap this construct's halves
        # with other constructs instead of conservatively blocking both
        # devices for the merged wall time.
        device_seconds = {
            device: clock[device] for device in clock if items[device] > 0
        }
        if construct == "reduce" and join is not None and join.joined:
            device_seconds["gpu"] = (
                device_seconds.get("gpu", 0.0) + join.local_seconds
            )
        return ExecutionReport(
            device="hybrid",
            n=n,
            report=total,
            jit_seconds=jit_seconds,
            device_seconds=device_seconds,
        )

    def _pick(self, tg, tc, clock, remaining, chunk_items, counters):
        """Choose ``(device, size)`` for the next chunk off the front of
        the remaining range — greedy earliest estimated completion with a
        cold-start probe and the end-game guard."""
        if tg is None:
            # Nothing measured yet: a small GPU chunk calibrates the
            # paper's default device first.
            return "gpu", min(remaining, chunk_items)
        if tc is None:
            # CPU still unmeasured.  Probe it once with one chunk, priced
            # at the pessimistic prior — unless the GPU is estimated to
            # finish everything before the probe would land.
            probe_cost = chunk_items * PRIOR_CPU_SLOWDOWN / tg
            if remaining > chunk_items and probe_cost <= remaining / tg:
                if counters is not None:
                    counters.add("sched.probes")
                return "cpu", chunk_items
            return "gpu", min(remaining, chunk_items * int(PRIOR_CPU_SLOWDOWN))
        ratio = max(1, min(MAX_GPU_CHUNK_RATIO, round(tg / tc)))
        cpu_size = min(chunk_items, remaining)
        gpu_size = min(remaining, chunk_items * ratio)
        cpu_finish = clock["cpu"] + cpu_size / tc
        gpu_finish = clock["gpu"] + gpu_size / tg
        gpu_alone = clock["gpu"] + remaining / tg
        if (
            # end-game: the GPU must keep at least one full chunk of work
            # to overlap this CPU chunk — a tail chunk whose real cost
            # exceeds the estimate (chunk cost is index-dependent) would
            # otherwise overhang the construct's finish with nothing left
            # to hide it behind
            remaining - cpu_size >= gpu_size
            and cpu_finish * CPU_SAFETY <= gpu_finish
            and cpu_finish * CPU_SAFETY <= gpu_alone
        ):
            return "cpu", cpu_size
        return "gpu", gpu_size
