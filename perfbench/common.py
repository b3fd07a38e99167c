"""Shared plumbing for the benchmark: locating the program's sources,
statistics, digests and the result line.

Nothing here imports the program; :func:`use_repo_sources` puts the
checkout's ``src/`` first on ``sys.path`` (and refuses to run without
it), so the benchmark always measures the tree it was run from.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch output of one run (stores, span files); ignored by git.
WORK = os.path.join(ROOT, "perfbench", "_work")


class SetupError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad flags)."""


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program sources under {SRC}")
    if sys.flags.optimize:
        # Workload validation uses assert statements, which -O strips.
        raise SetupError("run without -O: output checks rely on assert")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise SetupError(f"imported repro from {where}, not {SRC}")


def child_env() -> dict:
    """Environment for subprocesses that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONOPTIMIZE", None)
    return env


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# -- statistics ------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, the rule ``repro.obs.telemetry`` uses
    (0.0 for no samples; the caller reports the run as failed then)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(len(ordered) * q / 100)))
    return ordered[rank]


def iqr_share(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_rss_mb(pid: int, field: str = "VmRSS") -> float:
    """``field`` (``VmRSS``, ``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"no {field} for pid {pid}")


# -- host speed ----------------------------------------------------------------


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def f(self, x):
        return self.a * x + self.b


def _probe_loop() -> int:
    """Fixed interpreter work: integer arithmetic, small objects, method
    calls, dict and list traffic -- the mix the simulator spends its
    time on, with none of the program's code."""
    total = 0
    for i in range(30000):
        total += (i * 7) % 13
    table: dict = {}
    items = []
    for i in range(3000):
        probe = _Probe(i, i + 1)
        table[i & 255] = probe.f(i)
        items.append((probe, table.get(i & 127, 0)))
    return total + len(items)


class Speedometer:
    """Tracks the host's speed while the benchmark runs.

    The machine this was tuned on (a 2-core VM on a shared host) drifts
    by tens of percent over minutes, and the program's own work drifts
    with it.  A short fixed loop, timed between ops, measures that
    drift; times of CPU-bound work are reported scaled by
    ``(REFERENCE / loop time) ** ELASTICITY``, i.e. as they would read
    on a host where the loop takes ``REFERENCE`` seconds.  The loop runs
    with the garbage collector off so the program's heap cannot change
    its cost.
    """

    #: Seconds one loop takes on the reference host (a typical reading
    #: on a 2-core x86-64 VM with Python 3.11).
    REFERENCE = 0.0045
    #: How strongly the program's time follows the loop's: regressing
    #: log pass time on log loop time over back-to-back paper-sweep
    #: passes gave slopes of 0.47-0.56 (the loop swings about twice as
    #: much as the program does), and scaling by the square root cut the
    #: pass-to-pass spread from 8-9% to 5.5-6%; scaling by the full
    #: ratio did not reduce it.
    ELASTICITY = 0.5
    #: At most one probe per this many seconds of ops.
    INTERVAL = 0.2

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0  # seconds spent probing
        self._last = -1e9

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            enabled = gc.isenabled()
            gc.disable()
            start = time.perf_counter()
            try:
                _probe_loop()
            finally:
                end = time.perf_counter()
                if enabled:
                    gc.enable()
            self.samples.append(end - start)
            self.spent += end - start
            self._last = end

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.probe()

    def factor(self, since: int = 0) -> float:
        """The scale for times measured alongside the samples from index
        ``since`` on: multiply a measured time by it."""
        return (self.REFERENCE / median(self.samples[since:])) ** self.ELASTICITY


# -- digests -----------------------------------------------------------------

#: DeviceReport fields that the timing models compute (``extra`` is
#: free-form and left out).
REPORT_FIELDS = (
    "seconds",
    "energy_joules",
    "cycles",
    "instructions",
    "issue_slots",
    "mem_transactions",
    "l3_hits",
    "l3_misses",
    "contention_events",
    "contention_cycles",
    "divergence_waste",
    "translations",
)


def reports_signature(reports) -> list:
    """Every simulated number of one cell's ``ExecutionReport`` list, as
    exact ``repr`` strings (floats round-trip bit for bit)."""
    rows = []
    for rep in reports:
        device = rep.report
        rows.append(
            [rep.device, rep.n, repr(rep.jit_seconds)]
            + [repr(getattr(device, name)) for name in REPORT_FIELDS]
        )
    return rows


def digest(entries: dict) -> str:
    """Order-independent digest of ``{cell key: signature}``."""
    blob = json.dumps(sorted(entries.items()), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- output -------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The result line: always the last line of standard output."""
    doc = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def note(message: str) -> None:
    """A human-readable line ahead of the result line."""
    print(message, flush=True)
