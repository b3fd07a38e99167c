"""The ``service-mix`` workload: the compile daemon under a closed loop.

The benchmark starts ``python -m repro serve`` (traced: ``daemon_boot.py``)
on an empty artifact store, then two client threads, each holding one
keep-alive connection, send the next request as soon as the previous
reply arrives.  One seeded stream feeds both clients, in blocks of ten
requests shuffled by the seed, each block holding exactly

* one ``cold`` compile of a program never sent before (drawn from a
  seed-shuffled pool of ``repro.service.loadgen.generate_sources``);
* eight ``warm`` compiles of programs drawn uniformly from those
  already sent, a set that outgrows the daemon's in-memory program LRU,
  so warm requests split between memory hits and store reads;
* one ``run`` of a small registered workload, taking the three in turn.

Fixed blocks rather than independent draws keep the mix, and with it
the daemon's work and memory, the same from seed to seed.

Set-up sends ``PREFILL`` cold compiles first, so the warm set outgrows
the daemon's 64-program memory LRU early in the measured stream.

Checks on every reply: each compile's ``program_id`` equals the content
key the client computes itself, and its stage pattern is all-miss for a
cold compile and all-hit for a warm one; each run's simulated seconds
and energy equal a reference run in the benchmark's own process.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from statistics import fmean

from common import ROOT, SetupError, child_env, digest, median, percentile, proc_rss_mb

#: One block of the request stream.
BLOCK_MIX = ("cold",) + ("warm",) * 8 + ("run",)
#: Registered workloads for ``run`` requests, and their scale.
RUN_WORKLOADS = ("BFS", "SSSP", "BTree")
RUN_SCALE = 0.1
CLIENTS = 2
#: Programs in the seed-shuffled source pool (a run uses a few hundred).
POOL = 4096
#: Cold compiles sent during set-up: three quarters of the daemon's
#: 64-program memory LRU.  At ~3 new programs a second the warm set
#: passes the LRU size about five seconds into the stream and keeps
#: growing, so warm requests move from memory hits to store reads.
#: Set-up runs three times per run (see ``setup_s``), which caps the
#: prefill the benchmark's time budget allows.
PREFILL = 48
#: Completed requests that make one "pass" of ``pass_s``.
PASS_REQUESTS = 100

HERE = os.path.dirname(os.path.abspath(__file__))


class Reference:
    """In-process expectations: program keys and run results."""

    def __init__(self, seed: int):
        import warnings

        from repro.passes import OptConfig
        from repro.runtime import ConcordRuntime, compile_source
        from repro.runtime.compiler import frontend_key, pipeline_key, program_key
        from repro.runtime.system import ultrabook
        from repro.service.loadgen import generate_sources
        from repro.workloads import all_workloads

        self._config = OptConfig.gpu_all()
        self._keys = (frontend_key, pipeline_key, program_key)
        self.sources = generate_sources(POOL)
        random.Random(seed).shuffle(self.sources)
        self.runs = {}
        registry = all_workloads()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name in RUN_WORKLOADS:
                cls = registry[name]
                program = compile_source(cls.source, self._config, module_name=cls.name)
                rt = ConcordRuntime(program, ultrabook(), region_size=cls.region_size)
                instance = cls()
                state = instance.build(rt, RUN_SCALE)
                reports = instance.run(rt, state)
                instance.validate(rt, state)
                self.runs[name] = (
                    sum(r.seconds for r in reports),
                    sum(r.energy_joules for r in reports),
                )

    def program_id(self, source: str) -> str:
        frontend_key, pipeline_key, program_key = self._keys
        return program_key(pipeline_key(frontend_key(source, "concord"), self._config))

    def digest(self) -> str:
        return digest({name: [repr(s), repr(e)] for name, (s, e) in self.runs.items()})


class Stream:
    """The seeded request stream, shared by the client threads."""

    def __init__(self, seed: int, reference: Reference):
        self.rng = random.Random(seed ^ 0x5EED)
        self.reference = reference
        self.sent: list = []  # pool indices introduced so far
        self.compiled: dict = {}  # pool index -> Event set once its cold compile replied
        self.lock = threading.Lock()
        self._block: list = []  # what is left of the current block, reversed
        self._runs = itertools.cycle(self.rng.sample(RUN_WORKLOADS, len(RUN_WORKLOADS)))

    def cold(self, limit: int):
        """A program never sent before, or ``None`` once ``limit``
        programs have been sent."""
        with self.lock:
            return self._introduce() if len(self.sent) < limit else None

    def next(self):
        with self.lock:
            if not self._block:
                self._block = self.rng.sample(BLOCK_MIX, len(BLOCK_MIX))
            kind = self._block.pop()
            if kind == "cold" or not self.sent:
                return self._introduce()
            if kind == "warm":
                return "warm", self.rng.choice(self.sent)
            return "run", next(self._runs)

    def _introduce(self):
        index = len(self.sent)
        if index >= len(self.reference.sources):
            raise SetupError("source pool exhausted")
        self.sent.append(index)
        self.compiled[index] = threading.Event()
        return "cold", index


class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            raise

    def close(self):
        self.conn.close()


class Daemon:
    """The daemon subprocess: spawn, wait for health, stats, stop."""

    def __init__(self, store: str, log_dir: str, spans=None):
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "daemon_boot.py"), "--spans", spans, "serve"]
        cmd += ["--store", store, "--port", "0"]
        self.out_path = os.path.join(log_dir, "daemon.out")
        env = child_env()
        env["PYTHONUNBUFFERED"] = "1"  # the port line must reach the file at once
        with open(self.out_path, "w") as out, open(os.path.join(log_dir, "daemon.err"), "w") as err:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            self.port = self._wait_port()
            self._wait_health()
        except BaseException:
            self.kill()
            raise

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.out_path) as handle:
                match = re.search(r"listening on http://[^:]+:(\d+)", handle.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise SetupError(f"daemon exited with {self.proc.returncode} before listening")
            time.sleep(0.01)
        raise SetupError("daemon did not start listening")

    def _wait_health(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            conn = Connection(self.port)
            try:
                status, doc = conn.request("GET", "/v1/health")
                if status == 200 and doc.get("ok"):
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise SetupError("daemon never became healthy")

    def stats(self) -> dict:
        conn = Connection(self.port)
        try:
            return conn.request("GET", "/v1/stats")[1]
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return proc_rss_mb(self.proc.pid, "VmHWM")

    def stop(self) -> None:
        conn = Connection(self.port)
        try:
            conn.request("POST", "/v1/shutdown", {})
        except (OSError, http.client.HTTPException, ValueError):
            pass
        finally:
            conn.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        if self.proc.returncode != 0:
            raise SetupError(f"daemon exited with {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class RssSampler(threading.Thread):
    """Samples a process's resident set every ``interval`` seconds.

    The daemon's resident set is a sawtooth: it climbs in ~16 MiB steps
    as dead runtimes (and their regions) wait in the oldest garbage
    collector generation, and drops when a full collection frees them,
    a few times in a run.  Its high-water mark, or a high percentile of
    the samples, lands on one of a few levels depending on where a run
    meets that cycle (quartile spread 0.09-0.19 over ten seeds); the
    mean over the whole measured stream averages the steps."""

    def __init__(self, pid: int, interval: float = 0.1):
        super().__init__(name="rss-sampler", daemon=True)
        self.pid = pid
        self.interval = interval
        self.samples: list = []
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self.interval):
            try:
                self.samples.append(proc_rss_mb(self.pid))
            except (OSError, SetupError):
                return

    def stop(self) -> float:
        """Stop sampling; the mean resident set in MiB."""
        self._done.set()
        self.join()
        return fmean(self.samples)


def _closed_loop(daemon: Daemon, stream: Stream, take) -> dict:
    """Both clients, closed loop: each sends ``take()``'s request, waits
    for the reply, checks it and asks again, until ``take()`` returns
    ``None``."""
    reference = stream.reference
    samples: list = []  # (kind, ms, ok, completed_at)
    failures: list = []
    lock = threading.Lock()
    start = time.perf_counter()

    def client() -> None:
        conn = Connection(daemon.port)
        try:
            while (request := take()) is not None:
                kind, item = request
                if kind == "warm":
                    # Its cold compile may still be in flight on the other
                    # client; a timeout shows up as a failed stage check.
                    stream.compiled[item].wait(timeout=120)
                if kind == "run":
                    path, payload = "/v1/run", {"workload": item, "scale": RUN_SCALE}
                else:
                    path, payload = "/v1/compile", {"source": reference.sources[item]}
                t0 = time.perf_counter()
                problem = None
                try:
                    status, reply = conn.request("POST", path, payload)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    status, reply, problem = 0, {}, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                if problem is None:
                    problem = check_reply(reference, kind, item, status, reply)
                if kind == "cold":
                    stream.compiled[item].set()
                with lock:
                    samples.append((kind, (t1 - t0) * 1e3, problem is None, t1))
                    if problem is not None:
                        failures.append(f"{kind} {item}: {problem}")
        finally:
            conn.close()

    threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"samples": samples, "failures": failures, "start": start}


def prefill(daemon: Daemon, stream: Stream, count: int = PREFILL) -> dict:
    """Set-up: ``count`` cold compiles through both clients, the warm
    set the measured stream starts from."""
    return _closed_loop(daemon, stream, lambda: stream.cold(count))


def drive(daemon: Daemon, stream: Stream, seconds: float) -> dict:
    """The measured stream until ``seconds`` have passed; every request
    begun before the deadline completes."""
    deadline = time.perf_counter() + seconds
    return _closed_loop(daemon, stream, lambda: stream.next() if time.perf_counter() < deadline else None)


def check_reply(reference: Reference, kind: str, item, status: int, reply: dict):
    """``None`` when the reply is right, else what is wrong with it."""
    if status != 200 or not reply.get("ok"):
        return f"status {status}: {reply.get('error', '')}"
    if kind == "run":
        want = reference.runs[item]
        if (reply.get("seconds"), reply.get("energy_joules")) != want:
            return f"simulated {reply.get('seconds')!r}/{reply.get('energy_joules')!r} != {want!r}"
        return None
    want_id = reference.program_id(reference.sources[item])
    if reply.get("program_id") != want_id:
        return f"program_id {reply.get('program_id')} != {want_id}"
    outcome = "miss" if kind == "cold" else "hit"
    if set((reply.get("stages") or {}).values()) != {outcome}:
        return f"{kind} compile answered stages {reply.get('stages')}"
    return None


def end_to_end(result: dict, wall: float) -> dict:
    samples = result["samples"]
    ok = [s for s in samples if s[2]]
    done_at = sorted(s[3] for s in ok)
    step = PASS_REQUESTS
    passes = [done_at[i + step] - done_at[i] for i in range(0, len(done_at) - step, step)]
    return {
        "pass_s": median(passes) if passes else wall,
        "req_per_s": len(ok) / wall,
        "p50_ms": percentile([s[1] for s in ok], 50),
        "p90_ms": percentile([s[1] for s in ok], 90),
        "p99_ms": percentile([s[1] for s in ok], 99),
        "cold_p50_ms": percentile([s[1] for s in ok if s[0] == "cold"], 50),
        "run_p50_ms": percentile([s[1] for s in ok if s[0] == "run"], 50),
    }
