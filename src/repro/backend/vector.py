"""The vectorized GPU backend: columnar NumPy execution per chunk.

``VectorBackend`` is a drop-in replacement for :class:`GpuBackend` that
executes every lane of a chunk at once through ``repro.exec.vector``
(one ndarray column per virtual register, mask-based divergence) instead
of running one threaded-code closure chain per work-item.  Everything
outside lane execution — JIT cache, timing, spans, reduction scratch,
observer bookkeeping — is inherited unchanged, because the timing models
are a pure function of the traces and the vector machine materializes
traces bit-identical to the scalar engine's.

Per-kernel decision flow (auditable via the ``vector.*`` counters and
the ``vector_classify`` span):

* first launch classifies the kernel (``regular`` / ``maskable`` /
  ``gnarly``); gnarly kernels — irreducible or unsupported constructs,
  un-devirtualized virtual calls, recursion, device-side allocation —
  permanently fall back to the scalar :class:`CompiledEngine` path;
* vectorizable kernels run optimistically; a runtime trap (semantics the
  columnar lowering cannot reproduce for *these* inputs) rolls back every
  store and re-runs the chunk on the scalar path, so results never
  diverge; sticky traps (cross-lane hazards) and launches at a mask
  occupancy too low to pay off route the kernel scalar from then on.

The program owns all of this: columnar code and routing live on the
compiled program (:class:`VectorState`), never in the process, so a
fresh compile starts cold and runtimes running one program concurrently
need no lock beyond the one inside each code cache.
"""

from __future__ import annotations

from .gpu import GpuBackend


class VectorState:
    """What the vector engine learns about one compiled program at run
    time.  The program owns it (``CompiledProgram.vector_state``), the
    way Concord caches JIT results on ``gpu_program_t`` (paper section
    3.4): every runtime that runs the program shares it, it dies with
    the program, and it never enters the program's pickle, id or
    equality.  Routing is purely a heuristic — either path yields
    bit-identical traces."""

    def __init__(self):
        #: svm_const -> VectorCodeCache; compiled steps bake in only the
        #: region's SVM translation constant
        self.code: dict = {}
        #: kernel name -> why it can never vectorize
        self.gnarly: dict = {}
        #: kernel name -> why its launches go straight to the scalar path
        #: (a sticky cross-lane hazard, or a mask occupancy too low for
        #: columnar execution to win)
        self.scalar: dict = {}

    def code_cache(self, svm_const: int):
        cache = self.code.get(svm_const)
        if cache is None:
            from ..exec.vector import VectorCodeCache

            cache = self.code.setdefault(svm_const, VectorCodeCache(svm_const))
        return cache


# Below this active-lane-slot ratio the dense segments are so small that
# per-ufunc overhead beats the scalar engine; measured once on the first
# vector launch of a kernel, then routed scalar for the program.
_MIN_OCCUPANCY = 0.12


class VectorBackend(GpuBackend):
    """GPU backend that executes chunks through the columnar engine."""

    name = "vector"
    capabilities = frozenset({"for", "reduce", "jit"})

    def __init__(self, rt):
        super().__init__(rt)
        # kernel name -> ("gnarly", reason, None) | (kind, "", VectorFunction)
        # for this runtime's layout; also keeps the vector.kernels_*
        # counters at once per kernel per runtime
        self._status: dict = {}

    # -- classification ----------------------------------------------------

    def _classify(self, kernel):
        got = self._status.get(kernel.name)
        if got is not None:
            return got
        state = self.rt.program.vector_state
        reason = state.gnarly.get(kernel.name)
        if reason is not None:
            got = ("gnarly", reason, None)
        else:
            from ..exec.vector import classify_kernel

            cache = state.code_cache(int(self.rt.region.svm_const))
            with self.rt._span(
                "vector_classify", "vector", kernel=kernel.name
            ):
                got = classify_kernel(cache, kernel)
            if got[0] == "gnarly":
                state.gnarly[kernel.name] = got[1]
        self._status[kernel.name] = got
        counters = self._counters()
        if counters is not None:
            if got[0] == "gnarly":
                counters.add("vector.kernels_gnarly")
            else:
                counters.add("vector.kernels_vectorized")
        return got

    # -- lane execution ----------------------------------------------------

    def _gpu_traces(self, kernel, span: range, args_of, budget=None) -> list:
        rt = self.rt
        if len(span) == 0:
            return super()._gpu_traces(kernel, span, args_of, budget)
        counters = self._counters()
        state = rt.program.vector_state
        if kernel.name in state.scalar:
            # A past launch hit a cross-lane hazard or ran at an
            # occupancy where columnar execution loses; skip even the
            # classification compile and go straight to the scalar path.
            if counters is not None:
                counters.add("vector.fallbacks")
            return super()._gpu_traces(kernel, span, args_of, budget)
        kind, _reason, vfn = self._classify(kernel)
        if kind == "gnarly":
            if counters is not None:
                counters.add("vector.fallbacks")
            return super()._gpu_traces(kernel, span, args_of, budget)

        from ..exec.vector import VectorFallback, run_vectorized

        # Mirror the scalar path's lazy device-heap reservation *before*
        # executing, so region layout is identical whichever path runs
        # (the scalar fallback would otherwise reserve it mid-construct).
        if rt.program.config.device_alloc:
            rt.device_heap()
        try:
            with rt._span(
                "vector_launch", "vector", kernel=kernel.name, n=len(span)
            ):
                machine, traces = run_vectorized(
                    rt,
                    vfn,
                    span,
                    args_of,
                    num_cores=rt.system.gpu.num_eus,
                    budget=rt.mem_event_cap if budget is None else budget,
                )
        except VectorFallback as fb:
            if fb.sticky:
                state.scalar[kernel.name] = str(fb)
            if counters is not None:
                counters.add("vector.fallbacks")
            return super()._gpu_traces(kernel, span, args_of, budget)

        n = len(span)
        if (
            machine.occ_slots
            and machine.occ_active / machine.occ_slots < _MIN_OCCUPANCY
        ):
            # This launch already ran (and its results stand), but the
            # mask occupancy says columnar execution loses to the scalar
            # engine here — route future launches of this kernel scalar.
            state.scalar[kernel.name] = "low mask occupancy"
        if counters is not None:
            # The scalar engines bump engine.invocations once per
            # call_function; one vector launch is n of those.
            counters.add("engine.invocations", n)
            counters.add("engine.invocations.gpu", n)
            counters.add("vector.lanes_retired", n)
            # Occupancy ratio = vector.mask_occupancy / vector.mask_slots:
            # active lane-steps over issued lane-slots across all units.
            counters.add("vector.mask_occupancy", int(machine.occ_active))
            counters.add("vector.mask_slots", int(machine.occ_slots))
        if rt.keep_traces:
            rt.trace_log.extend(traces)
        return traces
