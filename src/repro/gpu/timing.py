"""GPU performance and energy model from execution traces.

Work-items execute functionally on the scalar interpreter; this module
turns their per-lane :class:`~repro.exec.ExecTrace` records into cycles and
joules on a :class:`~repro.gpu.device.GpuDevice`:

* **SIMT issue with divergence.**  Lanes are grouped into SIMD16 warps in
  index order (the hardware's dispatch order).  For each basic block, the
  baseline issue estimate is ``max over lanes of (times that lane executed
  the block)`` — lanes that skipped it ride along masked, lanes that looped
  more force re-issues.  On top of that, blocks guarded by a conditional
  branch get the **independent-outcomes correction**: in irregular code the
  branch decides differently in every lane on every iteration, so the warp
  must issue the guarded block whenever *any* lane enters it.  With
  per-lane enter probabilities ``p_l`` (measured from the trace), the
  expected issue count is ``occurrences x (1 - prod(1 - p_l))``, which can
  far exceed the per-lane max — this is exactly the cost of the three-way
  data-dependent branch in a Barnes-Hut traversal, invisible to plain
  block-count models.

* **Coalescing and gather cracking.**  Lane accesses from the same dynamic
  occurrence of one memory instruction (``(instr_uid, seq)``) coalesce: the
  warp issues one transaction per distinct cache line touched.  A scattered
  access (many distinct lines) additionally *cracks* into multiple
  data-port messages that occupy EU issue slots — uniform/adjacent loads
  (Raytracer walking the same scene array) are near free on the issue side,
  while pointer-chasing gathers (BarnesHut, SkipList, BTree) pay per line.
  This is the second, often dominant cost of irregular memory on real
  hardware.

* **Un-banked L3 + contention.**  Each transaction probes the shared L3
  (LRU, set-associative).  Transactions from warps resident on *different
  EUs* that touch the same line at the same dynamic position serialize on
  the line's single port — this is the contention the L3OPT transformation
  removes by staggering per-core access order (paper section 4.2).

* **Latency hiding.**  7 threads per EU overlap memory stalls with other
  warps' compute; the residual exposed latency is ``(1 - latency_hiding)``.

The returned :class:`DeviceReport` carries cycles, seconds, joules and the
breakdown the benchmarks print.

Evaluation is columnar: a launch is priced as NumPy arrays over bounded
batches of whole warps, reading each lane's ``MemEventColumns`` buffer
in place.  The numbers are exactly those of a per-event loop: counts
times integral latencies, float reductions in the loop's sequential
order (``cumsum`` and lane-by-lane products, never pairwise ``np.sum``),
and a sequential LRU fed the transactions in the loop's order
(docs/MODEL.md, "Columnar evaluation and exactness").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..exec.buffers import MemEventColumns
from ..exec.interp import ExecTrace
from ..ir import Function
from ..ir.types import IntType
from ..ir.values import BINARY_OPS
from .cache import CacheModel
from .device import GpuDevice


@dataclass
class DeviceReport:
    device: str
    seconds: float
    energy_joules: float
    cycles: float = 0.0
    instructions: int = 0
    issue_slots: float = 0.0
    mem_transactions: int = 0
    l3_hits: int = 0
    l3_misses: int = 0
    contention_events: int = 0
    contention_cycles: float = 0.0
    divergence_waste: float = 0.0  # issue slots beyond converged minimum
    translations: int = 0
    extra: dict = field(default_factory=dict)

    def __add__(self, other: "DeviceReport") -> "DeviceReport":
        if other == 0:
            return self
        return DeviceReport(
            device=self.device,
            seconds=self.seconds + other.seconds,
            energy_joules=self.energy_joules + other.energy_joules,
            cycles=self.cycles + other.cycles,
            instructions=self.instructions + other.instructions,
            issue_slots=self.issue_slots + other.issue_slots,
            mem_transactions=self.mem_transactions + other.mem_transactions,
            l3_hits=self.l3_hits + other.l3_hits,
            l3_misses=self.l3_misses + other.l3_misses,
            contention_events=self.contention_events + other.contention_events,
            contention_cycles=self.contention_cycles + other.contention_cycles,
            divergence_waste=self.divergence_waste + other.divergence_waste,
            translations=self.translations + other.translations,
            extra={**self.extra, **other.extra},
        )

    __radd__ = __add__


#: Gen7.5 EUs have no native 64-bit integer ALU: a 64-bit add/sub (the
#: SVM pointer-translation arithmetic!) cracks into multiple 32-bit ops.
INT64_OP_SLOTS = 3.0
TRANSLATE_SLOTS = 3.0
DIV_SLOTS = 8.0
#: extra issue slots per additional cache line touched by one scattered
#: SIMD16 access (data-port message cracking)
GATHER_CRACK_SLOTS = 2.0


def _instruction_slots(instr) -> float:
    if instr.op == "call" and instr.callee is not None:
        name = instr.callee.name
        if name.startswith("svm.to_"):
            return TRANSLATE_SLOTS
        if name.startswith("math."):
            return 4.0  # transcendentals run on shared EU units
        return 1.0
    if instr.op in ("sdiv", "udiv", "srem", "urem"):
        return DIV_SLOTS
    if instr.op == "fdiv":
        return 4.0
    if instr.op in ("fadd", "fsub", "fmul"):
        # dual FPUs with MAD co-issue: FP arithmetic is the EU's fast path
        return 0.6
    if instr.op in BINARY_OPS and isinstance(instr.type, IntType) and instr.type.bits == 64:
        return INT64_OP_SLOTS
    if instr.op == "gep" and len(instr.operands) > 1:
        return 2.0  # 64-bit address arithmetic
    return 1.0


def block_sizes(kernel: Function) -> dict[int, float]:
    return {
        b.uid: max(1.0, sum(_instruction_slots(i) for i in b.instructions))
        for b in kernel.blocks
    }


def _guarded_blocks(kernel: Function) -> dict[int, int]:
    """Map block uid -> uid of its unique condbr predecessor (if any).

    Such blocks are control-dependent on a data-dependent branch; the
    independent-outcomes divergence correction applies to them.
    """
    preds: dict[int, list] = {}
    for block in kernel.blocks:
        term = block.terminator
        if term is None:
            continue
        for succ in term.targets:
            preds.setdefault(succ.uid, []).append((block, term))
    guarded: dict[int, int] = {}
    for block in kernel.blocks:
        entry = preds.get(block.uid, [])
        if len(entry) == 1 and entry[0][1].op == "condbr":
            guarded[block.uid] = entry[0][0].uid
    return guarded


#: Bounds on one batch of warps evaluated together: its lanes (the
#: divergence count matrix is lanes x distinct blocks) and its memory
#: events.  A batch always holds at least one warp.
BATCH_LANES = 2048
BATCH_EVENTS = 16384


def _warp_batches(lane_events: np.ndarray, w: int):
    """``(first_warp, stop_warp)`` ranges of consecutive warps within the
    batch bounds, given each lane's memory-event count."""
    warp_events = np.add.reduceat(lane_events, np.arange(0, len(lane_events), w))
    start = events = 0
    for warp, count in enumerate(warp_events.tolist()):
        full = (warp - start) * w >= BATCH_LANES or events + count > BATCH_EVENTS
        if warp > start and full:
            yield start, warp
            start, events = warp, 0
        events += count
    if len(warp_events):
        yield start, len(warp_events)


def _pack(columns) -> np.ndarray:
    """One int64 key per row that orders the rows lexicographically by
    their (non-negative integer) columns, so equal keys mean equal rows.
    Columns are offset to start at zero and mixed in by multiplication;
    where the product would overflow, the running key (and if need be the
    column) is replaced by its dense rank first."""
    key = None
    for column in columns:
        column = column.astype(np.int64)
        if len(column):
            column -= column.min()
        width = int(column.max(initial=0)) + 1
        if key is None:
            key = column
            continue
        if (int(key.max(initial=0)) + 1) * width >= 1 << 63:
            key = np.unique(key, return_inverse=True)[1].astype(np.int64)
            if (int(key.max(initial=0)) + 1) * width >= 1 << 63:
                column = np.unique(column, return_inverse=True)[1].astype(np.int64)
                width = int(column.max(initial=0)) + 1
        key = key * width + column
    return key


def _event_rows(lane):
    """One lane's memory events as the columnar buffer's interleaved
    ``(instr_uid, seq, address, size, is_store)`` rows; a list of
    ``MemEvent`` objects (the reference interpreter's traces) is
    converted."""
    events = lane.mem_events
    if isinstance(events, MemEventColumns):
        return events.data
    columns = MemEventColumns()
    for event in events:
        columns.append(event)
    return columns.data


def _issue(lanes: list, w: int, sizes: dict, guarded: dict):
    """Per-warp issue slots and converged issue slots of a batch of whole
    warps, from a ``(warps, w, blocks)`` matrix of per-lane block counts.

    Every float reduction runs in the order of the original per-warp
    loop: ``miss_all`` multiplies lane by lane, and the per-block terms
    add up in sorted block-uid order (``cumsum`` accumulates sequentially;
    blocks a warp never ran add an exact ``0.0``)."""
    n = len(lanes)
    warps = (n + w - 1) // w
    block_counts = [lane.block_counts for lane in lanes]
    per_lane = list(map(len, block_counts))
    total = sum(per_lane)
    if not total:
        return np.zeros(warps), np.zeros(warps)
    uids = np.fromiter(chain.from_iterable(block_counts), np.int64, total)
    counts = np.fromiter(
        chain.from_iterable(c.values() for c in block_counts), np.int64, total
    )
    blocks, column = np.unique(uids, return_inverse=True)
    matrix = np.zeros((warps * w, len(blocks)), dtype=np.int64)
    matrix[np.repeat(np.arange(n), per_lane), column] = counts
    matrix = matrix.reshape(warps, w, len(blocks))
    warp_lanes = np.full(warps, w)
    warp_lanes[-1] = n - (warps - 1) * w
    block_list = blocks.tolist()
    size = np.array([sizes.get(uid, 1) for uid in block_list], dtype=np.float64)
    block_max = matrix.max(axis=1)
    converged = np.cumsum(matrix.sum(axis=1) / warp_lanes[:, None] * size, axis=1)

    # Independent-outcomes correction for blocks guarded by a condbr
    # whose block some lane of the batch ran.
    position = {uid: index for index, uid in enumerate(block_list)}
    pairs = [
        (index, position[guarded[uid]])
        for index, uid in enumerate(block_list)
        if guarded.get(uid) in position
    ]
    estimate = block_max.astype(np.float64)
    if pairs:
        child_cols, parent_cols = (list(c) for c in zip(*pairs))
        child = matrix[:, :, child_cols]
        parent = matrix[:, :, parent_cols]
        entered = parent > 0
        p_enter = np.minimum(
            1.0, np.divide(child, parent, out=np.zeros(child.shape), where=entered)
        )
        factor = np.where(entered, 1.0 - p_enter, 1.0)
        miss_all = factor[:, 0, :].copy()
        for lane in range(1, w):
            miss_all *= factor[:, lane, :]
        parent_occ = block_max[:, parent_cols]
        corrected = np.maximum(estimate[:, child_cols], parent_occ * (1.0 - miss_all))
        apply = (parent_occ > 0) & (warp_lanes[:, None] > 1)
        estimate[:, child_cols] = np.where(apply, corrected, estimate[:, child_cols])
    issue = np.cumsum(estimate * size, axis=1)
    return issue[:, -1], converged[:, -1]


def _transactions(buffers: list, w: int, line_bytes: int):
    """Coalesce a batch of whole warps' memory events (one
    :func:`_event_rows` buffer per lane).

    Returns ``(lines, tx_warp, occ_warp, uid, seq)``: one row per
    transaction -- a distinct ``(warp, instr_uid, seq, line)`` -- in the
    order the L3 sees them (warp by warp, occurrences by first
    appearance, lines by first appearance within the occurrence), and
    the warp of each distinct ``(warp, instr_uid, seq)`` occurrence.
    ``None`` when the batch recorded no events."""
    lengths = [len(rows) // MemEventColumns.STRIDE for rows in buffers]
    rows = np.frombuffer(b"".join(buffers), dtype=np.uint64)
    if not len(rows):
        return None
    rows = rows.reshape(-1, MemEventColumns.STRIDE)
    uid, seq = rows[:, 0], rows[:, 1]
    # Signed floor division matches Python's for every address below 2**63.
    address = rows[:, 2].astype(np.int64)
    first = address // line_bytes
    address += rows[:, 3].astype(np.int64) - 1
    line_count = np.maximum(0, address // line_bytes - first + 1)
    del address
    event_warp = np.repeat(np.arange(len(buffers)) // w, lengths)
    occ_key = _pack([event_warp, uid, seq])
    if (line_count == 1).all():
        entry_event, entry_occ, line, placeholder = None, occ_key, first, None
    else:
        # Accesses that straddle lines expand to one entry per line.  A
        # zero-byte access touches no line but keeps a placeholder entry,
        # so its occurrence still counts and is ordered by its first event.
        entries = np.maximum(line_count, 1)
        entry_event = np.repeat(np.arange(len(first)), entries)
        starts = np.cumsum(entries) - entries
        line = first[entry_event] + (np.arange(len(entry_event)) - starts[entry_event])
        entry_occ = occ_key[entry_event]
        placeholder = (line_count == 0)[entry_event]
    del first, line_count

    # _pack is lexicographic, so sorting by (occurrence, line) groups the
    # transactions and keeps each occurrence's transactions together; the
    # least entry index in a group is its first appearance.
    keys = [entry_occ, line] if placeholder is None else [entry_occ, line, placeholder]
    tx_key = _pack(keys)
    perm = np.argsort(tx_key)
    tx_first = np.minimum.reduceat(perm, _group_starts(tx_key[perm]))
    occ_start = _group_starts(entry_occ[tx_first])
    occ_first = np.minimum.reduceat(tx_first, occ_start)
    occ_sizes = np.diff(occ_start, append=len(tx_first))
    occ_of_tx = np.repeat(np.arange(len(occ_start)), occ_sizes)
    tx_first = tx_first[np.argsort(occ_first[occ_of_tx] * len(perm) + tx_first)]
    if placeholder is not None:
        tx_first = tx_first[~placeholder[tx_first]]
        tx_event, occ_event = entry_event[tx_first], entry_event[occ_first]
    else:
        tx_event, occ_event = tx_first, occ_first
    tx_warp, occ_warp = event_warp[tx_event], event_warp[occ_event]
    return line[tx_first], tx_warp, occ_warp, uid[tx_event], seq[tx_event]


def _group_starts(ordered: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values in ``ordered`` begins."""
    return np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))


def _contention(uid, seq, line, eu, ports: int) -> int:
    """Extra serialized accesses: for each ``(instr_uid, seq, line)``, the
    number of distinct EUs touching it beyond the line's ports."""
    touch = _pack([uid, seq, line])
    pair = _pack([touch, eu])
    perm = np.argsort(pair)
    # one entry per distinct (touch, EU), in touch order
    distinct = touch[perm[_group_starts(pair[perm])]]
    eus = np.diff(_group_starts(distinct), append=len(distinct))
    return int(np.maximum(eus - ports, 0).sum())


def time_gpu_kernel(
    device: GpuDevice,
    kernel: Function,
    traces: list[ExecTrace],
    l3: CacheModel | None = None,
    counters=None,
) -> DeviceReport:
    sizes = block_sizes(kernel)
    guarded = _guarded_blocks(kernel)
    l3 = l3 or CacheModel(device.l3_size_bytes, device.l3_line_bytes, device.l3_assoc)
    w = device.simd_width
    line_bytes = device.l3_line_bytes
    num_warps = (len(traces) + w - 1) // w

    total_instructions = sum(lane.instructions for lane in traces)
    total_translations = sum(lane.translations for lane in traces)
    rows = [_event_rows(lane) for lane in traces]
    lane_events = np.fromiter(map(len, rows), np.int64, len(rows))
    lane_events //= MemEventColumns.STRIDE
    warp_issue = np.zeros(num_warps)
    warp_converged = np.zeros(num_warps)
    warp_tx = np.zeros(num_warps, dtype=np.int64)
    warp_occ = np.zeros(num_warps, dtype=np.int64)
    mem_transactions = 0
    l3_hits = 0
    touches = []
    for start, stop in _warp_batches(lane_events, w):
        lanes = traces[start * w : stop * w]
        warp_issue[start:stop], warp_converged[start:stop] = _issue(
            lanes, w, sizes, guarded
        )
        batch = _transactions(rows[start * w : stop * w], w, line_bytes)
        if batch is None:
            continue
        lines, tx_warp, occ_warp, uid, seq = batch
        mem_transactions += len(lines)
        l3_hits += l3.access_many(lines.tolist())
        warps = stop - start
        warp_tx[start:stop] += np.bincount(tx_warp, minlength=warps)
        warp_occ[start:stop] += np.bincount(occ_warp, minlength=warps)
        touches.append((uid, seq, lines, (tx_warp + start) % device.num_eus))
    l3_misses = mem_transactions - l3_hits

    # total_issue adds each warp's issue slots, then its crack slots, in
    # warp order; cumsum keeps that sequential order exactly.
    crack_slots = GATHER_CRACK_SLOTS * np.maximum(0, warp_tx - warp_occ)
    interleaved = np.empty(2 * num_warps)
    interleaved[0::2] = warp_issue
    interleaved[1::2] = crack_slots
    total_issue = float(np.cumsum(interleaved)[-1]) if num_warps else 0.0
    converged_issue = float(np.cumsum(warp_converged)[-1]) if num_warps else 0.0

    # The latencies and the contention penalty are whole cycles, so count
    # x constant equals the per-transaction float sum exactly.
    mem_latency_cycles = (
        l3_hits * device.l3_hit_cycles + l3_misses * device.dram_latency_cycles
    )
    dram_bytes = l3_misses * line_bytes
    contention_events = 0
    if touches:
        uid, seq, lines, eus = (np.concatenate(column) for column in zip(*touches))
        contention_events = _contention(uid, seq, lines, eus, device.l3_line_ports)
    contention_cycles = contention_events * device.contention_penalty_cycles

    # -- fold into wall-clock cycles
    #
    # Three throughput limits, the slowest wins (standard analytic GPU
    # model):
    #  * compute: each EU issues one SIMD16 instruction per
    #    ``issue_cycles_per_slot`` cycles;
    #  * memory latency: each hardware thread sustains roughly one
    #    outstanding dependent-load chain, so aggregate latency is divided
    #    by EUs x threads — pointer chasing cannot hide more than that
    #    (this is what makes irregular traversals slow on the GPU);
    #  * DRAM bandwidth for the miss traffic.
    # Un-banked-L3 contention serializes on top.
    eus = device.num_eus
    compute_cycles = total_issue * device.issue_cycles_per_slot / eus
    concurrency = min(
        eus * device.threads_per_eu * device.memory_parallelism,
        device.fabric_outstanding_misses
        if l3_misses > l3_hits
        else eus * device.threads_per_eu * device.memory_parallelism,
    )
    latency_cycles = mem_latency_cycles / concurrency
    bandwidth_cycles = dram_bytes / device.dram_bandwidth_bytes_per_cycle
    wall_cycles = (
        max(compute_cycles, latency_cycles, bandwidth_cycles)
        + contention_cycles / eus
    )
    seconds = wall_cycles / device.frequency_hz

    dynamic_energy = (
        total_issue * device.energy_per_issue_slot
        + (l3_hits + l3_misses) * device.energy_per_l3_access
        + l3_misses * device.energy_per_dram_access
    )
    # TDP throttling: if sustained-clock execution would exceed the package
    # power budget, the clock drops and execution stretches until
    # dynamic_power + idle fits inside the budget.
    budget = device.power_budget_watts
    if budget and seconds > 0.0:
        headroom = max(1e-3, budget - device.idle_power_watts)
        min_seconds = dynamic_energy / headroom
        if min_seconds > seconds:
            wall_cycles *= min_seconds / seconds
            seconds = min_seconds
    energy = dynamic_energy + device.idle_power_watts * seconds

    if counters is not None:
        # repro.obs.CounterRegistry; publish the model's event totals so
        # profiles carry the cache/coalescing/contention breakdown.
        counters.add("gpu.l3.hits", l3_hits)
        counters.add("gpu.l3.misses", l3_misses)
        counters.add("gpu.mem_transactions", mem_transactions)
        counters.add("gpu.contention_events", contention_events)
        counters.add("gpu.issue_slots", total_issue)
        counters.add("gpu.translations", total_translations)

    return DeviceReport(
        device=device.name,
        seconds=seconds,
        energy_joules=energy,
        cycles=wall_cycles,
        instructions=total_instructions,
        issue_slots=total_issue,
        mem_transactions=mem_transactions,
        l3_hits=l3_hits,
        l3_misses=l3_misses,
        contention_events=contention_events,
        contention_cycles=contention_cycles,
        divergence_waste=max(0.0, total_issue - converged_issue),
        translations=total_translations,
    )
