"""Tests for the ConcordRuntime host API: object construction, views,
host calls, JIT caching, accounting."""

import gc
import warnings
import weakref

import pytest

from repro.ir.types import F32, I32, I64, ptr
from repro.runtime import ConcordRuntime, OptConfig, compile_source, desktop, ultrabook
from repro.svm import MemoryFault
from repro.workloads import all_workloads

SOURCE = """
class Point {
public:
  float x; float y;
  Point(float px, float py) : x(px), y(py) {}
  float norm2() { return x * x + y * y; }
};

class Counter {
public:
  int value;
  int bump(int by) { value += by; return value; }
};

class ScaleBody {
public:
  Point* points;
  float factor;
  void operator()(int i) {
    points[i].x *= factor;
    points[i].y *= factor;
  }
};
"""


@pytest.fixture()
def rt():
    return ConcordRuntime(compile_source(SOURCE, OptConfig.gpu_all()), ultrabook())


class TestObjectConstruction:
    def test_constructor_arguments(self, rt):
        p = rt.new("Point", 3.0, 4.0)
        assert p.x == 3.0 and p.y == 4.0

    def test_wrong_arity_raises(self, rt):
        with pytest.raises(TypeError):
            rt.new("Counter", 1, 2, 3)

    def test_unknown_class_raises(self, rt):
        with pytest.raises(KeyError):
            rt.new("Nothing")

    def test_zero_init_without_ctor(self, rt):
        c = rt.new("Counter")
        assert c.value == 0

    def test_new_array_of_class_and_scalar(self, rt):
        points = rt.new_array("Point", 4)
        assert len(points) == 4
        floats = rt.new_array(F32, 8)
        floats[5] = 2.5
        assert floats[5] == 2.5

    def test_free_releases_memory(self, rt):
        before = rt.allocator.live_bytes
        arr = rt.new_array(I64, 100)
        assert rt.allocator.live_bytes > before
        rt.free(arr)
        assert rt.allocator.live_bytes == before


class TestHostCalls:
    def test_method_via_call_host(self, rt):
        p = rt.new("Point", 3.0, 4.0)
        fn_name = next(
            n for n in rt.program.module.functions if n.startswith("Point.norm2")
        )
        assert rt.call_host(fn_name, p) == pytest.approx(25.0)

    def test_mutating_method(self, rt):
        c = rt.new("Counter")
        fn_name = next(
            n for n in rt.program.module.functions if n.startswith("Counter.bump")
        )
        assert rt.call_host(fn_name, c, 5) == 5
        assert rt.call_host(fn_name, c, 2) == 7
        assert c.value == 7


class TestExecutionAccounting:
    def _setup(self, rt, n=8):
        points = rt.new_array("Point", n)
        for i in range(n):
            points[i].x = float(i)
            points[i].y = 1.0
        body = rt.new("ScaleBody")
        body.points = points
        body.factor = 2.0
        return body, points

    def test_jit_charged_once(self, rt):
        body, _ = self._setup(rt)
        first = rt.parallel_for_hetero(8, body)
        second = rt.parallel_for_hetero(8, body)
        assert first.jit_seconds > 0
        assert second.jit_seconds == 0.0

    def test_totals_accumulate(self, rt):
        body, _ = self._setup(rt)
        rt.parallel_for_hetero(8, body)
        rt.parallel_for_hetero(8, body, on_cpu=True)
        assert rt.total_gpu_report.seconds > 0
        assert rt.total_cpu_report.seconds > 0

    def test_results_correct_after_both_devices(self, rt):
        body, points = self._setup(rt)
        rt.parallel_for_hetero(8, body)          # x *= 2
        rt.parallel_for_hetero(8, body, on_cpu=True)  # x *= 2 again
        assert [points[i].x for i in range(8)] == [float(i) * 4 for i in range(8)]

    def test_desktop_system_differs(self):
        prog = compile_source(SOURCE, OptConfig.gpu_all())
        times = {}
        for system in (ultrabook(), desktop()):
            rt = ConcordRuntime(prog, system)
            body, _ = self._setup(rt)
            report = rt.parallel_for_hetero(8, body, on_cpu=True)
            times[system.name] = report.seconds
        # the desktop CPU is strictly faster on the same work
        assert times["Desktop"] < times["Ultrabook"]

    def test_non_body_class_rejected(self, rt):
        c = rt.new("Counter")
        with pytest.raises(KeyError):
            rt.parallel_for_hetero(4, c)

    def test_raw_address_body_rejected(self, rt):
        with pytest.raises(TypeError):
            rt.parallel_for_hetero(4, 0x1234)


class TestViewsThroughRuntime:
    def test_view_wraps_existing_address(self, rt):
        p = rt.new("Point", 1.0, 2.0)
        again = rt.view("Point", p.addr)
        assert again.x == 1.0
        again.y = 9.0
        assert p.y == 9.0

    def test_view_field_address(self, rt):
        p = rt.new("Point", 0.0, 0.0)
        assert p.field_address("y") == p.addr + 4

    def test_out_of_region_read_faults(self, rt):
        with pytest.raises(MemoryFault):
            rt.region.read_int(0x10, 4, signed=True)


class TestRuntimeLifetime:
    """The runtime owns its backends, scheduler and task graph, which
    refer back to it weakly, so a dropped runtime is freed by reference
    counting; dropping it also reclaims the region its compiled code
    pins, without waiting for a full collection."""

    @pytest.mark.parametrize(
        "kwargs", [{}, {"engine": "vector"}, {"policy": "hybrid"}, {"graph": True}]
    )
    def test_dropped_runtime_is_freed_without_a_collection(self, kwargs):
        workload = all_workloads()["BarnesHut"]
        gc.disable()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                runtime = workload.make_runtime(
                    OptConfig.gpu_all(), ultrabook(), **kwargs
                )
                state = workload().build(runtime, 0.05)
                workload().run(runtime, state)
                if kwargs.get("graph"):
                    runtime.wait()
            alive = weakref.ref(runtime)
            region = weakref.ref(runtime.region)
            del runtime, state
            assert alive() is None
            # its compiled code's cycles are collected on the way out
            assert region() is None
        finally:
            gc.enable()
