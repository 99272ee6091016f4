"""Tests for the JVMTI-style agent surface: events an agent observes
arrive on the machine's bus; methods resolve through ``JvmtiEnv``."""

from repro.heap.layout import Kind
from repro.jvm import (
    JitConfig,
    JProgram,
    Machine,
    MachineConfig,
    MethodBuilder,
)
from repro.jvmti import JvmtiEnv
from repro.obs.collector import Collector

from tests.jvm.helpers import counting_loop


def nested_program():
    p = JProgram()
    inner = MethodBuilder("App", "inner", first_line=30)
    inner.iconst(4).newarray(Kind.INT).store(0)
    inner.load(0).iconst(2).aload().iret()
    p.add_builder(inner)
    outer = MethodBuilder("App", "outer", first_line=20)
    outer.invoke("inner", 0).iret()
    p.add_builder(outer)
    main = MethodBuilder("App", "main", first_line=10)
    main.invoke("outer", 0).pop().ret()
    p.add_builder(main)
    p.add_entry("main")
    return p


class Recorder(Collector):
    """Logs (kind, event) for every thread and GC event it receives."""

    label = "recorder"

    def __init__(self):
        super().__init__()
        self.log = []

    def on_thread_start(self, event):
        self.log.append(("start", event))

    def on_thread_end(self, event):
        self.log.append(("end", event))

    def on_gc_move(self, event):
        self.log.append(("move", event))

    def on_gc_finalize(self, event):
        self.log.append(("finalize", event))

    def on_gc_notification(self, event):
        self.log.append(("note", event))


class TestCallbacks:
    def test_thread_callbacks(self):
        machine = Machine(nested_program())
        recorder = Recorder().attach(machine)
        machine.run()
        assert [(kind, e.tid) for kind, e in recorder.log] == \
            [("start", 0), ("end", 0)]

    def test_gc_callbacks(self):
        p = JProgram()
        b = MethodBuilder("C", "main")
        counting_loop(b, 100, 0,
                      lambda b: b.iconst(128).newarray(Kind.INT).store(1))
        b.ret()
        p.add_builder(b)
        p.add_entry("main")
        machine = Machine(p, MachineConfig(heap_size=32 * 1024))
        recorder = Recorder().attach(machine)
        result = machine.run()
        notes = [e for kind, e in recorder.log if kind == "note"]
        assert [n.gc_id for n in notes] == \
            list(range(1, result.gc_collections + 1))
        assert sum(n.pause_cycles for n in notes) == result.gc_pause_cycles
        # Each collection reports its finalizes, then its moves, then
        # its notification.
        kinds = []
        for kind, event in recorder.log:
            if kind == "note":
                assert kinds == ["finalize"] * event.reclaimed_objects \
                    + ["move"] * event.moved_objects
                kinds = []
            elif kind in ("finalize", "move"):
                kinds.append(kind)


class TestAsyncGetCallTrace:
    def test_unwinds_nested_frames(self):
        # PMU samples on the bus carry the path unwound at overflow
        # time (AsyncGetCallTrace from the overflow handler).
        from repro.pmu.events import ALL_LOADS

        machine = Machine(nested_program())
        env = JvmtiEnv(machine)

        class Capture(Collector):
            label = "capture"

            def __init__(self):
                super().__init__()
                self.paths = []

            def on_sample(self, event):
                self.paths.append(event.path)

        capture = Capture()
        machine.bus.subscribe(capture)
        machine.bus.open_sampler(ALL_LOADS, period=1, owner="capture")
        machine.run()
        # Every sampled path is non-empty and frames resolve to methods.
        assert capture.paths
        for path in capture.paths:
            assert path
            for method_id, _bci in path:
                info = env.get_method_info(method_id)
                assert info.class_name == "App"

    def test_trace_is_root_first(self):
        # Capture a trace while inside `inner` via a native hook.
        # Event paths are the thread's call stack at the event.
        p = nested_program()
        captured = []
        # Rebuild inner to call a capture native.
        inner = MethodBuilder("App", "inner", first_line=30)
        inner.native("capture", 0, False).iconst(1).iret()
        p.methods["inner"] = inner.build()
        machine = Machine(p)
        env = JvmtiEnv(machine)
        machine.register_native(
            "capture",
            lambda call: captured.append(tuple(call.thread.call_stack())))
        machine.run()
        assert captured
        names = [env.get_method_info(method_id).method_name
                 for method_id, _bci in captured[0]]
        assert names == ["main", "outer", "inner"]


class TestMethodResolution:
    def test_line_number_table(self):
        machine = Machine(nested_program())
        env = JvmtiEnv(machine)
        runtime = machine.method_table.runtime("main")
        table = env.get_line_number_table(runtime.method_id)
        assert all(line == 10 for line in table.values())

    def test_method_info_reflects_jit(self):
        p = nested_program()
        machine = Machine(p, MachineConfig(
            jit=JitConfig(compile_threshold=1)))
        env = JvmtiEnv(machine)
        machine.run()
        runtime = machine.method_table.runtime("main")
        info = env.get_method_info(runtime.method_id)
        assert info.compiled
        assert info.version == 1
        assert info.qualified_name == "App.main"

    def test_line_of_frame(self):
        machine = Machine(nested_program())
        env = JvmtiEnv(machine)
        runtime = machine.method_table.runtime("outer")
        frame = env.frame_resolver()((runtime.method_id, 0))
        assert (frame.class_name, frame.method_name, frame.line) == \
            ("App", "outer", 20)
