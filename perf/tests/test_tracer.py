import threading

import pytest

from perf.tracer import Boundary, SpanCost, Tracer

HERE = __name__


class FakeClock:
    """A clock the test advances by hand (shared by every thread)."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


CLOCK = FakeClock()


class Widget:
    def outer(self, job_id=None):
        CLOCK.now += 10
        self.inner()
        CLOCK.now += 5
        return "done"

    def inner(self):
        CLOCK.now += 7

    def outer_across_threads(self):
        CLOCK.now += 10
        worker = threading.Thread(target=self.inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        CLOCK.now += 5


class Base:
    def run(self):
        CLOCK.now += 3


class Child(Base):
    pass


def helper():
    CLOCK.now += 4


@pytest.fixture
def tracer():
    CLOCK.now = 0
    tracer = Tracer(CLOCK)
    yield tracer
    tracer.restore()


def test_self_time_subtracts_nested_calls(tracer):
    tracer.install([
        Boundary("outer", f"{HERE}:Widget.outer"),
        Boundary("inner", f"{HERE}:Widget.inner", hot=True)])
    assert Widget().outer() == "done"
    layers = tracer.layer_report()
    assert layers["outer"]["self"] == 15
    assert layers["inner"]["self"] == 7
    rows = tracer.boundary_report()
    assert rows[f"{HERE}:Widget.outer"]["incl"] == 22


def test_calls_on_other_threads_are_not_children(tracer):
    tracer.install([
        Boundary("outer", f"{HERE}:Widget.outer_across_threads"),
        Boundary("inner", f"{HERE}:Widget.inner")])
    Widget().outer_across_threads()
    layers = tracer.layer_report()
    # The worker's 7 units elapsed while this thread waited in join():
    # that is the outer call's own time, not a child's.
    assert layers["outer"]["self"] == 22
    assert layers["inner"]["self"] == 7
    spans = {span[2]: span for span in tracer.spans}
    inner = spans[f"{HERE}:Widget.inner"]
    outer = spans[f"{HERE}:Widget.outer_across_threads"]
    assert inner[1] is None              # no parent span on its thread
    assert inner[6] != outer[6]          # recorded thread differs


def test_wrapper_cost_is_subtracted_and_reported(tracer):
    tracer.install([
        Boundary("outer", f"{HERE}:Widget.outer"),
        Boundary("inner", f"{HERE}:Widget.inner", hot=True)])
    Widget().outer()
    cost = SpanCost(hot_inner=1, hot_outer=2, span_inner=3, span_outer=4)
    layers = tracer.layer_report(cost)
    # outer: 15 raw - its own inner part (3) - its hot child's outer part (2)
    assert layers["outer"]["self"] == 10
    assert layers["outer"]["subtracted"] == 5
    assert layers["inner"]["self"] == 6
    assert layers["inner"]["subtracted"] == 1


def test_job_ids_reach_nested_spans(tracer):
    tracer.install([
        Boundary("outer", f"{HERE}:Widget.outer",
                 job=lambda args: args[1] if len(args) > 1 else None),
        Boundary("inner", f"{HERE}:Widget.inner")])
    Widget().outer("job-7")
    events = tracer.chrome_trace()["traceEvents"]
    assert {e["args"].get("job") for e in events} == {"job-7"}
    inner = next(e for e in events if e["name"].endswith("inner"))
    outer = next(e for e in events if e["name"].endswith("outer"))
    assert inner["args"]["parent"] == outer["args"]["span"]
    assert inner["ph"] == "X" and inner["cat"] == "inner"


def test_after_hooks_see_arguments_and_result(tracer):
    seen = []
    tracer.install([Boundary(
        "outer", f"{HERE}:Widget.outer",
        after=lambda t, args, result: seen.append((args[1], result)))])
    Widget().outer("x")
    assert seen == [("x", "done")]


def test_restore_puts_back_every_attribute(tracer):
    import repro.core
    import repro.core.report

    originals = (vars(Widget)["outer"], repro.core.report.render_report,
                 repro.core.render_report, globals()["helper"])
    assert "run" not in vars(Child)
    tracer.install([
        Boundary("w", f"{HERE}:Widget.outer"),
        Boundary("c", f"{HERE}:Child.run"),
        Boundary("r", "repro.core.report:render_report"),
        Boundary("h", f"{HERE}:helper")])
    assert vars(Widget)["outer"] is not originals[0]
    assert "run" in vars(Child)
    # A function imported by name elsewhere is wrapped there too.
    assert repro.core.render_report is repro.core.report.render_report
    assert repro.core.render_report is not originals[1]
    Child().run()
    helper()
    assert tracer.layer_report()["c"]["self"] == 3
    assert tracer.layer_report()["h"]["self"] == 4

    tracer.restore()
    assert vars(Widget)["outer"] is originals[0]
    assert "run" not in vars(Child)
    assert Child.run is Base.run
    assert repro.core.report.render_report is originals[1]
    assert repro.core.render_report is originals[2]
    assert globals()["helper"] is originals[3]


def test_failed_install_restores_what_it_wrapped(tracer):
    original = vars(Widget)["outer"]
    with pytest.raises(AttributeError):
        tracer.install([Boundary("w", f"{HERE}:Widget.outer"),
                        Boundary("x", f"{HERE}:Widget.missing")])
    assert vars(Widget)["outer"] is original


def test_exceptions_pass_through_and_still_count(tracer):
    class Boom(Exception):
        pass

    def explode(self):
        CLOCK.now += 2
        raise Boom()

    Widget.explode = explode
    try:
        tracer.install([Boundary("w", f"{HERE}:Widget.explode")])
        with pytest.raises(Boom):
            Widget().explode()
        assert tracer.layer_report()["w"] == {
            "calls": 1, "self": 2, "subtracted": 0}
    finally:
        tracer.restore()
        del Widget.explode


def test_calibration_measures_a_nonnegative_cost():
    cost = Tracer().calibrate(calls=2000, repeats=2)
    assert cost.hot_inner >= 0 and cost.hot_outer >= 0
    assert cost.span_inner >= 0 and cost.span_outer >= 0
    assert cost.span_inner + cost.span_outer > 0
