"""Span API tests: nesting, re-entrancy, hub events, timer charging."""

import pytest

from repro.obs.metrics import reset_registry
from repro.obs.spans import (
    current_hub,
    current_span,
    span,
    span_timings,
    use_hub,
)
from repro.runtime.telemetry import EventKind, InMemorySink, TelemetryHub


@pytest.fixture(autouse=True)
def fresh_timers():
    reset_registry()
    yield
    reset_registry()


def calls(name):
    return span_timings()[name]["calls"]


def hub_with_sink(**kwargs):
    sink = InMemorySink()
    return TelemetryHub(sink, **kwargs), sink


class TestTimerCharging:
    def test_outermost_span_charges_timers_once(self):
        with span("alpha"):
            pass
        assert calls("alpha") == 1

    def test_reentrant_same_name_charges_only_outermost(self):
        """The old ``phase()`` double-counted this exact shape."""
        with span("alpha"):
            with span("alpha"):
                with span("alpha"):
                    pass
        assert calls("alpha") == 1

    def test_distinct_names_both_charge(self):
        with span("alpha"):
            with span("beta"):
                pass
        assert calls("alpha") == 1
        assert calls("beta") == 1

    def test_timer_false_charges_nothing(self):
        with span("alpha", timer=False):
            pass
        assert "alpha" not in span_timings()

    def test_outermost_also_charges_span_metrics(self):
        from repro.obs.metrics import get_registry

        with span("alpha"):
            with span("alpha"):
                pass
        counter = get_registry().get("orion_spans_total")
        assert counter.value(name="alpha") == 1


class TestHubEvents:
    def test_no_hub_means_no_events_but_still_times(self):
        assert current_hub() is None
        with span("alpha"):
            pass
        assert calls("alpha") == 1

    def test_emits_paired_start_end_with_labels(self):
        hub, sink = hub_with_sink()
        with use_hub(hub):
            with span("allocate", session="s", kernel="k"):
                pass
        start, end = sink.events
        assert start.kind is EventKind.SPAN_START
        assert end.kind is EventKind.SPAN_END
        assert start.session == end.session == "s"
        assert start.data["name"] == end.data["name"] == "allocate"
        assert start.data["kernel"] == end.data["kernel"] == "k"
        assert start.data["span"] == end.data["span"] == 1
        assert end.data["status"] == "ok"

    def test_nested_spans_link_parents(self):
        hub, sink = hub_with_sink()
        with use_hub(hub):
            with span("outer", session="s"):
                with span("inner", session="s"):
                    pass
        starts = sink.of(EventKind.SPAN_START)
        outer, inner = starts
        assert outer.data["parent"] is None
        assert inner.data["parent"] == outer.data["span"]

    def test_span_ids_are_scoped_per_session(self):
        hub, sink = hub_with_sink()
        with use_hub(hub):
            with span("work", session="a"):
                pass
            with span("work", session="b"):
                pass
        starts = sink.of(EventKind.SPAN_START)
        # Each session numbers its spans independently from 1.
        assert [e.data["span"] for e in starts] == [1, 1]

    def test_parent_links_do_not_cross_sessions(self):
        hub, sink = hub_with_sink()
        with use_hub(hub):
            with span("outer", session="a"):
                with span("inner", session="b"):
                    pass
        inner = sink.of(EventKind.SPAN_START)[1]
        assert inner.data["parent"] is None

    def test_error_status_propagates_and_reraises(self):
        hub, sink = hub_with_sink()
        with pytest.raises(RuntimeError):
            with use_hub(hub):
                with span("explode"):
                    raise RuntimeError("boom")
        (end,) = sink.of(EventKind.SPAN_END)
        assert end.data["status"] == "error"
        assert current_span() is None  # stack unwound

    def test_wall_duration_rides_the_separate_field(self):
        hub, sink = hub_with_sink()
        with use_hub(hub):
            with span("alpha"):
                pass
        start, end = sink.events
        assert start.wall is None
        assert end.wall is not None and end.wall >= 0

    def test_record_wall_false_suppresses_durations(self):
        hub, sink = hub_with_sink(record_wall=False)
        with use_hub(hub):
            with span("alpha"):
                pass
        assert all(e.wall is None for e in sink.events)


class TestUseHub:
    def test_nesting_restores_previous_hub(self):
        a, _ = hub_with_sink()
        b, _ = hub_with_sink()
        with use_hub(a):
            assert current_hub() is a
            with use_hub(b):
                assert current_hub() is b
            assert current_hub() is a
        assert current_hub() is None

    def test_reentrant_same_hub_is_harmless(self):
        hub, sink = hub_with_sink()
        with use_hub(hub), use_hub(hub):
            with span("alpha"):
                pass
        assert current_hub() is None
        assert len(sink.events) == 2
