"""Tracer tests: event shapes, output formats, and the
zero-overhead-when-disabled contract."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.trace import (
    NullTracer,
    Tracer,
    get_tracer,
    install_tracer,
    trace_disable,
    trace_enable,
    validate_chrome_events,
    validate_chrome_trace,
)


@pytest.fixture(autouse=True)
def _reset_tracer():
    yield
    trace_disable()


class TestNullTracer:
    def test_default_tracer_is_disabled(self):
        tracer = get_tracer()
        assert not tracer.enabled
        assert tracer.events == ()

    def test_span_is_shared_noop(self):
        tracer = NullTracer()
        span = tracer.span("x", pc=1)
        assert span is tracer.span("y")  # one shared instance
        with span:
            pass
        assert tracer.events == ()

    def test_disabled_records_nothing(self):
        """The overhead guard: event/counter comparison, not timing."""
        tracer = get_tracer()
        assert not tracer.enabled
        with tracer.span("dbt.translate", pc=0x400000):
            tracer.instant("mark")
            tracer.counter("progress", steps=10)
        assert tracer.events == ()


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("translate", cat="dbt", pc=7):
            pass
        (event,) = tracer.events
        assert event["name"] == "translate"
        assert event["ph"] == "X"
        assert event["cat"] == "dbt"
        assert event["args"] == {"pc": 7}
        assert event["dur"] >= 0
        assert event["ts"] >= 0

    def test_instant_and_counter(self):
        tracer = Tracer()
        tracer.instant("mark", detail=1)
        tracer.counter("progress", steps=5, cycles=100)
        instant, counter = tracer.events
        assert instant["ph"] == "i"
        assert counter["ph"] == "C"
        assert counter["args"] == {"steps": 5, "cycles": 100}

    def test_nested_spans_record_inner_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e["name"] for e in tracer.events]
        assert names == ["inner", "outer"]

    def test_enable_disable_roundtrip(self):
        live = trace_enable()
        assert get_tracer() is live
        assert trace_enable() is live  # idempotent
        trace_disable()
        assert not get_tracer().enabled

    def test_install_returns_previous(self):
        mine = Tracer()
        previous = install_tracer(mine)
        assert get_tracer() is mine
        install_tracer(previous)

    def test_clear(self):
        tracer = Tracer()
        tracer.instant("x")
        tracer.clear()
        assert tracer.events == []


class TestOutputFormats:
    def test_chrome_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", pc=1):
            tracer.instant("i")
        path = tmp_path / "trace.json"
        tracer.write_chrome(path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        assert validate_chrome_trace(path) == 2

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.instant("a")
        tracer.instant("b")
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "a"


class TestValidation:
    def _event(self, **over):
        event = {"name": "x", "ph": "i", "ts": 1.0, "pid": 1, "tid": 0}
        event.update(over)
        return event

    def test_accepts_emitted_subset(self):
        events = [
            self._event(),
            self._event(ph="X", dur=2.0),
            self._event(ph="C"),
        ]
        assert validate_chrome_events(events) == 3

    def test_rejects_non_list(self):
        with pytest.raises(ReproError, match="must be a list"):
            validate_chrome_events({"not": "a list"})

    @pytest.mark.parametrize("bad, match", [
        ({"ph": "B"}, "unknown phase"),
        ({"ts": -1.0}, "bad ts"),
        ({"ts": "soon"}, "bad ts"),
        ({"name": ""}, "bad name"),
    ])
    def test_rejects_bad_fields(self, bad, match):
        with pytest.raises(ReproError, match=match):
            validate_chrome_events([self._event(**bad)])

    def test_rejects_missing_key(self):
        event = self._event()
        del event["pid"]
        with pytest.raises(ReproError, match="missing 'pid'"):
            validate_chrome_events([event])

    def test_complete_event_needs_duration(self):
        with pytest.raises(ReproError, match="bad dur"):
            validate_chrome_events([self._event(ph="X")])

    def test_file_validation_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ReproError, match="unreadable"):
            validate_chrome_trace(missing)
        bad = tmp_path / "bad.json"
        bad.write_text('{"no": "traceEvents"}')
        with pytest.raises(ReproError, match="no traceEvents"):
            validate_chrome_trace(bad)


class TestPipelineIntegration:
    def test_engine_emits_translation_spans(self):
        """A traced run records the pipeline's span hierarchy; the
        same run with tracing disabled records nothing."""
        from repro.api import SPEC_BY_NAME, run_kernel

        spec = SPEC_BY_NAME["histogram"]
        tracer = Tracer()
        install_tracer(tracer)
        try:
            traced = run_kernel(spec, variant="risotto", seed=7)
        finally:
            trace_disable()
        names = {e["name"] for e in tracer.events}
        for expected in ("dbt.translate", "dbt.frontend",
                         "dbt.optimize", "dbt.backend", "dbt.install",
                         "opt.fence_merge", "machine.run"):
            assert expected in names, expected

        null = get_tracer()
        assert not null.enabled
        untraced = run_kernel(spec, variant="risotto", seed=7)
        assert null.events == ()
        # Tracing must not perturb the simulation itself.
        assert traced.result.elapsed_cycles == \
            untraced.result.elapsed_cycles
        assert traced.checksum == untraced.checksum
