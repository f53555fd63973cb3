"""The one timing primitive: ``maybe_span`` stages and the ``--timings``
span-tree rendering."""

from repro.obs import Tracer, current_span_id, maybe_span
from repro.viz.trace import render_span_tree


def _record(name, wall_s, parent=None, span_id=1, note=""):
    return {
        "id": span_id, "parent": parent, "name": name, "start_s": 0.0,
        "wall_s": wall_s, "cpu_s": 0.0, "rows": 10, "note": note,
    }


class TestRenderWidth:
    def test_long_labels_widen_the_column(self):
        long = "a.particularly.long.stage.name.well.past.the.default"
        out = render_span_tree([
            _record("run", 1.0, span_id=1),
            _record(long, 0.5, parent=1, span_id=2),
            _record("short", 0.5, parent=1, span_id=3),
        ])
        header, root, first, second = out.splitlines()[1:]
        width = len("  " + long)
        # every row pads the span column to the longest (indented) label
        assert first.startswith("  " + long + " ")
        assert second.startswith("  short".ljust(width) + " ")
        assert root.startswith("run".ljust(width) + " ")
        assert header.startswith("span".ljust(width) + " ")

    def test_note_counts_toward_width(self):
        label = "stage.with.a.long.note"
        note = "forty.two.workers.on.a.rainy.day"
        out = render_span_tree([_record(label, 0.1, note=note)])
        assert f"{label}[{note}]" in out


class TestTracerBridge:
    def test_stage_records_and_spans(self):
        tracer = Tracer()
        with tracer.activate(root="run"):
            with maybe_span("work") as sp:
                sp.rows = 5
                sp.note = "cached"
        span = next(s for s in tracer.spans if s.name == "work")
        assert (span.rows, span.note) == (5, "cached")
        assert span.wall_s >= 0.0

    def test_stage_without_tracer_unchanged(self):
        # no tracer: the body still gets a writable span, but it is
        # detached — nothing is timed, recorded or made current
        with maybe_span("plain", note="n", key=1) as sp:
            assert current_span_id() is None
            sp.rows = 3
            sp.note = "written"
            sp.attrs["extra"] = True
        assert (sp.name, sp.rows, sp.note) == ("plain", 3, "written")
        assert sp.attrs == {"key": 1, "extra": True}
        assert sp.wall_s == 0.0

    def test_nested_stages_nest_spans(self):
        tracer = Tracer()
        with tracer.activate(root="run"):
            with maybe_span("outer"):
                with maybe_span("inner"):
                    pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id == by_name["run"].span_id
