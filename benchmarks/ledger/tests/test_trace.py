"""Span bookkeeping: self time, patching, suspension."""

import types

import pytest

from ledger.trace import (
    Recorder, Span, click_totals, self_times, totals_by_name,
)

# click 7:  root [0, 10]
#             a  [1, 4]
#               b [2, 3]
#             a  [5, 9]
# click 8:  root [20, 21]
TREE = [
    Span("click", 0.0, 10.0, -1, 7),
    Span("a", 1.0, 4.0, 0, 7),
    Span("b", 2.0, 3.0, 1, 7),
    Span("a", 5.0, 9.0, 0, 7),
    Span("click", 20.0, 21.0, -1, 8),
]


def test_self_time_is_duration_minus_direct_children():
    assert self_times(TREE) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_times_of_a_click_sum_to_its_wall_time():
    assert click_totals(TREE) == {7: (10.0, 10.0), 8: (1.0, 1.0)}


def test_totals_by_name():
    totals = totals_by_name(TREE)
    assert totals["a"] == (2, 7.0, 6.0)
    assert totals["b"] == (1, 1.0, 1.0)
    assert totals["click"] == (2, 11.0, 4.0)


def test_patch_records_nested_spans_only_inside_a_click_and_restores():
    module = types.SimpleNamespace()

    class Layer:
        def outer(self, x):
            return module.inner(x) + 1

        @classmethod
        def build(cls, x):
            return x * 2

    def inner(x):
        return x * 10

    module.inner = inner
    recorder = Recorder()
    recorder.patch(Layer, "outer", "layer.outer")
    recorder.patch(Layer, "build", "layer.build")
    recorder.patch(module, "inner", "module.inner", measure=lambda result: result)
    assert Layer().outer(1) == 11 and recorder.spans == []  # no click open
    with recorder.click(3, "click"):
        assert Layer().outer(2) == 21
        assert Layer.build(4) == 8
    names = [(span.name, span.parent, span.click) for span in recorder.spans]
    assert names == [
        ("click", -1, 3), ("layer.outer", 0, 3), ("module.inner", 1, 3),
        ("layer.build", 0, 3),
    ]
    assert recorder.spans[2].value == 20.0
    assert all(span.end >= span.start for span in recorder.spans)
    wall, own = click_totals(recorder.spans)[3]
    assert own == pytest.approx(wall)
    recorder.restore()
    assert module.inner is inner
    assert Layer().outer(1) == 11 and len(recorder.spans) == 4


def test_a_raising_call_still_closes_its_span():
    class Layer:
        def boom(self):
            raise KeyError("x")

    recorder = Recorder()
    recorder.patch(Layer, "boom", "layer.boom")
    with recorder.click(1, "click"):
        with pytest.raises(KeyError):
            Layer().boom()
        with recorder.span("after"):
            pass
    assert [span.parent for span in recorder.spans] == [-1, 0, 0]
    recorder.restore()


def test_suspension_calls_the_hooks_in_order():
    recorder = Recorder()
    calls = []
    recorder.on_suspend.append(lambda: calls.append("suspend"))
    recorder.on_resume.append(lambda: calls.append("resume"))
    with recorder.suspended():
        calls.append("reference")
    assert calls == ["suspend", "reference", "resume"]


def test_jsonl_round_trip(tmp_path):
    import json

    recorder = Recorder()
    with recorder.click(1, "click"):
        with recorder.span("child"):
            pass
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["click", "child"]
    assert rows[1]["parent"] == 0 and rows[0]["start_s"] == 0.0
