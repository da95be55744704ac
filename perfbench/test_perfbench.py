"""Tests of the benchmark's own arithmetic: tail rule, self time, failure counts.

Run with ``python3 -m pytest perfbench``.
"""

import json
import sys
import types
from pathlib import Path

import pytest

import run
from spans import Span, Tracer, covered_length, patched, self_times
from stats import Ledger, tail


class TestTail:
    def test_picks_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))          # 100 samples
        assert tail(values) == (90.0, 90, 100)

    def test_thousand_samples_reach_p99(self):
        values = list(range(1, 1001))
        assert tail(values) == (99.0, 990, 1000)

    def test_two_hundred_samples_reach_p95(self):
        values = list(range(1, 201))
        assert tail(values) == (95.0, 190, 200)

    def test_fewer_than_a_hundred_samples_fall_back_to_maximum(self):
        values = [5.0, 1.0, 3.0] + [2.0] * 96
        assert tail(values) == (100.0, 5.0, 99)
        assert tail([7.0]) == (100.0, 7.0, 1)

    def test_ten_samples_are_always_beyond_the_chosen_value(self):
        for n in (100, 101, 199, 250, 999, 1999, 2000):
            pct, value, _ = tail(list(range(n)))
            assert sum(v > value for v in range(n)) >= 10, (n, pct)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            tail([])


class TestSelfTime:
    def test_overlapping_children_are_counted_once(self):
        spans = [
            Span("parent", 0.0, 10.0, None),
            Span("a", 1.0, 4.0, 0),
            Span("b", 3.0, 6.0, 0),       # overlaps a
            Span("c", 8.0, 12.0, 0),      # runs past the parent's end
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
        assert own[1:] == pytest.approx([3.0, 3.0, 4.0])

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            Span("root", 0.0, 10.0, None),
            Span("child", 2.0, 8.0, 0),
            Span("grandchild", 3.0, 5.0, 1),
        ]
        assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])

    def test_covered_length_ignores_empty_and_outside_intervals(self):
        assert covered_length([(5.0, 5.0), (20.0, 30.0), (-3.0, -1.0)], 0.0, 10.0) == 0.0
        assert covered_length([(0.0, 2.0), (1.0, 3.0), (2.5, 4.0)], 0.0, 10.0) == 4.0

    def test_tracer_records_parents_from_nesting(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap_span(lambda: None, "inner")
        outer = tracer.wrap_span(lambda: (inner(), inner()), "outer")
        outer()
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names == [("outer", None), ("inner", 0), ("inner", 0)]
        # outer spans ticks 0..5; each inner covers one tick
        assert self_times(tracer.spans) == pytest.approx([3.0, 1.0, 1.0])

    def test_span_closes_and_marks_error_when_the_call_raises(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")
        with pytest.raises(KeyError):
            tracer.wrap_span(boom, "boom")()
        assert tracer.spans[0].attrs == {"error": True}
        assert tracer.spans[0].end >= tracer.spans[0].start
        with tracer.span("after"):
            pass
        assert tracer.spans[1].parent is None


class TestLedger:
    def test_failed_frac_counts_operations(self):
        ledger = Ledger()
        ledger.record(13)                     # a clean sweep call
        ledger.record(13, 2, "2 failed cells")
        ledger.record(2, 1, "discriminate exited 1")
        assert (ledger.attempted, ledger.failed) == (28, 3)
        assert ledger.failed_frac == pytest.approx(3 / 28)
        assert ledger.problems == ["2 failed cells", "discriminate exited 1"]

    def test_nothing_attempted_is_zero(self):
        assert Ledger().failed_frac == 0.0

    @pytest.mark.parametrize("n_ops, n_failed", [(1, 2), (-1, 0), (3, -1)])
    def test_rejects_impossible_counts(self, n_ops, n_failed):
        with pytest.raises(ValueError):
            Ledger().record(n_ops, n_failed)


def test_patched_restores_attributes_on_error():
    module = types.ModuleType("perfbench_fake")
    module.f = lambda: 1
    sys.modules["perfbench_fake"] = module
    try:
        original = module.f
        with pytest.raises(RuntimeError):
            with patched([("perfbench_fake", "f", lambda fn: lambda: 2)]):
                assert module.f() == 2
                raise RuntimeError
        assert module.f is original
    finally:
        del sys.modules["perfbench_fake"]


def test_parse_importtime_sums_numpy_scipy_and_eitats():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       500 |        600 |   numpy",
        "import time:       300 |        300 |       scipy._lib",
        "import time:       200 |        500 |     scipy",
        "import time:        50 |         50 |       scipy.linalg._x",
        "import time:       400 |        450 |     scipy.linalg",
        "import time:        70 |       1620 |   eitats.lindblad",
        "import time:        30 |       1650 | eitats",
    ])
    parsed = run.parse_importtime(text)
    assert parsed["import_numpy_ms"] == pytest.approx(0.6)
    assert parsed["import_scipy_ms"] == pytest.approx(0.95)
    assert parsed["import_eitats_self_ms"] == pytest.approx(0.1)


def test_first_downward_crossing_interpolates():
    assert run.first_downward_crossing([2.0, 3.0, 4.0], [1.0, 0.75, 0.25]) == pytest.approx(3.5)
    assert run.first_downward_crossing([2.0, 3.0], [1.0, 0.9]) is None


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == {k: unit for k, (unit, _, _) in run.LAYER_METRICS.items()}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int)
