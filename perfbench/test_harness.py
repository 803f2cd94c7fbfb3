"""Checks of the benchmark's own arithmetic.

Run from the root of a checkout: python3 -m pytest perfbench/test_harness.py
"""

import threading

import run
import tracer as tracing


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0


def test_percentile_needs_ten_samples_beyond_it():
    assert run.reportable(90, 100)
    assert not run.reportable(90, 99)
    assert run.reportable(99, 1000)
    assert not run.reportable(99, 999)


def _rows(*spans):
    """Flat span array from (index, name id, start, end, parent) tuples."""
    flat = []
    for span in spans:
        flat.extend((*span, 0))
    return flat


def test_self_time_is_span_minus_children():
    names = ["cli.main", "samplers.monte_carlo", "stats.ks_two_sample"]
    spans = _rows(
        (0, 0, 0, 100, -1),   # root
        (1, 1, 10, 30, 0),    # child
        (2, 1, 20, 50, 0),    # child overlapping the first, as on two threads
        (3, 2, 12, 15, 1),    # grandchild
    )
    summary = tracing.summarize(names, spans)
    # the root's children cover [10, 50] once, not 20 + 30
    assert summary["names"]["cli.main"]["self_ns"] == 100 - 40
    assert summary["names"]["samplers.monte_carlo"]["self_ns"] == (20 - 3) + 30
    assert summary["names"]["stats.ks_two_sample"]["self_ns"] == 3
    assert summary["root_ns"] == 100
    total_self = sum(v["self_ns"] for v in summary["layers"].values())
    assert total_self == 60 + 47 + 3


def test_busy_time_counts_nested_same_name_spans_once():
    names = ["stable_limit.cdf"]
    spans = _rows((0, 0, 0, 50, -1), (1, 0, 5, 20, 0), (2, 0, 20, 45, 0))
    summary = tracing.summarize(names, spans)
    assert summary["names"]["stable_limit.cdf"]["calls"] == 3
    assert summary["names"]["stable_limit.cdf"]["busy_ns"] == 50
    assert summary["layers"]["stable_limit"]["busy_ns"] == 50


def test_recorded_spans_nest_and_pool_threads_attach_to_the_caller(tmp_path):
    tracer = tracing.Tracer()
    seen = []

    def leaf():
        return 1

    traced_leaf = tracer.wrap("model.leaf", leaf)
    counted = tracer.count("samplers.uniforms", lambda count: count, lambda count: count)

    def outer():
        worker = threading.Thread(target=lambda: seen.append((traced_leaf(), counted(5))))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return traced_leaf() + counted(3)

    assert tracer.wrap("samplers.outer", outer)() == 4
    assert seen == [(1, 5)]
    path = tmp_path / "spans.bin"
    tracer.dump(str(path))
    names, counters, spans = tracing.load(str(path))
    rows = [spans[i:i + tracing.FIELDS] for i in range(0, len(spans), tracing.FIELDS)]
    outer_index = next(r[0] for r in rows if names[r[1]] == "samplers.outer")
    leaves = [r for r in rows if names[r[1]] == "model.leaf"]
    assert len(leaves) == 2 and all(r[4] == outer_index for r in leaves)
    assert counters["samplers.uniforms.calls"] == 2
    assert counters["samplers.uniforms.units"] == 8
    summary = tracing.summarize(names, spans)
    outer_row = next(r for r in rows if r[0] == outer_index)
    children = tracing.covered_ns(outer_row[2], outer_row[3], [(r[2], r[3]) for r in leaves])
    assert summary["names"]["samplers.outer"]["self_ns"] == outer_row[3] - outer_row[2] - children
