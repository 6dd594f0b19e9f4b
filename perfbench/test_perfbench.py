"""Self-tests of the benchmark's own arithmetic, on synthetic spans.

    python3 -m pytest perfbench/test_perfbench.py
"""

import threading
import types
from collections import defaultdict

import pytest

import layers
from tracer import (
    Tracer,
    failed_ratio,
    median,
    proposals_per_sample,
    self_time,
    children_index,
    tail_percentile,
    union_length,
)


def span(sid, parent, name, t0, t1, tag=None):
    return (sid, parent, name, t0, t1, 1, tag)


def test_tail_percentile_keeps_ten_samples_beyond():
    # 1000 samples: p99.9 has 1 beyond, p99 has exactly 10
    assert tail_percentile(range(1, 1001)) == (99.0, 990)
    # 100 samples: p99 has 1 beyond, p90 has 10
    assert tail_percentile(range(1, 101)) == (90.0, 90)
    # 20 samples: only the median has 10 beyond
    assert tail_percentile(range(1, 21)) == (50.0, 10)
    # 19 samples: nothing has 10 beyond
    assert tail_percentile(range(1, 20)) == (0.0, 0.0)


def test_tail_percentile_ignores_order():
    assert tail_percentile(list(range(1000, 0, -1))) == (99.0, 990)


def test_median_odd_even_and_empty():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert union_length([], 0, 10) == 0


def test_self_time_is_span_minus_children():
    spans = [
        span(1, 0, "cli.main", 0.0, 10.0),
        span(2, 1, "protocol.run_experiment", 1.0, 3.0),
        span(3, 1, "metrics.chi_square_gof", 2.0, 5.0),   # overlaps its sibling
        span(4, 2, "protocol.chunk", 1.5, 2.5),           # grandchild: no effect
        span(5, 1, "watches.read_phases", 9.5, 11.0),     # clipped at the parent's end
    ]
    kids = children_index(spans)
    assert self_time(spans[0], kids) == pytest.approx(10.0 - 4.0 - 0.5)
    assert self_time(spans[1], kids) == pytest.approx(1.0)
    assert self_time(spans[3], kids) == pytest.approx(1.0)


def test_failed_ratio():
    assert failed_ratio(3, 40) == 0.075
    assert failed_ratio(0, 6) == 0.0
    with pytest.raises(ValueError):
        failed_ratio(0, 0)


def test_proposals_per_sample():
    assert proposals_per_sample(130, 100) == 1.3
    assert proposals_per_sample(256, 1) == 256.0
    assert proposals_per_sample(0, 0) == 0.0


def test_pass_metrics_from_synthetic_spans():
    spans = [
        span(1, 0, "cli.main", 0.0, 4.0),
        span(2, 1, "protocol.run_experiment", 0.5, 3.5),
        span(3, 2, "protocol.chunk", 0.5, 2.5, "B1"),
        span(4, 2, "protocol.chunk", 0.5, 3.0, "B1"),   # a second worker thread
        span(5, 3, "models.sample_hidden_B1_array", 0.6, 1.6),
        span(6, 1, "watches.batter_vectors_array", 3.6, 3.8),
    ]
    counts = defaultdict(float, {
        "protocol.chunks": 2, "protocol.bulk_trials": 2 * layers.CHUNK,
        "models.sample_hidden_B1_array.rows": layers.CHUNK,
        "models.proposed_points": 130, "models.returned_points": 100,
    })
    m, samples = layers.pass_metrics(spans, counts)
    assert m["cli.self_s"] == pytest.approx(4.0 - 3.0 - 0.2)
    assert m["protocol.chunk.busy_s"] == pytest.approx(4.5)   # summed over threads
    assert m["protocol.chunk.ms_per_chunk"] == pytest.approx(2250.0)
    assert m["models.sample_hidden_B1_array.ms_per_chunk"] == pytest.approx(1000.0)
    assert m["models.proposals_per_sample"] == pytest.approx(1.3)
    assert m["protocol.event_log.bytes_per_trial"] == 0.0
    assert samples["watches.batter_vectors_array"] == [pytest.approx(0.2)]
    by_kind = layers.busy_by_kind(spans)
    assert by_kind["protocol.chunk"]["B1"]["calls"] == 2
    assert by_kind["protocol.chunk"]["B1"]["busy_s"] == pytest.approx(4.5)
    assert by_kind["protocol.run_experiment"][None]["busy_s"] == pytest.approx(3.0)


def test_tracer_records_parents_counts_and_unwraps():
    mod = types.ModuleType("fake")
    mod.__name__ = "pkg.fake"
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    other = types.ModuleType("other")
    other.inner = mod.inner
    original_inner = mod.inner

    t = Tracer()
    t.wrap_everywhere([mod, other], mod, "outer")
    t.wrap_everywhere([mod, other], mod, "inner",
                      count=lambda tr, a, k, r: tr.add("fake.rows", a[0]))
    with t.region("cli.main") as root:
        assert mod.outer(3) == 8
        assert other.inner(1) == 2
        worker = threading.Thread(target=mod.inner, args=(5,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    spans, counts = t.take()
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp[2]].append(sp)
    (outer,) = by_name["fake.outer"]
    assert outer[1] == root
    parents = sorted(sp[1] for sp in by_name["fake.inner"])
    # called from outer, from the region directly, and from a worker thread
    # whose parent is the main thread's innermost open span
    assert parents == sorted([outer[0], root, root])
    assert counts["fake.rows"] == 3 + 1 + 5
    assert t.take() == ([], {})
    t.unwrap()
    assert mod.inner is original_inner and other.inner is original_inner
