import io
import math

import pytest

from longshort.boxes import BBox, Detection
from longshort.network import Frame
from longshort.streaming import (
    ConstantLatency,
    DispatchPolicy,
    PerFrameLatency,
    PredictionRecord,
    StreamConfig,
    pair_for_eval,
    read_records,
    simulate_stream,
    write_records,
)
from oracles import brute_force_pairings

INTERVAL = 33.33


def null_detector(k):
    return []


def tagged_detector(k):
    return [Detection(BBox(k, 0, k + 1, 1), category=0, score=1.0)]


def stream(latency_ms, horizon=12, policy=DispatchPolicy.LATEST_FRAME_ON_FREE):
    cfg = StreamConfig(
        horizon_frames=horizon,
        latency_model=ConstantLatency(latency_ms),
        frame_interval_ms=INTERVAL,
        dispatch_policy=policy,
    )
    return simulate_stream(cfg, tagged_detector)


def per_frame_records(latency_ms, n):
    """Synthetic per-frame record list: every frame completes at arrival +
    latency (the constant-latency pairing abstraction)."""
    return [
        PredictionRecord(k, k * INTERVAL, k * INTERVAL + latency_ms, tuple(tagged_detector(k)))
        for k in range(n)
    ]


def frames(n):
    return [Frame(k, k * INTERVAL, None) for k in range(n)]


# -------------------------------------------------------------- simulate


def test_zero_latency_processes_every_frame_instantly():
    records = stream(0.0)
    assert [r.source_frame_index for r in records] == list(range(12))
    for r in records:
        assert r.completion_time_ms == r.issue_time_ms == r.source_frame_index * INTERVAL


def test_slow_detector_skips_every_other_frame():
    records = stream(50.0)
    assert [r.source_frame_index for r in records] == [0, 2, 4, 6, 8, 10]
    assert records[1].issue_time_ms == 2 * INTERVAL
    assert records[1].completion_time_ms == 2 * INTERVAL + 50.0


def test_real_time_detector_processes_every_frame():
    records = stream(20.23)
    assert [r.source_frame_index for r in records] == list(range(12))
    for r in records:
        assert r.issue_time_ms == r.source_frame_index * INTERVAL
        assert r.completion_time_ms == pytest.approx(r.issue_time_ms + 20.23, abs=1e-9)


def test_latency_equal_to_interval_still_processes_every_frame():
    records = stream(INTERVAL)
    assert [r.source_frame_index for r in records] == list(range(12))


def test_fifo_policy_queues_instead_of_skipping():
    records = stream(50.0, horizon=5, policy=DispatchPolicy.FIFO)
    assert [r.source_frame_index for r in records] == [0, 1, 2, 3, 4]
    # worker starts the backlog as soon as it frees up, mid-interval
    assert records[1].issue_time_ms == 50.0
    assert records[2].issue_time_ms == 100.0


def test_per_frame_latency_model():
    cfg = StreamConfig(
        horizon_frames=4,
        latency_model=PerFrameLatency((10.0, 10.0, 100.0, 10.0)),
        frame_interval_ms=INTERVAL,
    )
    records = simulate_stream(cfg, tagged_detector)
    # frame 2 runs long (completes 66.66+100); frame 3 is skipped
    assert [r.source_frame_index for r in records] == [0, 1, 2]
    assert records[2].completion_time_ms == 2 * INTERVAL + 100.0


def test_records_sorted_by_completion_and_deterministic():
    a, b = stream(27.5), stream(27.5)
    assert a == b
    times = [r.completion_time_ms for r in a]
    assert times == sorted(times)


# ------------------------------------------ latest completed record per query


def paired_at(records, query_times_ms):
    """The record pair_for_eval pairs with a frame arriving at each time."""
    queries = [Frame(k, t, None) for k, t in enumerate(query_times_ms)]
    return [p.paired_record for p in pair_for_eval(records, queries)]


def test_latest_completed_cold_start_is_empty():
    records = per_frame_records(40.0, 10)
    assert paired_at(records, [0.0, 39.99]) == [None, None]


def test_latest_completed_includes_boundary_ties():
    records = per_frame_records(0.0, 10)
    got = paired_at(records, [k * INTERVAL for k in range(10)])
    assert [r.source_frame_index for r in got] == list(range(10))


def test_latest_completed_constant_latency_offset_is_two_frames():
    records = per_frame_records(40.0, 30)
    got = paired_at(records, [k * INTERVAL for k in range(2, 30)])
    assert [r.source_frame_index for r in got] == [k - 2 for k in range(2, 30)]


# ---------------------------------------------------------- pair_for_eval


def test_pairing_zero_latency_is_identity():
    records = stream(0.0, horizon=10)
    pairings = pair_for_eval(records, frames(10))
    for k, p in enumerate(pairings):
        assert p.query_frame_index == k
        assert p.paired_record.source_frame_index == k


def test_pairing_source_nondecreasing_in_query():
    records = stream(45.0, horizon=20)
    pairings = pair_for_eval(records, frames(20))
    sources = [p.paired_record.source_frame_index for p in pairings if p.paired_record]
    assert sources == sorted(sources)


def test_pairing_matches_quadratic_scan_oracle():
    records = stream(50.0, horizon=10)
    pairings = pair_for_eval(records, frames(10))
    want = brute_force_pairings(records, [k * INTERVAL for k in range(10)])
    for p, w in zip(pairings, want):
        assert p.paired_record == w


def test_pairing_oracle_agreement_across_latencies():
    for latency in (0.0, 20.0, 40.0, 80.0, 50.0, 33.33):
        records = per_frame_records(latency, 15)
        pairings = pair_for_eval(records, frames(15))
        want = brute_force_pairings(records, [k * INTERVAL for k in range(15)])
        for p, w in zip(pairings, want):
            assert p.paired_record == w


def test_real_time_regime_staleness_is_ceil_latency_over_interval():
    for latency in (0.0, 10.0, 20.23, 33.0, 33.33):
        records = stream(latency, horizon=25)
        assert len(records) == 25  # real-time regime: nothing skipped
        pairings = pair_for_eval(records, frames(25))
        lag = math.ceil(latency / INTERVAL)
        for p in pairings:
            if p.query_frame_index >= lag:
                assert p.paired_record.source_frame_index == p.query_frame_index - lag


def test_increasing_latency_never_advances_any_pairing():
    # Staleness monotonicity holds over per-frame record lists (and for the
    # simulator in the real-time regime below).  The skipping single worker
    # can genuinely invert it past one frame interval: a longer latency may
    # start a *later* frame that still completes before the query.
    latencies = [0.0, 10.0, 25.0, 34.0, 50.0, 67.0, 80.0, 120.0]
    per_query = []
    for latency in latencies:
        records = per_frame_records(latency, 30)
        pairings = pair_for_eval(records, frames(30))
        per_query.append(
            [p.paired_record.source_frame_index if p.paired_record else -1 for p in pairings]
        )
    for prev, nxt in zip(per_query, per_query[1:]):
        for a, b in zip(prev, nxt):
            assert b <= a


def test_increasing_latency_is_monotone_for_real_time_simulations():
    per_query = []
    for latency in (0.0, 10.0, 20.0, 33.0, INTERVAL):
        records = stream(latency, horizon=30)
        pairings = pair_for_eval(records, frames(30))
        per_query.append(
            [p.paired_record.source_frame_index if p.paired_record else -1 for p in pairings]
        )
    for prev, nxt in zip(per_query, per_query[1:]):
        for a, b in zip(prev, nxt):
            assert b <= a


# ----------------------------------------------------------------- logs


def test_record_log_round_trip():
    records = stream(27.5, horizon=6)
    buf = io.StringIO()
    write_records(records, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(records)
    buf.seek(0)
    assert read_records(buf) == records


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(horizon_frames=0)
    with pytest.raises(ValueError):
        StreamConfig(horizon_frames=5, frame_interval_ms=0.0)
    with pytest.raises(ValueError):
        ConstantLatency(-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="latency_ms"):
            ConstantLatency(bad)
        with pytest.raises(ValueError, match="latency_per_frame_ms"):
            PerFrameLatency((1.0, bad))
    with pytest.raises(ValueError, match="latency_per_frame_ms has 2 values, fewer than the 3 frames"):
        StreamConfig(horizon_frames=3, latency_model=PerFrameLatency((1.0, 2.0)))
    with pytest.raises(ValueError):
        PredictionRecord(0, 10.0, 5.0, ())
