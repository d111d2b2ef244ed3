import io
import math

import numpy as np
import pytest

from longshort.boxes import DetectionTable, ParseError
from longshort.fusion import InvalidConfig
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
from record_refusals import GOOD, RECORD_ROWS, line, log

INTERVAL = 33.33


def null_detector(k):
    return DetectionTable.empty()


def tagged_detector(k):
    return DetectionTable(np.array([[k, 0.0, k + 1, 1.0]]), np.array([0]), np.array([1.0]))


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
        PredictionRecord(k, k * INTERVAL, k * INTERVAL + latency_ms, tagged_detector(k))
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


def test_a_frame_is_skipped_exactly_when_its_records_show_the_worker_busy():
    # latencies a decimal multiple of the interval, as a config would give
    # them, tie its float arrival times where the exact sums may not
    rng = np.random.default_rng(11)
    horizon = 40
    for trial in range(1000):
        interval = float(rng.choice([33.33, 16.67, 50.0, 41.7, 1000 / 30]))
        multiples = rng.integers(1, 80, size=horizon if rng.random() < 0.5 else 1) / 10
        latencies = [round(m * interval, int(rng.integers(1, 5))) for m in multiples]
        model = ConstantLatency(latencies[0]) if len(latencies) == 1 else PerFrameLatency(tuple(latencies))
        records = simulate_stream(StreamConfig(horizon, model, interval), null_detector)
        dispatched = {r.source_frame_index for r in records}
        for k in range(horizon):
            busy = any(r.completion_time_ms > k * interval for r in records if r.source_frame_index < k)
            assert (k not in dispatched) == busy, (trial, k)


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
    assert read_records(buf, "records.jsonl", 6) == records


def test_a_good_records_log_reads_back_with_blank_lines_skipped():
    [first, second] = read_records(io.StringIO("\n" + log(line()) + "  \n"), "log.jsonl", 8)
    assert (second.source_frame_index, second.issue_time_ms, second.completion_time_ms) == (1, 33.33, 53.33)
    assert list(second.detections) == [(tuple(GOOD["detections"][0]["bbox"]), 1, 0.9)]
    assert first.detections == DetectionTable.empty()


@pytest.mark.parametrize("row", RECORD_ROWS, ids=lambda row: row.id)
def test_a_refused_records_line_names_the_file_the_line_and_the_key(row):
    with pytest.raises(ParseError) as exc:
        read_records(io.StringIO(log(row.line)), "log.jsonl", 8)
    assert str(exc.value) == f"log.jsonl line 2: {row.message}"


@pytest.mark.parametrize("issue, completion, message", [
    (math.nan, math.nan, "issue_ms must be a finite number, got nan"),
    (0.0, math.inf, "completion_ms must be a finite number, got inf"),
    (-math.inf, 0.0, "issue_ms must be a finite number, got -inf"),
    (True, 1.0, "issue_ms must be a finite number, got True"),
    (0.0, "1", "completion_ms must be a finite number, got '1'"),
    (10.0, 5.0, "completion_ms 5.0 is before issue_ms 10.0"),
])
def test_a_record_built_directly_refuses_a_time_that_breaks_the_time_rule(issue, completion, message):
    with pytest.raises(ValueError) as exc:
        PredictionRecord(0, issue, completion, DetectionTable.empty())
    assert str(exc.value) == message


def test_a_record_takes_int_float_and_numpy_float_times():
    for issue, completion in ((0, 1), (0.0, 0.0), (np.float64(1.5), np.float64(2.5))):
        assert PredictionRecord(0, issue, completion, DetectionTable.empty()).completion_time_ms == completion


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(horizon_frames=0)
    for interval in (0.0, math.nan):
        with pytest.raises(InvalidConfig, match="frame_interval_ms must be positive"):
            StreamConfig(horizon_frames=5, frame_interval_ms=interval)
    with pytest.raises(ValueError):
        ConstantLatency(-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="latency_ms"):
            ConstantLatency(bad)
        with pytest.raises(ValueError, match="latency_per_frame_ms"):
            PerFrameLatency((1.0, bad))
    with pytest.raises(ValueError, match="latency_per_frame_ms has 2 values, fewer than the 3 frames"):
        StreamConfig(horizon_frames=3, latency_model=PerFrameLatency((1.0, 2.0)))
    with pytest.raises(InvalidConfig, match=r"frame_interval_ms 1e\+308: 3 frames with latencies up to 0.0 ms overflow"):
        StreamConfig(horizon_frames=3, frame_interval_ms=1e308)
