"""The column tables' contract, which the program and the benchmark's tracer
rely on: row iteration, the empty table, and concatenation."""

import numpy as np
import pytest

from longshort.boxes import concat_tables
from longshort.detectors import DelayedGtDetector
from longshort.scenarios import bundled_scene

GTS = bundled_scene("mixed").ground_truth  # one GroundTruthTable per frame
DETS = tuple(map(DelayedGtDetector(GTS, 1), range(len(GTS))))  # one DetectionTable per frame
TABLES = {"ground truth": GTS, "detections": DETS}


@pytest.mark.parametrize("frames", TABLES.values(), ids=TABLES.keys())
def test_iterating_a_table_yields_its_rows_as_python_values(frames):
    table = concat_tables(frames)
    rows = list(table)
    assert len(rows) == len(table) > 0
    assert all(type(row.category) is int for row in rows)
    assert all(type(row.boxes) is tuple and list(map(type, row.boxes)) == [float] * 4 for row in rows)
    assert rows[0]._fields == tuple(vars(table))
    boxes, *rest = zip(*rows)
    assert list(map(list, boxes)) == table.boxes.tolist()
    assert list(map(list, rest)) == [column.tolist() for column in list(vars(table).values())[1:]]


@pytest.mark.parametrize("frames, dtypes", [
    (GTS, [np.float64, np.int64, np.int64, np.int64, np.float64]),
    (DETS, [np.float64, np.int64, np.float64]),
], ids=TABLES.keys())
def test_the_empty_table_has_no_rows_and_the_columns_dtypes(frames, dtypes):
    empty, full = type(frames[0]).empty(), concat_tables(frames)
    assert len(empty) == 0 and list(empty) == []
    assert [(c.shape, c.dtype) for c in vars(empty).values()] == [((0, 4), dtypes[0])] + [((0,), t) for t in dtypes[1:]]
    assert [c.dtype for c in vars(full).values()] == dtypes


@pytest.mark.parametrize("frames", TABLES.values(), ids=TABLES.keys())
def test_concatenating_the_empty_table_changes_nothing(frames):
    empty, some = type(frames[0]).empty(), [t for t in frames if len(t)][:5]
    want = concat_tables(some)
    assert concat_tables([empty, *some]) == want
    assert [c.dtype for c in vars(concat_tables([empty, *some])).values()] == [c.dtype for c in vars(want).values()]
    assert concat_tables([some[0], empty, *some[1:], empty]) == want
    assert concat_tables([empty]) == empty
