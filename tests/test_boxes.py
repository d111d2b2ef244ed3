"""The column tables' contract, which the program and the benchmark's tracer
rely on: row iteration, the empty table, concatenation, and the checks a
table built in code makes of its columns."""

import re

import numpy as np
import pytest

from longshort.boxes import DetectionTable, GroundTruthTable, concat_tables
from longshort.scenarios import bundled_scene
from oracles import reference_delayed_gt

GTS = bundled_scene("mixed").ground_truth  # one GroundTruthTable per frame
DETS = tuple(reference_delayed_gt(GTS, 1))  # one DetectionTable per frame
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


BOX, TWO_BOXES = np.zeros((1, 4)), np.zeros((2, 4))
SHAPE_RULE = "{} takes boxes (n, 4) and each other column (n,), got "


@pytest.mark.parametrize("table, columns, got", [
    (DetectionTable, (TWO_BOXES, np.array([0, 0]), np.array([0.9])), "boxes (2, 4), category (2,), score (1,)"),
    (DetectionTable, (np.zeros(4), np.array([0]), np.array([0.9])), "boxes (4,), category (1,), score (1,)"),
    (DetectionTable, (np.zeros((1, 3)), np.array([0]), np.array([0.9])), "boxes (1, 3), category (1,), score (1,)"),
    (GroundTruthTable, (BOX, *[np.array([0])] * 3, np.zeros((1, 1))),
     "boxes (1, 4), category (1,), track_id (1,), frame (1,), area (1, 1)"),
], ids=["unequal lengths", "flat boxes", "3-number boxes", "2-d column"])
def test_a_table_built_in_code_refuses_columns_of_other_shapes(table, columns, got):
    with pytest.raises(ValueError, match=f"^{re.escape(SHAPE_RULE.format(table.__name__) + got)}$"):
        table(*columns)


@pytest.mark.parametrize("score", [1.5, -0.25, float("nan"), float("inf")])
def test_a_detection_table_refuses_a_score_outside_0_1(score):
    with pytest.raises(ValueError, match=re.escape(f"DetectionTable score[1] must lie in [0, 1], got {score!r}")):
        DetectionTable(TWO_BOXES, np.array([0, 0]), np.array([0.5, score]))
    assert len(DetectionTable(TWO_BOXES, np.array([0, 0]), np.array([0.0, 1.0]))) == 2
