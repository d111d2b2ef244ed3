"""Every refusal of a records log line, with its exact message.

A row is one records line and the message of its refusal, which
read_records and `longshort score` prefix with the file and the line:
`<file> line 2: <message>`.  The line is the second of its log, after
FIRST, and is scored on the run data of CONFIG, whose horizon is 8 frames.
Most lines are GOOD with key paths set (as in tests/refusals.py:
"detections.0.bbox.2" is the third corner of the first detection's box) or
dropped.  The five rows marked "was accepted" are lines that an earlier
read_records, which built a Detection per detection, accepted: NaN times, a
bool score, a NaN corner, a negative source_frame and a fractional
category, which it truncated.
"""

import json
from typing import NamedTuple

from refusals import BASES, INF, NAN, with_keys, without_keys

CONFIG = BASES["scene"]  # 8 frames of one category-1 track
FIRST = {"source_frame": 0, "issue_ms": 0.0, "completion_ms": 20.0, "detections": []}
GOOD = {"source_frame": 1, "issue_ms": 33.33, "completion_ms": 53.33,
        "detections": [{"bbox": [10.0, 10.0, 30.0, 30.0], "category": 1, "score": 0.9}]}


def line(keys=None, drop=()) -> str:
    """GOOD as a records line, with each key path of `keys` set and each of
    `drop` removed."""
    return json.dumps(without_keys(with_keys(GOOD, keys or {}), dict.fromkeys(drop)))


def log(*lines: str) -> str:
    """A records log of FIRST and then `lines`."""
    return "".join(text + "\n" for text in (json.dumps(FIRST), *lines))


class RecordRow(NamedTuple):
    line: str
    message: str

    @property
    def id(self) -> str:
        return self.message


DET = "detections.0."
BOX = [10.0, 10.0, 30.0, 30.0]
RECORD_ROWS = [
    # a line that is not JSON, or not an object
    RecordRow('{"source_frame": 1,', "invalid JSON: Expecting property name enclosed in double quotes"),
    RecordRow("[1, 2]", "a record must be an object, got [1, 2]"),
    RecordRow("null", "a record must be an object, got None"),
    # a missing key, one row per key
    *(RecordRow(line(drop=[key]), f"missing field {key!r}")
      for key in ("source_frame", "issue_ms", "completion_ms", "detections")),
    *(RecordRow(line(drop=[DET + key]), f"missing field {key!r} in detections[0]") for key in ("bbox", "category", "score")),
    RecordRow(line({"detections": {}}), "detections must be a list, got {}"),
    RecordRow(line({"detections.0": 5}), "detections[0] must be an object, got 5"),
    # a bbox that is not 4 numbers, or has non-finite or crossed corners
    RecordRow(line({DET + "bbox": BOX[:3]}), f"detections[0].bbox: a box takes 4 finite numbers, got {BOX[:3]!r}"),
    RecordRow(line({DET + "bbox": "abcd"}), "detections[0].bbox: a box takes 4 finite numbers, got 'abcd'"),
    RecordRow(line({DET + "bbox.2": NAN}),  # was accepted
              "detections[0].bbox: a box takes 4 finite numbers, got [10.0, 10.0, nan, 30.0]"),
    RecordRow(line({DET + "bbox.0": -INF}), "detections[0].bbox: a box takes 4 finite numbers, got [-inf, 10.0, 30.0, 30.0]"),
    RecordRow(line({DET + "bbox": [30.0, 10.0, 10.0, 30.0]}),
              "detections[0].bbox: degenerate box, corners [30.0, 10.0, 10.0, 30.0] cross"),
    # a number that is a bool or a string
    RecordRow(line({DET + "bbox.1": True}), "detections[0].bbox: a box takes 4 finite numbers, got [10.0, True, 30.0, 30.0]"),
    RecordRow(line({DET + "bbox.1": "10"}), "detections[0].bbox: a box takes 4 finite numbers, got [10.0, '10', 30.0, 30.0]"),
    RecordRow(line({DET + "score": True}), "detections[0].score must be a number in [0, 1], got True"),  # was accepted
    RecordRow(line({DET + "score": "0.9"}), "detections[0].score must be a number in [0, 1], got '0.9'"),
    RecordRow(line({DET + "category": True}), "detections[0].category must be a 64-bit whole number, got True"),
    RecordRow(line({DET + "category": "1"}), "detections[0].category must be a 64-bit whole number, got '1'"),
    RecordRow(line({"issue_ms": "33.33"}), "issue_ms must be a finite number, got '33.33'"),
    RecordRow(line({"completion_ms": False}), "completion_ms must be a finite number, got False"),
    RecordRow(line({"source_frame": True}), "source_frame must be a whole number in [0, 8), got True"),
    RecordRow(line({"source_frame": "1"}), "source_frame must be a whole number in [0, 8), got '1'"),
    # a category that is not a 64-bit whole number
    RecordRow(line({DET + "category": 1.5}), "detections[0].category must be a 64-bit whole number, got 1.5"),  # was accepted
    RecordRow(line({DET + "category": 2**63}), f"detections[0].category must be a 64-bit whole number, got {2**63}"),
    # a score outside [0, 1]
    RecordRow(line({DET + "score": 1.5}), "detections[0].score must be a number in [0, 1], got 1.5"),
    RecordRow(line({DET + "score": -0.1}), "detections[0].score must be a number in [0, 1], got -0.1"),
    RecordRow(line({DET + "score": NAN}), "detections[0].score must be a number in [0, 1], got nan"),
    # a completion before its issue, or a non-finite time
    RecordRow(line({"completion_ms": 30.0}), "completion_ms 30.0 is before issue_ms 33.33"),
    RecordRow(line({"issue_ms": NAN, "completion_ms": NAN}), "issue_ms must be a finite number, got nan"),  # was accepted
    RecordRow(line({"completion_ms": INF}), "completion_ms must be a finite number, got inf"),
    # records out of completion order
    RecordRow(line({"issue_ms": 0.0, "completion_ms": 10.0}), "completion_ms 10.0 is before the line before's 20.0"),
    # a source_frame outside [0, horizon)
    RecordRow(line({"source_frame": -4}), "source_frame must be a whole number in [0, 8), got -4"),  # was accepted
    RecordRow(line({"source_frame": 8}), "source_frame must be a whole number in [0, 8), got 8"),
    RecordRow(line({"source_frame": 1.5}), "source_frame must be a whole number in [0, 8), got 1.5"),
]
