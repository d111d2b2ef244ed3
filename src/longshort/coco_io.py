"""COCO-format annotation ingestion and export, both column by column.

Synthetic scenes export to the schema real datasets ship, so both feed one
evaluation path.  Ingestion orders images by id into frames: a dataset holds
one GroundTruthTable per image and the frame interval.  Every entry of
images, annotations and categories, and info, must be an object; unknown
fields are ignored.  One rule says what a number is: an int or a float,
finite, never a string, bool, null, list or object.  Ids and image sizes are
64-bit whole numbers; a box is a list of 4 numbers whose corners are finite
after the (x, y, w, h) sum; an error names the file and entry.  Exports also
carry exact corners ("bbox_corners"), which ingestion prefers: scene
round-trips are bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .boxes import BBox, GroundTruthTable
from .network import Frame
from .scenarios import SyntheticScene


class ParseError(ValueError):
    """Annotation file is malformed; the message carries the context."""


class MissingField(ParseError):
    """A required field is absent."""


@dataclass(frozen=True)
class CocoDataset:
    gts_by_frame: tuple[GroundTruthTable, ...]  # one table per image, in id order
    frame_interval_ms: Optional[float]  # info.frame_interval_ms, when given


def _entries(path: Path, data: dict, key: str, required: bool = True) -> list:
    """data[key], a list (or [] when optional and absent); its entries are
    checked as objects by the first _column read of them."""
    if required and key not in data:
        raise MissingField(f"{path}: missing field {key!r}")
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{path}: {key} must be a list, got {entries!r}")
    return entries


def _column(path: Path, objs: list, key: str, table: str, rows: Optional[list[int]] = None, default=None) -> list:
    """Every object's `key`, or default[j] where objs[j] has none (when a
    default is given).  A ParseError names the first entry that is not an
    object, then a MissingField the first without the key; rows[j] is the
    index in the file of objs[j] (default j)."""
    try:
        return [obj[key] for obj in objs]
    except (KeyError, TypeError):  # a JSON value other than an object raises TypeError
        pass
    rows = range(len(objs)) if rows is None else rows
    j = next((j for j, obj in enumerate(objs) if type(obj) is not dict), None)
    if j is not None:
        raise ParseError(f"{path}: {table}[{rows[j]}] must be an object, got {objs[j]!r}")
    if default is not None:
        return [obj.get(key, d) for obj, d in zip(objs, default)]
    j = next(j for j, obj in enumerate(objs) if key not in obj)
    raise MissingField(f"{path}: missing field {key!r} in {table}[{rows[j]}]")


def _is_number(value, whole: bool = False) -> bool:
    """The one number rule: an int or a float (not a bool), finite as a float,
    and with `whole` 64-bit and whole.  An int compares exactly, no overflow."""
    if type(value) is not int and type(value) is not float:
        return False
    if whole:
        return -(2**63) <= value < 2**63 and (type(value) is int or value.is_integer())
    return -(2**1024 - 2**970) < value < 2**1024 - 2**970  # what rounds to a finite float


def _ids(path: Path, objs: list, table: str, key: str, default=None) -> np.ndarray:
    """Every object's `key` (see _column) as int64; 1.5 is a ParseError, not 1."""
    values = _column(path, objs, key, table, default=default)
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    j = next((j for j, v in enumerate(values) if not _is_number(v, whole=True)), None)
    if j is not None:
        raise ParseError(f"{path}: {table}[{j}].{key} must be a 64-bit whole number, got {values[j]!r}")
    return np.array([int(v) for v in values], dtype=np.int64)


def _is_box(box, xywh: bool) -> bool:
    """A list of 4 numbers whose corners are finite, summed when xywh."""
    if type(box) is not list or len(box) != 4 or not all(map(_is_number, box)):
        return False
    return not xywh or _is_number(float(box[0]) + box[2]) and _is_number(float(box[1]) + box[3])


def _boxes(path: Path, corners: list, xywh: list[int]) -> np.ndarray:
    """`corners` as (n, 4) corners, rows `xywh` summed; else a ParseError."""
    lists = set(map(type, corners)) <= {list} and set(map(len, corners)) <= {4}
    if lists and set(map(type, chain.from_iterable(corners))) <= {int, float}:
        try:
            boxes = np.fromiter(chain.from_iterable(corners), np.float64, 4 * len(corners)).reshape(-1, 4)
        except OverflowError:  # an int beyond the float range
            pass
        else:
            with np.errstate(all="ignore"):  # no warning leaks: inf and NaN are refused below
                boxes[xywh, 2:] += boxes[xywh, :2]  # (x, y, w, h) -> corners
            if np.isfinite(boxes).all():
                return boxes
    summed = set(xywh)
    i = next(i for i, box in enumerate(corners) if not _is_box(box, i in summed))
    raise ParseError(f"{path}: annotations[{i}]: a box takes 4 finite numbers, got {corners[i]!r}")


def _ground_truth(path: Path, anns: list, known: np.ndarray) -> tuple[GroundTruthTable, ...]:
    """One ground-truth table per image id of `known` (sorted), each in
    annotation order, filled column by column."""
    ids = _ids(path, anns, "annotations", "image_id")
    category = _ids(path, anns, "annotations", "category_id")
    corners = [ann.get("bbox_corners") for ann in anns]
    xywh = [i for i, c in enumerate(corners) if c is None] if None in corners else []
    for i, box in zip(xywh, _column(path, [anns[i] for i in xywh], "bbox", "annotations", xywh)):
        corners[i] = box
    boxes = _boxes(path, corners, xywh)
    # an annotation without a track_id is its own track, keyed by its id
    # (by its index without one)
    ann_id = _ids(path, anns, "annotations", "id", default=range(len(anns)))
    track_id = _ids(path, anns, "annotations", "track_id", default=ann_id.tolist())

    unknown = ~np.isin(ids, known)
    if unknown.any():
        i = int(np.argmax(unknown))
        raise ParseError(f"{path}: annotations[{i}]: unknown image_id {ids[i]}")
    degenerate = (boxes[:, 0] > boxes[:, 2]) | (boxes[:, 1] > boxes[:, 3])
    if degenerate.any():
        i = int(np.argmax(degenerate))
        try:
            BBox(*boxes[i].tolist())
        except ValueError as exc:
            raise ParseError(f"{path}: annotations[{i}]: {exc}") from None

    frame = np.searchsorted(known, ids)
    order = np.argsort(frame, kind="stable")
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    table = GroundTruthTable(boxes, category, track_id, frame, area).rows(order)
    return table.split(np.bincount(frame, minlength=len(known)).tolist())


def parse_json(text: str, source, error: type = ParseError):
    """The JSON value of `text`, or an `error` naming `source` and the line
    of the syntax error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{source}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def load_coco_annotations(path: Union[str, Path]) -> CocoDataset:
    """One ground-truth table per image of a COCO-style file, and its frame
    interval; image sizes and categories are checked, not kept."""
    path = Path(path)
    data = parse_json(path.read_text(), path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")

    images = _entries(path, data, "images")
    anns = _entries(path, data, "annotations")
    categories = _entries(path, data, "categories", required=False)

    image_ids, _, _ = (_ids(path, images, "images", key) for key in ("id", "width", "height"))
    known = np.unique(image_ids)
    if len(known) != len(image_ids):
        raise ParseError(f"{path}: duplicate image ids")

    gts = _ground_truth(path, anns, known)
    _ids(path, categories, "categories", "id")

    info = data.get("info", {})
    if type(info) is not dict:
        raise ParseError(f"{path}: info must be an object, got {info!r}")
    interval = info.get("frame_interval_ms")
    if interval is not None and not (_is_number(interval) and interval > 0):
        raise ParseError(f"{path}: info.frame_interval_ms must be a finite number > 0, got {interval!r}")
    return CocoDataset(gts, interval)


def scenario_to_coco(
    scenario: Sequence[tuple[Frame, GroundTruthTable]],
    scene: SyntheticScene,
) -> dict:
    """Build the COCO-style dict for a generated scene from its columns."""
    images = []
    annotations = []
    for frame, gts in scenario:
        images.append(
            {
                "id": frame.index,
                "width": scene.width,
                "height": scene.height,
                "file_name": f"frame_{frame.index:06d}.raw",
            }
        )
        columns = (gts.boxes, gts.category, gts.area, gts.track_id)
        for (x0, y0, x1, y1), category, area, track_id in zip(*(c.tolist() for c in columns)):
            annotations.append(
                {
                    "id": len(annotations),
                    "image_id": frame.index,
                    "category_id": category,
                    "bbox": [x0, y0, x1 - x0, y1 - y0],  # as BBox.width and .height
                    "bbox_corners": [x0, y0, x1, y1],
                    "area": area,
                    "track_id": track_id,
                    "iscrowd": 0,
                }
            )
    return {
        "info": {"frame_interval_ms": scene.frame_interval_ms},
        "images": images,
        "annotations": annotations,
        "categories": [{"id": c, "name": f"category_{c}"} for c in sorted({a["category_id"] for a in annotations})],
    }


def export_scenario(
    scenario: Sequence[tuple[Frame, GroundTruthTable]],
    scene: SyntheticScene,
    path: Union[str, Path],
) -> None:
    """Write the scene's COCO dict to path as indented JSON."""
    with Path(path).open("w") as fp:
        json.dump(scenario_to_coco(scenario, scene), fp, indent=2)
        fp.write("\n")
