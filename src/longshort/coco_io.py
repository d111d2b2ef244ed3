"""COCO-format annotation ingestion and export.

Synthetic scenes export to the same images/annotations/categories schema
that real datasets ship, so both feed one evaluation path.  Ingestion orders
images by id to obtain frame indices, converts (x, y, w, h) boxes to corner
form, and ignores unknown fields; it reads the annotations column by column
into one GroundTruthTable per frame, so an error names the annotation's
index but no box is built as an object.  Every entry of images, annotations
and categories must be an object, and every id and image size a whole
number, as config counts are read: a string, a null, a bool or a fractional
value is rejected naming the entry and key (images[i].width, say), checked
a column at a time.  Exports additionally carry an exact corner quadruple
per annotation ("bbox_corners") which ingestion prefers when present,
keeping scene round-trips bit-exact; the indented JSON is streamed to the
file, not built as one string first.
"""

from __future__ import annotations

import json
import sys
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
class CocoImage:
    id: int
    width: int
    height: int
    file_name: str


@dataclass(frozen=True)
class CocoDataset:
    images: tuple[CocoImage, ...]
    gts_by_frame: tuple[GroundTruthTable, ...]
    categories: dict[int, str]
    frame_interval_ms: Optional[float] = None


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


def _is_whole(value) -> bool:
    # type(True) is bool, so neither a bool nor a string nor a null passes
    return (type(value) is int or type(value) is float and value.is_integer()) and -(2**63) <= value < 2**63


def _whole(path: Path, values: list, table: str, key: str) -> np.ndarray:
    """values as an int64 column, or a ParseError naming the first that is
    not a whole number, the rule config counts follow: a fractional value is
    rejected, not truncated."""
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    j = next((j for j, v in enumerate(values) if not _is_whole(v)), None)
    if j is not None:
        raise ParseError(f"{path}: {table}[{j}].{key} must be a 64-bit whole number, got {values[j]!r}")
    return np.array([int(v) for v in values], dtype=np.int64)


def _ids(path: Path, objs: list, table: str, key: str, default=None) -> np.ndarray:
    """Every object's `key` as an int64 column (see _column and _whole)."""
    return _whole(path, _column(path, objs, key, table, default=default), table, key)


def _ground_truth(path: Path, anns: list, image_ids: list[int]) -> tuple[GroundTruthTable, ...]:
    """One ground-truth table per image of `image_ids` (sorted), each in
    annotation order, filled column by column."""
    ids = _ids(path, anns, "annotations", "image_id")
    category = _ids(path, anns, "annotations", "category_id")
    corners = [ann.get("bbox_corners") for ann in anns]
    xywh = [i for i, c in enumerate(corners) if c is None] if None in corners else []
    for i, box in zip(xywh, _column(path, [anns[i] for i in xywh], "bbox", "annotations", xywh)):
        corners[i] = box
    try:
        four = set(map(len, corners)) <= {4}
    except TypeError:  # not a list
        four = False
    if not four:
        i = next(i for i, c in enumerate(corners) if np.shape(c) != (4,))
        raise ParseError(f"{path}: annotations[{i}]: a box takes 4 numbers, got {corners[i]!r}")
    boxes = np.fromiter(chain.from_iterable(corners), np.float64, 4 * len(corners)).reshape(-1, 4)
    boxes[xywh, 2:] += boxes[xywh, :2]  # (x, y, w, h) -> corners
    # an annotation without a track_id is its own track, keyed by its id
    # (by its index without one)
    ann_id = _ids(path, anns, "annotations", "id", default=range(len(anns)))
    track_id = _ids(path, anns, "annotations", "track_id", default=ann_id.tolist())

    known = np.array(image_ids, dtype=np.int64)
    unknown = ~np.isin(ids, known)
    if unknown.any():
        i = int(np.argmax(unknown))
        raise ParseError(f"{path}: annotations[{i}]: unknown image_id {ids[i]}")
    missing = ~np.isfinite(boxes).all(axis=1)  # a null reads NaN
    if missing.any():
        i = int(np.argmax(missing))
        raise ParseError(f"{path}: annotations[{i}]: a box takes 4 finite numbers, got {corners[i]!r}")
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
    """Read a COCO-style annotation file into frames and ground truth."""
    path = Path(path)
    data = parse_json(path.read_text(), path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")

    images_raw = _entries(path, data, "images")
    anns_raw = _entries(path, data, "annotations")
    cats_raw = _entries(path, data, "categories", required=False)

    id_, width, height = (_ids(path, images_raw, "images", key).tolist() for key in ("id", "width", "height"))
    images = sorted(
        (CocoImage(i, w, h, str(img.get("file_name", ""))) for i, w, h, img in zip(id_, width, height, images_raw)),
        key=lambda im: im.id,
    )
    if len(set(id_)) != len(images):
        raise ParseError(f"{path}: duplicate image ids")

    gts = _ground_truth(path, anns_raw, [im.id for im in images])

    cids = _ids(path, cats_raw, "categories", "id").tolist()
    categories = {cid: str(cat.get("name", f"category_{cid}")) for cid, cat in zip(cids, cats_raw)}

    info = data.get("info", {})
    interval = info.get("frame_interval_ms") if isinstance(info, dict) else None
    if interval is not None and (
        isinstance(interval, bool) or not isinstance(interval, (int, float)) or not 0 < interval <= sys.float_info.max
    ):
        raise ParseError(f"{path}: info.frame_interval_ms must be a finite number > 0, got {interval!r}")
    return CocoDataset(
        images=tuple(images),
        gts_by_frame=gts,
        categories=categories,
        frame_interval_ms=interval,
    )


def scenario_to_coco(
    scenario: Sequence[tuple[Frame, GroundTruthTable]],
    scene: SyntheticScene,
) -> dict:
    """Build the COCO-style dict for a generated scene."""
    images = []
    annotations = []
    used_categories = set()
    ann_id = 0
    for frame, gts in scenario:
        images.append(
            {
                "id": frame.index,
                "width": scene.width,
                "height": scene.height,
                "file_name": f"frame_{frame.index:06d}.raw",
            }
        )
        for g in gts:
            used_categories.add(g.category)
            b = g.bbox
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": frame.index,
                    "category_id": g.category,
                    "bbox": [b.x_min, b.y_min, b.width, b.height],
                    "bbox_corners": [b.x_min, b.y_min, b.x_max, b.y_max],
                    "area": g.area,
                    "track_id": g.track_id,
                    "iscrowd": 0,
                }
            )
            ann_id += 1
    return {
        "info": {"frame_interval_ms": scene.frame_interval_ms},
        "images": images,
        "annotations": annotations,
        "categories": [{"id": c, "name": f"category_{c}"} for c in sorted(used_categories)],
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
