"""COCO-format annotation ingestion and export, both column by column.

Synthetic scenes export to the schema real datasets ship, so both feed one
evaluation path.  Ingestion orders images by id into frames: a dataset holds
one GroundTruthTable per image and the frame interval.  Every entry of
images, annotations and categories, and info, must be an object; unknown
fields are ignored.  One rule, boxes.is_number, says what a number is: an
int or a float, finite, never a string, bool, null, list or object.  Ids
and image sizes are 64-bit whole numbers, and sizes >= 1; a box is a list
of 4 numbers whose corners are finite after the (x, y, w, h) sum and do
not cross; an error names the file and entry.  Exports also carry exact
corners ("bbox_corners"), which ingestion prefers: scene round-trips are
bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .boxes import GroundTruthTable, ParseError, box_corners, column, is_number, whole_numbers
from .network import Frame
from .scenarios import SyntheticScene


@dataclass(frozen=True)
class CocoDataset:
    gts_by_frame: tuple[GroundTruthTable, ...]  # one table per image, in id order
    frame_interval_ms: Optional[float]  # info.frame_interval_ms, when given


def _entries(path: Path, data: dict, key: str, required: bool = True) -> list:
    """data[key], a list (or [] when optional and absent); its entries are
    checked as objects by the first column read of them."""
    if required and key not in data:
        raise ParseError(f"{path}: missing field {key!r}")
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{path}: {key} must be a list, got {entries!r}")
    return entries


def _ground_truth(path: Path, anns: list, known: np.ndarray) -> tuple[GroundTruthTable, ...]:
    """One ground-truth table per image id of `known` (sorted), each in
    annotation order, filled column by column."""
    ids = whole_numbers(path, anns, "annotations", "image_id")
    category = whole_numbers(path, anns, "annotations", "category_id")
    corners = [ann.get("bbox_corners") for ann in anns]
    xywh = [i for i, c in enumerate(corners) if c is None] if None in corners else []
    for i, box in zip(xywh, column(path, [anns[i] for i in xywh], "bbox", "annotations", xywh)):
        corners[i] = box
    boxes = box_corners(path, corners, "annotations[{}]", xywh)
    # an annotation without a track_id is its own track, keyed by its id
    # (by its index without one)
    ann_id = whole_numbers(path, anns, "annotations", "id", default=range(len(anns)))
    track_id = whole_numbers(path, anns, "annotations", "track_id", default=ann_id.tolist())

    unknown = ~np.isin(ids, known)
    if unknown.any():
        i = int(np.argmax(unknown))
        raise ParseError(f"{path}: annotations[{i}]: unknown image_id {ids[i]}")

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

    image_ids, *sizes = (whole_numbers(path, images, "images", key) for key in ("id", "width", "height"))
    for key, size in zip(("width", "height"), sizes):
        if (size < 1).any():
            i = int(np.argmax(size < 1))
            raise ParseError(f"{path}: images[{i}].{key} must be >= 1, got {size[i]}")
    known = np.unique(image_ids)
    if len(known) != len(image_ids):
        raise ParseError(f"{path}: duplicate image ids")

    gts = _ground_truth(path, anns, known)
    whole_numbers(path, categories, "categories", "id")

    info = data.get("info", {})
    if type(info) is not dict:
        raise ParseError(f"{path}: info must be an object, got {info!r}")
    interval = info.get("frame_interval_ms")
    if interval is not None and not (is_number(interval) and interval > 0):
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
                    "bbox": [x0, y0, x1 - x0, y1 - y0],  # width and height as x1 - x0 and y1 - y0
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
