"""COCO-format annotation ingestion and export.

Synthetic scenes export to the same images/annotations/categories schema
that real datasets ship, so both feed one evaluation path.  Ingestion orders
images by id to obtain frame indices, converts (x, y, w, h) boxes to corner
form, and ignores unknown fields; it reads the annotations column by column
into one GroundTruthTable per frame, so an error names the annotation's
index but no box is built as an object.  Exports additionally carry an
exact corner quadruple per annotation ("bbox_corners") which ingestion
prefers when present, keeping scene round-trips bit-exact.
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


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise MissingField(f"missing field {key!r} in {where}")
    return obj[key]


def _column(anns: list, key: str, rows: Optional[list[int]] = None) -> list:
    """Every annotation's `key`, or the MissingField of the first without it;
    rows[j] is the index in the file of anns[j] (default j)."""
    try:
        return [ann[key] for ann in anns]
    except (KeyError, TypeError):
        j = next(j for j, ann in enumerate(anns) if not isinstance(ann, dict) or key not in ann)
        raise MissingField(f"missing field {key!r} in annotations[{j if rows is None else rows[j]}]") from None


def _ground_truth(path: Path, anns: list, image_ids: list[int]) -> tuple[GroundTruthTable, ...]:
    """One ground-truth table per image of `image_ids` (sorted), each in
    annotation order, filled column by column."""
    ids = np.array(_column(anns, "image_id"), dtype=np.int64)
    category = np.array(_column(anns, "category_id"), dtype=np.int64)
    corners = [ann.get("bbox_corners") for ann in anns]
    xywh = [i for i, c in enumerate(corners) if c is None] if None in corners else []
    for i, box in zip(xywh, _column([anns[i] for i in xywh], "bbox", xywh)):
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
    track_id = np.array(
        [ann["track_id"] if "track_id" in ann else ann.get("id", i) for i, ann in enumerate(anns)], dtype=np.int64
    )

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


def load_coco_annotations(path: Union[str, Path]) -> CocoDataset:
    """Read a COCO-style annotation file into frames and ground truth."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")

    images_raw = _need(data, "images", str(path))
    anns_raw = _need(data, "annotations", str(path))

    images = []
    for i, img in enumerate(images_raw):
        where = f"images[{i}]"
        images.append(
            CocoImage(
                id=int(_need(img, "id", where)),
                width=int(_need(img, "width", where)),
                height=int(_need(img, "height", where)),
                file_name=str(img.get("file_name", "")),
            )
        )
    images.sort(key=lambda im: im.id)
    if len({im.id for im in images}) != len(images):
        raise ParseError(f"{path}: duplicate image ids")

    gts = _ground_truth(path, anns_raw, [im.id for im in images])

    categories = {}
    for j, cat in enumerate(data.get("categories", [])):
        cid = int(_need(cat, "id", f"categories[{j}]"))
        categories[cid] = str(cat.get("name", f"category_{cid}"))

    info = data.get("info", {})
    interval = info.get("frame_interval_ms") if isinstance(info, dict) else None
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
    Path(path).write_text(json.dumps(scenario_to_coco(scenario, scene), indent=2) + "\n")
