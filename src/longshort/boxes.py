"""The column tables that boxes take inside the program, and the readers of
boxes in data files.

GroundTruthTable and DetectionTable hold one (n, 4) float64 corner array
and one array per attribute, the layout COCO's evaluator keeps per image.
Data files (COCO annotations, records logs) are read column by column under
one number rule, is_number; a ParseError names the file and the entry.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class _Table:
    """Equal-length columns, one row per box, the (n, 4) corners first and
    then one (n,) column per attribute, of the dtypes in DTYPES.  An
    instance holds nothing but its columns, so vars() lists them in field
    order; iterating it yields each row as a Row, a named tuple of Python
    values named after the columns, its box a 4-tuple of floats."""

    def __init_subclass__(cls):
        cls.Row = namedtuple(f"{cls.__name__}Row", cls.__annotations__)

    @classmethod
    def empty(cls):
        """The table of no rows."""
        return cls(np.empty((0, 4)), *(np.empty(0, dtype) for dtype in cls.DTYPES))

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[tuple]:
        boxes, *rest = vars(self).values()
        return map(self.Row, map(tuple, boxes.tolist()), *(c.tolist() for c in rest))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    __hash__ = None

    def rows(self, index):
        """The table of the rows that `index` (a slice, mask or index array)
        selects."""
        return type(self)(*(column[index] for column in vars(self).values()))

    def split(self, lengths: Iterable[int]) -> tuple:
        """Consecutive tables of the given lengths, as views of this one."""
        starts = list(accumulate(lengths, initial=0))
        return tuple(self.rows(slice(lo, hi)) for lo, hi in zip(starts, starts[1:]))


@dataclass(frozen=True, eq=False)
class GroundTruthTable(_Table):
    """Ground-truth boxes as columns: corners (n, 4) float64; category,
    track_id and frame index (n,) int64; area (n,) float64."""

    boxes: np.ndarray
    category: np.ndarray
    track_id: np.ndarray
    frame: np.ndarray
    area: np.ndarray

    DTYPES = (np.int64, np.int64, np.int64, np.float64)


@dataclass(frozen=True, eq=False)
class DetectionTable(_Table):
    """Detections as columns: corners (n, 4) float64, category (n,) int64,
    score (n,) float64."""

    boxes: np.ndarray
    category: np.ndarray
    score: np.ndarray

    DTYPES = (np.int64, np.float64)


def concat_tables(tables: Sequence[_Table]):
    """One table of the rows of `tables` (at least one, all of one type), in order."""
    columns = [vars(t).values() for t in tables]
    return type(tables[0])(*map(np.concatenate, zip(*columns)))


class ParseError(ValueError):
    """A data file is malformed; the message names the file and the entry."""


def is_number(value, whole: bool = False) -> bool:
    """The one number rule: an int or a float (not a bool; a float subclass
    such as numpy's float64 too), finite as a float, and with `whole`
    64-bit and whole.  An int compares exactly, no overflow."""
    if type(value) is not int:
        if not isinstance(value, float):
            return False
        value = float(value)  # numpy's float64 would convert the int bounds below, which overflow
    if whole:
        return -(2**63) <= value < 2**63 and (type(value) is int or value.is_integer())
    return -(2**1024 - 2**970) < value < 2**1024 - 2**970  # what rounds to a finite float


def column(source, objs: list, key: str, table: str, rows: Optional[list[int]] = None, default=None) -> list:
    """Every object's `key`, or default[j] where objs[j] has none (when a
    default is given).  A ParseError names the first entry that is not an
    object, else the first without the key; rows[j] is the index in the
    file of objs[j] (default j)."""
    try:
        return [obj[key] for obj in objs]
    except (KeyError, TypeError):  # a JSON value other than an object raises TypeError
        pass
    rows = range(len(objs)) if rows is None else rows
    j = next((j for j, obj in enumerate(objs) if type(obj) is not dict), None)
    if j is not None:
        raise ParseError(f"{source}: {table}[{rows[j]}] must be an object, got {objs[j]!r}")
    if default is not None:
        return [obj.get(key, d) for obj, d in zip(objs, default)]
    j = next(j for j, obj in enumerate(objs) if key not in obj)
    raise ParseError(f"{source}: missing field {key!r} in {table}[{rows[j]}]")


def whole_numbers(source, objs: list, table: str, key: str, default=None) -> np.ndarray:
    """Every object's `key` (see column) as int64; 1.5 is a ParseError, not 1."""
    values = column(source, objs, key, table, default=default)
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    j = next((j for j, v in enumerate(values) if not is_number(v, whole=True)), None)
    if j is not None:
        raise ParseError(f"{source}: {table}[{j}].{key} must be a 64-bit whole number, got {values[j]!r}")
    return np.array([int(v) for v in values], dtype=np.int64)


def _is_box(box, xywh: bool) -> bool:
    """A list of 4 numbers whose corners are finite, summed when xywh."""
    if type(box) is not list or len(box) != 4 or not all(map(is_number, box)):
        return False
    return not xywh or is_number(float(box[0]) + box[2]) and is_number(float(box[1]) + box[3])


def box_corners(source, boxes: list, label: str, xywh: Sequence[int] = ()) -> np.ndarray:
    """`boxes` as (n, 4) corners, rows `xywh` summed from (x, y, w, h).  A box
    that is not 4 numbers with finite corners, else the first whose corners
    cross, is a ParseError naming label.format(i)."""
    lists = set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}
    if lists and set(map(type, chain.from_iterable(boxes))) <= {int, float}:
        try:
            array = np.fromiter(chain.from_iterable(boxes), np.float64, 4 * len(boxes)).reshape(-1, 4)
        except OverflowError:  # an int beyond the float range
            pass
        else:
            with np.errstate(all="ignore"):  # no warning leaks: inf and NaN are refused below
                array[xywh, 2:] += array[xywh, :2]
            if np.isfinite(array).all():
                crossed = (array[:, 0] > array[:, 2]) | (array[:, 1] > array[:, 3])
                if not crossed.any():
                    return array
                i = int(np.argmax(crossed))
                raise ParseError(f"{source}: {label.format(i)}: degenerate box, corners {array[i].tolist()} cross")
    summed = set(xywh)
    i = next(i for i, box in enumerate(boxes) if not _is_box(box, i in summed))
    raise ParseError(f"{source}: {label.format(i)}: a box takes 4 finite numbers, got {boxes[i]!r}")
