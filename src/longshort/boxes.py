"""The column tables that boxes take inside the program, the readers of
boxes in data files, and the parsers of settings.

GroundTruthTable and DetectionTable hold one (n, 4) float64 corner array
and one array per attribute, the layout COCO's evaluator keeps per image.
Data files (COCO annotations, records logs) are read column by column under
one number rule, is_number; a ParseError names the file and the entry.
Settings values are cast by the parsers below under the same rule; an
InvalidConfig names the key, the value and the rule.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
import math
import numbers
from itertools import accumulate, chain
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np


class _Table:
    """Equal-length columns, one row per box, the (n, 4) corners first and
    then one (n,) column per attribute, of the dtypes in DTYPES.  An
    instance holds nothing but its columns, so vars() lists them in field
    order; iterating it yields each row as a Row, a named tuple of Python
    values named after the columns, its box a 4-tuple of floats.  Columns
    of other shapes are a ValueError."""

    def __init_subclass__(cls):
        cls.Row = namedtuple(f"{cls.__name__}Row", cls.__annotations__)

    def __post_init__(self):
        boxes, *rest = vars(self).values()
        n = len(boxes)
        if boxes.shape != (n, 4) or any(c.shape != (n,) for c in rest):
            shapes = ", ".join(f"{key} {c.shape}" for key, c in vars(self).items())
            raise ValueError(f"{type(self).__name__} takes boxes (n, 4) and each other column (n,), got {shapes}")

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
    score (n,) float64 in [0, 1]; a score outside it is a ValueError."""

    boxes: np.ndarray
    category: np.ndarray
    score: np.ndarray

    DTYPES = (np.int64, np.float64)

    def __post_init__(self):
        super().__post_init__()
        score = self.score
        if len(score) and not (score.min() >= 0 and score.max() <= 1):  # a NaN fails both
            j = int(np.argmax(~((score >= 0) & (score <= 1))))
            raise ValueError(f"DetectionTable score[{j}] must lie in [0, 1], got {score[j].item()!r}")


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


class InvalidConfig(ValueError):
    """The refusal of every config, scene and settings (fusion, stream)
    rule; the message names the key or the item and the rule."""


def _checked(cast: Callable, ok: Callable[[Any], bool], rule: str) -> Callable:
    """A parser that casts a value and raises ValueError(rule) unless ok."""
    def parse(value):
        value = cast(value)
        if not ok(value):
            raise ValueError(rule)
        return value
    return parse


def _number(value):
    """value, refusing anything but a number (a bool or a string too)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):  # int, float: the fast checks
        raise TypeError("must be a number")
    return value


def _whole(value) -> int:
    """int(value) of a 64-bit whole number (is_number's rule); 1.5 is refused, not truncated."""
    value = _number(value)
    if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError("must be a whole number")
    if not is_number(int(value), whole=True):
        raise ValueError("must be a 64-bit whole number")
    return int(value)


def _real(value) -> float:
    """float(value) of a number."""
    return float(_number(value))


_COUNT = _checked(_whole, lambda n: n >= 0, "must be >= 0")
_STRIDE = _checked(_whole, lambda n: n >= 1, "must be >= 1")
_FINITE = _checked(_real, math.isfinite, "must be finite")
_INTERVAL = _checked(_real, lambda v: 0 < v < math.inf, "must be finite and > 0")
_RATIO = _checked(_real, lambda r: 0 < r < 1, "must lie in (0, 1)")
_BOOL = _checked(lambda v: v, lambda v: isinstance(v, bool), "must be true or false")
_STRING = _checked(lambda v: v, lambda v: isinstance(v, str), "must be a string")


def _object(raw, section: str) -> dict:
    """raw, or an InvalidConfig naming the section unless it is an object."""
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{section} must be an object, got {raw!r}")
    return raw


def _parsed(name: str, value, parse: Callable):
    """parse(value), or an InvalidConfig "name value: rule"; a nested
    section's own InvalidConfig, which names it already, passes unchanged."""
    try:
        return parse(value)
    except InvalidConfig:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"{name} {value!r}: {exc}") from None


def _given(raw, section: str, keys, required: tuple = (), context: str = "") -> dict:
    """The keys of the object `raw` that are not null (a null takes the
    default), as given; an unknown or missing key is an InvalidConfig."""
    for key in _object(raw, section):
        if key not in keys:
            raise InvalidConfig(f"unknown {section} key {key!r}{context}; use one of {tuple(keys)}")
    for key in required:
        if raw.get(key) is None:
            raise InvalidConfig(f"{section} is missing {key!r}")
    return {key: value for key, value in raw.items() if value is not None}


def _parsed_section(raw, section: str, parsers: dict, context: str = "") -> dict:
    """The keys of `raw` (see _given), each cast by its parser."""
    given = _given(raw, section, parsers, context=context)
    return {key: _parsed(f"{section} {key}", value, parsers[key]) for key, value in given.items()}


def _parse_fields(obj, parsers: dict, prefix: str = "") -> None:
    """Parse in place each field of the frozen dataclass `obj` that `parsers` names."""
    for key, parse in parsers.items():
        object.__setattr__(obj, key, _parsed(prefix + key, getattr(obj, key), parse))


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
