import json
import re

import pytest

from longshort.coco_io import (
    ParseError,
    load_coco_annotations,
    export_scenario,
    scenario_to_coco,
)
from longshort.scenarios import bundled_scene, generate_scenario


def write(tmp_path, data, name="ann.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


MINIMAL = {
    "images": [{"id": 1, "width": 100, "height": 80}],
    "annotations": [{"id": 0, "image_id": 1, "category_id": 3, "bbox": [0, 0, 10, 10]}],
    "categories": [{"id": 3, "name": "car"}],
}


def test_minimal_file_converts_to_corner_boxes(tmp_path):
    ds = load_coco_annotations(write(tmp_path, MINIMAL))
    assert [len(gts) for gts in ds.gts_by_frame] == [1]  # one table per image
    (box,) = ds.gts_by_frame[0]
    assert box.boxes == (0.0, 0.0, 10.0, 10.0)
    assert box.category == 3
    assert box.frame == 0
    assert ds.frame_interval_ms is None


def test_empty_annotations_is_not_an_error(tmp_path):
    data = {"images": [{"id": 5, "width": 10, "height": 10}], "annotations": []}
    ds = load_coco_annotations(write(tmp_path, data))
    assert [len(gts) for gts in ds.gts_by_frame] == [0]


def test_images_are_ordered_by_id(tmp_path):
    data = {
        "images": [
            {"id": 30, "width": 10, "height": 10},
            {"id": 10, "width": 10, "height": 10},
            {"id": 20, "width": 10, "height": 10},
        ],
        "annotations": [
            {"id": 0, "image_id": 30, "category_id": 7, "bbox": [1, 1, 2, 2]},
            {"id": 1, "image_id": 10, "category_id": 5, "bbox": [1, 1, 2, 2]},
        ],
    }
    ds = load_coco_annotations(write(tmp_path, data))
    # ids 10, 20 and 30 are frames 0, 1 and 2
    assert [gts.category.tolist() for gts in ds.gts_by_frame] == [[5], [], [7]]
    assert [gts.frame.tolist() for gts in ds.gts_by_frame] == [[0], [], [2]]


def test_unknown_fields_are_ignored(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["images"][0]["sensor"] = "ring_front_center"
    data["annotations"][0]["velocity"] = [1.0, 2.0]
    data["extra_table"] = {"foo": 1}
    ds = load_coco_annotations(write(tmp_path, data))
    assert len(ds.gts_by_frame[0]) == 1


def test_parse_errors_carry_context(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="line"):
        load_coco_annotations(bad)
    # every message starts with the file, so a sweep over datasets says
    # which one is at fault
    from_file = re.escape(str(tmp_path / "ann.json")) + ": "
    with pytest.raises(ParseError, match=f"^{from_file}missing field 'images'"):
        load_coco_annotations(write(tmp_path, {"annotations": []}))
    image = {"id": 1, "width": 5, "height": 5}
    good = {"image_id": 1, "category_id": 0, "bbox": [0, 0, 1, 1]}
    for i in range(3):
        def load(bad):
            # i good annotations with exact corners, then the bad one twice:
            # the error names the first, counted over the whole file
            anns = [dict(good, id=j, bbox_corners=[0, 0, 1, 1]) for j in range(i)] + [dict(bad, id=i), dict(bad, id=9)]
            return load_coco_annotations(write(tmp_path, {"images": [image], "annotations": anns}))

        for cls, bad, message in [
            (ParseError, {}, rf"missing field 'image_id' in annotations\[{i}\]"),
            (ParseError, {"image_id": 1, "category_id": 0}, rf"missing field 'bbox' in annotations\[{i}\]"),
            (ParseError, dict(good, image_id=9), rf"annotations\[{i}\]: unknown image_id 9"),
            (ParseError, dict(good, bbox=[0, 0, -4, 1]), rf"annotations\[{i}\]: degenerate box"),
            (ParseError, dict(good, bbox_corners=[0, 2, 1, 1]), rf"annotations\[{i}\]: degenerate box"),
            (ParseError, dict(good, bbox=[0, 0, 1]), rf"annotations\[{i}\]: a box takes 4 finite numbers"),
            (ParseError, dict(good, bbox_corners=[0, None, 1, 1]), rf"annotations\[{i}\]: a box takes 4 finite numbers"),
        ]:
            with pytest.raises(cls, match=f"^{from_file}{message}"):
                load(bad)


BAD_BOXES = {
    "string": "abcd", "strings": ["1", "2", "3", "4"], "bool": [True, 0, 10, 10], "nested-list": [0, 0, 1, [4]],
    "object": {"a": 1, "b": 2, "c": 3, "d": 4}, "int-beyond-float": [10**400, 0, 1, 1],
    "nan": [0, 0, float("nan"), 1], "null": [0, None, 1, 1], "three-numbers": [0, 0, 1],
}


@pytest.mark.parametrize(
    "key, bad",
    [pytest.param(key, box, id=f"{key}-{name}") for key in ("bbox", "bbox_corners") for name, box in BAD_BOXES.items()]
    # x + w overflows to inf: only an (x, y, w, h) box sums
    + [pytest.param("bbox", [1e308, 0, 1e308, 10], id="bbox-x-plus-w-overflows")],
)
def test_a_box_that_is_not_4_finite_numbers_is_refused_naming_the_file_and_annotation(tmp_path, key, bad):
    # a string, a bool, a null, a list or an object is not a number, and no
    # warning leaks (filterwarnings = error turns one into a failure)
    image = {"id": 1, "width": 5, "height": 5}
    for i in range(3):
        # i good annotations, then the bad one twice: the error names the first
        anns = [{"id": j, "image_id": 1, "category_id": 0, "bbox": [0, 0, 1, 1]} for j in range(i)]
        anns += [{"id": j, "image_id": 1, "category_id": 0, key: bad} for j in (i, 9)]
        path = write(tmp_path, {"images": [image], "annotations": anns})
        with pytest.raises(ParseError) as exc:
            load_coco_annotations(path)
        assert str(exc.value) == f"{path}: annotations[{i}]: a box takes 4 finite numbers, got {bad!r}"


@pytest.mark.parametrize("info", ["x", 5, None, [1]], ids=repr)
def test_an_info_that_is_not_an_object_is_refused(tmp_path, info):
    path = write(tmp_path, dict(MINIMAL, info=info))
    with pytest.raises(ParseError) as exc:
        load_coco_annotations(path)
    assert str(exc.value) == f"{path}: info must be an object, got {info!r}"


def test_a_top_level_that_is_not_an_object_is_refused(tmp_path):
    path = write(tmp_path, [MINIMAL])
    with pytest.raises(ParseError) as exc:
        load_coco_annotations(path)
    assert str(exc.value) == f"{path}: top level must be an object"


def test_duplicate_image_ids_are_refused(tmp_path):
    data = dict(MINIMAL, images=[{"id": 1, "width": 100, "height": 80}, {"id": 1.0, "width": 50, "height": 40}])
    path = write(tmp_path, data)
    with pytest.raises(ParseError) as exc:
        load_coco_annotations(path)
    assert str(exc.value) == f"{path}: duplicate image ids"


@pytest.mark.parametrize("name", ["uniform", "accelerating", "mixed"])
def test_scene_round_trips_exactly(tmp_path, name):
    scene = bundled_scene(name)
    scenario = generate_scenario(scene)
    path = tmp_path / f"{name}.json"
    export_scenario(scenario, scene, path)
    ds = load_coco_annotations(path)
    assert len(ds.gts_by_frame) == len(scenario)
    assert ds.frame_interval_ms == scene.frame_interval_ms
    for (frame, gts), loaded in zip(scenario, ds.gts_by_frame):
        assert len(gts) == len(loaded)
        for orig, back in zip(gts, loaded):
            assert back.boxes == orig.boxes  # exact
            assert back.category == orig.category
            assert back.track_id == orig.track_id
            assert back.frame == orig.frame


def test_export_includes_both_box_encodings():
    scene = bundled_scene("uniform")
    data = scenario_to_coco(generate_scenario(scene), scene)
    ann = data["annotations"][0]
    x, y, w, h = ann["bbox"]
    x0, y0, x1, y1 = ann["bbox_corners"]
    assert (x, y) == (x0, y0)
    assert w == pytest.approx(x1 - x0)
    assert h == pytest.approx(y1 - y0)
    assert ann["iscrowd"] == 0
    assert {c["id"] for c in data["categories"]} == {0, 1, 2}


def test_xywh_only_files_still_load(tmp_path):
    # strip the corner extension: the standard encoding must be sufficient
    scene = bundled_scene("uniform")
    data = scenario_to_coco(generate_scenario(scene), scene)
    for ann in data["annotations"]:
        del ann["bbox_corners"]
    ds = load_coco_annotations(write(tmp_path, data))
    gts = generate_scenario(scene)[0][1]
    for orig, back in zip(gts, ds.gts_by_frame[0]):
        assert back.boxes[0] == orig.boxes[0]
        assert back.boxes[2] == pytest.approx(orig.boxes[2], abs=1e-9)


@pytest.mark.parametrize("bad", ["a", None, True, 0.5, 1.5, float("inf")], ids=repr)
@pytest.mark.parametrize(
    "table, index, key",
    [
        ("images", 0, "id"),
        ("images", 1, "width"),
        ("images", 1, "height"),
        ("categories", 1, "id"),
        ("annotations", 1, "image_id"),
        ("annotations", 1, "category_id"),
        ("annotations", 1, "track_id"),
        ("annotations", 1, "id"),
    ],
)
def test_ids_and_sizes_must_be_whole_numbers(tmp_path, table, index, key, bad):
    # a string, a null, a bool or a fractional value is rejected naming the
    # entry and key; none is cast, truncated or read as 1
    data = {
        "images": [{"id": 1, "width": 100, "height": 80}, {"id": 2, "width": 100, "height": 80}],
        "annotations": [
            {"id": j, "track_id": j, "image_id": 1, "category_id": 3, "bbox": [0, 0, 10, 10]} for j in range(3)
        ],
        "categories": [{"id": 3, "name": "car"}, {"id": 4, "name": "bus"}],
    }
    data[table][index][key] = bad
    message = f"{table}[{index}].{key} must be a 64-bit whole number, got {bad!r}"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_coco_annotations(write(tmp_path, data))


@pytest.mark.parametrize("key, bad", [("width", 0), ("width", -5), ("height", 0), ("height", -1.0)])
def test_an_image_size_below_1_is_refused_naming_the_entry_and_key(tmp_path, key, bad):
    data = json.loads(json.dumps(MINIMAL))
    data["images"].append({"id": 2, "width": 100, "height": 80})
    data["images"][1][key] = bad
    path = write(tmp_path, data)
    with pytest.raises(ParseError, match=re.escape(f"{path}: images[1].{key} must be >= 1, got {int(bad)}")):
        load_coco_annotations(path)


def test_whole_float_ids_load_as_integers(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data["images"][0].update(id=1.0, width=100.0)
    data["annotations"][0].update(image_id=1.0, category_id=3.0, track_id=7.0)
    data["categories"][0]["id"] = 3.0
    ds = load_coco_annotations(write(tmp_path, data))
    assert [len(gts) for gts in ds.gts_by_frame] == [1]  # image_id 1.0 is image 1
    (box,) = ds.gts_by_frame[0]
    assert (box.category, box.track_id, box.frame) == (3, 7, 0)


def test_an_annotation_without_track_id_is_tracked_by_its_id_or_index(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    ann = data["annotations"][0]
    data["annotations"] = [dict(ann, id=5, track_id=9), dict(ann, id=6), {k: v for k, v in ann.items() if k != "id"}]
    ds = load_coco_annotations(write(tmp_path, data))
    assert [g.track_id for g in ds.gts_by_frame[0]] == [9, 6, 2]


@pytest.mark.parametrize("table", ["images", "annotations", "categories"])
@pytest.mark.parametrize("entry", [5, "x", None, [1, 2]], ids=repr)
def test_a_non_object_entry_is_rejected_naming_it(tmp_path, table, entry):
    data = json.loads(json.dumps(MINIMAL))
    data[table].append(entry)
    with pytest.raises(ParseError, match=re.escape(f"{table}[1] must be an object, got {entry!r}")):
        load_coco_annotations(write(tmp_path, data))


@pytest.mark.parametrize("table", ["images", "annotations", "categories"])
def test_a_table_that_is_not_a_list_is_rejected(tmp_path, table):
    data = dict(MINIMAL, **{table: {"0": {}}})
    with pytest.raises(ParseError, match=re.escape(f"{table} must be a list")):
        load_coco_annotations(write(tmp_path, data))


@pytest.mark.parametrize("name", ["uniform", "accelerating", "mixed"])
def test_export_streams_the_bytes_of_one_indented_dump(tmp_path, name):
    scene = bundled_scene(name)
    scenario = generate_scenario(scene)
    path = tmp_path / f"{name}.json"
    export_scenario(scenario, scene, path)
    assert path.read_bytes() == (json.dumps(scenario_to_coco(scenario, scene), indent=2) + "\n").encode()
