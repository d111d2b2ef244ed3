import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from longshort.fusion import InvalidConfig
from longshort.scenarios import (
    SceneDescriptor,
    SyntheticScene,
    TrajectoryKind,
    TrajectorySpec,
    bundled_scene,
    bundled_scene_names,
    generate_scenario,
    scene_from_dict,
)
from oracles import objects, reference_scene_ground_truth


def one_track_scene(traj, n_frames=8, width=200, height=100):
    return SyntheticScene(
        n_frames=n_frames, frame_interval_ms=33.33, width=width, height=height, trajectories=(traj,)
    )


def test_uniform_linear_motion():
    traj = TrajectorySpec(TrajectoryKind.UNIFORM, (0, 0, 10, 10), velocity=(5.0, 0.0))
    scenario = generate_scenario(one_track_scene(traj))
    assert scenario[2][1].boxes.tolist() == [[10.0, 0.0, 20.0, 10.0]]


def test_accelerating_quadratic_offset():
    traj = TrajectorySpec(
        TrajectoryKind.ACCELERATING, (0, 0, 10, 10), velocity=(0.0, 0.0), acceleration=(2.0, 0.0)
    )
    scenario = generate_scenario(one_track_scene(traj, width=400))
    (box_k3,) = scenario[3][1].boxes.tolist()
    assert box_k3[0] == 0.5 * 2.0 * 9  # 9 px offset at k=3
    assert box_k3 == [9.0, 0.0, 19.0, 10.0]


def test_turning_rotates_the_displacement_about_the_start():
    traj = TrajectorySpec(
        TrajectoryKind.TURNING, (50, 50, 60, 60), velocity=(1.0, 0.0), turn_rate=math.pi / 2
    )
    x_min, y_min, x_max, y_max = traj.corners(2)[1]
    # displacement (1, 0) rotated by pi/2 becomes (0, 1): pure downward motion
    assert (x_min + x_max) / 2 == pytest.approx(55.0, abs=1e-12)
    assert (y_min + y_max) / 2 == pytest.approx(56.0, abs=1e-12)
    assert x_max - x_min == pytest.approx(10.0)
    assert y_max - y_min == pytest.approx(10.0)


def test_occlusion_window_removes_boxes():
    traj = TrajectorySpec(
        TrajectoryKind.OCCLUDED, (0, 0, 10, 10), velocity=(1.0, 0.0), occlusion_window=(3, 5)
    )
    scenario = generate_scenario(one_track_scene(traj))
    for k, (_, gts) in enumerate(scenario):
        assert (len(gts) == 0) == (3 <= k <= 5), f"frame {k}"


def test_clipping_and_degenerate_trajectory():
    # starts at the right edge and exits after a few frames
    traj = TrajectorySpec(TrajectoryKind.UNIFORM, (190, 0, 210, 10), velocity=(20.0, 0.0))
    scenario = generate_scenario(one_track_scene(traj, n_frames=4))
    assert scenario[0][1].boxes.tolist() == [[190.0, 0.0, 200.0, 10.0]]  # clipped
    assert len(scenario[1][1]) == 0  # fully outside
    never_inside = TrajectorySpec(TrajectoryKind.UNIFORM, (500, 0, 510, 10), velocity=(1.0, 0.0))
    with pytest.raises(InvalidConfig, match="trajectory 0 never appears"):
        one_track_scene(never_inside, n_frames=3)


def test_small_object_stays_small():
    with pytest.raises(ValueError):
        TrajectorySpec(TrajectoryKind.SMALL_OBJECT, (0, 0, 40, 40), velocity=(1.0, 0.0))
    traj = TrajectorySpec(TrajectoryKind.SMALL_OBJECT, (0, 0, 12, 12), velocity=(1.0, 0.0))
    scenario = generate_scenario(one_track_scene(traj))
    for _, gts in scenario:
        assert (gts.area < 32.0**2).all()


def test_kind_specific_parameter_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(TrajectoryKind.ACCELERATING, (0, 0, 5, 5))
    with pytest.raises(ValueError):
        TrajectorySpec(TrajectoryKind.TURNING, (0, 0, 5, 5))
    with pytest.raises(ValueError):
        TrajectorySpec(TrajectoryKind.OCCLUDED, (0, 0, 5, 5))


def test_generation_is_deterministic():
    scene = bundled_scene("mixed")
    a, b = generate_scenario(scene), generate_scenario(scene)
    for (fa, ga), (fb, gb) in zip(a, b):
        assert fa.timestamp_ms == fb.timestamp_ms
        assert ga.boxes.tolist() == gb.boxes.tolist()


def test_frame_timestamps_strictly_increase():
    scenario = generate_scenario(bundled_scene("uniform"))
    times = [f.timestamp_ms for f, _ in scenario]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_ground_truth_area_matches_box_area():
    for _, gts in generate_scenario(bundled_scene("mixed")):
        for g in objects(gts):
            assert g.area == g.bbox.area


def test_scene_dict_round_trip():
    data = {
        "n_frames": 12,
        "frame_interval_ms": 50.0,
        "width": 320,
        "height": 240,
        "trajectories": [
            {
                "kind": "occluded",
                "initial_bbox": [10.0, 20.0, 50.0, 60.0],
                "velocity": [2.0, -1.0],
                "acceleration": [0.5, 0.25],
                "turn_rate": 0.1,
                "occlusion_window": [3, 5],
                "category": 2,
                "track_id": 9,
            }
        ],
    }
    traj = TrajectorySpec(
        kind=TrajectoryKind.OCCLUDED,
        initial_bbox=(10.0, 20.0, 50.0, 60.0),
        velocity=(2.0, -1.0),
        acceleration=(0.5, 0.25),
        turn_rate=0.1,
        occlusion_window=(3, 5),
        category=2,
        track_id=9,
    )
    assert scene_from_dict(data) == SyntheticScene(12, 50.0, 320, 240, (traj,))


@pytest.mark.parametrize("kind", ["uniform", "small_object"])
@pytest.mark.parametrize("box", [(10, 20, 30, 40), [10.0, 20.0, 30.0, 40.0]], ids=["tuple", "list"])
def test_a_start_box_given_in_code_builds_the_scene_of_its_dict(kind, box):
    data = {"n_frames": 6, "width": 100, "height": 80, "trajectories": [
        {"kind": kind, "initial_bbox": [10, 20, 30, 40], "velocity": [2, 1]}]}
    traj = TrajectorySpec(TrajectoryKind(kind), box, velocity=(2.0, 1.0))
    assert traj.initial_bbox == (10.0, 20.0, 30.0, 40.0) and set(map(type, traj.initial_bbox)) == {float}
    scene, want = SyntheticScene(6, 33.33, 100, 80, (traj,)), scene_from_dict(data)
    assert scene == want and scene.ground_truth == want.ground_truth


def test_bundled_scenes_all_generate():
    names = bundled_scene_names()
    assert {"uniform", "accelerating", "mixed"} <= set(names)
    for name in names:
        scenario = generate_scenario(bundled_scene(name))
        assert len(scenario) >= 2


def test_descriptor_rasterizes_boxes_as_ones():
    desc = SceneDescriptor(20, 10, np.array([[2.0, 3.0, 6.0, 8.0]]))
    img = desc.rasterize()
    assert img.shape == (10, 20)
    assert img[3:8, 2:6].min() == 1.0
    assert img.sum() == 4 * 5


def test_scene_needs_two_frames():
    traj = TrajectorySpec(TrajectoryKind.UNIFORM, (0, 0, 5, 5))
    with pytest.raises(ValueError):
        SyntheticScene(1, 33.33, 100, 100, (traj,))


@pytest.mark.parametrize("width, height, message", [(0, 8, "scene width 0: must be >= 1"),
                                                    (8, -3, "scene height -3: must be >= 1")])
def test_a_scene_built_directly_checks_its_size(width, height, message):
    with pytest.raises(InvalidConfig, match=f"^{message}$"):
        SyntheticScene(8, 33.33, width, height, ())


def random_scene_dict(rng):
    n_frames = int(rng.integers(2, 30))
    width, height = int(rng.integers(16, 200)), int(rng.integers(16, 200))
    reach = 2.0 * max(width, height) / n_frames
    trajectories = []
    for _ in range(int(rng.integers(1, 6))):
        w, h = rng.uniform(3, 30, size=2)
        x, y = rng.uniform(-0.5 * width, width), rng.uniform(-0.5 * height, height)
        if rng.random() < 0.3:  # whole corners, so that clipped edges meet the image's exactly
            x, y, w, h = float(round(x)), float(round(y)), float(round(w)), float(round(h))
        turning = rng.random() < 0.5
        trajectories.append({
            "kind": "turning" if turning else "uniform", "initial_bbox": [x, y, x + w, y + h],
            "velocity": list(rng.uniform(-reach, reach, size=2)) if rng.random() < 0.9 else [-0.0, 0.0],
            "acceleration": list(rng.uniform(-reach, reach, size=2) / n_frames) if rng.random() < 0.5 else None,
            "turn_rate": float(rng.uniform(-3, 3)) if turning else None,
            "occlusion_window": [int(v) for v in rng.integers(-n_frames, n_frames, size=2)] if rng.random() < 0.5 else None,
            "category": int(rng.integers(0, 3)),
            "track_id": int(rng.integers(0, 9)) if rng.random() < 0.3 else None,
        })
    return {"n_frames": n_frames, "width": width, "height": height, "trajectories": trajectories}


def spec_of(traj: dict) -> TrajectorySpec:
    parse = {"kind": TrajectoryKind, "velocity": tuple, "acceleration": tuple,
             "occlusion_window": tuple}
    return TrajectorySpec(**{k: parse.get(k, lambda v: v)(v) for k, v in traj.items() if v is not None})


def test_scene_walk_matches_the_frame_by_frame_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    built = rejected = 0
    for trial in range(300):
        data = random_scene_dict(rng)
        try:
            scene = scene_from_dict(data)
        except InvalidConfig as exc:
            # the reference walk shows no box of the trajectory named, and some of each before it
            named = int(re.match(r"trajectory (\d+) never appears", str(exc))[1])
            for i, traj in enumerate(data["trajectories"][:named + 1]):
                alone = SimpleNamespace(**{**data, "trajectories": [spec_of(traj)]})
                assert any(reference_scene_ground_truth(alone)) == (i < named), trial
            rejected += 1
            continue
        want = reference_scene_ground_truth(scene)
        for (frame, gts), frame_want in zip(generate_scenario(scene), want):
            assert repr(objects(gts)) == repr(frame_want), trial  # repr keeps the sign of a zero, which == does not
            assert np.array_equal(frame.pixels.boxes, gts.boxes)
        built += 1
    assert built > 100 and rejected > 10, (built, rejected)
