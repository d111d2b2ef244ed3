import math

import pytest

from longshort.boxes import BBox
from longshort.scenarios import (
    DegenerateTrajectory,
    SceneDescriptor,
    SyntheticScene,
    TrajectoryKind,
    TrajectorySpec,
    bundled_scene,
    bundled_scene_names,
    generate_scenario,
    scene_from_dict,
)


def one_track_scene(traj, n_frames=8, width=200, height=100):
    return SyntheticScene(
        n_frames=n_frames, frame_interval_ms=33.33, width=width, height=height, trajectories=(traj,)
    )


def test_uniform_linear_motion():
    traj = TrajectorySpec(TrajectoryKind.UNIFORM, BBox(0, 0, 10, 10), velocity=(5.0, 0.0))
    scenario = generate_scenario(one_track_scene(traj))
    box_k2 = scenario[2][1][0].bbox
    assert box_k2.as_tuple() == (10.0, 0.0, 20.0, 10.0)


def test_accelerating_quadratic_offset():
    traj = TrajectorySpec(
        TrajectoryKind.ACCELERATING, BBox(0, 0, 10, 10), velocity=(0.0, 0.0), acceleration=(2.0, 0.0)
    )
    scenario = generate_scenario(one_track_scene(traj, width=400))
    box_k3 = scenario[3][1][0].bbox
    assert box_k3.x_min == 0.5 * 2.0 * 9  # 9 px offset at k=3
    assert box_k3.as_tuple() == (9.0, 0.0, 19.0, 10.0)


def test_turning_rotates_the_displacement_about_the_start():
    traj = TrajectorySpec(
        TrajectoryKind.TURNING, BBox(50, 50, 60, 60), velocity=(1.0, 0.0), turn_rate=math.pi / 2
    )
    b1 = traj.box_at(1)
    # displacement (1, 0) rotated by pi/2 becomes (0, 1): pure downward motion
    assert b1.center[0] == pytest.approx(55.0, abs=1e-12)
    assert b1.center[1] == pytest.approx(56.0, abs=1e-12)
    assert b1.width == pytest.approx(10.0)
    assert b1.height == pytest.approx(10.0)


def test_occlusion_window_removes_boxes():
    traj = TrajectorySpec(
        TrajectoryKind.OCCLUDED, BBox(0, 0, 10, 10), velocity=(1.0, 0.0), occlusion_window=(3, 5)
    )
    scenario = generate_scenario(one_track_scene(traj))
    for k, (_, gts) in enumerate(scenario):
        assert (len(gts) == 0) == (3 <= k <= 5), f"frame {k}"


def test_clipping_and_degenerate_trajectory():
    # starts at the right edge and exits after a few frames
    traj = TrajectorySpec(TrajectoryKind.UNIFORM, BBox(190, 0, 210, 10), velocity=(20.0, 0.0))
    scenario = generate_scenario(one_track_scene(traj, n_frames=4))
    assert scenario[0][1][0].bbox.as_tuple() == (190.0, 0.0, 200.0, 10.0)  # clipped
    assert scenario[1][1] == []  # fully outside
    never_inside = TrajectorySpec(TrajectoryKind.UNIFORM, BBox(500, 0, 510, 10), velocity=(1.0, 0.0))
    with pytest.raises(DegenerateTrajectory):
        generate_scenario(one_track_scene(never_inside, n_frames=3))


def test_small_object_stays_small():
    with pytest.raises(ValueError):
        TrajectorySpec(TrajectoryKind.SMALL_OBJECT, BBox(0, 0, 40, 40), velocity=(1.0, 0.0))
    traj = TrajectorySpec(TrajectoryKind.SMALL_OBJECT, BBox(0, 0, 12, 12), velocity=(1.0, 0.0))
    scenario = generate_scenario(one_track_scene(traj))
    for _, gts in scenario:
        for g in gts:
            assert g.area < 32.0**2


def test_kind_specific_parameter_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(TrajectoryKind.ACCELERATING, BBox(0, 0, 5, 5))
    with pytest.raises(ValueError):
        TrajectorySpec(TrajectoryKind.TURNING, BBox(0, 0, 5, 5))
    with pytest.raises(ValueError):
        TrajectorySpec(TrajectoryKind.OCCLUDED, BBox(0, 0, 5, 5))


def test_generation_is_deterministic():
    scene = bundled_scene("mixed")
    a, b = generate_scenario(scene), generate_scenario(scene)
    for (fa, ga), (fb, gb) in zip(a, b):
        assert fa.timestamp_ms == fb.timestamp_ms
        assert [g.bbox.as_tuple() for g in ga] == [g.bbox.as_tuple() for g in gb]


def test_frame_timestamps_strictly_increase():
    scenario = generate_scenario(bundled_scene("uniform"))
    times = [f.timestamp_ms for f, _ in scenario]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_ground_truth_area_matches_box_area():
    for _, gts in generate_scenario(bundled_scene("mixed")):
        for g in gts:
            assert g.area == g.bbox.area


def test_scene_dict_round_trip():
    data = {
        "n_frames": 12,
        "frame_interval_ms": 50.0,
        "width": 320,
        "height": 240,
        "seed": 4,
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
        initial_bbox=BBox(10.0, 20.0, 50.0, 60.0),
        velocity=(2.0, -1.0),
        acceleration=(0.5, 0.25),
        turn_rate=0.1,
        occlusion_window=(3, 5),
        category=2,
        track_id=9,
    )
    assert scene_from_dict(data) == SyntheticScene(12, 50.0, 320, 240, (traj,), seed=4)


def test_bundled_scenes_all_generate():
    names = bundled_scene_names()
    assert {"uniform", "accelerating", "mixed"} <= set(names)
    for name in names:
        scenario = generate_scenario(bundled_scene(name))
        assert len(scenario) >= 2


def test_descriptor_rasterizes_boxes_as_ones():
    desc = SceneDescriptor(20, 10, (BBox(2, 3, 6, 8),))
    img = desc.rasterize()
    assert img.shape == (10, 20)
    assert img[3:8, 2:6].min() == 1.0
    assert img.sum() == 4 * 5


def test_scene_needs_two_frames():
    traj = TrajectorySpec(TrajectoryKind.UNIFORM, BBox(0, 0, 5, 5))
    with pytest.raises(ValueError):
        SyntheticScene(1, 33.33, 100, 100, (traj,))
