"""The bundled configs and the two README sweeps give the bytes they gave
when these sha256 digests were recorded.

A change that claims byte-identical outputs (a faster kernel, a refactor)
must leave every digest here as it is.  A change that means to alter an
output re-records the digest and says which number moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from longshort.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

EVAL_DIGESTS = {
    "accelerating_long_short": {
        "report.txt": "31364efcbea2fe27fdc7a8228bac6fa16163b5db0afb250ec14e1f5b8d48d617",
        "records.jsonl": "8f1d3fcc71616fd45e28786e4fac8a02cef214c48716f2f704398ec59546069c",
        "report.csv": "b1789e920c23b20ce0555a0337b35e36946e5c9a0c829671b3c4e6b8d8fd3c7b",
        "report_table.txt": "3cef0c302a24eeaabda1b25d11714e38fad6f4600fc2acbb3c97e91c224209d5",
    },
    "custom_scene_example": {
        "report.txt": "aff6513e445f9574403ba79a723f66ef101c33d4f62bf34472790f23c1133186",
        "records.jsonl": "7134da7e1cde630b8865c0e8f2ef9febced8eae92de7afcdf96f4394726aeac8",
        "report.csv": "ac364e6f67bd34a9b76f5e6d12a6cc95e3a9731f799a486282b733de0ec72412",
        "report_table.txt": "a86254a190439a09f894e9c6b61398e4a80b758f00367561e5344247990b147b",
    },
    "mixed_pyramid": {
        "report.txt": "bcb8988105deae8e5f6354bfeee21229d78761c5fd3c99007344f7bba134fcdc",
        "records.jsonl": "cb243a75f9467187506bb03358a10a89e3bb19ca7abebf1cb0cadcd48eaca043",
        "report.csv": "b68b3aa92eb91c37b692d7da2f7f32733257e1b9382489a4702f6e7670e662d8",
        "report_table.txt": "193e23fadc94625c43abde691e8ae8eccdccf935d8833b972086e4f814c09fa7",
    },
    "uniform_delayed_gt": {
        "report.txt": "3073001f5378a5799dea0f043b87783f6316ba8d6b27b7e0faffe277a7b6c417",
        "records.jsonl": "4c05649ae4efad07f7b699987be2a827a30a00654e2946ccc1228dd68a0073a4",
        "report.csv": "915ff5136f1ec89969fbf82b7e32711f5fc2372ccd1119bf40274d4bc04edf7e",
        "report_table.txt": "313e9aad4bab8cc39f1b9e0be81b442a14bbb37fc8e962bc3a26d7a6e612dba7",
    },
}

# (config, sweep axis) -> digest of the sweep's CSV
SWEEP_DIGESTS = {
    ("mixed_pyramid", "fusion-variant"): "abaf91ec7ca172c51e79be33a133d5d447aac9f64b7b192951bb7c4fab5aecb1",
    ("accelerating_long_short", "temporal-range"): "0e174284d0bf77fd25fcb306dbfd681b8777f4ddc303d900bb5c0c62f88bbeca",
}

# `sweep --axis fusion-variant --values WEIGHTED_SWEEP_VALUES` over
# mixed_pyramid.json with weight_seed 5 and latency_ms 50.  Nonzero weights
# make each X / X* pair's rows differ in what the head reads, and the 50 ms
# latency skips every other frame.  Recorded before X and X* rows shared a
# network pass, so that each row here is still what it gives alone.
WEIGHTED_SWEEP_VALUES = ["LfDil*", "EfAvg", "LfDil", "EfDil", "EfDil*"]
WEIGHTED_SWEEP_DIGEST = "6bb452f409b568a95a88b6a8fc1739ec0199c1138dfcbea41b7066cc3ef88bb3"

# The same sweep with weight_seed 4 and these values, where each X / X* pair's
# rows score differently, so a row scored on the other row's tables changes
# the CSV.  The pairs come in both row orders.  Recorded before an X* row was
# scored on its X row's stream.
DIFFERING_SWEEP_VALUES = ["EfDil*", "LfAvg", "EfAvg", "EfDil", "LfAvg*"]
DIFFERING_SWEEP_DIGEST = "ce52dc344bb67c1d8328033a9d6f465c012357013b5dd009b7b5ac3539dc3dac"

# `eval --config mixed_pyramid.json --variant EfAvg --latency-ms 50`: a 50 ms
# latency on 33.33 ms frames dispatches every other frame, so the network's
# history lookups meet skipped frame indices and pads.  EfAvg runs no matrix
# product, so these bytes do not depend on the BLAS build.
SKIPPED_FRAME_DIGESTS = {
    "report.txt": "d159cd25a14e0aa2485bc19d4d6407e9328d7506c572df493e931b46bba2f232",
    "records.jsonl": "224a02bfba21024754ab69f110c9b1cf291308303d006719e091a42d07a41138",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_bundled_config_is_pinned():
    assert sorted(EVAL_DIGESTS) == sorted(p.stem for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(EVAL_DIGESTS))
def test_bundled_config_outputs_match_their_digests(name, tmp_path, capsys):
    assert main(["eval", "--config", str(CONFIGS / f"{name}.json"), "--output", str(tmp_path)]) == 0
    assert {f: sha256(tmp_path / f) for f in EVAL_DIGESTS[name]} == EVAL_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EVAL_DIGESTS))
def test_score_of_a_bundled_configs_records_gives_its_report_files(name, tmp_path, capsys):
    config = str(CONFIGS / f"{name}.json")
    assert main(["eval", "--config", config, "--output", str(tmp_path / "eval")]) == 0
    records = str(tmp_path / "eval" / "records.jsonl")
    assert main(["score", "--config", config, "--records", records, "--output", str(tmp_path / "score")]) == 0
    scored = {f: sha256(tmp_path / "score" / f) for f in ("report.txt", "report.csv", "report_table.txt")}
    assert scored == {f: EVAL_DIGESTS[name][f] for f in scored}


@pytest.mark.parametrize("name, axis", sorted(SWEEP_DIGESTS))
def test_readme_sweep_csvs_match_their_digests(name, axis, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(CONFIGS / f"{name}.json"), "--axis", axis, "--output", str(out)]) == 0
    assert sha256(out) == SWEEP_DIGESTS[(name, axis)]


def test_a_weighted_pyramid_sweep_that_skips_frames_matches_its_digest(tmp_path, capsys):
    config = json.loads((CONFIGS / "mixed_pyramid.json").read_text())
    config["detector"]["weight_seed"] = 5
    config["stream"]["latency_ms"] = 50.0
    path, out = tmp_path / "weighted.json", tmp_path / "sweep.csv"
    path.write_text(json.dumps(config))
    args = ["--axis", "fusion-variant", "--values", json.dumps(WEIGHTED_SWEEP_VALUES), "--output", str(out)]
    assert main(["sweep", "--config", str(path), *args]) == 0
    assert sha256(out) == WEIGHTED_SWEEP_DIGEST


def test_a_pyramid_eval_that_skips_frames_matches_its_digests(tmp_path, capsys):
    args = ["eval", "--config", str(CONFIGS / "mixed_pyramid.json"), "--variant", "EfAvg", "--latency-ms", "50"]
    assert main([*args, "--output", str(tmp_path)]) == 0
    assert {f: sha256(tmp_path / f) for f in SKIPPED_FRAME_DIGESTS} == SKIPPED_FRAME_DIGESTS


def test_a_weighted_sweep_whose_pairs_score_apart_matches_its_digest(tmp_path, capsys):
    config = json.loads((CONFIGS / "mixed_pyramid.json").read_text())
    config["detector"]["weight_seed"] = 4
    config["stream"]["latency_ms"] = 50.0
    path, out = tmp_path / "weighted.json", tmp_path / "sweep.csv"
    path.write_text(json.dumps(config))
    args = ["--axis", "fusion-variant", "--values", json.dumps(DIFFERING_SWEEP_VALUES), "--output", str(out)]
    assert main(["sweep", "--config", str(path), *args]) == 0
    assert sha256(out) == DIFFERING_SWEEP_DIGEST
    sap = dict(line.split(",")[:2] for line in out.read_text().splitlines()[1:])
    for variant in ("EfDil", "LfAvg"):
        assert sap[variant] != sap[variant + "*"], variant
