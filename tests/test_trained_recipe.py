"""The trained system end to end, through the CLI: synthesize scenes,
prepare a dataset, train a small network and evaluate it on held-out
scenes. It takes about 45 s on 2 CPUs."""

import contextlib
import io
import json

import pytest

from pointpose import cli

SCENES = ["--set", "synth.noise_sigma_mm=0.5", "--set", "synth.occluder_probability=0.3"]
# the small RGB network: encoder (64, 64, 128, 256), classifier (128, 64, 1),
# segmenter hidden (128, 64)
SMALL_RGB = ["--set", "network.use_color=true", "--set", "network.encoder=[64,64,128,256]",
             "--set", "network.classifier=[128,64,1]",
             "--set", "network.segmenter_hidden=[128,64]", "--set", "training.epochs=8"]


def run_cli(*argv) -> dict:
    """cli.main on argv with a budget of 2 threads; its last stdout line
    as JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([*map(str, argv), "--threads", "2"]) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.slow
def test_trained_network_finds_the_pose_on_held_out_scenes(tmp_path):
    """4 training scenes (seed 1) make 440 examples; the small RGB network
    trained on them for 8 epochs finds the pose on at least 6 of 8
    held-out scenes (seed 2) of the same model. It found it on 7; the
    miss is a classifier false positive, whose top anchors all lie far
    from the object."""
    train_dir, held_out = tmp_path / "train", tmp_path / "held_out"
    model = train_dir / "model"
    run_cli("synth", "--out", train_dir, "--count", 4, "--seed", 1, *SCENES)
    run_cli("synth", "--out", held_out, "--count", 8, "--seed", 2, "--model", model, *SCENES)
    assert run_cli("prepare", "--scenes", train_dir, "--model", model,
                   "--out", tmp_path / "d.bin")["examples"] == 440
    run_cli("train", "--dataset", tmp_path / "d.bin", "--model", model,
            "--out", tmp_path / "w.bin", *SMALL_RGB)
    summary = run_cli("eval", "--scenes", held_out, "--model", model,
                      "--weights", tmp_path / "w.bin", "--out-csv", tmp_path / "eval.csv",
                      "--out-json", tmp_path / "eval.json")
    assert summary["scenes"] == 8
    assert summary["successes"] >= 6, (tmp_path / "eval.csv").read_text()
