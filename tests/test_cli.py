import ast
import math
import os
import re
import struct
import subprocess
import sys
import zlib
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import swinir.train as train_mod
from conftest import package_env
from swinir import cli
from swinir.checkpoint import save_checkpoint, serialize
from swinir.cli import main, parse_config_file
from swinir.degrade import procedural_texture
from swinir.imageio import ImageBuffer, load_image, save_image
from swinir.model import SwinIRConfig, init_params, param_count, tiny_config
from swinir.tensor import Tensor
from swinir.train import TrainConfig


def write_images(directory, n=3, size=24, seed=0, channels=1):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n):
        img = procedural_texture(seed + i, size, size, channels=channels)
        p = directory / f"img{i}.{'pgm' if channels == 1 else 'ppm'}"
        save_image(img, str(p))
        paths.append(p)
    return paths


def write_config(path, **overrides):
    base = dict(task="denoise", scale=1, in_channels=1, out_channels=1,
                channels=8, rstb_count=1, stl_per_rstb=1, window=4, heads=2,
                iterations=4, batch_size=2, patch_size=8, val_period=2,
                lr=1e-3, seed=7)
    base.update(overrides)
    path.write_text("# test config\n" +
                    "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


class TestParsing:
    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["degrade", "--help"], ["train", "--help"],
                     ["infer", "--help"], ["eval", "--help"],
                     ["gradcheck", "--help"], ["inspect", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["degrade", "--task", "denoise", "--sigma", "5",
                  "--in", "x", "--out", "y", "--frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_config_file_errors_name_key_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("channels = 8\nwibble = 3\n")
        rc = main(["train", "--config", str(cfg), "--data", "d", "--out", "o"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "wibble" in err and ":2" in err

    def test_config_file_bad_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("channels = eight\n")
        rc = main(["train", "--config", str(cfg), "--data", "d", "--out", "o"])
        assert rc == 2
        assert "channels" in capsys.readouterr().err

    def test_mlp_ratio_checkpoints_cannot_hold_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", channels=60, heads=6, mlp_ratio=1.4415)
        rc = main(["train", "--config", str(cfg), "--data", "d", "--out", "o"])
        assert rc == 2
        assert "mlp_ratio" in capsys.readouterr().err

    def test_window_zero_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", window=0)
        rc = main(["train", "--config", str(cfg), "--data", "d", "--out", "o"])
        assert rc == 2
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    @pytest.mark.parametrize("overrides", [
        dict(mlp_ratio=0), dict(channels=1, heads=1, mlp_ratio=0.5),
        dict(stl_per_rstb=0, window=0)])
    def test_config_that_cannot_run_usage_error(self, tmp_path, command, overrides,
                                                capsys):
        # each of these validated, then failed in the first forward with
        # exit 2 and a message that named no key
        cfg = write_config(tmp_path / "c.cfg", **overrides)
        write_images(tmp_path / "data", n=1)
        out = tmp_path / "run"
        argv = [command, "--config", str(cfg)]
        if command == "train":
            argv += ["--data", str(tmp_path / "data"), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"invalid configuration: {list(overrides)[-1]} " in err
        assert not out.exists()

    def test_help_lists_exactly_the_accepted_keys(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        listed = dict(re.findall(r"^    (\w+) \(default (.*)\)$",
                                 capsys.readouterr().out, re.M))
        assert listed.keys() == {*SwinIRConfig.__dataclass_fields__,
                                 *TrainConfig.__dataclass_fields__,
                                 "sigma", "quality"}
        defaults = {k: ast.literal_eval(v) for k, v in listed.items()}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in defaults.items()))
        values = parse_config_file(str(cfg))
        assert values == defaults
        assert [type(v) for v in values.values()] == [type(v) for v in defaults.values()]
        assert cli.build_configs(values) == (SwinIRConfig(), TrainConfig())

    @pytest.mark.parametrize("key", ["beta1", "beta2", "eps", "weight_decay",
                                     "lr_factor", "milestones"])
    def test_fixed_optimizer_settings_are_unknown_keys(self, tmp_path, key, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"channels = 8\n{key} = 0.5\n")
        rc = main(["train", "--config", str(cfg), "--data", "d", "--out", "o"])
        assert rc == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["infer", "--in", "x", "--out", "y"],
                                         ["eval", "--lq-dir", "x", "--hq-dir", "y"],
                                         ["inspect"]])
    def test_deterministic_commands_reject_seed(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command[0], "--ckpt", "m.ckpt", *command[1:], "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_config_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", mlp_ratio=1.4, head_style="direct")
        values = parse_config_file(str(cfg))
        assert values["channels"] == 8
        assert values["mlp_ratio"] == 1.4
        assert values["head_style"] == "direct"


    def test_degradation_strength_reaches_dataset(self, tmp_path, monkeypatch, capsys):
        write_images(tmp_path / "data", n=1)
        seen = {}

        def fake_train(model_cfg, train_cfg, dataset, val_pairs, **kwargs):
            seen["spec"] = dataset.spec
            return SimpleNamespace(diverged=False)

        monkeypatch.setattr(cli, "train", fake_train)
        for overrides, field, value in ((dict(sigma=50), "sigma", 50.0),
                                        (dict(task="car", quality=10), "quality", 10)):
            cfg = write_config(tmp_path / "c.cfg", **overrides)
            rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "run")])
            assert rc == 0
            assert getattr(seen["spec"], field) == value

    @pytest.mark.parametrize("overrides", [dict(sigma=-1),
                                           dict(task="car", quality=0),
                                           dict(task="car", quality=4.5)])
    def test_bad_degradation_strength_usage_error(self, tmp_path, overrides, capsys):
        write_images(tmp_path / "data", n=1)
        cfg = write_config(tmp_path / "c.cfg", **overrides)
        rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert ("sigma" if "sigma" in overrides else "quality") in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("lr", "nan"), ("lr", "inf"),
                                           ("sigma", "-inf"), ("mlp_ratio", "nan")])
    def test_non_finite_config_value_usage_error(self, tmp_path, key, value, capsys):
        cfg = write_config(tmp_path / "c.cfg", **{key: value})
        write_images(tmp_path / "data", n=1)
        rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                   "--out", str(tmp_path / "run"), "--iterations", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"bad value for {key}" in err and "finite" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    @pytest.mark.parametrize("overrides", [
        dict(mlp_ratio="1e308"),
        dict(head_channels=3000000000),
        dict(rstb_count=0, stl_per_rstb=3000000000),
        dict(channels=2, mlp_ratio=2200000)])
    def test_value_a_checkpoint_cannot_store_usage_error(self, tmp_path, command,
                                                         overrides, capsys):
        # the config block is int32; each of these trained until the first
        # save, or failed in validate, with a traceback and exit 1. The
        # last key set is the one out of range
        cfg = write_config(tmp_path / "c.cfg", **overrides)
        write_images(tmp_path / "data", n=1)
        out = tmp_path / "run"
        argv = [command, "--config", str(cfg)]
        if command == "train":
            argv += ["--data", str(tmp_path / "data"), "--out", str(out),
                     "--iterations", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{list(overrides)[-1]} " in err and "checkpoint" in err
        assert not out.exists()

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_train_config_refuses_non_finite_lr(self, lr):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(lr=lr)


class TestDegrade:
    def test_deterministic_bytes(self, tmp_path, capsys):
        [src] = write_images(tmp_path / "in", n=1, seed=4)
        outs = []
        for name in ("a.pgm", "b.pgm"):
            rc = main(["degrade", "--task", "denoise", "--sigma", "25",
                       "--seed", "7", "--in", str(src),
                       "--out", str(tmp_path / name)])
            assert rc == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
        assert "gaussian_noise" in capsys.readouterr().out

    def test_negative_sigma_usage_error(self, tmp_path, capsys):
        [src] = write_images(tmp_path / "in", n=1)
        rc = main(["degrade", "--task", "denoise", "--sigma", "-1",
                   "--seed", "1", "--in", str(src), "--out", str(tmp_path / "o.pgm")])
        assert rc == 2
        capsys.readouterr()

    def test_non_finite_sigma_usage_error(self, tmp_path, capsys):
        [src] = write_images(tmp_path / "in", n=1)
        rc = main(["degrade", "--task", "denoise", "--sigma", "nan",
                   "--seed", "1", "--in", str(src), "--out", str(tmp_path / "o.pgm")])
        assert rc == 2
        assert "sigma must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o.pgm").exists()

    def test_sr_scale_halves_size(self, tmp_path, capsys):
        img = ImageBuffer(np.zeros((64, 64, 1), dtype=np.float32))
        src = tmp_path / "big.pgm"
        save_image(img, str(src))
        rc = main(["degrade", "--task", "sr", "--scale", "2", "--seed", "1",
                   "--in", str(src), "--out", str(tmp_path / "small.pgm")])
        assert rc == 0
        out = load_image(str(tmp_path / "small.pgm"))
        assert (out.height, out.width) == (32, 32)
        capsys.readouterr()

    def test_image_below_scale_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "dot.pgm"
        save_image(ImageBuffer(np.zeros((1, 1), dtype=np.float32)), str(src))
        rc = main(["degrade", "--task", "sr", "--scale", "2", "--seed", "1",
                   "--in", str(src), "--out", str(tmp_path / "o.pgm")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(src) in err and "smaller than the downscale factor" in err
        assert not (tmp_path / "o.pgm").exists()

    def test_later_image_below_scale_writes_nothing(self, tmp_path, capsys):
        write_images(tmp_path / "in", n=2, size=8)
        save_image(ImageBuffer(np.zeros((1, 1), dtype=np.float32)),
                   str(tmp_path / "in" / "z.pgm"))
        rc = main(["degrade", "--task", "sr", "--scale", "2", "--seed", "1",
                   "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "z.pgm" in err and "smaller than the downscale factor" in err
        assert not (tmp_path / "out").exists()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        rc = main(["degrade", "--task", "car", "--quality", "10", "--seed", "1",
                   "--in", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "o.pgm")])
        assert rc == 3
        capsys.readouterr()

    def test_seed_omitted_prints_choice(self, tmp_path, capsys):
        [src] = write_images(tmp_path / "in", n=1)
        rc = main(["degrade", "--task", "denoise", "--sigma", "10",
                   "--in", str(src), "--out", str(tmp_path / "o.pgm")])
        assert rc == 0
        assert "seed " in capsys.readouterr().out


class TestTrainCommand:
    def test_smoke_run_writes_metrics(self, tmp_path, capsys):
        write_images(tmp_path / "data", n=3, size=24, seed=1)
        write_images(tmp_path / "val", n=1, size=24, seed=50)
        cfg = write_config(tmp_path / "c.cfg", iterations=4)
        rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                   "--val", str(tmp_path / "val"), "--out", str(tmp_path / "run")])
        assert rc == 0
        log = (tmp_path / "run" / "metrics.log").read_text()
        assert log.strip()
        assert (tmp_path / "run" / "last.ckpt").exists()
        capsys.readouterr()

    def test_zero_iterations_initial_checkpoint(self, tmp_path, capsys):
        write_images(tmp_path / "data", n=2)
        cfg = write_config(tmp_path / "c.cfg")
        rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                   "--out", str(tmp_path / "run"), "--iterations", "0"])
        assert rc == 0
        assert (tmp_path / "run" / "last.ckpt").exists()
        capsys.readouterr()

    def test_zero_val_period_usage_error(self, tmp_path, capsys):
        write_images(tmp_path / "data", n=1)
        cfg = write_config(tmp_path / "c.cfg", val_period=0)
        rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "val_period" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_fixed_seed_byte_reproducible(self, tmp_path, capsys):
        write_images(tmp_path / "data", n=2)
        cfg = write_config(tmp_path / "c.cfg", iterations=3, val_period=3)
        blobs = []
        for run in ("r1", "r2"):
            rc = main(["train", "--config", str(cfg), "--data",
                       str(tmp_path / "data"), "--out", str(tmp_path / run),
                       "--seed", "11"])
            assert rc == 0
            blobs.append((tmp_path / run / "last.ckpt").read_bytes())
        assert blobs[0] == blobs[1]
        capsys.readouterr()


class TestTrainImageChecks:
    """Training images the model cannot take are data errors (exit 3) that
    name the file, before step 0 and before anything is written."""

    def run(self, tmp_path, **overrides):
        cfg = write_config(tmp_path / "c.cfg", **overrides)
        return main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                     "--val", str(tmp_path / "val"), "--out", str(tmp_path / "run")])

    def test_val_image_of_wrong_channel_count(self, tmp_path, capsys):
        write_images(tmp_path / "data", n=2)
        write_images(tmp_path / "val", n=1, channels=3)
        assert self.run(tmp_path) == 3
        assert "img0.ppm" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_data_image_of_wrong_channel_count(self, tmp_path, capsys):
        write_images(tmp_path / "data", n=2)
        write_images(tmp_path / "data", n=1, channels=3)
        write_images(tmp_path / "val", n=1)
        assert self.run(tmp_path) == 3
        assert "img0.ppm" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_data_image_smaller_than_patch(self, tmp_path, capsys):
        # sr x2 with 8-pixel patches takes 16x16 crops of the HQ image
        write_images(tmp_path / "data", n=2, size=24)
        small = procedural_texture(9, 12, 12)
        save_image(small, str(tmp_path / "data" / "small.pgm"))
        write_images(tmp_path / "val", n=1)
        assert self.run(tmp_path, task="sr", scale=2, patch_size=8) == 3
        err = capsys.readouterr().err
        assert "small.pgm" in err and "12x12" in err
        assert not (tmp_path / "run").exists()


    def test_val_side_not_a_multiple_of_scale(self, tmp_path, capsys):
        # validation trims 25x25 to 24x24, the side the x2 model restores
        write_images(tmp_path / "data", n=2, size=24)
        write_images(tmp_path / "val", n=1, size=25)
        assert self.run(tmp_path, task="sr", scale=2, patch_size=8,
                        iterations=2, val_period=1) == 0
        log = (tmp_path / "run" / "metrics.log").read_text().splitlines()
        assert [line.split()[:2] for line in log] == [["step", "1"], ["step", "2"]]
        capsys.readouterr()

    def test_val_image_inside_psnr_border(self, tmp_path, capsys):
        # 5x9 trims to 4x8 at x2; a border of 2 leaves no row to score
        write_images(tmp_path / "data", n=2, size=24)
        (tmp_path / "val").mkdir()
        save_image(procedural_texture(9, 5, 9), str(tmp_path / "val" / "thin.pgm"))
        assert self.run(tmp_path, task="sr", scale=2, patch_size=8) == 3
        err = capsys.readouterr().err
        assert "thin.pgm" in err and "5x9" in err
        assert not (tmp_path / "run").exists()


class TestTrainResume:
    def train(self, tmp_path, out, *extra, **overrides):
        write_images(tmp_path / "data", n=2)
        cfg = write_config(tmp_path / "c.cfg", iterations=4, **overrides)
        return main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / out), *extra])

    def test_resume_from_last_ckpt(self, tmp_path, capsys):
        assert self.train(tmp_path, "run", "--iterations", "2") == 0
        assert self.train(tmp_path, "more", "--resume",
                          str(tmp_path / "run" / "last.ckpt")) == 0
        # the resumed run starts at step 2, so it validates only at step 4
        assert (tmp_path / "more" / "metrics.log").read_text().startswith("step 4 ")
        capsys.readouterr()

    @pytest.mark.parametrize("content", [None, b"not a checkpoint\n", "params"])
    def test_unusable_resume_file_is_data_error(self, tmp_path, capsys, content):
        path = tmp_path / "state.ckpt"
        if content == "params":
            save_checkpoint(init_params(tiny_config(), seed=0), str(path))
        elif content is not None:
            path.write_bytes(content)
        capsys.readouterr()
        assert self.train(tmp_path, "run", "--resume", str(path)) == 3
        assert str(path) in capsys.readouterr().err

    def test_resume_state_of_another_config_is_usage_error(self, tmp_path, capsys):
        assert self.train(tmp_path, "sr", "--iterations", "0", task="sr",
                          scale=2) == 0
        capsys.readouterr()
        rc = self.train(tmp_path, "denoise", "--resume",
                        str(tmp_path / "sr" / "last.ckpt"))
        assert rc == 2
        assert "config" in capsys.readouterr().err
        assert not (tmp_path / "denoise" / "last.ckpt").exists()


class TestUnreadableImages:
    """Images and manifests that cannot be read are data errors (exit 3)
    naming the file, in every command that reads them."""

    def test_manifest_naming_missing_image(self, tmp_path, capsys):
        manifest = tmp_path / "list.txt"
        manifest.write_text("missing.pgm\n")
        cfg = write_config(tmp_path / "c.cfg")
        rc = main(["train", "--config", str(cfg), "--data", str(manifest),
                   "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "missing.pgm" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--data", "--val"])
    def test_manifest_naming_no_image(self, tmp_path, flag, capsys):
        # an empty --data manifest exited 2 naming no file, and an empty
        # --val manifest trained, logged psnr nan and exited 0
        write_images(tmp_path / "images", n=2)
        manifest = tmp_path / "list.txt"
        manifest.write_text("# nothing listed\n\n")
        sources = {"--data": str(tmp_path / "images"), "--val": str(tmp_path / "images")}
        sources[flag] = str(manifest)
        cfg = write_config(tmp_path / "c.cfg")
        rc = main(["train", "--config", str(cfg), "--data", sources["--data"],
                   "--val", sources["--val"], "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "list.txt" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_manifest_not_utf8(self, tmp_path, capsys):
        manifest = tmp_path / "list.txt"
        manifest.write_bytes(b"\xff\xfe img.pgm\n")
        cfg = write_config(tmp_path / "c.cfg")
        rc = main(["train", "--config", str(cfg), "--data", str(manifest),
                   "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "list.txt" in capsys.readouterr().err

    def test_directory_named_like_an_image(self, tmp_path, capsys):
        # image_paths lists it by name; opening it is an OSError
        ckpt, _ = make_ckpt(tmp_path)
        write_images(tmp_path / "in", n=1, size=16)
        (tmp_path / "in" / "sub.pgm").mkdir()
        commands = (
            ["degrade", "--task", "car", "--quality", "10", "--seed", "1",
             "--in", str(tmp_path / "in"), "--out", str(tmp_path / "o1")],
            ["infer", "--ckpt", str(ckpt), "--in", str(tmp_path / "in"),
             "--out", str(tmp_path / "o2")],
            ["eval", "--lq-dir", str(tmp_path / "in"), "--hq-dir", str(tmp_path / "in")],
            ["train", "--config", str(write_config(tmp_path / "c.cfg")),
             "--data", str(tmp_path / "in"), "--out", str(tmp_path / "run")],
        )
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 3, argv[0]
            assert "sub.pgm" in capsys.readouterr().err, argv[0]


def make_ckpt(tmp_path, cfg=None, seed=0):
    params = init_params(cfg or tiny_config(), seed=seed)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    return path, params


class TestInferEval:
    def test_infer_deterministic(self, tmp_path, capsys):
        ckpt, _ = make_ckpt(tmp_path)
        [src] = write_images(tmp_path / "in", n=1, size=16)
        outs = []
        for name in ("o1.pgm", "o2.pgm"):
            rc = main(["infer", "--ckpt", str(ckpt), "--in", str(src),
                       "--out", str(tmp_path / name)])
            assert rc == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
        capsys.readouterr()

    def test_channel_mismatch_is_data_error(self, tmp_path, capsys):
        ckpt, _ = make_ckpt(tmp_path)
        [src] = write_images(tmp_path / "in", n=1, size=16, channels=3)
        rc = main(["infer", "--ckpt", str(ckpt), "--in", str(src),
                   "--out", str(tmp_path / "o.pgm")])
        assert rc == 3
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["channels", "trailing bytes", "truncated"])
    def test_later_bad_image_writes_nothing(self, tmp_path, bad, capsys):
        ckpt, _ = make_ckpt(tmp_path)
        write_images(tmp_path / "in", n=2, size=16)
        if bad == "channels":
            [last] = write_images(tmp_path / "in", n=1, size=16, channels=3)
        else:
            last = tmp_path / "in" / "z.pgm"
            blob = (tmp_path / "in" / "img0.pgm").read_bytes()
            last.write_bytes(blob + bytes(40) if bad == "trailing bytes" else blob[:-1])
        rc = main(["infer", "--ckpt", str(ckpt), "--in", str(tmp_path / "in"),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert last.name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_corrupted_checkpoint_exit_3(self, tmp_path, capsys):
        ckpt, _ = make_ckpt(tmp_path)
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        ckpt.write_bytes(bytes(blob))
        [src] = write_images(tmp_path / "in", n=1, size=16)
        rc = main(["infer", "--ckpt", str(ckpt), "--in", str(src),
                   "--out", str(tmp_path / "o.pgm")])
        assert rc == 3
        assert "checksum" in capsys.readouterr().err

    @pytest.mark.parametrize("patch", [dict(mlp_ratio=0),
                                       dict(stl_per_rstb=0, window=0)])
    def test_checkpoint_of_a_config_that_cannot_run_exit_3(self, tmp_path, patch,
                                                           capsys):
        # CRC-valid files whose records match their config: each loaded,
        # then failed in the first forward with exit 2
        params = init_params(tiny_config(), seed=0)
        block = params.rstbs[0]
        if "window" in patch:
            block.stls = []
        else:
            mlp = block.stls[0].mlp
            mlp.fc1_w, mlp.fc1_b, mlp.fc2_w = (Tensor(np.zeros(shape, np.float32))
                                               for shape in ((8, 0), (0,), (0, 8)))
        body = bytearray(serialize(params)[:-4])
        names = [f.name for f in fields(SwinIRConfig)]
        for key, value in patch.items():
            struct.pack_into("<i", body, 8 + 4 * names.index(key), value)
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        [src] = write_images(tmp_path / "in", n=1, size=16)
        rc = main(["infer", "--ckpt", str(ckpt), "--in", str(src),
                   "--out", str(tmp_path / "o.pgm")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{ckpt}: invalid config block: {list(patch)[-1]} " in err
        assert not (tmp_path / "o.pgm").exists()

    def test_eval_hq_against_itself(self, tmp_path, capsys):
        write_images(tmp_path / "hq", n=2, size=24)
        rc = main(["eval", "--lq-dir", str(tmp_path / "hq"),
                   "--hq-dir", str(tmp_path / "hq"), "--border", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inf" in out
        assert "1.0000" in out

    def test_eval_pairs_by_name(self, tmp_path, capsys):
        write_images(tmp_path / "hq", n=2, size=24)
        (tmp_path / "lq").mkdir()
        # a.pgm has no partner; by sorted position it would meet img0.pgm
        (tmp_path / "lq" / "img1.pgm").write_bytes((tmp_path / "hq" / "img1.pgm").read_bytes())
        (tmp_path / "lq" / "a.pgm").write_bytes((tmp_path / "hq" / "img0.pgm").read_bytes())
        rc = main(["eval", "--lq-dir", str(tmp_path / "lq"),
                   "--hq-dir", str(tmp_path / "hq")])
        assert rc == 3
        assert "a.pgm" in capsys.readouterr().err

        (tmp_path / "lq" / "a.pgm").rename(tmp_path / "lq" / "img0.pgm")
        rc = main(["eval", "--lq-dir", str(tmp_path / "lq"),
                   "--hq-dir", str(tmp_path / "hq")])
        assert rc == 0
        assert capsys.readouterr().out.count("inf") == 3

    def test_eval_size_mismatch_is_data_error(self, tmp_path, capsys):
        write_images(tmp_path / "lq", n=1, size=16)
        write_images(tmp_path / "hq", n=1, size=24)
        rc = main(["eval", "--lq-dir", str(tmp_path / "lq"),
                   "--hq-dir", str(tmp_path / "hq")])
        assert rc == 3
        assert "img0.pgm" in capsys.readouterr().err

    def test_eval_image_below_ssim_window_is_data_error(self, tmp_path, capsys):
        write_images(tmp_path / "hq", n=1, size=5)
        rc = main(["eval", "--lq-dir", str(tmp_path / "hq"),
                   "--hq-dir", str(tmp_path / "hq")])
        assert rc == 3
        assert "img0.pgm" in capsys.readouterr().err

    def test_eval_negative_border_is_usage_error(self, tmp_path, monkeypatch, capsys):
        write_images(tmp_path / "hq", n=1, size=24)

        def refuse(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "load_image", refuse)
        rc = main(["eval", "--lq-dir", str(tmp_path / "hq"),
                   "--hq-dir", str(tmp_path / "hq"), "--border", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--border must be >= 0" in captured.err
        assert captured.out == ""

    def test_eval_channel_mismatch_is_data_error(self, tmp_path, capsys):
        ckpt, _ = make_ckpt(tmp_path)
        write_images(tmp_path / "hq", n=1, size=16, channels=3)
        rc = main(["eval", "--ckpt", str(ckpt), "--lq-dir", str(tmp_path / "hq"),
                   "--hq-dir", str(tmp_path / "hq")])
        assert rc == 3
        assert "img0.ppm" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["img0.pgm", "img2.pgm"])
    def test_eval_failure_prints_no_table(self, tmp_path, bad, capsys):
        # a truncated first or last LQ image: exit 3 naming it, and no
        # header or rows for the pairs read before it
        write_images(tmp_path / "hq", n=3, size=24)
        write_images(tmp_path / "lq", n=3, size=24)
        blob = (tmp_path / "lq" / bad).read_bytes()
        (tmp_path / "lq" / bad).write_bytes(blob[:-1])
        rc = main(["eval", "--lq-dir", str(tmp_path / "lq"),
                   "--hq-dir", str(tmp_path / "hq")])
        assert rc == 3
        captured = capsys.readouterr()
        assert bad in captured.err
        assert captured.out == ""

    def test_eval_with_checkpoint_runs(self, tmp_path, capsys):
        ckpt, _ = make_ckpt(tmp_path)
        write_images(tmp_path / "lq", n=2, size=16, seed=3)
        write_images(tmp_path / "hq", n=2, size=16, seed=3)
        rc = main(["eval", "--ckpt", str(ckpt), "--lq-dir", str(tmp_path / "lq"),
                   "--hq-dir", str(tmp_path / "hq")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean" in out


class TestGradcheckInspect:
    def test_gradcheck_exit_zero(self, capsys):
        rc = main(["gradcheck", "--tolerance", "1e-4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        # the default model's second layer is shifted, so the masked
        # attention backward is checked too
        assert "rstb.0.stl.1.attn.bias_table" in out

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
    def test_gradcheck_bad_tolerance_usage_error(self, tolerance, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a model was built")

        monkeypatch.setattr(train_mod, "init_params", refuse)
        rc = main(["gradcheck", "--tolerance", tolerance])
        assert rc == 2
        captured = capsys.readouterr()
        assert "tolerance" in captured.err and captured.out == ""

    def test_inspect_total_matches_param_count(self, tmp_path, capsys):
        cfg = tiny_config(task="sr", scale=2, channels=16, heads=2)
        ckpt, _ = make_ckpt(tmp_path, cfg)
        rc = main(["inspect", "--ckpt", str(ckpt)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"total parameters {param_count(cfg)}" in out


class TestNonFiniteRestore:
    """A forward that overflows exits 4, names the input and writes no
    output for it; the [0, 1] clamp would otherwise turn inf into white
    and NaN into black. The restore checks its output itself, so numpy's
    overflow warnings stay off and the error line is all of stderr. Each
    call runs in a fresh interpreter, whose default warning settings print
    any warning to that stderr (the test settings make them errors)."""

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_exit_4_and_no_output(self, tmp_path, command):
        params = init_params(tiny_config(task="denoise"), seed=0)
        dict(params.named())["shallow.w"].data[...] = 3e38
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(params, str(ckpt))
        [src] = write_images(tmp_path / "in", n=1, size=16)
        out = tmp_path / "out.pgm"
        argv = (["infer", "--in", str(src), "--out", str(out)] if command == "infer"
                else ["eval", "--lq-dir", str(tmp_path / "in"),
                      "--hq-dir", str(tmp_path / "in")])
        done = subprocess.run([sys.executable, "-m", "swinir.cli", *argv,
                               "--ckpt", str(ckpt)],
                              env=package_env(), capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 4, done.stderr
        assert done.stderr == f"error: {src}: the restored image holds NaN or Inf\n"
        assert not out.exists()
        assert "mean" not in done.stdout


class TestMemoryPreflight:
    """A config whose run cannot fit in physical memory exits 2 before
    anything is allocated. Without the check, channels = 8000000 ended in
    a MemoryError traceback and the other two ran for minutes; each case
    runs in its own interpreter, under a timeout, so a hang fails it."""

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    @pytest.mark.parametrize("key, value", [("channels", 8000000),
                                            ("rstb_count", 100000000),
                                            ("batch_size", 100000000)])
    def test_refused_before_any_work(self, tmp_path, command, key, value):
        write_images(tmp_path / "data", n=2)
        cfg = write_config(tmp_path / "c.cfg", **{key: value})
        out = tmp_path / "run"
        argv = [command, "--config", str(cfg)]
        if command == "train":
            argv += ["--data", str(tmp_path / "data"), "--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "swinir.cli", *argv],
                              env=package_env(), capture_output=True, text=True,
                              timeout=30)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert f"reduce {key} = {value}" in done.stderr
        assert done.stdout == "" and not out.exists()

    def test_skipped_where_memory_size_is_unknown(self, monkeypatch):
        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "sysconf", unknown)
        model_cfg, _ = cli.build_configs({"channels": 8000000, "heads": 2})
        assert model_cfg.channels == 8000000


class TestUnwritableOut:
    """An --out that cannot be written is a data error naming it, found
    before any image is restored or degraded and before training starts."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("restore_image", "degrade_image", "train"):
            monkeypatch.setattr(cli, name, refuse)

    def run(self, argv, out, capsys):
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert f"cannot write {out}" in err

    def test_infer_into_missing_directory(self, tmp_path, capsys):
        ckpt, _ = make_ckpt(tmp_path)
        [src] = write_images(tmp_path / "in", n=1, size=16)
        self.run(["infer", "--ckpt", str(ckpt), "--in", str(src)],
                 tmp_path / "missing" / "dir" / "x.pgm", capsys)

    def test_degrade_into_missing_directory(self, tmp_path, capsys):
        [src] = write_images(tmp_path / "in", n=1, size=16)
        self.run(["degrade", "--task", "sr", "--scale", "2", "--seed", "1",
                  "--in", str(src)], tmp_path / "missing" / "d" / "x.pgm", capsys)

    def test_train_under_a_file(self, tmp_path, capsys):
        write_images(tmp_path / "data", n=2)
        cfg = write_config(tmp_path / "c.cfg")
        (tmp_path / "afile").write_text("not a directory\n")
        self.run(["train", "--config", str(cfg), "--data", str(tmp_path / "data")],
                 tmp_path / "afile" / "sub", capsys)

    def test_infer_directory_onto_a_file(self, tmp_path, capsys):
        ckpt, _ = make_ckpt(tmp_path)
        write_images(tmp_path / "in", n=2, size=16)
        (tmp_path / "afile").write_text("not a directory\n")
        self.run(["infer", "--ckpt", str(ckpt), "--in", str(tmp_path / "in")],
                 tmp_path / "afile", capsys)

    def test_single_image_onto_a_directory(self, tmp_path, capsys):
        ckpt, _ = make_ckpt(tmp_path)
        [src] = write_images(tmp_path / "in", n=1, size=16)
        self.run(["infer", "--ckpt", str(ckpt), "--in", str(src)], tmp_path, capsys)

    @staticmethod
    def deny_writes(monkeypatch, directory):
        """``os.access`` refuses writes to ``directory``: root passes every
        permission check, so a read-only directory cannot stand in."""
        real = os.access
        denied = os.path.abspath(directory)

        def access(path, mode, **kwargs):
            if os.path.abspath(path) == denied and mode & os.W_OK:
                return False
            return real(path, mode, **kwargs)

        monkeypatch.setattr(os, "access", access)

    def test_infer_into_unwritable_directory(self, tmp_path, capsys, monkeypatch):
        ckpt, _ = make_ckpt(tmp_path)
        [src] = write_images(tmp_path / "in", n=1, size=16)
        (tmp_path / "locked").mkdir()
        self.deny_writes(monkeypatch, tmp_path / "locked")
        out = tmp_path / "locked" / "x.pgm"
        self.run(["infer", "--ckpt", str(ckpt), "--in", str(src)], out, capsys)
        assert not out.exists()

    def test_train_under_unwritable_directory(self, tmp_path, capsys, monkeypatch):
        write_images(tmp_path / "data", n=2)
        cfg = write_config(tmp_path / "c.cfg")
        (tmp_path / "locked").mkdir()
        self.deny_writes(monkeypatch, tmp_path / "locked")
        out = tmp_path / "locked" / "run"
        self.run(["train", "--config", str(cfg), "--data", str(tmp_path / "data")],
                 out, capsys)
        assert not out.exists()
