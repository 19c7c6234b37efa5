import argparse
import ast
import os
import re
import shlex
import struct
import subprocess
import signal
import sys
import zlib
from collections import namedtuple
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import swinir.train as train_mod
from conftest import package_env
from swinir import cli
from swinir.checkpoint import save_checkpoint
from swinir.cli import main, parse_config_file
from swinir.degrade import procedural_texture
from swinir.imageio import ImageBuffer, load_image, save_image
from swinir.model import SwinIRConfig, init_params, param_count, tiny_config
from swinir.train import TrainConfig, TrainState


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
    """A denoise toy config; an override of None leaves its key out."""
    base = dict(task="denoise", scale=1, in_channels=1, out_channels=1,
                channels=8, rstb_count=1, stl_per_rstb=1, window=4, heads=2,
                iterations=4, batch_size=2, patch_size=8, val_period=2,
                lr=1e-3, seed=7)
    base.update(overrides)
    path.write_text("# test config\n" + "".join(
        f"{k} = {v}\n" for k, v in base.items() if v is not None))
    return path


def save_model(path="m.ckpt", cfg=None, fill=None, state=False):
    """Save a model of ``cfg`` (tiny_config) at ``path``, the parameter
    ``fill[0]`` set to ``fill[1]``, with fresh resume state if ``state``."""
    params = init_params(cfg or tiny_config(), seed=0)
    if fill:
        dict(params.named())[fill[0]].data.fill(fill[1])
    save_checkpoint(params, str(path), TrainState.fresh(params, 0) if state else None)
    return path


class TestParsing:
    def test_help_exits_zero(self):
        for argv in (["--help"], ["degrade", "--help"], ["train", "--help"],
                     ["infer", "--help"], ["eval", "--help"],
                     ["gradcheck", "--help"], ["inspect", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0

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

    def test_config_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", mlp_ratio=1.4, head_style="direct")
        values = parse_config_file(str(cfg))
        assert values["channels"] == 8
        assert values["mlp_ratio"] == 1.4
        assert values["head_style"] == "direct"

    def test_degradation_strength_reaches_dataset(self, tmp_path, monkeypatch):
        write_images(tmp_path / "data", n=1)
        seen = {}

        def fake_train(model_cfg, train_cfg, dataset, val_pairs, **kwargs):
            seen["spec"] = dataset.spec
            return SimpleNamespace(diverged=False)

        monkeypatch.setattr(cli, "train", fake_train)
        for overrides, field, value in ((dict(sigma=50), "sigma", 50.0),
                                        (dict(task="car", quality=10), "quality", 10)):
            cfg = write_config(tmp_path / "c.cfg", **overrides)
            assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "run")]) == 0
            assert getattr(seen["spec"], field) == value

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_train_config_refuses_non_finite_lr(self, lr):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(lr=lr)


class TestDegrade:
    def test_deterministic_bytes(self, tmp_path, capsys):
        [src] = write_images(tmp_path / "in", n=1, seed=4)
        outs = []
        for name in ("a.pgm", "b.pgm"):
            assert main(["degrade", "--task", "denoise", "--sigma", "25",
                         "--seed", "7", "--in", str(src),
                         "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
        assert "gaussian_noise" in capsys.readouterr().out

    def test_sr_scale_halves_size(self, tmp_path):
        img = ImageBuffer(np.zeros((64, 64, 1), dtype=np.float32))
        src = tmp_path / "big.pgm"
        save_image(img, str(src))
        assert main(["degrade", "--task", "sr", "--scale", "2", "--seed", "1",
                     "--in", str(src), "--out", str(tmp_path / "small.pgm")]) == 0
        out = load_image(str(tmp_path / "small.pgm"))
        assert (out.height, out.width) == (32, 32)

    def test_seed_omitted_prints_choice(self, tmp_path, capsys):
        # the printed seed comes first and reproduces the run
        [src] = write_images(tmp_path / "in", n=1)
        argv = ["degrade", "--task", "denoise", "--sigma", "10", "--in", str(src)]
        assert main(argv + ["--out", str(tmp_path / "a.pgm")]) == 0
        seed = re.match(r"seed (\d+)\n", capsys.readouterr().out)[1]
        assert main(argv + ["--out", str(tmp_path / "b.pgm"), "--seed", seed]) == 0
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


class TestTrainCommand:
    def test_smoke_run_writes_metrics(self, tmp_path):
        write_images(tmp_path / "data", n=3, size=24, seed=1)
        write_images(tmp_path / "val", n=1, size=24, seed=50)
        cfg = write_config(tmp_path / "c.cfg", iterations=4)
        assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                     "--val", str(tmp_path / "val"), "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "metrics.log").read_text().strip()
        assert (tmp_path / "run" / "last.ckpt").exists()

    def test_zero_iterations_initial_checkpoint(self, tmp_path):
        write_images(tmp_path / "data", n=2)
        cfg = write_config(tmp_path / "c.cfg")
        assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "run"), "--iterations", "0"]) == 0
        assert (tmp_path / "run" / "last.ckpt").exists()

    def test_fixed_seed_byte_reproducible(self, tmp_path):
        write_images(tmp_path / "data", n=2)
        cfg = write_config(tmp_path / "c.cfg", iterations=3, val_period=3)
        blobs = []
        for run in ("r1", "r2"):
            assert main(["train", "--config", str(cfg), "--data",
                         str(tmp_path / "data"), "--out", str(tmp_path / run),
                         "--seed", "11"]) == 0
            blobs.append((tmp_path / run / "last.ckpt").read_bytes())
        assert blobs[0] == blobs[1]


class TestTrainImageChecks:
    def test_val_side_not_a_multiple_of_scale(self, tmp_path):
        # validation trims 25x25 to 24x24, the side the x2 model restores
        write_images(tmp_path / "data", n=2, size=24)
        write_images(tmp_path / "val", n=1, size=25)
        cfg = write_config(tmp_path / "c.cfg", task="sr", scale=2, iterations=2,
                           val_period=1)
        assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                     "--val", str(tmp_path / "val"), "--out", str(tmp_path / "run")]) == 0
        log = (tmp_path / "run" / "metrics.log").read_text().splitlines()
        assert [line.split()[:2] for line in log] == [["step", "1"], ["step", "2"]]


class TestTrainResume:
    def test_resume_from_last_ckpt(self, tmp_path):
        write_images(tmp_path / "data", n=2)
        cfg = write_config(tmp_path / "c.cfg", iterations=4)
        argv = ["train", "--config", str(cfg), "--data", str(tmp_path / "data")]
        assert main(argv + ["--out", str(tmp_path / "run"), "--iterations", "2"]) == 0
        assert main(argv + ["--out", str(tmp_path / "more"), "--resume",
                            str(tmp_path / "run" / "last.ckpt")]) == 0
        # the resumed run starts at step 2, so it validates only at step 4
        assert (tmp_path / "more" / "metrics.log").read_text().startswith("step 4 ")


class TestInferEval:
    def test_infer_deterministic(self, tmp_path):
        ckpt = save_model(tmp_path / "m.ckpt")
        [src] = write_images(tmp_path / "in", n=1, size=16)
        outs = []
        for name in ("o1.pgm", "o2.pgm"):
            assert main(["infer", "--ckpt", str(ckpt), "--in", str(src),
                         "--out", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_eval_hq_against_itself(self, tmp_path, capsys):
        write_images(tmp_path / "hq", n=2, size=24)
        assert main(["eval", "--lq-dir", str(tmp_path / "hq"),
                     "--hq-dir", str(tmp_path / "hq"), "--border", "1"]) == 0
        out = capsys.readouterr().out
        assert "inf" in out
        assert "1.0000" in out

    def test_eval_pairs_by_name(self, tmp_path, capsys):
        # an lq name without an hq partner is a refusal row
        write_images(tmp_path / "hq", n=2, size=24)
        (tmp_path / "lq").mkdir()
        for name in ("img0.pgm", "img1.pgm"):
            (tmp_path / "lq" / name).write_bytes((tmp_path / "hq" / name).read_bytes())
        assert main(["eval", "--lq-dir", str(tmp_path / "lq"),
                     "--hq-dir", str(tmp_path / "hq")]) == 0
        assert capsys.readouterr().out.count("inf") == 3

    def test_eval_with_checkpoint_runs(self, tmp_path, capsys):
        ckpt = save_model(tmp_path / "m.ckpt")
        write_images(tmp_path / "lq", n=2, size=16, seed=3)
        write_images(tmp_path / "hq", n=2, size=16, seed=3)
        assert main(["eval", "--ckpt", str(ckpt), "--lq-dir", str(tmp_path / "lq"),
                     "--hq-dir", str(tmp_path / "hq")]) == 0
        assert "mean" in capsys.readouterr().out


class TestGradcheckInspect:
    def test_gradcheck_exit_zero(self, capsys):
        assert main(["gradcheck", "--tolerance", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        # the default model's second layer is shifted, so the masked
        # attention backward is checked too
        assert "rstb.0.stl.1.attn.bias_table" in out

    def test_inspect_total_matches_param_count(self, tmp_path, capsys):
        cfg = tiny_config(task="sr", scale=2, channels=16, heads=2)
        ckpt = save_model(tmp_path / "m.ckpt", cfg)
        assert main(["inspect", "--ckpt", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert f"total parameters {param_count(cfg)}" in out


class TestMemoryPreflight:
    def test_skipped_where_memory_size_is_unknown(self, monkeypatch):
        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "sysconf", unknown)
        model_cfg, _ = cli.build_configs({"channels": 8000000, "heads": 2})
        assert model_cfg.channels == 8000000


# -- refusals: one table, one contract ---------------------------------------
#
# Each row runs one command line (``argv``, split as a shell would) in a
# fresh work directory (``work_dir``, then ``setup``). It must exit with
# ``code`` and one ``error:`` line naming each of ``names``, with no
# traceback, empty stdout, no change in the directory and no work started
# (``WORK`` and ``stub`` fail if called): in-process under a ROW_SECONDS
# alarm or, with ``fresh`` seconds, in a new interpreter killed after them.
# A row carried over from an earlier test keeps that test's id, its class
# made here if it holds no other test, so every id the suite listed before
# the table still runs and passes; other rows run as test_refusal[id].

Row = namedtuple("Row", "test argv code names setup fresh stub")


def refusal(test, argv, code, *names, setup=(), fresh=0, stub=()):
    test = test if "::" in test else f"TestRefusals::test_refusal[{test}]"
    setup = setup if isinstance(setup, tuple) else (setup,)
    return Row(test, argv, code, names, setup, fresh, stub)


# what a refused command must not reach: a restore, a degradation,
# training, or a model built for gradcheck
WORK = ((cli, "restore_image"), (cli, "degrade_image"), (cli, "train"),
        (train_mod, "init_params"))
ROW_SECONDS = 10


def work_dir(monkeypatch):
    """Fill the current directory: m.ckpt (a tiny_config model), v.pgm
    (16x16), in/ (two 16x16 images), data/ (two 24x24), c.cfg
    (``write_config``) and locked/, which ``os.access`` reports unwritable
    (root passes every permission check, so a read-only mode cannot)."""
    save_model()
    save_image(procedural_texture(9, 16, 16), "v.pgm")
    write_images(Path("in"), n=2, size=16)
    write_images(Path("data"), n=2, size=24)
    write_config(Path("c.cfg"))
    os.mkdir("locked")
    real, denied = os.access, os.path.abspath("locked")
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
        (os.path.abspath(path) != denied or not mode & os.W_OK)
        and real(path, mode, **kwargs)))


def put(path, blob=None):
    """Write ``blob`` (bytes, or a function of the old bytes of ``path``)
    to ``path``, or make ``path`` a directory if it is None."""
    def setup():
        if blob is None:
            os.makedirs(path)
        else:
            Path(path).write_bytes(blob(Path(path).read_bytes()) if callable(blob) else blob)
    return setup


def config(**overrides):
    return lambda: write_config(Path("c.cfg"), **overrides)


def images(directory, n=1, size=24, channels=1):
    return lambda: write_images(Path(directory), n=n, size=size, channels=channels)


def model(path="m.ckpt", **kwargs):
    return lambda: save_model(path, **kwargs)


def config_block(**patch):
    """m.ckpt, CRC-valid, with ``patch`` in its config block: the reader
    checks that block before any record."""
    def blob(old):
        body = bytearray(old[:-4])
        keys = [f.name for f in fields(SwinIRConfig)]
        for key, value in patch.items():
            struct.pack_into("<i", body, 8 + 4 * keys.index(key), value)
        return bytes(body) + struct.pack("<I", zlib.crc32(body))
    return put("m.ckpt", blob)


def flip(blob):
    return bytes(x ^ (i == len(blob) // 2) for i, x in enumerate(blob))


TRAIN = "train --config c.cfg --data data --out run"
TRAIN_VAL = "train --config c.cfg --data data --val val --out run"
RESUME = TRAIN + " --resume state.ckpt"
LISTED = TRAIN.replace("--data data", "--data list.txt")
INFER = "infer --ckpt m.ckpt --in v.pgm --out o.pgm"
INFER_DIR = "infer --ckpt m.ckpt --in in --out o"
DEGRADE = "degrade --task sr --scale 2 --seed 1 --out o.pgm --in"
BY_COMMAND = {"train": TRAIN, "gradcheck": "gradcheck --config c.cfg"}
NOT_UTF8 = put("c.cfg", b"\xffchannels = 8\n")
OVERFLOW = model(fill=("shallow.w", 3e38))

REFUSALS = [
    # -- config files and flags
    refusal("TestParsing::test_unknown_flag_is_usage_error",
            "degrade --task denoise --sigma 5 --in x --out y --frobnicate", 2, "--frobnicate"),
    refusal("TestParsing::test_config_file_errors_name_key_and_line", TRAIN, 2, "c.cfg:2",
            "wibble", setup=put("c.cfg", b"channels = 8\nwibble = 3\n")),
    refusal("TestParsing::test_config_file_bad_value", TRAIN, 2, "c.cfg:1", "channels",
            setup=put("c.cfg", b"channels = eight\n")),
    refusal("TestParsing::test_mlp_ratio_checkpoints_cannot_hold_usage_error", TRAIN, 2,
            "mlp_ratio", setup=config(channels=60, heads=6, mlp_ratio=1.4415)),
    refusal("TestParsing::test_window_zero_usage_error", TRAIN, 2, "window",
            setup=config(window=0)),
    *(refusal(f"TestParsing::test_config_that_cannot_run_usage_error[overrides{i}-{command}]",
              argv, 2, f"invalid configuration: {list(o)[-1]} ", setup=config(**o))
      for i, o in enumerate([dict(mlp_ratio=0), dict(channels=1, heads=1, mlp_ratio=0.5),
                             dict(stl_per_rstb=0, window=0)])
      for command, argv in BY_COMMAND.items()),
    *(refusal(f"TestParsing::test_fixed_optimizer_settings_are_unknown_keys[{key}]", TRAIN, 2,
              f"unknown key {key!r}",
              setup=put("c.cfg", f"channels = 8\n{key} = 0.5\n".encode()))
      for key in ("beta1", "beta2", "eps", "weight_decay", "lr_factor", "milestones")),
    *(refusal(f"TestParsing::test_deterministic_commands_reject_seed[command{i}]",
              f"{argv} --seed 1", 2, "--seed")
      for i, argv in enumerate(("infer --ckpt m.ckpt --in x --out y",
                                "eval --ckpt m.ckpt --lq-dir x --hq-dir y",
                                "inspect --ckpt m.ckpt"))),
    *(refusal(f"TestParsing::test_bad_degradation_strength_usage_error[overrides{i}]", TRAIN,
              2, key, setup=config(**o))
      for i, (key, o) in enumerate([("sigma", dict(sigma=-1)),
                                    ("quality", dict(task="car", quality=0)),
                                    ("quality", dict(task="car", quality=4.5))])),
    *(refusal(f"TestParsing::test_non_finite_config_value_usage_error[{key}-{value}]", TRAIN,
              2, f"bad value for {key}", "finite", setup=config(**{key: value}))
      for key, value in (("lr", "nan"), ("lr", "inf"), ("sigma", "-inf"),
                         ("mlp_ratio", "nan"))),
    *(refusal("TestParsing::test_value_a_checkpoint_cannot_store_usage_error"
              f"[overrides{i}-{command}]", argv, 2, f"{list(o)[-1]} ", "checkpoint",
              setup=config(**o))
      for i, o in enumerate([dict(mlp_ratio="1e308"), dict(head_channels=3000000000),
                             dict(rstb_count=0, stl_per_rstb=3000000000),
                             dict(channels=2, mlp_ratio=2200000)])
      for command, argv in BY_COMMAND.items()),
    refusal("TestTrainCommand::test_zero_val_period_usage_error", TRAIN, 2, "val_period",
            setup=config(val_period=0)),
    refusal("train config not UTF-8", TRAIN, 3, "cannot read config c.cfg", setup=NOT_UTF8),
    refusal("train sr out_channels", TRAIN, 2, "out_channels = 3", "in_channels = 1",
            setup=config(task="sr", scale=2, out_channels=3)),
    refusal("train seed drawn, heads", TRAIN, 2, "2 heads do not divide 9 channels",
            setup=config(seed=None, channels=9)),
    refusal("train seed drawn, resume", RESUME, 3, "state.ckpt", "parameters only",
            setup=(config(seed=None), model("state.ckpt"))),
    *(refusal(f"TestGradcheckInspect::test_gradcheck_bad_tolerance_usage_error[{t}]",
              f"gradcheck --tolerance {t}", 2, "tolerance")
      for t in ("nan", "inf", "-1", "0")),
    refusal("gradcheck config not UTF-8", "gradcheck --config c.cfg", 3,
            "cannot read config c.cfg", setup=NOT_UTF8),
    refusal("gradcheck config missing", "gradcheck --config no.cfg", 3,
            "cannot read config no.cfg"),
    # the pre-flight runs in a fresh interpreter: a run it let through
    # would allocate for minutes or end in a MemoryError
    *(refusal(f"TestMemoryPreflight::test_refused_before_any_work[{key}-{value}-{command}]",
              argv, 2, f"reduce {key} = {value}", setup=config(**{key: value}), fresh=30)
      for key, value in (("channels", 8000000), ("rstb_count", 100000000),
                         ("batch_size", 100000000)) for command, argv in BY_COMMAND.items()),
    # -- degrade
    refusal("TestDegrade::test_negative_sigma_usage_error",
            "degrade --task denoise --sigma -1 --seed 1 --in v.pgm --out o.pgm", 2, "sigma"),
    refusal("TestDegrade::test_non_finite_sigma_usage_error",
            "degrade --task denoise --sigma nan --seed 1 --in v.pgm --out o.pgm", 2,
            "sigma must be finite"),
    refusal("TestDegrade::test_image_below_scale_is_data_error", DEGRADE + " dot.pgm", 3,
            "dot.pgm", "smaller than the downscale factor",
            setup=put("dot.pgm", b"P5 1 1 255\n\0")),
    refusal("TestDegrade::test_later_image_below_scale_writes_nothing", DEGRADE + " in", 3,
            "in/z.pgm", "smaller than the downscale factor",
            setup=put("in/z.pgm", b"P5 1 1 255\n\0")),
    refusal("TestDegrade::test_missing_input_is_data_error",
            "degrade --task car --quality 10 --seed 1 --in no.pgm --out o.pgm", 3, "no.pgm"),
    refusal("degrade seed drawn, missing input",
            "degrade --task denoise --sigma 5 --in no.pgm --out o.pgm", 3, "no.pgm"),
    refusal("degrade maxval", DEGRADE + " b.pgm", 3, "b.pgm", "maxval 65535",
            setup=put("b.pgm", b"P5\n2 2\n65535\n" + bytes(8))),
    refusal("degrade directory named like an image", DEGRADE + " in", 3, "in/sub.pgm",
            setup=put("in/sub.pgm")),
    refusal("degrade out ending in /", DEGRADE + " v.pgm --out no/", 3, "cannot write no/"),
    refusal("TestUnwritableOut::test_degrade_into_missing_directory",
            DEGRADE + " v.pgm --out no/d/x.pgm", 3, "cannot write no/d/x.pgm"),
    # -- train: images, manifests, resume files and --out
    refusal("TestTrainImageChecks::test_val_image_of_wrong_channel_count", TRAIN_VAL, 3,
            "val/img0.ppm", setup=images("val", channels=3)),
    refusal("TestTrainImageChecks::test_data_image_of_wrong_channel_count", TRAIN_VAL, 3,
            "data/img0.ppm", setup=(images("data", channels=3), images("val"))),
    refusal("TestTrainImageChecks::test_data_image_smaller_than_patch", TRAIN_VAL, 3,
            "data/small.pgm", "12x12",
            setup=(config(task="sr", scale=2), images("val"),
                   put("data/small.pgm", b"P5 12 12 255\n" + bytes(144)))),
    refusal("TestTrainImageChecks::test_val_image_inside_psnr_border", TRAIN_VAL, 3,
            "val/thin.pgm", "5x9",
            setup=(config(task="sr", scale=2), put("val"),
                   put("val/thin.pgm", b"P5 9 5 255\n" + bytes(45)))),
    refusal("train over-long header number", TRAIN, 3, "data/long.pgm", "5000 digits",
            setup=put("data/long.pgm", b"P5\n" + b"9" * 5000 + b" 1\n255\n\0")),
    refusal("TestUnreadableImages::test_manifest_naming_missing_image", LISTED, 3,
            "missing.pgm", setup=put("list.txt", b"missing.pgm\n")),
    *(refusal(f"TestUnreadableImages::test_manifest_naming_no_image[{flag}]", argv, 3,
              "list.txt", setup=put("list.txt", b"# nothing listed\n\n"))
      for flag, argv in (("--data", TRAIN_VAL.replace("--data data", "--data list.txt")),
                         ("--val", TRAIN_VAL.replace("--val val", "--val list.txt")))),
    refusal("TestUnreadableImages::test_manifest_not_utf8", LISTED, 3, "list.txt",
            setup=put("list.txt", b"\xff\xfe img.pgm\n")),
    refusal("TestUnreadableImages::test_directory_named_like_an_image",
            TRAIN.replace("--data data", "--data in"), 3, "in/sub.pgm",
            setup=put("in/sub.pgm")),
    *(refusal(f"TestTrainResume::test_unusable_resume_file_is_data_error[{i}]", RESUME, 3,
              "state.ckpt", *names, setup=setup)
      for i, names, setup in (
          ("None", (), ()),
          ("not a checkpoint\n", ("bad magic",), put("state.ckpt", b"not a checkpoint\n")),
          ("params", ("parameters only",), model("state.ckpt")))),
    refusal("TestTrainResume::test_resume_state_of_another_config_is_usage_error", RESUME, 2,
            "state.ckpt", "config differs",
            setup=model("state.ckpt", cfg=tiny_config(task="sr", scale=2), state=True)),
    refusal("TestUnwritableOut::test_train_under_a_file", TRAIN.replace("run", "f/sub"), 3,
            "cannot write f/sub", setup=put("f", b"not a directory\n")),
    refusal("train out empty", TRAIN.replace("run", "''"), 3, "cannot write ''"),
    refusal("TestUnwritableOut::test_train_under_unwritable_directory",
            TRAIN.replace("run", "locked/run"), 3, "cannot write locked/run"),
    # -- infer
    refusal("TestInferEval::test_channel_mismatch_is_data_error",
            INFER.replace("v.pgm", "rgb/img0.ppm"), 3, "rgb/img0.ppm",
            setup=images("rgb", channels=3)),
    *(refusal(f"TestInferEval::test_later_bad_image_writes_nothing[{i}]", INFER_DIR, 3, name,
              setup=setup)
      for i, name, setup in (
          ("channels", "in/img0.ppm", images("in", size=16, channels=3)),
          ("trailing bytes", "in/img1.pgm: 40 bytes after",
           put("in/img1.pgm", lambda b: b + bytes(40))),
          ("truncated", "in/img1.pgm: truncated payload",
           put("in/img1.pgm", lambda b: b[:-1])))),
    refusal("TestInferEval::test_corrupted_checkpoint_exit_3", INFER, 3, "m.ckpt", "checksum",
            setup=put("m.ckpt", flip)),
    *(refusal(f"TestInferEval::test_checkpoint_of_a_config_that_cannot_run_exit_3[patch{i}]",
              INFER, 3, f"m.ckpt: invalid config block: {list(patch)[-1]} ",
              setup=config_block(**patch))
      for i, patch in enumerate([dict(mlp_ratio=0), dict(stl_per_rstb=0, window=0)])),
    refusal("infer bad magic", INFER.replace("v.pgm", "b.pgm"), 3, "b.pgm",
            "unsupported magic", setup=put("b.pgm", b"P2\n2 2\n255\n0 0 0 0\n")),
    refusal("infer missing checkpoint", INFER.replace("m.ckpt", "no.ckpt"), 3, "no.ckpt"),
    refusal("infer directory named like an image", INFER_DIR, 3, "in/sub.pgm",
            setup=put("in/sub.pgm")),
    refusal("infer out ending in /", INFER.replace("o.pgm", "no/"), 3, "cannot write no/"),
    refusal("infer out empty", INFER.replace("o.pgm", "''"), 3, "cannot write ''"),
    refusal("TestUnwritableOut::test_infer_into_missing_directory",
            INFER.replace("o.pgm", "no/d/x.pgm"), 3, "cannot write no/d/x.pgm"),
    refusal("TestUnwritableOut::test_infer_directory_onto_a_file",
            INFER_DIR.replace(" o", " f"), 3, "cannot write f",
            setup=put("f", b"not a directory\n")),
    refusal("TestUnwritableOut::test_single_image_onto_a_directory",
            INFER.replace("o.pgm", "in"), 3, "cannot write in"),
    refusal("TestUnwritableOut::test_infer_into_unwritable_directory",
            INFER.replace("o.pgm", "locked/x.pgm"), 3, "cannot write locked/x.pgm"),
    # a forward that overflows: the [0, 1] clamp would turn inf into white
    # and NaN into black. The restore checks its output itself, so numpy's
    # warnings stay off; a fresh interpreter would print any to stderr
    refusal("TestNonFiniteRestore::test_exit_4_and_no_output[infer]", INFER, 4,
            "error: v.pgm: the restored image holds NaN or Inf\n", setup=OVERFLOW, fresh=60),
    # -- eval
    refusal("TestNonFiniteRestore::test_exit_4_and_no_output[eval]",
            "eval --ckpt m.ckpt --lq-dir in --hq-dir in", 4,
            "error: in/img0.pgm: the restored image holds NaN or Inf\n", setup=OVERFLOW,
            fresh=60),
    refusal("eval unmatched name", "eval --lq-dir lq --hq-dir data", 3, "a.pgm in --lq-dir",
            setup=(images("lq", n=2), put("lq/a.pgm", b""))),
    refusal("TestInferEval::test_eval_size_mismatch_is_data_error",
            "eval --lq-dir in --hq-dir data", 3, "in/img0.pgm"),
    refusal("TestInferEval::test_eval_image_below_ssim_window_is_data_error",
            "eval --lq-dir hq --hq-dir hq", 3, "hq/img0.pgm", setup=images("hq", size=5)),
    refusal("TestInferEval::test_eval_negative_border_is_usage_error",
            "eval --lq-dir in --hq-dir in --border -1", 2, "--border must be >= 0",
            stub=("load_image",)),
    refusal("TestInferEval::test_eval_channel_mismatch_is_data_error",
            "eval --ckpt m.ckpt --lq-dir hq --hq-dir hq", 3, "hq/img0.ppm",
            setup=images("hq", size=16, channels=3)),
    *(refusal(f"TestInferEval::test_eval_failure_prints_no_table[{bad}]",
              "eval --lq-dir lq --hq-dir hq", 3, f"lq/{bad}",
              setup=(images("lq", n=3), images("hq", n=3),
                     put(f"lq/{bad}", lambda b: b[:-1])))
      for bad in ("img0.pgm", "img2.pgm")),
    refusal("eval non-digit header", "eval --lq-dir in --hq-dir in", 3, "in/b.pgm",
            "not a decimal number", setup=put("in/b.pgm", b"P5\n+2 2\n255\n" + bytes(4))),
    refusal("eval directory named like an image", "eval --lq-dir in --hq-dir in", 3,
            "in/sub.pgm", setup=put("in/sub.pgm")),
    # -- inspect
    refusal("inspect bad magic", "inspect --ckpt b.ckpt", 3, "b.ckpt", "bad magic",
            setup=put("b.ckpt", b"not a checkpoint file at all\n")),
    refusal("inspect crc", "inspect --ckpt m.ckpt", 3, "m.ckpt", "checksum",
            setup=put("m.ckpt", flip)),
    refusal("inspect truncated", "inspect --ckpt m.ckpt", 3, "m.ckpt",
            setup=put("m.ckpt", lambda b: b[:-9])),
    refusal("inspect non-finite", "inspect --ckpt m.ckpt", 3, "m.ckpt", "non-finite values",
            setup=model(fill=("shallow.b", np.nan))),
    refusal("inspect missing", "inspect --ckpt no.ckpt", 3, "no.ckpt"),
]


def check_refusal(row, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    work_dir(monkeypatch)
    for setup in row.setup:
        setup()
    before = snapshot(tmp_path)
    if row.fresh:
        done = subprocess.run([sys.executable, "-m", "swinir.cli", *shlex.split(row.argv)],
                              env=package_env(), capture_output=True, text=True,
                              timeout=row.fresh)
        code, out, err = done.returncode, done.stdout, done.stderr
    else:
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        def overtime(signum, frame):    # a BaseException: main's handlers let it pass
            pytest.fail(f"no refusal within {ROW_SECONDS} s")

        for module, name in WORK + tuple((cli, name) for name in row.stub):
            monkeypatch.setattr(module, name, refuse)
        handler = signal.signal(signal.SIGALRM, overtime)
        signal.alarm(ROW_SECONDS)
        try:
            code = main(shlex.split(row.argv))
        except SystemExit as exc:       # argparse
            code = exc.code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        out, err = capsys.readouterr()
    assert code == row.code, err
    assert "Traceback" not in err
    *usage, line = err.splitlines()     # argparse prints its usage first
    assert line.startswith("error: ") if not usage else ": error: " in line, err
    assert all(name in line + "\n" for name in row.names), err     # "...\n" ends the line
    assert not usage or (usage[0].startswith("usage: ")
                         and all(u.startswith(" ") for u in usage[1:])), err
    assert out == ""
    assert snapshot(tmp_path) == before


def snapshot(root):
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestRefusals:
    def test_every_subcommand_has_a_row(self):
        [commands] = [action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
        assert {row.argv.split()[0] for row in REFUSALS} == set(commands)


def _install(rows):
    """Set each row's test on its class, one test per id without the part
    in brackets, parametrized by that part if it has one."""
    assert len({row.test for row in rows}) == len(rows), "two rows of one id"
    groups = {}
    for row in rows:
        name, _, param = row.test.partition("[")
        groups.setdefault(name, {})[param.removesuffix("]")] = row
    for name, group in groups.items():
        if list(group) == [""]:
            def test(self, tmp_path, monkeypatch, capsys, row=group[""]):
                check_refusal(row, tmp_path, monkeypatch, capsys)
        else:
            @pytest.mark.parametrize("row", list(group.values()), ids=list(group))
            def test(self, row, tmp_path, monkeypatch, capsys):
                check_refusal(row, tmp_path, monkeypatch, capsys)
        cls, method = name.split("::")
        setattr(globals().setdefault(cls, type(cls, (), {})), method, test)


_install(REFUSALS)
