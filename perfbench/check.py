"""Correctness gate, run in its own process after the timed worker ended,
so that the reference adds nothing to the worker's latency or peak RSS.

    python3 perfbench/check.py --run DIR

Reads DIR/results.json and writes DIR/check.json. The gate compares the
float32 output of the first timed op against a float64 forward pass of
the same weights, within TOLERANCE on the [0, 1] scale. The float64 pass
is reference.py, a second implementation of the network, rather than the
program's own float64 mode: that mode runs the program's code, so a
change to the model's arithmetic would pass it. Float32 and float64
differ by up to about 6e-5, so a bit-exact digest cannot be the gate; the
u8 SHA-256 of every output is still recorded, and every op on the same
input must give the same digest. For training, the fixed-length
runs must not diverge, must reproduce each other byte for byte, must beat
the untrained model on held-out textures, and the best checkpoint must
reproduce the validation PSNR that training logged.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from swinir import checkpoint, imageio, train

import reference
from workloads import WORKLOADS

TOLERANCE = 2e-4        # max |float32 - float64| per output value
MIN_GAIN_DB = 3.0       # validation PSNR over the untrained model, training only


def reference_restore(params, lq) -> np.ndarray:
    """float64 output of reference.py for the weights in ``params``."""
    weights = {name: t.data for name, t in params.named()}
    return reference.restore(params.config, weights, lq.data)


def _file_digest(path: str) -> str:
    return hashlib.sha256(imageio.load_image(path).to_u8().tobytes()).hexdigest()


def check_infer(doc: dict, report: dict) -> dict:
    failures = {}
    ok = [r for r in doc["records"] if r["error"] is None]
    first = {}
    for r in ok:
        first.setdefault(r["input"], r["sha256"])
        if r["sha256"] != first[r["input"]]:
            failures[r["index"]] = "output differs from an earlier op on the same input"
        elif _file_digest(r["output"]) != r["sha256"]:
            failures[r["index"]] = "saved file differs from the restored image"
    if not ok or ok[0]["index"] != 0:
        return failures
    sample = ok[0]
    params = checkpoint.load_checkpoint(doc["ckpt"])
    ref = reference_restore(params, imageio.load_image(doc["inputs"][sample["input"]]))
    out = np.load(doc["sample"])
    err = float(np.abs(out.astype(np.float64) - ref).max())
    saved = imageio.load_image(sample["output"]).to_u8()
    u8_err = float(np.abs(saved.astype(np.float64) - ref * 255.0).max())
    report.update(checked=[0], max_abs_err=err, max_u8_err=u8_err)
    if err > TOLERANCE or u8_err > 0.5 + 255.0 * TOLERANCE:
        failures[0] = f"differs from float64 by {err:.3g} (u8 {u8_err:.3g})"
    return failures


def check_train(doc: dict, report: dict) -> dict:
    wl = WORKLOADS[doc["workload"]]
    cfg = wl.config()
    failures = {}
    ok = [r for r in doc["records"] if r["error"] is None]
    for r in ok:
        if r["diverged"] or not r["losses_finite"] or not math.isfinite(r["best_psnr"]):
            failures[r["index"]] = "training diverged"
        elif (r["sha256"], r["best_psnr"]) != (ok[0]["sha256"], ok[0]["best_psnr"]):
            failures[r["index"]] = "run differs from the first run with the same seed"
    if not ok or ok[0]["index"] != 0 or 0 in failures:
        return failures
    best = ok[0]["best_psnr"]
    val_pairs = wl.val_pairs(doc["seed"])
    params = checkpoint.load_checkpoint(os.path.join(doc["out_dir"], "best.ckpt"))
    reloaded = train.validation_psnr(params, val_pairs, border=cfg.scale)
    lq, _ = val_pairs[0]
    out = train.restore_image(params, lq).data
    err = float(np.abs(out.astype(np.float64) - reference_restore(params, lq)).max())
    with tempfile.TemporaryDirectory(dir=doc["out_dir"]) as init_dir:
        dataset = train.PairDataset(wl.train_hq(doc["seed"]), wl.degradation)
        train.train(cfg, replace(wl.train_config(doc["seed"]), iterations=0),
                    dataset, val_pairs, out_dir=init_dir)
        untrained = checkpoint.load_checkpoint(os.path.join(init_dir, "last.ckpt"))
        init_psnr = train.validation_psnr(untrained, val_pairs, border=cfg.scale)
    report.update(checked=[0], max_abs_err=err, best_psnr=best,
                  reloaded_psnr=reloaded, untrained_psnr=init_psnr)
    if reloaded != best:
        failures[0] = f"best.ckpt gives {reloaded} dB, training logged {best} dB"
    elif err > TOLERANCE:
        failures[0] = f"differs from float64 by {err:.3g}"
    elif best < init_psnr + MIN_GAIN_DB:
        failures[0] = (f"validation PSNR {best:.2f} dB is not {MIN_GAIN_DB} dB "
                       f"above the untrained model's {init_psnr:.2f} dB")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--run", required=True, help="directory of results.json")
    args = ap.parse_args(argv)
    with open(os.path.join(args.run, "results.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    report = {"tolerance": TOLERANCE, "checked": []}
    check = check_infer if doc["kind"] == "infer" else check_train
    failures = check(doc, report)
    report["failures"] = {str(k): v for k, v in sorted(failures.items())}
    with open(os.path.join(args.run, "check.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
