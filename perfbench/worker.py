"""Run one workload in this process and write its raw results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

run.py starts this with ``src`` on PYTHONPATH and the BLAS thread count
set, then checks the outputs in a separate process. The load is a closed
loop with one client: op i+1 starts when op i has ended.

Untraced (--trace 0): set up SETUP_REPEATS times (model init, checkpoint
save and load, input synthesis, one untimed warm-up op), then run ops for
S seconds. Traced (--trace 1): set up once with the tracer installed, run
ops untraced for a third of S, then traced for the rest; the difference
in wall time per unit of work is the tracing overhead.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import numpy as np
import scipy

from swinir import checkpoint, imageio, model, train, windows
from swinir.rng import derive
from swinir.train import PairDataset

import tracer as tracing
from workloads import WORKLOADS, InferWorkload

clock = time.perf_counter
SETUP_REPEATS = 3
MASK_CACHE = windows.build_attn_mask      # the cached original, also while traced


# -- environment record -------------------------------------------------------

def _openblas():
    """(thread count, config string) from the OpenBLAS that numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return threads(), config().decode()
    return None, None


def _git_commit(root: str):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root: str) -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "swinir")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, seed: int) -> dict:
    threads, config = _openblas()
    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": config,
        "cpu": cpu,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
    }


# -- the closed loop ------------------------------------------------------------

def timed_loop(seconds: float, op, finish, first: int = 0, tr=None) -> list:
    """Start op i only after op i-1 has ended, until ``seconds`` have
    passed; at least one op. ``finish(i, out)`` turns an op's output into
    its record outside the timed region."""
    records = []
    deadline = clock() + seconds
    i = first
    while not records or clock() < deadline:
        if tr is not None:
            tr.op = i
            with tr.span(tracing.ROOT):
                out, wall, error = _attempt(op, i)
        else:
            out, wall, error = _attempt(op, i)
        rec = {"index": i, "wall": wall, "error": error, "traced": tr is not None}
        if error is None:
            rec.update(finish(i, out))
        records.append(rec)
        i += 1
    return records


def _attempt(op, i):
    t0 = clock()
    try:
        out, error = op(i), None
    except Exception as exc:    # a failed op counts in error_rate, the loop goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, clock() - t0, error


# -- inference ------------------------------------------------------------------

def infer_op(params, src: str, dst: str):
    """What ``swinir infer`` does for one image."""
    img = imageio.load_image(src)
    restored = train.restore_image(params, img)
    imageio.save_image(restored, dst)
    return restored


class Inference:
    def __init__(self, wl: InferWorkload, seed: int, work: str):
        self.wl, self.seed, self.work = wl, seed, work
        self.ckpt = os.path.join(work, "model.ckpt")
        self.inputs = [os.path.join(work, f"in{i}{wl.suffix}") for i in range(wl.inputs)]

    def setup(self) -> None:
        MASK_CACHE.cache_clear()
        params = model.init_params(self.wl.config(), seed=derive(self.seed, 0x5E7))
        checkpoint.save_checkpoint(params, self.ckpt)
        self.params = checkpoint.load_checkpoint(self.ckpt)
        for i, path in enumerate(self.inputs):
            imageio.save_image(self.wl.input_image(self.seed, i), path)
        infer_op(self.params, self.inputs[0],
                 os.path.join(self.work, "warmup" + self.wl.suffix))

    def output(self, i: int) -> str:
        return os.path.join(self.work, f"out{i}{self.wl.suffix}")

    def op(self, i: int):
        return infer_op(self.params, self.inputs[i % len(self.inputs)], self.output(i))

    def finish(self, i: int, restored) -> dict:
        if i == 0:
            np.save(os.path.join(self.work, "sample.npy"), restored.data)
        return {"input": i % len(self.inputs), "output": self.output(i),
                "sha256": hashlib.sha256(restored.to_u8().tobytes()).hexdigest()}

    def units(self, rec) -> int:
        return 1

    def end_to_end(self, records) -> dict:
        ok = [r for r in records if r["error"] is None]
        walls = [r["wall"] for r in records]
        pixels = len(ok) * self.wl.out_side ** 2
        return {"mpix_per_s": pixels / sum(walls) / 1e6,
                "latency_p50_s": float(np.median([r["wall"] for r in ok])) if ok else None,
                "latency_samples": len(ok)}

    def describe(self) -> dict:
        return {"kind": "infer", "ckpt": self.ckpt, "inputs": self.inputs,
                "sample": os.path.join(self.work, "sample.npy")}


# -- training -------------------------------------------------------------------

class TimedDataset(PairDataset):
    """Marks the start of every training step: ``train`` draws one batch
    per step."""

    def __post_init__(self):
        super().__post_init__()
        self.marks = []

    def sample_batch(self, cfg, rng, step):
        self.marks.append(clock())
        return super().sample_batch(cfg, rng, step)


class Training:
    def __init__(self, wl, seed: int, work: str):
        self.wl, self.seed, self.work = wl, seed, work

    def setup(self) -> None:
        MASK_CACHE.cache_clear()
        self.dataset = TimedDataset(self.wl.train_hq(self.seed), self.wl.degradation)
        self.val_pairs = self.wl.val_pairs(self.seed)
        warm = os.path.join(self.work, "warmup")
        train.train(self.wl.config(), self.wl.train_config(self.seed, steps=2),
                    self.dataset, self.val_pairs, out_dir=warm)
        shutil.rmtree(warm)

    def out_dir(self, i: int) -> str:
        return os.path.join(self.work, f"call{i}")

    def op(self, i: int):
        self.dataset.marks = []
        result = train.train(self.wl.config(), self.wl.train_config(self.seed),
                             self.dataset, self.val_pairs, out_dir=self.out_dir(i))
        return result, self.dataset.marks, clock()

    def finish(self, i: int, out) -> dict:
        result, marks, end = out
        steps = np.diff(np.array(marks + [end])).tolist()
        with open(os.path.join(self.out_dir(i), "last.ckpt"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if i != 0:
            shutil.rmtree(self.out_dir(i))
        return {"steps": len(result.losses), "step_walls": steps,
                "diverged": result.diverged,
                "losses_finite": bool(np.isfinite(result.losses).all()),
                "best_psnr": result.best_psnr, "sha256": digest}

    def units(self, rec) -> int:
        return self.wl.steps

    def end_to_end(self, records) -> dict:
        ok = [r for r in records if r["error"] is None and not r["diverged"]]
        steps = [s for r in ok for s in r["step_walls"]]
        done = sum(r["steps"] for r in ok)
        return {"mpix_per_s": done * self.wl.out_pixels_per_step
                / sum(r["wall"] for r in records) / 1e6,
                "latency_p50_s": float(np.median(steps)) if steps else None,
                "latency_samples": len(steps),
                "train_steps_per_s": done / sum(r["wall"] for r in records),
                "train_val_psnr_db": ok[0]["best_psnr"] if ok else None}

    def describe(self) -> dict:
        return {"kind": "train", "out_dir": self.out_dir(0),
                "steps_per_call": self.wl.steps}


# -- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(args.out, "work")
    os.makedirs(work, exist_ok=True)
    wl = WORKLOADS[args.workload]
    job = (Inference if isinstance(wl, InferWorkload) else Training)(wl, args.seed, work)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": environment(root, args.seed)}

    if not args.trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            job.setup()
            setups.append(clock() - t0)
        records = timed_loop(args.seconds, job.op, job.finish)
        doc["setup_s"] = setups
        doc["end_to_end"] = job.end_to_end(records)
    else:
        tr = tracing.Tracer()
        tr.install()
        try:
            t0 = clock()
            job.setup()
            doc["setup_s"] = [clock() - t0]
        finally:
            tr.uninstall()
        plain = timed_loop(args.seconds / 3, job.op, job.finish)
        hits0, misses0 = MASK_CACHE.cache_info()[:2]
        tr.install()
        try:
            traced = timed_loop(args.seconds * 2 / 3, job.op, job.finish,
                                first=len(plain), tr=tr)
        finally:
            tr.uninstall()
        hits1, misses1 = MASK_CACHE.cache_info()[:2]
        records = plain + traced
        units = sum(job.units(r) for r in traced)
        per_layer, breakdown = tracing.summarize(
            tr, [r["index"] for r in traced], units, hits1 - hits0, misses1 - misses0)

        def per_unit(recs):
            return float(np.median([r["wall"] / job.units(r) for r in recs]))

        untraced_s, traced_s = per_unit(plain), per_unit(traced)
        per_layer["trace.overhead_s"] = traced_s - untraced_s
        per_layer["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
        doc["per_layer"] = per_layer
        doc["trace_file"] = os.path.join(args.out, "trace.json")
        tr.dump(doc["trace_file"], {"workload": args.workload, "env": doc["env"],
                                    "per_layer": per_layer, **breakdown})

    doc["records"] = records
    doc["attempted"] = sum(job.units(r) for r in records)
    doc["failed"] = sum(job.units(r) for r in records
                        if r["error"] is not None or r.get("diverged"))
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc.update(job.describe())
    with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
