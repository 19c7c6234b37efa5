"""Restoration benchmark: run workloads, check their outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                    # every workload, untraced
    python3 perfbench/run.py --trace 1          # every workload, traced
    python3 perfbench/run.py --selfcheck --workload NAME --seed N
                                                # two traced runs, same counts?

Run from the root of a checkout that holds ``src/swinir``. Each workload
runs in its own fresh process (worker.py); its outputs are then checked
against a float64 reference in another process (check.py). The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json untraced and its
per-layer metrics traced. Results, check reports and trace files are kept
under perfbench/out/. See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("infer-sr-lightweight", "infer-car-classical", "train-sr-toy")
WORKER_TIMEOUT_S = 140
TOTAL_TIMEOUT_S = 175
# counts that two traced runs with the same seed must repeat exactly
REPEATABLE_COUNTS = ("tensor.op_calls", "tensor.bytes_out", "model.gmac_per_op",
                     "windows.padded_token_ratio", "degrade.useful_pixel_ratio",
                     "attention.window_msa.calls")


class BenchError(Exception):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _run(script: str, args: list, timeout: float) -> None:
    cmd = [sys.executable, os.path.join(HERE, script)] + [str(a) for a in args]
    try:
        done = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"{script} exited with code {done.returncode}")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process, check it in another; return
    the worker's results with the check report under "check"."""
    started = time.monotonic()
    run_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    _run("worker.py", ["--workload", name, "--seed", seed, "--seconds", seconds,
                       "--trace", trace, "--out", run_dir], WORKER_TIMEOUT_S)
    left = TOTAL_TIMEOUT_S - (time.monotonic() - started)
    _run("check.py", ["--run", run_dir], max(left, 1.0))
    with open(os.path.join(run_dir, "results.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(os.path.join(run_dir, "check.json"), encoding="utf-8") as fh:
        doc["check"] = json.load(fh)
    shutil.rmtree(os.path.join(run_dir, "work"), ignore_errors=True)
    return doc


def failed_units(doc: dict) -> int:
    """Failed ops, or training steps: raised, diverged, or failed the check."""
    per_unit = doc.get("steps_per_call", 1)
    failed = set(int(k) for k in doc["check"]["failures"])
    return doc["failed"] + per_unit * sum(
        1 for r in doc["records"]
        if r["index"] in failed and r["error"] is None and not r.get("diverged"))


def result_line(doc: dict, spec: dict) -> dict:
    failed = failed_units(doc)
    if doc["trace"]:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = doc["per_layer"]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        e2e = doc["end_to_end"]
        values = {"setup_s": sorted(doc["setup_s"])[len(doc["setup_s"]) // 2],
                  "mpix_per_s": e2e["mpix_per_s"],
                  "latency_p50_s": e2e["latency_p50_s"],
                  "peak_rss_mb": doc["peak_rss_mb"]}
    missing = [n for n in names if values.get(n) is None]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    return {"correct": failed == 0 and not doc["check"]["failures"],
            "attempted": doc["attempted"], "failed": failed,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}


def describe(doc: dict, line: dict) -> list:
    """Human-readable lines: the metrics by name, with unit, and the
    workload-specific names they stand for on this workload."""
    name = doc["workload"]
    out = [f"{name}: seed {doc['seed']}, {doc['seconds']:g} s, "
           f"{'traced' if doc['trace'] else 'untraced'}, "
           f"correct={line['correct']}, attempted={line['attempted']}, "
           f"failed={line['failed']}"]
    for metric, v in line["metrics"].items():
        out.append(f"  {metric:<32} {v['value']:.6g} {v['unit']}")
    if not doc["trace"]:
        e2e = doc["end_to_end"]
        out.append(f"  error_rate                       "
                   f"{line['failed'] / line['attempted']:.6g} ratio")
        if doc["kind"] == "infer":
            out.append(f"  infer_mpix_per_s                 {e2e['mpix_per_s']:.6g} Mpix/s")
            out.append(f"  infer_latency_p50_s              {e2e['latency_p50_s']:.6g} s "
                       f"(n={e2e['latency_samples']})")
        else:
            out.append(f"  train_steps_per_s                {e2e['train_steps_per_s']:.6g} 1/s")
            out.append(f"  train_val_psnr_db                {e2e['train_val_psnr_db']:.6g} dB")
            out.append(f"  step_latency_p50_s               {e2e['latency_p50_s']:.6g} s "
                       f"(n={e2e['latency_samples']})")
    check = doc["check"]
    if "max_abs_err" in check:
        out.append(f"  check: max |float32 - float64| {check['max_abs_err']:.3g} "
                   f"(tolerance {check['tolerance']:g}) on op(s) {check['checked']}")
    for index, why in check["failures"].items():
        out.append(f"  check FAILED op {index}: {why}")
    env = doc["env"]
    out.append(f"  env: nproc {env['nproc']}, blas threads {env['blas_threads']}, "
               f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
               f"{env['blas']}, commit {env['git_commit'] or 'unknown'}, "
               f"source {env['source_sha256'][:12]}")
    return out


def selfcheck(names, seed: int, seconds: float) -> int:
    """Two traced runs with the same seed must repeat every count exactly."""
    bad = 0
    for name in names:
        first = run_workload(name, seed, seconds, 1)["per_layer"]
        second = run_workload(name, seed, seconds, 1)["per_layer"]
        for key in REPEATABLE_COUNTS:
            same = first[key] == second[key]
            bad += not same
            print(f"{name}: {key} {first[key]!r} {'==' if same else '!='} {second[key]!r}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Restoration benchmark: run, check, print metrics.")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: every workload, each in its own process)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run traced twice with the same seed and compare the counts")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "swinir", "__init__.py")):
        print(f"perfbench: no program to measure: {os.path.join(ROOT, 'src', 'swinir')} "
              f"is missing; run from the root of a swinir checkout", file=sys.stderr)
        return 2
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.selfcheck:
            return selfcheck(names, args.seed, seconds)
        lines = {}
        for name in names:
            doc = run_workload(name, args.seed, seconds, args.trace)
            lines[name] = result_line(doc, spec)
            print("\n".join(describe(doc, lines[name])), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if args.workload else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
