import hashlib
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from conftest import package_env, traced_peak

import swinir.degrade as degrade_mod
import swinir.tensor as tensor_mod
import swinir.train as train_mod
from swinir.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from swinir.degrade import DegradationSpec, procedural_texture, sample_patch_pair
from swinir.losses import compute_loss
from swinir.model import (SwinIRConfig, forward, init_params, lightweight_sr_config,
                          tiny_config)
from swinir.rng import SplitMix64, derive
from swinir.tensor import Tensor
from swinir.train import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, GradcheckReport,
                          PairDataset, TrainConfig, TrainState, TrainingDiverged,
                          adam_step, gradcheck, load_train_state, lr_at,
                          make_validation_pairs, save_train_state, train)


def toy_sr_config():
    return tiny_config(task="sr", scale=2, channels=12, rstb_count=1,
                       stl_per_rstb=2, window=4, heads=2)


def toy_dataset(n=12, size=32, spec=None, seed=100):
    spec = spec or DegradationSpec(kind="bicubic", scale=2)
    imgs = [procedural_texture(seed + i, size, size) for i in range(n)]
    return PairDataset(hq_images=imgs, spec=spec)


class TestAdam:
    def test_zero_grad_leaves_params(self):
        params = init_params(tiny_config(), seed=0)
        state = TrainState.fresh(params, seed=0)
        before = {n: t.data.copy() for n, t in params.named()}
        for _, t in params.named():
            t.grad = np.zeros_like(t.data)
        adam_step(params, state, lr=0.1)
        for n, t in params.named():
            np.testing.assert_array_equal(t.data, before[n])

    def test_first_step_closed_form(self):
        # scalar p = 1, loss p^2, grad 2p: bias correction makes the first
        # update exactly -lr * g/|g| up to the eps term
        params = init_params(tiny_config(), seed=0)
        state = TrainState.fresh(params, seed=0)
        name, t = next(iter(params.named()))
        for _, other in params.named():
            other.grad = None
        t.data[...] = 1.0
        t.grad = np.full_like(t.data, 2.0)
        adam_step(params, state, lr=0.1)
        expected = 1.0 - 0.1 * (2.0 / (2.0 + ADAM_EPS))
        np.testing.assert_allclose(t.data, expected, rtol=1e-6)
        assert abs(float(t.data.flat[0]) - 0.9) < 1e-7

    def test_lr_zero_is_identity(self):
        params = init_params(tiny_config(), seed=0)
        state = TrainState.fresh(params, seed=0)
        before = {n: t.data.copy() for n, t in params.named()}
        for _, t in params.named():
            t.grad = np.ones_like(t.data)
        adam_step(params, state, lr=0.0)
        for n, t in params.named():
            np.testing.assert_array_equal(t.data, before[n])

    def test_nonfinite_gradient_aborts_before_updating(self):
        # after one step, so the moments are not zero; the first of a NaN
        # and an Inf is named, and a None gradient between them is skipped
        params = init_params(tiny_config(), seed=0)
        state = TrainState.fresh(params, seed=0)
        named = list(params.named())
        for _, t in named:
            t.grad = np.ones_like(t.data)
        adam_step(params, state, lr=0.1)
        before = {n: t.data.copy() for n, t in params.named()}
        moments = state.m.copy(), state.v.copy()
        named[2][1].grad[...] = np.nan
        named[3][1].grad = None
        named[5][1].grad.flat[-1] = np.inf
        with pytest.raises(TrainingDiverged,
                           match=f"non-finite gradient in {named[2][0]} at step 1"):
            adam_step(params, state, lr=0.1)
        for n, t in params.named():
            np.testing.assert_array_equal(t.data, before[n])
        np.testing.assert_array_equal(state.m, moments[0])
        np.testing.assert_array_equal(state.v, moments[1])
        assert state.step == 1

    def test_deterministic_across_runs(self):
        def run():
            params = init_params(tiny_config(), seed=5)
            state = TrainState.fresh(params, seed=5)
            rng = np.random.default_rng(3)
            for _ in range(4):
                for _, t in params.named():
                    t.grad = rng.normal(size=t.shape).astype(np.float32)
                adam_step(params, state, lr=1e-3)
            return {n: t.data.copy() for n, t in params.named()}

        a, b = run(), run()
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])


def reference_adam(params, m, v, step, lr):
    """The per-tensor update loop that flat Adam must match bit for bit;
    m and v map names to arrays, ``step`` is the step after this update."""
    c1, c2 = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
    for name, t in params.named():
        g = t.grad
        if g is None:
            continue
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * g
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * g * g
        t.data -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)


class TestFlatAdam:
    """adam_step runs over the flat moment buffers; a loop over the
    tensors is the reference."""

    def set_grads(self, params, rng, step):
        # gradients over ten decades; on odd steps every seventh is None,
        # which splits the parameters into several runs
        for i, (_, t) in enumerate(params.named()):
            if step % 2 and i % 7 == 3:
                t.grad = None
            else:
                scale = 10.0 ** rng.integers(-8, 2)
                t.grad = (scale * rng.normal(size=t.shape)).astype(np.float32)

    def test_bits_of_the_per_tensor_loop_across_a_resume(self, tmp_path):
        cfg = toy_sr_config()
        params, ref = init_params(cfg, seed=3), init_params(cfg, seed=3)
        state = TrainState.fresh(params, seed=0)
        m = {n: np.zeros_like(t.data) for n, t in ref.named()}
        v = {n: np.zeros_like(t.data) for n, t in ref.named()}
        rng = np.random.default_rng(0)
        for step in range(1, 7):
            if step == 4:       # resume from a file part way through
                save_train_state(params, state, str(tmp_path / "last.ckpt"))
                params, state = load_train_state(str(tmp_path / "last.ckpt"))
            self.set_grads(params, rng, step)
            for (_, t), (_, r) in zip(params.named(), ref.named(), strict=True):
                r.grad = t.grad
            lr = 1e-3 * step
            adam_step(params, state, lr)
            reference_adam(ref, m, v, step, lr)
            assert state.step == step
            mine_m, mine_v = params.views(state.m), params.views(state.v)
            for (n, t), (_, r) in zip(params.named(), ref.named(), strict=True):
                np.testing.assert_array_equal(t.data, r.data)
                np.testing.assert_array_equal(mine_m[n], m[n])
                np.testing.assert_array_equal(mine_v[n], v[n])

    def test_peak_memory_is_twelve_bytes_per_parameter(self):
        # the concatenated gradient and two temporaries of its size, in
        # float32, which keeps cli._check_memory's 32 bytes a bound
        params = init_params(lightweight_sr_config(2, 1), seed=0)
        state = TrainState.fresh(params, seed=0)
        rng = np.random.default_rng(2)
        for t in params.tensors():
            t.grad = rng.normal(size=t.shape).astype(np.float32)
        n = state.m.size
        with traced_peak() as peak:
            adam_step(params, state, lr=1e-3)
            assert peak() <= 12 * n + (64 << 10)


def test_taped_toy_step_float32_within_1e5_of_float64():
    # one taped step of the benchmark's train-sr-toy model and batch; each
    # parameter's error is relative to its largest float64 gradient, with a
    # floor of 1e-3 of the model's largest for attn.bk, whose exact
    # gradient is 0 (softmax ignores a shift shared by every key)
    cfg = SwinIRConfig(task="sr", scale=2, in_channels=1, out_channels=1,
                       channels=16, rstb_count=2, stl_per_rstb=2, window=4, heads=4)
    ds = PairDataset([procedural_texture(derive(0, 0x2A, i), 96, 96, 1)
                      for i in range(4)], DegradationSpec(kind="bicubic", scale=2))
    lq, hq = ds.sample_batch(TrainConfig(batch_size=8, patch_size=16), SplitMix64(1), 0)
    p32 = init_params(cfg, seed=7)
    p64 = init_params(cfg, seed=7, dtype=np.float64)
    for t64, t32 in zip(p64.tensors(), p32.tensors(), strict=True):
        t64.data[...] = t32.data
    for params, dtype in ((p32, np.float32), (p64, np.float64)):
        compute_loss("l1", forward(params, Tensor(lq.astype(dtype))),
                     Tensor(hq.astype(dtype))).backward()
    top = max(np.abs(t.grad).max() for t in p64.tensors())
    for (name, t32), t64 in zip(p32.named(), p64.tensors(), strict=True):
        assert t32.grad.dtype == np.float32
        scale = max(np.abs(t64.grad).max(), 1e-3 * top)
        assert np.abs(t32.grad - t64.grad).max() <= 1e-5 * scale, name


class TestSchedule:
    def test_halves_at_milestones(self):
        cfg = TrainConfig(iterations=1000, lr=8e-4)
        assert lr_at(cfg, 0) == 8e-4
        assert lr_at(cfg, 499) == 8e-4
        assert lr_at(cfg, 500) == 4e-4
        assert lr_at(cfg, 750) == 2e-4
        assert lr_at(cfg, 900) == 1e-4
        assert lr_at(cfg, 999) == 1e-4


SPECS = {
    "bicubic": DegradationSpec(kind="bicubic", scale=2),
    "dct": DegradationSpec(kind="dct_quantize", quality=30),
    "noise": DegradationSpec(kind="gaussian_noise", sigma=25.0, seed=3),
}
BATCH = TrainConfig(batch_size=4, patch_size=8)


def mixed_dataset(spec):
    # the last image is no multiple of the scale: it trims to 96x94 at x2
    imgs = [procedural_texture(200 + i, 32, 32) for i in range(3)]
    imgs.append(procedural_texture(210, 97, 95))
    return PairDataset(hq_images=imgs, spec=spec)


class TestPairDataset:
    def count_degrades(self, kind, monkeypatch):
        """Calls of degrade_image per distinct input over 20 batches."""
        real = degrade_mod.degrade_image
        seen = Counter()

        def spy(img, spec):
            seen[hashlib.sha256(img.data.tobytes()).hexdigest()] += 1
            return real(img, spec)

        monkeypatch.setattr(degrade_mod, "degrade_image", spy)
        ds, rng = mixed_dataset(SPECS[kind]), SplitMix64(5)
        for step in range(20):
            ds.sample_batch(BATCH, rng, step)
        return seen

    @pytest.mark.parametrize("kind", ["bicubic", "dct"])
    def test_deterministic_degradation_runs_once_per_image(self, kind, monkeypatch):
        seen = self.count_degrades(kind, monkeypatch)
        assert len(seen) == 4 and set(seen.values()) == {1}

    def test_noise_degrades_every_crop(self, monkeypatch):
        seen = self.count_degrades("noise", monkeypatch)
        assert sum(seen.values()) == 20 * BATCH.batch_size

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_batches_equal_per_crop_sampling(self, kind):
        ds = mixed_dataset(SPECS[kind])
        rng, ref_rng = SplitMix64(5), SplitMix64(5)
        drawn = set()
        for step in range(20):
            lq, hq = ds.sample_batch(BATCH, rng, step)
            idx = ref_rng.integers(BATCH.batch_size, 0, len(ds.hq_images))
            for slot in range(BATCH.batch_size):
                crop_seed = derive(int(ref_rng.u64(1)[0]), step, slot)
                ref_lq, ref_hq = sample_patch_pair(
                    ds.hq_images[int(idx[slot])], ds.spec.for_item(crop_seed, 0xA01),
                    BATCH.patch_size, crop_seed)
                np.testing.assert_array_equal(lq[slot], np.moveaxis(ref_lq, 2, 0))
                np.testing.assert_array_equal(hq[slot], np.moveaxis(ref_hq, 2, 0))
            drawn.update(int(i) for i in idx)
        assert rng.state == ref_rng.state
        assert 3 in drawn     # the 97x95 image

    @pytest.mark.parametrize("task,spec", [
        ("denoise", DegradationSpec(kind="gaussian_noise", sigma=30.0, seed=2)),
        ("car", DegradationSpec(kind="dct_quantize", quality=20))])
    def test_rerun_writes_same_last_ckpt(self, tmp_path, task, spec):
        cfg = tiny_config(task=task, stl_per_rstb=2)
        tcfg = TrainConfig(iterations=3, val_period=3, batch_size=2,
                           patch_size=8, seed=6)
        blobs = []
        for run in ("a", "b"):
            ds = toy_dataset(3, spec=spec)
            val = make_validation_pairs(ds.hq_images[:1], spec)
            train(cfg, tcfg, ds, val, out_dir=str(tmp_path / run))
            blobs.append((tmp_path / run / "last.ckpt").read_bytes())
        assert blobs[0] == blobs[1]


def kill_run_recipe():
    """(model config, train config, dataset, validation pairs) of a toy run
    whose every validation beats the last, so each writes best.ckpt."""
    ds = toy_dataset(4)
    return (toy_sr_config(), TrainConfig(iterations=6, val_period=2, batch_size=2,
                                         patch_size=8, seed=4),
            ds, make_validation_pairs(ds.hq_images[:2], ds.spec))


# python -c KILL_RUN TESTS_DIR OUT N: the kill_run_recipe run into OUT, ended
# by os._exit(17) at the start of its N-th best.ckpt save
KILL_RUN = """
import os, sys
sys.path.insert(0, sys.argv[1])
import swinir.train as train_mod
from test_trainer import kill_run_recipe

real_save, best_saves = train_mod.save_checkpoint, []

def dying(params, path, state=None):
    if path.endswith("best.ckpt"):
        best_saves.append(path)
        if len(best_saves) == int(sys.argv[3]):
            os._exit(17)
    real_save(params, path, state)

train_mod.save_checkpoint = dying
train_mod.train(*kill_run_recipe(), out_dir=sys.argv[2])
"""


class TestTrainLoop:
    def test_zero_iterations_writes_init_checkpoint(self, tmp_path):
        cfg = toy_sr_config()
        tcfg = TrainConfig(iterations=0, seed=1)
        result = train(cfg, tcfg, toy_dataset(4), [], out_dir=str(tmp_path))
        assert (tmp_path / "last.ckpt").exists()
        assert not result.diverged

    def test_metrics_log_format(self, tmp_path):
        cfg = toy_sr_config()
        tcfg = TrainConfig(iterations=6, val_period=3, batch_size=2,
                           patch_size=8, seed=2)
        ds = toy_dataset(4)
        val = make_validation_pairs(ds.hq_images[:2], ds.spec)
        train(cfg, tcfg, ds, val, out_dir=str(tmp_path))
        lines = (tmp_path / "metrics.log").read_text().strip().splitlines()
        assert lines
        for line in lines:
            parts = line.split()
            assert parts[0] == "step" and parts[2] == "loss"
            assert parts[4] == "psnr" and parts[6] == "lr"
            int(parts[1]), float(parts[3]), float(parts[5]), float(parts[7])

    def test_reproducible_with_fixed_seed(self):
        cfg = toy_sr_config()
        tcfg = TrainConfig(iterations=5, val_period=5, batch_size=2,
                           patch_size=8, seed=9)

        def run():
            ds = toy_dataset(4)
            res = train(cfg, tcfg, ds, [], out_dir=None)
            return {n: t.data.copy() for n, t in res.params.named()}, res.losses

        (pa, la), (pb, lb) = run(), run()
        assert la == lb
        for n in pa:
            np.testing.assert_array_equal(pa[n], pb[n])

    def test_resume_matches_uninterrupted(self, tmp_path, monkeypatch):
        cfg = toy_sr_config()
        tcfg = TrainConfig(iterations=6, val_period=3, batch_size=2,
                           patch_size=8, seed=4)
        res_a = train(cfg, tcfg, toy_dataset(4), [], out_dir=str(tmp_path / "a"))

        # the same run, stopped just after its step-3 last.ckpt write
        real_save = train_mod.save_train_state

        def save_then_stop(params, state, path):
            real_save(params, state, path)
            raise RuntimeError("stopped")

        monkeypatch.setattr(train_mod, "save_train_state", save_then_stop)
        with pytest.raises(RuntimeError, match="stopped"):
            train(cfg, tcfg, toy_dataset(4), [], out_dir=str(tmp_path / "b"))
        monkeypatch.setattr(train_mod, "save_train_state", real_save)
        assert load_train_state(str(tmp_path / "b" / "last.ckpt"))[1].step == 3
        res_b = train(cfg, tcfg, toy_dataset(4), [], out_dir=str(tmp_path / "b2"),
                      resume=str(tmp_path / "b" / "last.ckpt"))

        assert res_b.losses == res_a.losses[3:]
        for (na, ta), (nb, tb) in zip(res_a.params.named(), res_b.params.named(),
                                      strict=True):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)
        assert (tmp_path / "a" / "last.ckpt").read_bytes() == \
            (tmp_path / "b2" / "last.ckpt").read_bytes()

    def test_death_in_the_last_best_save_resumes_to_the_same_files(self, tmp_path,
                                                                  monkeypatch):
        # a fresh interpreter runs the KILL_RUN recipe and dies by os._exit
        # inside its last best.ckpt save, after logging that step; the
        # resume must then end with the files of the uninterrupted run
        real_save, best_saves = train_mod.save_checkpoint, []

        def counting(params, path, state=None):
            if path.endswith("best.ckpt"):
                best_saves.append(path)
            real_save(params, path, state)

        monkeypatch.setattr(train_mod, "save_checkpoint", counting)
        cfg, tcfg, ds, val = kill_run_recipe()
        train(cfg, tcfg, ds, val, out_dir=str(tmp_path / "a"))
        monkeypatch.setattr(train_mod, "save_checkpoint", real_save)
        assert len(best_saves) == 3         # at steps 2, 4 and 6

        run = tmp_path / "b"
        done = subprocess.run([sys.executable, "-c", KILL_RUN, os.path.dirname(__file__),
                               str(run), str(len(best_saves))], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 17, done.stderr
        train(cfg, tcfg, ds, val, out_dir=str(run), resume=str(run / "last.ckpt"))
        for name in ("best.ckpt", "last.ckpt", "metrics.log"):
            assert (run / name).read_bytes() == (tmp_path / "a" / name).read_bytes(), name

    def test_nan_loss_aborts_and_keeps_checkpoint(self, tmp_path, monkeypatch):
        cfg = toy_sr_config()
        tcfg = TrainConfig(iterations=8, val_period=2, batch_size=2,
                           patch_size=8, seed=3)
        ds = toy_dataset(4)
        real_loss = train_mod.compute_loss
        calls = {"n": 0}

        def poisoned(lcfg, pred, target):
            calls["n"] += 1
            if calls["n"] >= 5:
                return Tensor(np.array(np.nan))
            return real_loss(lcfg, pred, target)

        monkeypatch.setattr(train_mod, "compute_loss", poisoned)
        result = train(cfg, tcfg, ds, [], out_dir=str(tmp_path))
        assert result.diverged
        assert (tmp_path / "last.ckpt").exists()   # from the step-2 validation
        assert any("ABORT" in line for line in result.metrics)


    def test_non_finite_validation_aborts_and_keeps_checkpoint(self, tmp_path,
                                                               monkeypatch):
        # the untaped forward (validation restores only) returns NaN from
        # the second validation on; the clamp would have made it black
        cfg = toy_sr_config()
        tcfg = TrainConfig(iterations=8, val_period=2, batch_size=2,
                           patch_size=8, seed=3)
        ds = toy_dataset(4)
        val = make_validation_pairs(ds.hq_images[:1], ds.spec)
        real_forward = train_mod.forward
        restores = []

        def poisoned(params, x):
            out = real_forward(params, x)
            if out.requires_grad:
                return out
            restores.append(x)
            return Tensor(np.full_like(out.data, np.nan)) if len(restores) >= 2 else out

        monkeypatch.setattr(train_mod, "forward", poisoned)
        result = train(cfg, tcfg, ds, val, out_dir=str(tmp_path))
        assert result.diverged
        assert result.metrics[-1] == "step 4 validation: the restored image holds NaN or Inf ABORT"
        assert len(result.losses) == 4 and len(restores) == 2
        # last.ckpt and best.ckpt stay as the step-2 validation wrote them
        assert load_train_state(str(tmp_path / "last.ckpt"))[1].step == 2
        assert (tmp_path / "best.ckpt").exists()
        log = (tmp_path / "metrics.log").read_text().splitlines()
        assert log == result.metrics


class TestTrainStatePersistence:
    def test_roundtrip(self, tmp_path):
        # a fresh state (best PSNR -inf) and one part way through a run
        params = init_params(tiny_config(), seed=1)
        for step, best_psnr in ((0, -math.inf), (17, 31.5)):
            state = TrainState.fresh(params, seed=2)
            rng = np.random.default_rng(step)
            # distinct m and v, v >= 0 as in Adam
            state.m[...] = rng.normal(size=state.m.size)
            state.v[...] = rng.uniform(size=state.v.size)
            state.step = step
            state.best_psnr = best_psnr
            path = str(tmp_path / "last.ckpt")
            save_train_state(params, state, path)
            params2, state2 = load_train_state(path)
            assert state2.step == step
            assert state2.best_psnr == best_psnr
            assert state2.rng_state == state.rng_state
            for (n, t), (n2, t2) in zip(params.named(), params2.named(),
                                        strict=True):
                assert n == n2
                np.testing.assert_array_equal(t.data, t2.data)
            np.testing.assert_array_equal(state.m, state2.m)
            np.testing.assert_array_equal(state.v, state2.v)

    def test_params_only_checkpoint_has_no_state(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_params(tiny_config(), seed=1), path)
        with pytest.raises(CheckpointError, match="no resume state"):
            load_train_state(path)

    def test_validation_writes_only_checkpoints_and_log(self, tmp_path):
        cfg = toy_sr_config()
        tcfg = TrainConfig(iterations=4, val_period=2, batch_size=2,
                           patch_size=8, seed=2)
        ds = toy_dataset(4)
        val = make_validation_pairs(ds.hq_images[:1], ds.spec)
        result = train(cfg, tcfg, ds, val, out_dir=str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["best.ckpt", "last.ckpt", "metrics.log"]
        _, state = load_train_state(str(tmp_path / "last.ckpt"))
        assert state.step == 4 and state.best_psnr == result.best_psnr
        assert load_checkpoint(str(tmp_path / "best.ckpt")).config == cfg


class TestGradcheckHarness:
    def test_tiny_config_passes(self):
        report = gradcheck(tiny_config(), tolerance=1e-4, seed=0)
        assert report.passed
        assert report.max_error < 1e-6

    def test_deterministic_report(self):
        a = gradcheck(tiny_config(), tolerance=1e-4, seed=1, losses=("charbonnier",))
        b = gradcheck(tiny_config(), tolerance=1e-4, seed=1, losses=("charbonnier",))
        assert a.groups == b.groups

    def test_mutation_is_caught(self, monkeypatch):
        real = tensor_mod._gelu_grad
        monkeypatch.setattr(tensor_mod, "_gelu_grad",
                            lambda x, cdf=None: real(x, cdf) * 1.05)
        report = gradcheck(tiny_config(), tolerance=1e-4, seed=0,
                           losses=("charbonnier",))
        assert not report.passed

    def test_report_lines(self):
        report = GradcheckReport(tolerance=1e-3,
                                 groups={"a.w": 1e-5, "b.w": 5e-3})
        lines = report.lines()
        assert any("FAIL" in ln for ln in lines)
        assert not report.passed
