import hashlib
import math
import os
import resource
import struct
import zlib
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (assert_all_equal, check_gradients, load_perfbench, traced_peak,
                      usable_cpus)
from swinir import attention, checkpoint, model
from swinir import tensor as T
from swinir.checkpoint import (CheckpointError, deserialize, load_checkpoint,
                               save_checkpoint, serialize)
from swinir.model import (MAX_WINDOW, ModelParams, SwinIRConfig, car_config,
                          classical_sr_config, count_mult_adds, deep_extract,
                          denoise_config, forward, init_params,
                          lightweight_sr_config, param_count, reconstruct_sr,
                          rstb_forward, shallow_extract, tiny_config)
from swinir.tensor import Tensor, conv2d, no_grad, sum_
from swinir.imageio import ImageBuffer
from swinir.train import TrainState, restore_image

reference = load_perfbench("reference")

# the config block's fields, in file order
_CONFIG_FIELDS = tuple(f.name for f in fields(SwinIRConfig))


def zero_(t):
    t.data[...] = 0.0


class TestShallowExtract:
    def test_delta_kernel_copies_channels(self, rng):
        cfg = tiny_config(channels=4, channels_in=2)
        params = init_params(cfg, seed=0)
        zero_(params.shallow.w)
        zero_(params.shallow.b)
        for c_out in range(4):
            params.shallow.w.data[c_out, c_out % 2, 1, 1] = 1.0
        x = rng.uniform(size=(1, 2, 6, 6)).astype(np.float32)
        out = shallow_extract(Tensor(x), params)
        for c_out in range(4):
            np.testing.assert_array_equal(out.data[0, c_out], x[0, c_out % 2])

    def test_zero_weights_bias_constant(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        zero_(params.shallow.w)
        params.shallow.b.data[...] = 0.25
        out = shallow_extract(Tensor(rng.uniform(size=(1, 1, 5, 5)).astype(np.float32)),
                              params)
        np.testing.assert_allclose(out.data, 0.25)

    def test_output_shape(self, rng):
        cfg = tiny_config(channels=8)
        params = init_params(cfg, seed=0)
        out = shallow_extract(Tensor(rng.uniform(size=(2, 1, 9, 11)).astype(np.float32)),
                              params)
        assert out.shape == (2, 8, 9, 11)


class TestRstb:
    @staticmethod
    def _zero_block(block):
        zero_(block.conv.w)
        zero_(block.conv.b)
        for stl in block.stls:
            zero_(stl.attn.proj_w)
            zero_(stl.attn.proj_b)
            zero_(stl.mlp.fc2_w)
            zero_(stl.mlp.fc2_b)

    def test_pure_residual_identity(self, rng):
        cfg = tiny_config(stl_per_rstb=2)
        params = init_params(cfg, seed=0)
        self._zero_block(params.rstbs[0])
        x = rng.uniform(size=(1, 8, 6, 6)).astype(np.float32)
        out = rstb_forward(Tensor(x), params.rstbs[0], cfg.window)
        np.testing.assert_array_equal(out.data, x)

    def test_no_residual_flag_returns_conv_output(self, rng):
        cfg = tiny_config(stl_per_rstb=2)
        params = init_params(cfg, seed=0)
        self._zero_block(params.rstbs[0])
        x = rng.uniform(size=(1, 8, 6, 6)).astype(np.float32)
        out = rstb_forward(Tensor(x), params.rstbs[0], cfg.window, residual=False)
        np.testing.assert_array_equal(out.data, np.zeros_like(x))

    def test_gradcheck_tiny_block(self, rng):
        cfg = tiny_config(channels=4, heads=2, stl_per_rstb=1, window=4)
        params = init_params(cfg, seed=3, dtype=np.float64)
        block = params.rstbs[0]
        x = rng.uniform(size=(1, 4, 4, 4))

        def fn(xx):
            return sum_(rstb_forward(xx, block, cfg.window) ** 2.0)

        check_gradients(fn, [x], tol=1e-3)


class TestDeepExtract:
    def test_zero_blocks_reduce_to_trailing_conv(self, rng):
        cfg = SwinIRConfig(task="denoise", scale=1, in_channels=1, out_channels=1,
                           channels=8, rstb_count=0, stl_per_rstb=1, window=4,
                           heads=2)
        params = init_params(cfg, seed=0)
        x = Tensor(rng.uniform(size=(1, 8, 6, 6)).astype(np.float32))
        expected = conv2d(x, params.trunk.w, params.trunk.b)
        np.testing.assert_array_equal(deep_extract(x, params).data, expected.data)

    def test_zero_trailing_conv_zeroes_output(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        zero_(params.trunk.w)
        zero_(params.trunk.b)
        out = deep_extract(Tensor(rng.uniform(size=(1, 8, 8, 8)).astype(np.float32)),
                           params)
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_shape_preserved(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        out = deep_extract(Tensor(rng.uniform(size=(2, 8, 7, 9)).astype(np.float32)),
                           params)
        assert out.shape == (2, 8, 7, 9)


class TestReconstructSr:
    def test_skip_is_additive_and_head_linear(self, rng):
        # direct head without bias is linear, so doubling F_DF with F_0 = 0
        # doubles the output
        cfg = tiny_config(task="sr", scale=2)
        params = init_params(cfg, seed=0)
        zero_(params.head["up"].b)
        f0 = Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32))
        fdf = rng.uniform(size=(1, 8, 4, 4)).astype(np.float32)
        once = reconstruct_sr(f0, Tensor(fdf), params).data
        twice = reconstruct_sr(f0, Tensor(2.0 * fdf), params).data
        np.testing.assert_allclose(twice, 2.0 * once, rtol=1e-5)

    def test_hand_set_2x_upsample_of_1x1(self):
        cfg = tiny_config(task="sr", scale=2, channels=8)
        params = init_params(cfg, seed=0)
        up = params.head["up"]
        zero_(up.w)
        zero_(up.b)
        # center tap of channel 0 feeds the four shuffle phases with
        # distinct gains
        for phase, gain in enumerate((1.0, 2.0, 3.0, 4.0)):
            up.w.data[phase, 0, 1, 1] = gain
        f0 = np.zeros((1, 8, 1, 1), dtype=np.float32)
        f0[0, 0, 0, 0] = 5.0
        out = reconstruct_sr(Tensor(f0), Tensor(np.zeros_like(f0)), params)
        np.testing.assert_array_equal(out.data[0, 0], [[5.0, 10.0], [15.0, 20.0]])


class TestReconstructResidual:
    def test_zero_head_gives_input_bit_identical(self, rng):
        cfg = tiny_config(task="denoise")
        params = init_params(cfg, seed=0)
        zero_(params.head["conv"].w)
        zero_(params.head["conv"].b)
        x = rng.uniform(size=(1, 1, 10, 13)).astype(np.float32)
        out = forward(params, Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_identity_path_gradient(self, rng):
        cfg = tiny_config(channels=4, heads=2, stl_per_rstb=1, window=4)
        params = init_params(cfg, seed=1, dtype=np.float64)
        x = rng.uniform(size=(1, 1, 4, 4))
        check_gradients(lambda xx: sum_(forward(params, xx)), [x], tol=1e-3)
        # the identity path alone contributes exactly 1 per input pixel
        zero_(params.head["conv"].w)
        zero_(params.head["conv"].b)
        xt = Tensor(np.asarray(x), requires_grad=True)
        sum_(forward(params, xt)).backward()
        np.testing.assert_allclose(xt.grad, np.ones_like(x))

    def test_shape_preserved_arbitrary_size(self, rng):
        cfg = tiny_config(task="car", window=4)
        params = init_params(cfg, seed=0)
        for h, w in ((9, 9), (10, 14), (8, 8), (13, 9)):
            out = forward(params, Tensor(rng.uniform(size=(1, 1, h, w)).astype(np.float32)))
            assert out.shape == (1, 1, h, w)


class TestForward:
    def test_deterministic(self, rng):
        cfg = tiny_config(task="sr", scale=2, channels=16, heads=2,
                          stl_per_rstb=2)
        params = init_params(cfg, seed=0)
        x = Tensor(rng.uniform(size=(1, 1, 16, 16)).astype(np.float32))
        a = forward(params, x).data
        b = forward(params, x).data
        np.testing.assert_array_equal(a, b)

    def test_task_channel_mismatch(self, rng):
        params = init_params(tiny_config(), seed=0)
        with pytest.raises(ValueError, match="channels"):
            forward(params, Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))

    def test_global_skip_with_deep_path_zeroed(self, rng):
        cfg = tiny_config(task="sr", scale=2)
        params = init_params(cfg, seed=0)
        zero_(params.trunk.w)
        zero_(params.trunk.b)
        x = Tensor(rng.uniform(size=(1, 1, 8, 8)).astype(np.float32))
        full = forward(params, x).data
        f0 = shallow_extract(x, params)
        head_only = reconstruct_sr(f0, Tensor(np.zeros_like(f0.data)), params).data
        np.testing.assert_array_equal(full, head_only)

    def test_padding_leaves_interior_untouched(self, rng):
        # reflect-padding to the window multiple must not leak into the
        # interior: compare a 13x15 run against the same content padded
        # externally to 16x16 and cropped back
        cfg = tiny_config(task="denoise", window=4, stl_per_rstb=2)
        params = init_params(cfg, seed=2)
        big = rng.uniform(size=(1, 1, 16, 16)).astype(np.float32)
        from swinir.windows import _reflect_indices
        small = big[:, :, :13, :15].copy()
        reflected = small[:, :, _reflect_indices(13, 3), :][:, :, :, _reflect_indices(15, 1)]
        out_small = forward(params, Tensor(small)).data
        out_big = forward(params, Tensor(reflected)).data[:, :, :13, :15]
        # top-left block sits 3 windows away from the padded edges
        np.testing.assert_allclose(out_small[:, :, :5, :5], out_big[:, :, :5, :5],
                                   atol=1e-6)

    def test_translation_covariance_smoke(self, rng):
        cfg = tiny_config(task="denoise", window=4, stl_per_rstb=2)
        params = init_params(cfg, seed=0)
        m = cfg.window
        x = rng.uniform(size=(1, 1, 32, 32)).astype(np.float32)
        base = forward(params, Tensor(x)).data
        rolled_in = np.roll(x, (m, m), axis=(2, 3))
        rolled_out = forward(params, Tensor(rolled_in)).data
        unrolled = np.roll(rolled_out, (-m, -m), axis=(2, 3))
        margin = 3 * m
        sl = (slice(None), slice(None), slice(margin, -margin), slice(margin, -margin))
        np.testing.assert_allclose(unrolled[sl], base[sl], atol=1e-4)


class TestParallelForward:
    """Untaped, every transformer layer runs as fixed chunks of whole
    windows over the pool, and BLAS runs at one thread."""

    def test_bit_identical_over_workers(self, rng, monkeypatch):
        # two 50^2 images padded to 52^2 at window 4: 338 windows per layer,
        # chunks of 128, so one chunk straddles the two images' masks
        cfg = tiny_config(task="denoise", channels=4, heads=2, stl_per_rstb=2)
        params = init_params(cfg, seed=4)
        for stl in params.rstbs[0].stls:
            stl.attn.bias_table.data = rng.normal(size=stl.attn.bias_table.shape).astype(np.float32)
        x = rng.uniform(size=(2, 1, 50, 50)).astype(np.float32)
        chunks = []
        real = attention._layer
        monkeypatch.setattr(attention, "_layer",
                            lambda t, *a: chunks.append(t.shape[0]) or real(t, *a))
        runs = []
        for workers in (1, 2, 3):
            usable_cpus(monkeypatch, workers)
            chunks.clear()
            with no_grad():
                runs.append([forward(params, Tensor(x)).data])
            # the same chunks of whole windows, whatever the CPUs
            assert sorted(chunks) == sorted([2048, 2048, 1312] * 2)
        # the chunks and conv blocks are fixed by the shapes alone, so the
        # whole forward is the same bits on any number of threads
        assert_all_equal(runs)
        # one chunk with a tape: the same layer, up to rounding
        np.testing.assert_allclose(forward(params, Tensor(x)).data, runs[0][0],
                                   rtol=0, atol=1e-5)

    @pytest.fixture
    def blas_threads(self):
        """The BLAS thread count reader, with the count set to 2 for the
        test and restored after it."""
        if T._BLAS is None:
            pytest.skip("numpy exports no BLAS thread control")
        get, put = T._BLAS
        before = get()
        put(2)
        yield get
        put(before)

    def test_blas_thread_count_restored(self, rng, monkeypatch, blas_threads):
        params = init_params(tiny_config(), seed=0)
        lq = ImageBuffer(rng.uniform(size=(9, 9, 1)).astype(np.float32))
        seen = []
        real = model.deep_extract

        def spy(*args):
            seen.append(blas_threads())
            return real(*args)

        monkeypatch.setattr(model, "deep_extract", spy)
        restore_image(params, lq)
        assert seen == [1] and blas_threads() == 2

        def fail(*args):
            raise FloatingPointError("inside the forward")

        monkeypatch.setattr(model, "deep_extract", fail)
        with pytest.raises(FloatingPointError):
            restore_image(params, lq)
        assert blas_threads() == 2
        # a taped forward keeps the count it finds
        monkeypatch.setattr(model, "deep_extract", spy)
        forward(params, Tensor(lq.data.transpose(2, 0, 1)[None]))
        assert seen[-1] == 2

    def test_warm_restore_reuses_freed_memory(self, rng, monkeypatch):
        # once the pool has started, malloc keeps one arena and fixed
        # thresholds, so a warm lightweight x2 restore of a 64^2 image
        # takes its temporaries from the free lists. With a second arena
        # and glibc's dynamic thresholds it faulted in 21.6k pages, and
        # the serial forward 1.9k
        if T._BLAS is None:
            pytest.skip("numpy exports no BLAS thread control: no pool")
        usable_cpus(monkeypatch, 2)
        params = init_params(lightweight_sr_config(2, 3), seed=0)
        lq = ImageBuffer(rng.uniform(size=(64, 64, 3)).astype(np.float32), color="rgb")
        for _ in range(2):
            restore_image(params, lq)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        restore_image(params, lq)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000

    def test_restore_on_a_platform_without_affinity_mask(self, rng, monkeypatch):
        # where os has no sched_getaffinity the pool takes os.cpu_count(),
        # and the chunks, hence the output, stay the same
        params = init_params(tiny_config(channels=4, heads=2, stl_per_rstb=2), seed=0)
        lq = ImageBuffer(rng.uniform(size=(20, 20, 1)).astype(np.float32))
        want = restore_image(params, lq).data
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        np.testing.assert_array_equal(restore_image(params, lq).data, want)


@st.composite
def _small_configs(draw) -> dict:
    """SwinIRConfig keywords of a desk-scale model, valid or not."""
    task = draw(st.sampled_from(("sr", "denoise", "car")))
    cin, channels = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    return dict(task=task, scale=draw(st.sampled_from((2, 3, 4))) if task == "sr" else 1,
                in_channels=cin, out_channels=draw(st.integers(1, 3)) if task == "sr" else cin,
                channels=channels,
                heads=draw(st.sampled_from([d for d in range(1, channels + 1)
                                            if channels % d == 0])),
                rstb_count=draw(st.integers(0, 2)), stl_per_rstb=draw(st.integers(0, 2)),
                window=draw(st.integers(0, 5)),
                mlp_ratio=draw(st.sampled_from((0, 0.1, 0.5, 1, 2.5))),
                head_style=draw(st.sampled_from(("staged", "direct"))),
                head_channels=draw(st.integers(0, 3)), rstb_residual=draw(st.booleans()))


# the last name part of every tensor that init sets to a constant (norm
# gains and shifts, biases) or to small values (bias tables)
_SET_AT_INIT = ("gamma", "beta", "b", "bq", "bk", "bv", "proj_b", "fc1_b", "fc2_b",
                "bias_table")


def staged_head(y: np.ndarray, weights: dict, scale: int) -> np.ndarray:
    """The staged SR head from the reference's own ops: the pre conv, GELU,
    a conv and a pixel shuffle per x2 stage (one x3 stage for scale 3),
    and the final conv."""
    def conv(y, name):
        return reference.conv3x3(y, weights[f"head.{name}.w"], weights[f"head.{name}.b"])

    y = reference.gelu(conv(y, "pre"))
    for k, r in enumerate((2, 2) if scale == 4 else (scale,)):
        y = conv(y, f"up{k}")
        n, c, h, w = y.shape
        y = (y.reshape(n, c // (r * r), r, r, h, w).transpose(0, 1, 4, 2, 5, 3)
             .reshape(n, c // (r * r), h * r, w * r))
    return conv(y, "final")


def reference_forward(cfg: SwinIRConfig, weights: dict, x: np.ndarray) -> np.ndarray:
    """The reference's forward. It refuses the staged SR head, so there it
    runs as a direct head of scale 1 whose conv is the identity, which
    returns F_0 + F_DF, and ``staged_head`` follows."""
    if cfg.task != "sr" or cfg.head_style == "direct":
        return reference.forward(cfg, weights, x)
    c = cfg.channels
    identity = np.zeros((c, c, 3, 3))
    identity[:, :, 1, 1] = np.eye(c)
    body = SimpleNamespace(**asdict(cfg) | {"head_style": "direct", "scale": 1})
    features = reference.forward(body, weights | {"head.up.w": identity,
                                                  "head.up.b": np.zeros(c)}, x)
    return staged_head(features, weights, cfg.scale)


class TestFloat32Kernels:
    @pytest.mark.parametrize("cfg, side", [(lightweight_sr_config(2, 3), 12),
                                           (car_config(1), 21)])
    def test_float32_forward_within_gate_of_float64(self, rng, cfg, side):
        # the benchmark gate's tolerance, 2e-4 on the [0, 1] scale, on the
        # float32 kernels (tanh-form erf, unshifted softmax, einsum norms)
        # against the float64 reference at the paper's sizes: 12^2 pads to
        # the lightweight window 8, car's 21^2 is three windows of 7 a side,
        # and both shifted passes run the mask
        params = init_params(cfg, seed=3, dtype=np.float64)
        x = rng.uniform(size=(1, cfg.in_channels, side, side))
        want = reference_forward(cfg, {name: t.data for name, t in params.named()}, x)
        with no_grad():
            for t in params.tensors():
                t.data = t.data.astype(np.float32)
            got = forward(params, Tensor(x.astype(np.float32))).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-4)


class TestAccounting:
    def test_classical_anchor(self):
        count = param_count(classical_sr_config(4))
        assert abs(count - 11.8e6) / 11.8e6 < 0.10

    def test_lightweight_anchors(self):
        for scale, anchor in ((4, 897e3), (2, 878e3), (3, 886e3)):
            count = param_count(lightweight_sr_config(scale))
            assert abs(count - anchor) / anchor < 0.10, (scale, count)

    def test_degenerate_config_rejected(self):
        with pytest.raises(ValueError):
            SwinIRConfig(channels=0)

    def test_unbuildable_sizes_rejected(self):
        # a checkpoint's config block can hold any of these; none may
        # reach the allocation of a tensor with a negative dimension, nor
        # an initializer's fan-in of zero
        for bad in (dict(mlp_ratio=-0.5), dict(mlp_ratio=float("inf")),
                    dict(mlp_ratio=float("nan")),
                    dict(head_style="staged", head_channels=-1),
                    dict(head_style="staged", head_channels=0),
                    dict(in_channels=0), dict(out_channels=0)):
            with pytest.raises(ValueError):
                SwinIRConfig(**bad)
        # a model with layers needs an MLP hidden unit; one without, none
        for bad in (dict(mlp_ratio=0), dict(channels=1, heads=1, mlp_ratio=0.5)):
            with pytest.raises(ValueError, match="mlp_ratio"):
                SwinIRConfig(**bad)
        SwinIRConfig(mlp_ratio=0, stl_per_rstb=0)

    def test_mlp_ratio_beyond_thousandths_rejected(self):
        # checkpoints store the ratio in thousandths: 1.4415 would save fc1
        # [60, 86] under a ratio that loads as 1.442, i.e. [60, 87]
        for ratio in (1.4415, 1.4142):
            with pytest.raises(ValueError, match="mlp_ratio"):
                SwinIRConfig(channels=60, heads=6, mlp_ratio=ratio)

    def test_window_bounds(self):
        # window 0 used to validate and fail only in forward; a window past
        # MAX_WINDOW makes a model build a window^4 relative-position index
        for bad in (dict(window=0), dict(window=0, stl_per_rstb=0),
                    dict(window=MAX_WINDOW + 1), dict(window=60, rstb_count=0)):
            with pytest.raises(ValueError, match="window"):
                SwinIRConfig(**bad)
        for good in (dict(window=0, rstb_count=0), dict(window=MAX_WINDOW)):
            SwinIRConfig(**good)

    def test_presets_validate(self):
        presets = [tiny_config(), denoise_config(1), denoise_config(3),
                   car_config(1), car_config(3)]
        for scale in (2, 3, 4):
            presets += [classical_sr_config(scale), lightweight_sr_config(scale)]
        for cfg in presets:
            assert cfg.validate() is cfg

    def test_invalid_config_cannot_be_built(self):
        with pytest.raises(ValueError, match="window 60"):
            replace(tiny_config(), window=60)

    def test_config_field_order_pinned(self):
        # a checkpoint's config block stores the fields in this order
        assert _CONFIG_FIELDS == (
            "task", "scale", "in_channels", "out_channels", "channels", "rstb_count",
            "stl_per_rstb", "window", "heads", "mlp_ratio", "head_style",
            "head_channels", "rstb_residual")

    @settings(max_examples=200, deadline=None)
    @given(kwargs=_small_configs(), h=st.integers(1, 13), w=st.integers(1, 13),
           n=st.integers(1, 2))
    @example(kwargs=dict(task="denoise", scale=1, in_channels=1, out_channels=1,
                         channels=1, heads=1, rstb_count=1, stl_per_rstb=1, window=2,
                         mlp_ratio=0.5), h=3, w=3, n=1)
    @example(kwargs=dict(task="denoise", scale=1, in_channels=1, out_channels=1,
                         channels=2, heads=1, rstb_count=1, stl_per_rstb=0, window=0),
             h=3, w=3, n=1)
    @example(kwargs=dict(task="sr", scale=4, in_channels=2, out_channels=3, channels=4,
                         heads=2, rstb_count=1, stl_per_rstb=2, window=3, mlp_ratio=1,
                         head_style="staged", head_channels=2), h=5, w=7, n=2)
    def test_every_config_that_constructs_runs(self, kwargs, h, w, n):
        # against the benchmark's float64 reference, with every norm gain
        # and shift, bias and bias table moved off its init value: float64
        # within 1e-10, float32 within the gate's 2e-4, untaped and taped
        try:
            cfg = SwinIRConfig(**kwargs)
        except ValueError:
            return
        rng = np.random.default_rng(0)
        params = init_params(cfg, seed=0, dtype=np.float64)
        for name, t in params.named():
            if name.rsplit(".", 1)[1] in _SET_AT_INIT:
                t.data = t.data + 0.3 * rng.normal(size=t.shape)
        x = rng.uniform(size=(n, cfg.in_channels, h, w))
        want = reference_forward(cfg, {name: t.data for name, t in params.named()}, x)
        assert want.shape == (n, cfg.out_channels, h * cfg.scale, w * cfg.scale)
        with no_grad():
            np.testing.assert_allclose(forward(params, Tensor(x)).data, want,
                                       rtol=0, atol=1e-10)
            for t in params.tensors():
                t.data = t.data.astype(np.float32)
            x32 = Tensor(x.astype(np.float32))
            got = forward(params, x32).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-4)
        taped = forward(params, x32)
        np.testing.assert_allclose(taped.data, want, rtol=0, atol=2e-4)
        sum_(taped ** 2).backward()
        assert params.shallow.w.grad is not None

    def test_count_matches_built_params(self):
        for cfg in (tiny_config(), tiny_config(task="sr", scale=3, channels=16,
                                               heads=4, stl_per_rstb=3)):
            params = init_params(cfg, seed=0)
            built = sum(t.size for _, t in params.named())
            assert built == param_count(cfg)

    def test_mult_adds_anchors(self):
        for scale, anchor in ((4, 49.6e9), (2, 195.6e9), (3, 87.2e9)):
            got = count_mult_adds(lightweight_sr_config(scale), 720, 1280)
            assert abs(got - anchor) / anchor < 0.15, (scale, got)

    def test_zero_resolution_rejected(self):
        with pytest.raises(ValueError):
            count_mult_adds(tiny_config(), 0, 128)


class TestCheckpoint:
    def test_roundtrip_bit_identical_forward(self, rng, tmp_path):
        cfg = tiny_config(task="sr", scale=2, channels=16, heads=2, stl_per_rstb=2)
        params = init_params(cfg, seed=7)
        x = Tensor(rng.uniform(size=(1, 1, 12, 12)).astype(np.float32))
        before = forward(params, x).data
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        after = forward(loaded, x).data
        np.testing.assert_array_equal(before, after)

    def test_mlp_ratio_thousandths_roundtrip(self):
        cfg = SwinIRConfig(task="denoise", scale=1, in_channels=1, out_channels=1,
                           channels=60, rstb_count=1, stl_per_rstb=1, window=4,
                           heads=6, mlp_ratio=1.442)
        params = init_params(cfg, seed=0)
        loaded, _ = deserialize(serialize(params))
        assert loaded.config == cfg
        for (name, a), (_, b) in zip(params.named(), loaded.named(), strict=True):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_serialization_deterministic(self):
        params = init_params(tiny_config(), seed=3)
        assert serialize(params) == serialize(params)

    def test_param_count_equals_serialized_scalars(self):
        cfg = tiny_config(task="sr", scale=2, channels=16, heads=2)
        params = init_params(cfg, seed=0)
        serialized_scalars = sum(t.size for _, t in params.named())
        assert serialized_scalars == param_count(cfg)

    def test_corrupt_byte_refused(self, tmp_path):
        params = init_params(tiny_config(), seed=0)
        blob = bytearray(serialize(params))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum"):
            deserialize(bytes(blob))

    def test_truncated_refused(self):
        params = init_params(tiny_config(), seed=0)
        blob = serialize(params)[:-9]
        with pytest.raises(CheckpointError):
            deserialize(blob)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_truncation_with_valid_crc_refused(self, data):
        body = serialize(init_params(tiny_config(), seed=0))[:-4]
        cut = data.draw(st.integers(0, len(body) - 1), label="cut")
        blob = body[:cut] + struct.pack("<I", zlib.crc32(body[:cut]))
        with pytest.raises(CheckpointError):
            deserialize(blob)

    @pytest.mark.parametrize("field, value", [("task", -3), ("head_style", 2),
                                              ("rstb_residual", 5),
                                              ("rstb_residual", -1)])
    def test_enum_or_boolean_out_of_range_refused(self, field, value):
        # task -3 would wrap to sr and rstb_residual 5 read as True: each
        # file would load as one that saves to other bytes
        body = bytearray(serialize(init_params(tiny_config(task="sr", scale=2), seed=0))[:-4])
        struct.pack_into("<i", body, 8 + 4 * _CONFIG_FIELDS.index(field), value)
        with pytest.raises(CheckpointError, match=f"{field} {value} is not in"):
            deserialize(bytes(body) + struct.pack("<I", zlib.crc32(body)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_config_block_that_loads_saves_to_its_own_bytes(self, data):
        params = init_params(tiny_config(task="sr", scale=2), seed=0)
        body = bytearray(serialize(params, data.draw(st.sampled_from(
            [None, TrainState.fresh(params, 0)])))[:-4])
        field = data.draw(st.sampled_from(_CONFIG_FIELDS), label="field")
        value = data.draw(st.integers(-4, 4) | st.integers(-2 ** 31, 2 ** 31 - 1),
                          label="value")
        struct.pack_into("<i", body, 8 + 4 * _CONFIG_FIELDS.index(field), value)
        _loads_as_itself_or_refuses(bytes(body) + struct.pack("<I", zlib.crc32(body)))

    def test_bogus_record_count_refused(self):
        body = bytearray(serialize(init_params(tiny_config(), seed=0))[:-4])
        count_at = 8 + 4 * len(_CONFIG_FIELDS)
        body[count_at:count_at + 4] = struct.pack("<I", 0xFFFFFFFF)
        blob = bytes(body) + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CheckpointError, match="malformed"):
            deserialize(blob)

    def test_save_never_leaves_partial_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"previous")
        params = init_params(tiny_config(), seed=0)

        def crash(src, dst):
            raise OSError("crash before rename")

        monkeypatch.setattr(checkpoint.os, "replace", crash)
        with pytest.raises(OSError):
            save_checkpoint(params, str(path))
        assert path.read_bytes() == b"previous"
        monkeypatch.undo()
        save_checkpoint(params, str(path))
        assert path.read_bytes() == serialize(params)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    @pytest.mark.parametrize("failure", [OSError(28, "No space left on device"),
                                         KeyboardInterrupt()])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, failure):
        # the write that would pass the end of the first record fails
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"previous")
        params = init_params(tiny_config(), seed=0)
        name, first = next(params.named())
        limit = 8 + 4 * len(_CONFIG_FIELDS) + 4 + 2 + len(name) + 1 \
            + 8 * first.ndim + first.data.nbytes

        class FailingFile:
            def __init__(self, fh):
                self.fh, self.written = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, part):
                self.written += memoryview(part).nbytes
                if self.written > limit:
                    raise failure
                return self.fh.write(part)

        monkeypatch.setattr(checkpoint, "open",
                            lambda file, mode: FailingFile(open(file, mode)),
                            raising=False)
        with pytest.raises(type(failure)):
            save_checkpoint(params, str(path))
        assert path.read_bytes() == b"previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_format_pinned(self):
        # the v1 and v2 files of a fixed tiny model: any change to the
        # layout or the stored values changes these digests
        params = init_params(tiny_config(), seed=0)
        assert hashlib.sha256(serialize(params)).hexdigest() == \
            "d93dfe86cda1f7b1e425d4d8ae06943eedc8384c2485f5d76d2cdfd311f0d353"
        assert hashlib.sha256(serialize(params, TrainState.fresh(params, 0))).hexdigest() == \
            "8ecb22ede0bf532e1e5634cbd1743558e2cd54bdb2dc254c888af2e720067c51"

    def test_save_and_load_hold_no_second_copy(self, tmp_path):
        # a save holds no copy of the parameters, a load only the arrays
        # it returns (3.1 MB here)
        params = init_params(lightweight_sr_config(2, 3), seed=0)
        path = str(tmp_path / "model.ckpt")
        largest = max(t.data.nbytes for _, t in params.named())
        with traced_peak() as peak:
            save_checkpoint(params, path)
            assert peak() < largest + 256 * 1024
        with traced_peak() as peak:
            loaded = load_checkpoint(path)
            returned = sum(t.data.nbytes for _, t in loaded.named())
            assert peak() < returned + 256 * 1024

    def test_bad_magic_refused(self):
        with pytest.raises(CheckpointError, match="magic"):
            deserialize(b"NOPE" + b"\x00" * 64)

    def test_state_section_follows_version_1_layout(self):
        params = init_params(tiny_config(), seed=0)
        state = TrainState.fresh(params, seed=1)
        rng = np.random.default_rng(0)
        state.m[...] = rng.normal(size=state.m.size)
        state.v[...] = rng.uniform(size=state.v.size)
        state.step, state.best_psnr = 5, 20.25
        v1, v2 = serialize(params), serialize(params, state)
        assert v1[4:8] == struct.pack("<I", 1)
        assert v2[4:8] == struct.pack("<I", 2)
        assert v2[8:len(v1) - 4] == v1[8:-4]
        m, v = params.views(state.m), params.views(state.v)
        moments = b"".join(m[n].astype("<f4").tobytes() for n, _ in params.named()) \
            + b"".join(v[n].astype("<f4").tobytes() for n, _ in params.named())
        assert v2[len(v1) - 4:-4] == \
            struct.pack("<QQd", 5, state.rng_state, 20.25) + moments
        loaded, fields = deserialize(v2)
        assert serialize(loaded) == v1
        assert (fields["step"], fields["best_psnr"]) == (5, 20.25)
        assert deserialize(v1)[1] is None

    def test_huge_config_refused_before_allocation(self):
        # 8,689 bytes whose config asks for 106.5G floats: refused from
        # the sizes alone, without building the model
        body = bytearray(serialize(init_params(tiny_config(), seed=0))[:-4])
        for field, value in (("channels", 65536), ("heads", 1)):
            struct.pack_into("<i", body, 8 + 4 * _CONFIG_FIELDS.index(field), value)
        blob = bytes(body) + struct.pack("<I", zlib.crc32(body))
        with traced_peak() as peak:
            with pytest.raises(CheckpointError, match="asks for 106517194392"):
                deserialize(blob)
            assert peak() < len(blob) * 4

    def test_huge_window_refused_before_allocation(self):
        # a CRC-valid file whose window 60 asks for a 4 * 60^4-byte (52 MB)
        # relative-position index; its bias table fits in the file
        params = init_params(tiny_config(channels=1, heads=1), seed=0)
        params.rstbs[0].stls[0].attn.bias_table = Tensor(
            np.zeros((119 ** 2, 1), dtype=np.float32))
        body = bytearray(serialize(params)[:-4])
        struct.pack_into("<i", body, 8 + 4 * _CONFIG_FIELDS.index("window"), 60)
        blob = bytes(body) + struct.pack("<I", zlib.crc32(body))
        assert len(blob) == 57821
        with traced_peak() as peak:
            with pytest.raises(CheckpointError, match="window 60"):
                deserialize(blob)
            assert peak() < len(blob) * 4

    def test_non_finite_values_refused(self):
        # NaN in a parameter, in an Adam moment, or as the best PSNR
        params = init_params(tiny_config(), seed=0)
        state = TrainState.fresh(params, seed=0)
        v1 = serialize(params)
        nan32, nan64 = struct.pack("<f", math.nan), struct.pack("<d", math.nan)
        for blob, at, value, match in (
                (v1, len(v1) - 8, nan32, "non-finite"),
                (serialize(params, state), -8, nan32, "non-finite"),
                (serialize(params, state), len(v1) - 4 + 16, nan64, "best PSNR")):
            body = bytearray(blob[:-4])
            body[at:at + len(value)] = value
            with pytest.raises(CheckpointError, match=match):
                deserialize(bytes(body) + struct.pack("<I", zlib.crc32(body)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_bytes_load_or_refuse(self, data):
        # a random tail after a prefix (possibly empty) of a valid file, so
        # that the version, config block and records are reached, with and
        # without a CRC recomputed over it
        params = init_params(tiny_config(), seed=0)
        valid = data.draw(st.sampled_from(
            [serialize(params), serialize(params, TrainState.fresh(params, 0))]))
        keep = data.draw(st.integers(0, len(valid) - 4), label="keep")
        body = valid[:keep] + data.draw(st.binary(max_size=300), label="tail")
        blob = data.draw(st.sampled_from([body, body + struct.pack("<I", zlib.crc32(body))]))
        _loads_as_itself_or_refuses(blob)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_bit_flip_with_valid_crc_loads_or_refuses(self, data):
        params = init_params(tiny_config(), seed=0)
        for state in (None, TrainState.fresh(params, 0)):
            body = bytearray(serialize(params, state)[:-4])
            bit = data.draw(st.integers(0, 8 * len(body) - 1), label="bit")
            _flip_loads_or_refuses(body, bit)

    def test_every_bit_flip_outside_values_loads_or_refuses(self):
        # every bit that is not a stored float value: header, config
        # block, record names, ranks and dims, and the state scalars
        params = init_params(tiny_config(), seed=0)
        for state in (None, TrainState.fresh(params, 0)):
            body = bytearray(serialize(params, state)[:-4])
            for offsets in _header_fields(params, state).values():
                for byte in offsets:
                    for bit in range(8):
                        _flip_loads_or_refuses(body, 8 * byte + bit)

    @pytest.mark.parametrize("version, field", [
        (version, field) for version in (1, 2)
        for field in ("version", "config", "count", "name length", "name",
                      "rank", "dims", "state")
        if (version, field) != (1, "state")])
    def test_header_byte_flip_without_crc_reads_checksum(self, version, field):
        # the CRC decides the message even where the parse fails first
        params = init_params(tiny_config(), seed=0)
        state = TrainState.fresh(params, 0) if version == 2 else None
        blob = serialize(params, state)
        for byte in _header_fields(params, state)[field]:
            flipped = bytearray(blob)
            flipped[byte] ^= 0xFF
            with pytest.raises(CheckpointError, match="checksum"):
                deserialize(bytes(flipped))

    def test_early_parse_error_in_large_file_reads_checksum(self):
        # the CRC runs over the 3.2 MB left after the version, in bounded reads
        blob = bytearray(serialize(init_params(lightweight_sr_config(2, 3), seed=0)))
        blob[4] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum"):
            deserialize(bytes(blob))
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            deserialize(bytes(blob))


def _header_fields(params: ModelParams, state) -> dict:
    """Byte offsets of every field that is not a stored float value, by
    field, in a file of ``params`` and ``state``."""
    config_end = 8 + 4 * len(_CONFIG_FIELDS)
    fields = {"magic": range(4), "version": range(4, 8),
              "config": range(8, config_end), "count": range(config_end, config_end + 4),
              "name length": [], "name": [], "rank": [], "dims": []}
    off = config_end + 4
    for name, t in params.named():
        for field, size in (("name length", 2), ("name", len(name)), ("rank", 1),
                            ("dims", 8 * t.ndim)):
            fields[field] += range(off, off + size)
            off += size
        off += 4 * t.size
    if state is not None:
        fields["state"] = range(off, off + 24)
    return fields


def _loads_as_itself_or_refuses(blob: bytes) -> None:
    """``blob`` either raises CheckpointError or loads as a file that saves
    back to ``blob``: no two files load alike."""
    try:
        params, fields = deserialize(blob)
    except CheckpointError:
        return
    assert serialize(params, None if fields is None else TrainState(**fields)) == blob


def _flip_loads_or_refuses(body: bytearray, bit: int) -> None:
    flipped = bytearray(body)
    flipped[bit // 8] ^= 1 << (bit % 8)
    _loads_as_itself_or_refuses(bytes(flipped) + struct.pack("<I", zlib.crc32(flipped)))
