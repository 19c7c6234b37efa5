import ctypes
import math
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from conftest import (assert_all_equal, check_gradients, conv_byte_budgets,
                      max_rel_err, package_env, tape_gradients, traced_peak,
                      usable_cpus)
from swinir import tensor as T
from swinir.losses import l1_loss
from swinir.model import forward, init_params, lightweight_sr_config, tiny_config
from swinir.tensor import (Tensor, abs_, concat, conv2d, gather_rows, gelu,
                           layer_norm, linear, matmul, mean, mlp, mul, no_grad,
                           parallel_for, permute, pixel_shuffle, pixel_unshuffle,
                           reshape, roll, softmax, sqrt, sum_, take,
                           window_attention)
from swinir.windows import build_attn_mask


# -- conv2d ---------------------------------------------------------------

class TestConv2d:
    def test_identity_1x1(self, rng):
        x = Tensor(rng.uniform(size=(2, 3, 5, 5)).astype(np.float32))
        w = Tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        b = Tensor(np.zeros(3, dtype=np.float32))
        out = conv2d(x, w, b)
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_kernel_on_constant(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = conv2d(x, w, Tensor(np.zeros(1, dtype=np.float32)))
        assert out.data[0, 0, 1, 1] == 9.0
        assert out.data[0, 0, 2, 2] == 9.0
        for corner in ((0, 0), (0, 3), (3, 0), (3, 3)):
            assert out.data[0, 0][corner] == 4.0

    def test_weight_gradient_matches_fd(self, rng):
        x = rng.uniform(size=(1, 1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3)) * 0.5
        b = rng.normal(size=(2,)) * 0.1
        check_gradients(lambda xx, ww, bb: sum_(conv2d(xx, ww, bb)),
                        [x, w, b], tol=1e-3)

    def test_delta_kernel_bit_identical(self, rng):
        x = Tensor(rng.uniform(size=(1, 2, 6, 7)).astype(np.float32))
        w = np.zeros((2, 2, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = conv2d(x, Tensor(w), Tensor(np.zeros(2, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, x.data)

    @staticmethod
    def loop_oracle(x, w, b, g):
        """Direct loops over every output position and tap: the output of
        conv2d(x, w, b), padded by k // 2, and the gradients of
        sum(out * g)."""
        n, cin, h, wd = x.shape
        cout, _, k, _ = w.shape
        padding = k // 2
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        hout, wout = xp.shape[2] - k + 1, xp.shape[3] - k + 1
        out = np.zeros((n, cout, hout, wout))
        dxp, dw = np.zeros_like(xp), np.zeros_like(w)
        for img in range(n):
            for co in range(cout):
                for yy in range(hout):
                    for xx in range(wout):
                        patch = xp[img, :, yy:yy + k, xx:xx + k]
                        out[img, co, yy, xx] = (patch * w[co]).sum() + b[co]
                        gv = g[img, co, yy, xx]
                        dw[co] += gv * patch
                        dxp[img, :, yy:yy + k, xx:xx + k] += gv * w[co]
        dx = dxp[:, :, padding:padding + h, padding:padding + wd]
        return out, [dx, dw, g.sum(axis=(0, 2, 3))]

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_loop_oracle_under_block_budgets(self, rng, monkeypatch, k):
        # small integers: every sum is exact in float64 whatever the order,
        # so any slip in the blocks' offsets or the junk columns shows as an
        # exact mismatch; the input and the output gradient are both padded
        # by k // 2, 0 to 2 over these cases
        x = rng.integers(-3, 4, size=(2, 3, 5, 7)).astype(np.float64)
        w = rng.integers(-3, 4, size=(4, 3, k, k)).astype(np.float64)
        b = rng.integers(-3, 4, size=(4,)).astype(np.float64)
        g = rng.integers(-3, 4, size=(2, 4, 5, 7)).astype(np.float64)
        out_ref, grads_ref = self.loop_oracle(x, w, b, g)

        def loss(xx, ww, bb):
            return sum_(conv2d(xx, ww, bb) * Tensor(g))

        runs = []
        for _ in conv_byte_budgets(monkeypatch, workers=(1, 2, 3)):
            out = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
            with no_grad():     # the (image, block) pairs go over the pool
                pooled = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
            grads = tape_gradients(loss, [x, w, b])
            np.testing.assert_array_equal(out, out_ref)
            np.testing.assert_array_equal(pooled, out_ref)
            for got, want in zip(grads, grads_ref, strict=True):
                np.testing.assert_array_equal(got, want)
            runs.append([out, pooled] + grads)
        assert_all_equal(runs)

    def test_float32_gradients_match_float64_tape(self, rng, monkeypatch):
        x = rng.normal(size=(2, 16, 12, 12))
        w = rng.normal(size=(16, 16, 3, 3)) * 0.2
        g = rng.normal(size=(2, 16, 12, 12))
        zero = np.zeros(16)
        want = tape_gradients(
            lambda xx, ww: sum_(conv2d(xx, ww, Tensor(zero)) * Tensor(g)), [x, w])
        for _ in conv_byte_budgets(monkeypatch):
            xs = Tensor(x.astype(np.float32), requires_grad=True)
            ws = Tensor(w.astype(np.float32), requires_grad=True)
            bs = Tensor(zero.astype(np.float32))
            sum_(conv2d(xs, ws, bs) * Tensor(g.astype(np.float32))).backward()
            for got, ref in ((xs.grad, want[0]), (ws.grad, want[1])):
                assert got.dtype == np.float32
                assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()

    @pytest.mark.parametrize("needs_dx", [True, False])
    def test_backward_runs_the_forward_kernel_for_dx_only(self, rng, monkeypatch,
                                                          needs_dx):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=needs_dx)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        loss = sum_(conv2d(x, w, Tensor(np.zeros(4))))
        calls = []
        real = T._correlate
        monkeypatch.setattr(T, "_correlate", lambda *a: calls.append(a) or real(*a))
        loss.backward()
        assert len(calls) == int(needs_dx)
        assert w.grad is not None and (x.grad is not None) == needs_dx

    def test_gradients_one_position_per_block(self, rng, monkeypatch):
        monkeypatch.setattr(T, "_CONV_BYTES", 1)
        x = rng.uniform(size=(2, 2, 4, 5))
        w = rng.normal(size=(3, 2, 3, 3)) * 0.5
        b = rng.normal(size=(3,)) * 0.1
        check_gradients(lambda xx, ww, bb: sum_(conv2d(xx, ww, bb) ** 2),
                        [x, w, b])

    def test_wide_input_blocks_hold_256_positions(self, rng, monkeypatch):
        # Cin = 180 takes 6,480 bytes of columns per position, 80 positions
        # in a plain 512 KiB block; the floor gives 256, and a one-byte conv
        # budget still gives every position a block of its own
        seen = []
        real = T.parallel_for
        monkeypatch.setattr(T, "parallel_for",
                            lambda fn, items: seen.append(items) or real(fn, items))
        x = Tensor(rng.normal(size=(1, 180, 20, 20)).astype(np.float32))
        w = Tensor(rng.normal(size=(2, 180, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        span = 19 * 22 + 20
        lengths = []
        for conv_bytes in (T._CONV_BYTES, 1):
            monkeypatch.setattr(T, "_CONV_BYTES", conv_bytes)
            seen.clear()
            conv2d(x, w, b)
            lengths.append(sorted({pos.stop - pos.start for _, pos in seen[0]}))
        assert lengths == [[span - 256, 256], [1]]

    def test_inference_memory_below_column_matrix(self, rng):
        x = Tensor(rng.normal(size=(1, 60, 128, 128)).astype(np.float32))
        w = Tensor(rng.normal(size=(60, 60, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(60, dtype=np.float32))
        whole_columns = 128 * 128 * 60 * 9 * 4
        with traced_peak() as peak, no_grad():
            conv2d(x, w, b)
            assert peak() < whole_columns

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))),
                   Tensor(np.zeros(1)))

    @pytest.mark.parametrize("kernel", [(2, 2), (3, 1)], ids=["2x2", "3x1"])
    def test_even_or_non_square_kernel_raises(self, kernel):
        # "same" padding by k // 2 needs an odd square kernel
        with pytest.raises(ValueError, match="square and odd"):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1) + kernel)),
                   Tensor(np.zeros(1)))


# -- linear ---------------------------------------------------------------

class TestLinear:
    def test_identity(self, rng):
        x = Tensor(rng.uniform(size=(4, 3)).astype(np.float32))
        out = linear(x, Tensor(np.eye(3, dtype=np.float32)),
                     Tensor(np.zeros(3, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_product(self):
        x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        w = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=np.float32))
        b = Tensor(np.array([1.0, 1.0], dtype=np.float32))
        np.testing.assert_allclose(linear(x, w, b).data, [[2.0, 5.0]])

    def test_gradients(self, rng):
        x = rng.uniform(size=(2, 3, 4))
        w = rng.normal(size=(4, 5)) * 0.3
        b = rng.normal(size=(5,)) * 0.1
        check_gradients(lambda *a: mean(linear(*a)), [x, w, b])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))

    @pytest.mark.parametrize("rows", [1, 63, 64, 130, 2048])
    @pytest.mark.parametrize("dout", [84, 180])
    def test_tiled_bias_adds_bit_for_bit(self, rng, rows, dout):
        # whole 64-row runs take the tiled bias, the tail a broadcast
        x = rng.normal(size=(rows, 60)).astype(np.float32)
        w = rng.normal(size=(60, dout)).astype(np.float32)
        b = rng.normal(size=(dout,)).astype(np.float32)
        got = linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_array_equal(got, x @ w + b)


class TestParallelMap:
    """The pool behind untaped layers and convolutions."""

    def test_every_item_runs_once(self, monkeypatch):
        # more threads than the host's cores, switching every microsecond:
        # an index taken twice or lost from the shared iterator shows
        usable_cpus(monkeypatch, 3)
        done = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with no_grad():
                parallel_for(done.append, range(5000))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(done) == list(range(5000))

    def test_runs_on_the_caller_while_taping(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        seen = []
        parallel_for(lambda _: seen.append(threading.get_ident()), range(8))
        assert seen == [threading.get_ident()] * 8

    def test_task_exception_reaches_the_caller_unchanged(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        err = KeyError("chunk 3")

        def task(i):
            if i == 3:
                raise err
            return i

        with no_grad(), pytest.raises(KeyError) as info:
            parallel_for(task, range(8))
        assert info.value is err

    def test_never_nests_nor_exceeds_the_cpus(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        outer, inner = set(), []

        def task(i):
            me = threading.get_ident()
            outer.add(me)
            parallel_for(lambda _: inner.append(threading.get_ident() == me), range(4))
            threading.Event().wait(0.01)    # let every thread take an item

        with no_grad():
            parallel_for(task, range(12))
        assert 1 < len(outer) <= 3
        assert len(inner) == 48 and all(inner)

    def test_one_usable_cpu_starts_no_thread(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool thread was started")

        monkeypatch.setattr(T, "_pool", None)
        monkeypatch.setattr(threading, "Thread", refuse)
        x = Tensor(rng.normal(size=(2, 3, 9, 9)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        monkeypatch.setattr(T, "_CONV_BYTES", 1)        # many (image, block) tasks
        usable_cpus(monkeypatch, 1)
        with no_grad():
            conv2d(x, w, b)
        # the same call with two CPUs does reach the pool
        usable_cpus(monkeypatch, 2)
        with no_grad(), pytest.raises(AssertionError, match="pool thread"):
            conv2d(x, w, b)

    def test_platform_without_affinity_mask_uses_every_cpu(self, monkeypatch):
        # os.sched_getaffinity exists on Linux only; elsewhere the pool
        # spreads over os.cpu_count() CPUs
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        threads = set()

        def task(_):
            threads.add(threading.get_ident())
            threading.Event().wait(0.01)    # let both threads take an item

        with no_grad():
            parallel_for(task, range(8))
        assert len(threads) == (1 if T._BLAS is None else 2)

    def test_pool_threads_keep_the_callers_errstate(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        states = []

        def task(_):
            states.append(np.geterr()["over"])
            threading.Event().wait(0.01)    # let both threads take an item

        with no_grad(), np.errstate(over="ignore"):
            parallel_for(task, range(4))
        assert states == ["ignore"] * 4

    def test_first_taped_op_shares_the_heap(self, monkeypatch):
        monkeypatch.setattr(T, "_heap_shared", False)
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            x * 2.0
        assert not T._heap_shared
        x * 2.0
        assert T._heap_shared

    def test_heap_setup_without_a_c_library_is_a_no_op(self, monkeypatch):
        def unopenable(*args, **kwargs):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", unopenable)
        monkeypatch.setattr(T, "_heap_shared", False)    # as in a fresh process
        T._share_heap()
        # the first pool of the process still starts and runs every item
        monkeypatch.setattr(T, "_pool", None)
        usable_cpus(monkeypatch, 2)
        done = []
        try:
            with no_grad():
                parallel_for(done.append, range(8))
        finally:
            if T._pool is not None:
                T._pool[0].shutdown()
        assert sorted(done) == list(range(8))


# -- layer_norm -----------------------------------------------------------

class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = Tensor(np.full((2, 5), 3.7, dtype=np.float32))
        out = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_row(self):
        x = Tensor(np.array([[1.0, -1.0]], dtype=np.float32))
        out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[0.999995, -0.999995]], atol=1e-6)

    def test_gradients(self, rng):
        x = rng.uniform(size=(3, 6))
        g = 1.0 + 0.2 * rng.normal(size=(6,))
        b = 0.2 * rng.normal(size=(6,))
        check_gradients(lambda *a: sum_(layer_norm(*a)), [x, g, b])
        check_gradients(lambda *a: sum_(mean(layer_norm(*a) ** 2.0)), [x, g, b])

    def test_empty_axis_raises(self):
        with pytest.raises(ValueError):
            layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))


# -- gelu / softmax ---------------------------------------------------------

class TestGelu:
    def test_zero(self):
        assert gelu(Tensor(np.array([0.0]))).item() == 0.0

    def test_at_one(self):
        assert gelu(Tensor(np.array([1.0]))).item() == pytest.approx(0.841345, abs=1e-6)

    def test_tail_ratio(self):
        val = gelu(Tensor(np.array([8.0]))).item()
        assert abs(val / 8.0 - 1.0) < 1e-6

    def test_gradients(self, rng):
        check_gradients(lambda a: sum_(gelu(a)), [rng.normal(size=(2, 7))])


class TestFusedMlp:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_separate_ops_bit_for_bit(self, rng, dtype):
        # 2 x 45 rows: a whole run of 64 for the tiled bias add, and a tail
        shapes = [(2, 45, 6), (6, 12), (12,), (12, 6), (6,)]
        arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
        g = Tensor(rng.normal(size=(2, 45, 6)).astype(dtype))

        def run(fn):
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*ts)
            sum_(out * g).backward()
            return [out.data] + [t.grad for t in ts]

        assert_all_equal([
            run(mlp),
            run(lambda x, w1, b1, w2, b2: linear(gelu(linear(x, w1, b1)), w2, b2))])

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="Din"):
            mlp(Tensor(np.zeros((2, 3))), *[Tensor(np.zeros(s)) for s in
                                           [(4, 5), (5,), (5, 3), (3,)]])


class TestErf:
    """float32 erf(x / sqrt 2), from which Phi and GELU follow, is a tanh
    form (``T._erf_over_sqrt2``); float64 keeps scipy's erf. These tie the
    two together."""

    grid = np.linspace(-10.0, 10.0, 400001, dtype=np.float32)

    def test_float32_erf_near_float64(self):
        wide = erf(self.grid.astype(np.float64) * T._INV_SQRT2)
        got = T._erf_over_sqrt2(self.grid, np.empty_like(self.grid))
        assert np.abs(got - wide).max() <= 2.5e-7
        cdf = T._normal_cdf(self.grid, np.empty_like(self.grid))
        assert np.abs(cdf - 0.5 * (1.0 + wide)).max() <= 1.5e-7

    def test_float32_gelu_and_derivative_near_float64(self):
        wide = self.grid.astype(np.float64)
        assert np.abs(gelu(Tensor(self.grid)).data - gelu(Tensor(wide)).data).max() <= 1e-6
        assert np.abs(T._gelu_grad(self.grid) - T._gelu_grad(wide)).max() <= 1e-6

    def test_float32_erf_unbiased_near_zero(self, rng):
        # GELU inputs sit near 0, and a model sums the error over its
        # layers: a form whose slope at 0 is off by a few 1e-8 (its fit,
        # or sqrt(2/pi) rounded to float32) shows here as a mean offset;
        # sigma is the spread of x / sqrt 2, the argument of erf
        for sigma in (0.02, 0.05, 0.2, 1.0):
            x = (math.sqrt(2.0) * sigma * rng.normal(size=200000)).astype(np.float32)
            x = x[x != 0]
            want = erf(x.astype(np.float64) * T._INV_SQRT2)
            rel = T._erf_over_sqrt2(x, np.empty_like(x)) / want - 1.0
            assert abs(rel.mean()) < 1e-8, sigma

    def test_tanh_fit_in_float64(self):
        x = np.linspace(-T._CDF_CLIP, T._CDF_CLIP, 100000)
        y = T._CDF_SCALE * x
        u = y * T._horner(T._CDF_S, y * y)
        rel = np.tanh(u) / erf(x * T._INV_SQRT2) - 1.0
        assert np.abs(rel).max() <= 1.8e-7
        # float32 tanh is exactly +-1 at the clip, and u grows up to it
        assert np.tanh(u[[0, -1]].astype(np.float32)).tolist() == [-1.0, 1.0]
        assert (np.diff(u) > 0).all()

    def test_any_layout(self, rng):
        a = (4.0 * rng.normal(size=(60, 40))).astype(np.float32)
        assert (np.abs(a) > T._CDF_CLIP).any()
        for view in (np.transpose, lambda m: m[::2, ::3]):
            x = view(a)
            dense = np.ascontiguousarray(x)
            np.testing.assert_array_equal(T._gelu_grad(x), T._gelu_grad(dense))
            np.testing.assert_array_equal(T._erf_over_sqrt2(x, np.empty_like(x)),
                                          T._erf_over_sqrt2(dense, np.empty_like(dense)))
            out = view(a.copy())
            np.testing.assert_array_equal(T._erf_over_sqrt2(out, out),
                                          T._erf_over_sqrt2(dense, dense.copy()))

    def test_non_finite_inputs_map_as_with_scipy_erf(self):
        huge = np.array([3e38, -3e38, 1e-30], dtype=np.float32)
        np.testing.assert_array_equal(T._erf_over_sqrt2(huge, np.empty_like(huge)),
                                      erf(huge * T._INV_SQRT2))
        x = np.array([np.inf, -np.inf, np.nan, 3e19, -3e19], dtype=np.float32)
        with np.errstate(invalid="ignore", over="ignore"):
            cdf = 0.5 * (1.0 + erf(x * T._INV_SQRT2))
            phi = np.exp(-0.5 * x * x) * T._INV_SQRT2PI
            np.testing.assert_array_equal(T._erf_over_sqrt2(x, np.empty_like(x)),
                                          erf(x * T._INV_SQRT2))
            np.testing.assert_array_equal(gelu(Tensor(x)).data, x * cdf)
            np.testing.assert_array_equal(T._gelu_grad(x), cdf + x * phi)

    def test_gelu_grad_of_huge_finite_inputs(self):
        # x^2 overflows float32 above 1.8e19; the warning would be an error
        x = np.array([3e19, -3e19, 3.4e38, -3.4e38], dtype=np.float32)
        np.testing.assert_array_equal(T._gelu_grad(x), [1.0, 0.0, 1.0, 0.0])

    def test_float64_is_scipy_formula_bit_for_bit(self, rng):
        # x * (1/sqrt(2)), the product the float64 GELU has always taken
        x = np.concatenate([3.0 * rng.normal(size=5000), self.grid.astype(np.float64)])
        cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
        phi = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        np.testing.assert_array_equal(gelu(Tensor(x)).data, x * cdf)
        np.testing.assert_array_equal(T._gelu_grad(x), cdf + x * phi)

    def test_float32_process_never_loads_scipy_special(self):
        # a fresh interpreter: a float32 restore and a short training run
        # leave scipy.special unloaded; two threads then reach the float64
        # GELU's first erf at once, and both get scipy's values bit for bit
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-c", FLOAT32_THEN_FLOAT64], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["float32-clean", "float64-exact"]


FLOAT32_THEN_FLOAT64 = """
import math, sys, tempfile, threading
import numpy as np
import swinir.cli
from swinir.degrade import DegradationSpec, procedural_texture
from swinir.model import init_params, tiny_config
from swinir.tensor import Tensor, gelu
from swinir.train import (PairDataset, TrainConfig, make_validation_pairs,
                          restore_image, train)

cfg = tiny_config()
img = procedural_texture(0, 16, 16)
restore_image(init_params(cfg, seed=0), img)
spec = DegradationSpec(kind="gaussian_noise", sigma=25.0)
with tempfile.TemporaryDirectory() as out:
    train(cfg, TrainConfig(iterations=2, batch_size=2, patch_size=8, val_period=1),
          PairDataset(hq_images=[img], spec=spec), make_validation_pairs([img], spec),
          out_dir=out)
assert "scipy.special" not in sys.modules
print("float32-clean")

x = np.linspace(-9.0, 9.0, 40001)
barrier = threading.Barrier(2)
got = [None, None]

def first_erf(i):
    barrier.wait()
    got[i] = gelu(Tensor(x)).data

threads = [threading.Thread(target=first_erf, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert "scipy.special" in sys.modules
from scipy.special import erf
want = x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
for g in got:
    np.testing.assert_array_equal(g, want)
print("float64-exact")
"""


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(Tensor(np.array([0.0, 0.0]))).data,
                                   [0.5, 0.5])

    def test_log2_ratio(self):
        out = softmax(Tensor(np.array([math.log(2.0), 0.0]))).data
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-7)

    def test_mask_offset_suppresses(self, rng):
        row = rng.normal(size=(6,))
        row[2] -= 100.0
        out = softmax(Tensor(row)).data
        assert out[2] < 1e-8

    def test_gradients(self, rng):
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 5))
        check_gradients(lambda a, ww: sum_(softmax(a) * ww), [x, w])

    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, rows, width, seed):
        x = np.random.default_rng(seed).normal(size=(rows, width)) * 10
        out = softmax(Tensor(x)).data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


# -- row locality -------------------------------------------------------------

class TestRowLocality:
    """The row kernels give a row (layer_norm, gelu) or a window
    (window_attention) the same bits whichever rows share the call: a call
    on a slice of whole rows or windows equals the same slice of one whole
    call. A layer's chunks of whole windows rely on this, so a row's output
    does not depend on where the chunks are cut."""

    ROWS = [slice(0, 1), slice(3, 10), slice(7, 40)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm(self, rng, dtype):
        x = rng.normal(size=(40, 60)).astype(dtype)
        whole = layer_norm(Tensor(x), None, None).data
        for rows in self.ROWS:
            np.testing.assert_array_equal(layer_norm(Tensor(x[rows]), None, None).data,
                                          whole[rows])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu(self, rng, dtype):
        # an odd width, so the slices start off any SIMD alignment
        x = (3.0 * rng.normal(size=(40, 37))).astype(dtype)
        whole = gelu(Tensor(x)).data
        for rows in self.ROWS:
            np.testing.assert_array_equal(gelu(Tensor(x[rows])).data, whole[rows])

    @pytest.mark.parametrize("skip_max", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_window_attention(self, rng, monkeypatch, dtype, skip_max):
        # two 16x16 images at window 4, shift 2: 16 windows each, of which
        # the last row and column are masked. Windows 6-22 start mid-mask
        # and straddle the images; 15 is one corner window. The softmax
        # path is decided per call, so it is pinned to one path here
        monkeypatch.setattr(T, "_skips_max", lambda *a: skip_max)
        heads, d, m = 2, 4, 4
        mask = build_attn_mask(16, 16, m, 2)
        nw = 2 * mask.per_image
        qkv = (0.5 * rng.normal(size=(nw, m * m, 3 * heads * d))).astype(dtype)
        bias = (0.1 * rng.normal(size=(heads, m * m, m * m))).astype(dtype)
        for mk in (None, mask):
            whole = window_attention(Tensor(qkv), Tensor(bias), mk).data
            for lo, hi in ((6, 23), (15, 16), (0, 3)):
                part = None if mk is None else mk._replace(first=lo)
                got = window_attention(Tensor(qkv[lo:hi]), Tensor(bias), part).data
                np.testing.assert_array_equal(got, whole[lo:hi])


# -- pixel shuffle ----------------------------------------------------------

class TestPixelShuffle:
    def test_enumerated_2x2(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 4, 1, 1))
        out = pixel_shuffle(x, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[0, 1], [2, 3]])

    def test_roundtrip_exact(self, rng):
        x = rng.uniform(size=(2, 12, 3, 5)).astype(np.float32)
        back = pixel_unshuffle(pixel_shuffle(Tensor(x), 2), 2)
        np.testing.assert_array_equal(back.data, x)

    def test_multiset_preserved(self, rng):
        x = rng.uniform(size=(1, 9, 2, 4)).astype(np.float32)
        out = pixel_shuffle(Tensor(x), 3)
        np.testing.assert_array_equal(np.sort(out.data.ravel()), np.sort(x.ravel()))

    def test_indivisible_channels(self):
        with pytest.raises(ValueError, match="divisible"):
            pixel_shuffle(Tensor(np.zeros((1, 6, 2, 2))), 2)

    def test_gradients(self, rng):
        x = rng.uniform(size=(1, 8, 2, 2))
        w = rng.normal(size=(1, 2, 4, 4))
        check_gradients(lambda a, ww: sum_(pixel_shuffle(a, 2) * ww), [x, w])


# -- backward mechanics -------------------------------------------------------

class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.uniform(size=(3, 4)), requires_grad=True)
        sum_(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        sum_(x * x).backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_double_backward_rejected(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        loss = sum_(x * x)
        loss.backward()
        with pytest.raises(RuntimeError, match="re-record"):
            loss.backward()

    def test_accumulation_across_uses(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        sum_(x * 2.0 + x * x).backward()   # d/dx (2x + x^2) = 2 + 2x = 8
        np.testing.assert_allclose(x.grad, [8.0])

    def test_accumulation_across_tapes(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        sum_(x * 2.0).backward()
        sum_(x * 3.0).backward()
        np.testing.assert_allclose(x.grad, [5.0])
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_suppresses_tape(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            y = sum_(x * 2.0)
        assert not y.requires_grad and y._node is None

    def test_backward_consumes_the_tape(self, rng):
        params = init_params(tiny_config(task="sr", scale=2, stl_per_rstb=2), seed=0)
        pred = forward(params, Tensor(rng.uniform(size=(1, 1, 8, 8)).astype(np.float32)))
        loss = l1_loss(pred, Tensor(rng.uniform(size=(1, 1, 16, 16)).astype(np.float32)))
        # interior nodes and the leaf tensors that are their own nodes
        reachable, stack = {}, [loss._node]
        while stack:
            node = stack.pop()
            if node is not None and id(node) not in reachable:
                reachable[id(node)] = node
                stack.extend(getattr(node, "inputs", ()))
        nodes = [n for n in reachable.values() if isinstance(n, T._Node)]
        assert len(reachable) > 100 and len(nodes) > 50
        loss.backward()
        # no node links to another, holds a rule or a gradient, so each
        # interior buffer went with the last rule that read it
        for node in nodes:
            assert node.inputs == () and node.rule is None and node.grad is None
        for name, t in params.named():
            assert t.grad is not None and t.grad.shape == t.shape, name
        assert pred.data.shape == (1, 1, 16, 16)
        with pytest.raises(RuntimeError, match="re-record"):
            loss.backward()

    def test_tape_keeps_only_what_rules_read(self, rng):
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        h = x + 1.0
        y = gelu(h)                 # its rule reads h, not its own output
        loss = sum_(y * 2.0)        # a scalar product's rule reads nothing
        read, unread = weakref.ref(h.data), weakref.ref(y.data)
        del h, y
        assert unread() is None and read() is not None
        loss.backward()
        assert read() is None
        np.testing.assert_allclose(x.grad, 2.0 * T._gelu_grad(x.data + 1.0))

    @staticmethod
    def captured(rule):
        """Every array that a rule's closure holds, also through the
        functions and tuples it captures."""
        found, seen, stack = [], set(), [rule]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                found.append(obj)
            elif isinstance(obj, tuple):
                stack.extend(obj)
            elif callable(obj):
                for cell in getattr(obj, "__closure__", None) or ():
                    try:
                        stack.append(cell.cell_contents)
                    except ValueError:          # a free variable never bound
                        pass
        return found

    @pytest.mark.parametrize("skip_max", [True, False])
    def test_attention_rule_keeps_no_scores(self, rng, monkeypatch, skip_max):
        # backward rebuilds E from qkv; on the exact-max path it keeps the
        # column-max shift, 1/m^2 of E
        monkeypatch.setattr(T, "_skips_max", lambda *a: skip_max)
        heads, d, m = 2, 4, 4
        mask = build_attn_mask(16, 16, m, 2)
        nw = mask.per_image
        qkv = Tensor(rng.normal(size=(nw, m * m, 3 * heads * d)), requires_grad=True)
        bias = Tensor(0.1 * rng.normal(size=(heads, m * m, m * m)), requires_grad=True)
        out = window_attention(qkv, bias, mask)
        shapes = [a.shape for a in self.captured(out._node.rule)]
        assert (nw, heads, m * m, m * m) not in shapes

    def test_mlp_rule_keeps_no_activation(self, rng):
        args = [Tensor(rng.normal(size=s), requires_grad=True)
                for s in [(10, 6), (6, 12), (12,), (12, 6), (6,)]]
        hidden = linear(*args[:3]).data
        act = gelu(Tensor(hidden)).data
        kept = self.captured(mlp(*args)._node.rule)
        assert any(np.array_equal(a, hidden) for a in kept)
        assert not any(np.array_equal(a, act) for a in kept)

    def test_taped_step_memory(self, rng):
        # a taped 1 x 32^2 step of the lightweight x2 model peaks at 94 MB;
        # a tape whose nodes kept their outputs until backward reached them
        # would peak at 131 MB
        params = init_params(lightweight_sr_config(2, 1), seed=0)
        lq = Tensor(rng.uniform(size=(1, 1, 32, 32)).astype(np.float32))
        hq = Tensor(rng.uniform(size=(1, 1, 64, 64)).astype(np.float32))
        with traced_peak() as peak:
            l1_loss(forward(params, lq), hq).backward()
            assert peak() < 110 * 2**20

    def test_taped_step_recomputes_scores(self, rng):
        # the same step peaks at 54 MB when backward rebuilds the attention
        # scores E and GELU(h); a tape that kept them would peak at 94 MB
        params = init_params(lightweight_sr_config(2, 1), seed=0)
        lq = Tensor(rng.uniform(size=(1, 1, 32, 32)).astype(np.float32))
        hq = Tensor(rng.uniform(size=(1, 1, 64, 64)).astype(np.float32))
        with traced_peak() as peak:
            l1_loss(forward(params, lq), hq).backward()
            assert peak() < 70 * 2**20

    def test_two_step_loop_holds_one_tape(self, rng):
        # as train() runs it: pred and loss stay bound until the next
        # forward returns. A tape that outlived its backward would sit under
        # the second forward (1.7x the first forward's peak)
        params = init_params(tiny_config(task="sr", scale=2, channels=16,
                                         stl_per_rstb=2), seed=0)
        lq = rng.uniform(size=(1, 1, 32, 32)).astype(np.float32)
        hq = Tensor(rng.uniform(size=(1, 1, 64, 64)).astype(np.float32))
        peaks = []
        with traced_peak() as peak:
            for _ in range(2):
                peak()
                pred = forward(params, Tensor(lq))
                peaks.append(peak())
                loss = l1_loss(pred, hq)
                params.zero_grad()
                loss.backward()
        assert peaks[1] <= 1.1 * peaks[0]


# -- supporting ops -----------------------------------------------------------

class TestSupportingOps:
    def test_add_identity_and_grad(self, rng):
        x = rng.uniform(size=(2, 3))
        np.testing.assert_array_equal((Tensor(x) + 0.0).data, x)
        y = rng.uniform(size=(3,))
        check_gradients(lambda a, b: sum_((a + b) * (a + b)), [x, y])

    def test_scalar_mul(self, rng):
        x = rng.uniform(size=(4,))
        np.testing.assert_allclose((Tensor(x) * 2.5).data, 2.5 * x, rtol=1e-6)
        check_gradients(lambda a: sum_((a * -1.5) * (a * -1.5)), [x])

    def test_sqrt_and_abs(self, rng):
        x = rng.uniform(size=(5,)) + 0.5
        np.testing.assert_allclose(sqrt(Tensor(x)).data, np.sqrt(x), rtol=1e-6)
        check_gradients(lambda a: sum_(sqrt(a)), [x])
        signed = rng.normal(size=(5,)) + 3.0   # away from the kink
        check_gradients(lambda a: sum_(abs_(a)), [signed])

    def test_matmul_grad(self, rng):
        a = rng.normal(size=(2, 3, 4)) * 0.5
        b = rng.normal(size=(2, 4, 2)) * 0.5
        check_gradients(lambda x, y: sum_(matmul(x, y)), [a, b])

    def test_slice_grad(self, rng):
        x = rng.uniform(size=(4, 5))
        check_gradients(lambda a: sum_(a[1:3, ::2] ** 2.0), [x])

    def test_take_repeats_accumulate(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        sum_(take(x, np.array([0, 0, 1]), axis=0)).backward()
        np.testing.assert_allclose(x.grad, [2.0, 1.0])

    def test_gather_rows_gradcheck_without_add_at(self, rng, monkeypatch):
        class AddWithoutAt:
            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            def at(self, *args, **kwargs):
                raise AssertionError("np.add.at called")

        class NumpyWithoutAddAt:
            add = AddWithoutAt()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(T, "np", NumpyWithoutAddAt())
        index = rng.permutation(6)
        inverse = np.argsort(index)
        x = rng.normal(size=(2, 6, 3))
        weights = Tensor(rng.normal(size=(2, 6, 3)))
        out = gather_rows(Tensor(x), index, inverse).data
        np.testing.assert_array_equal(out, x[:, index])
        check_gradients(lambda a: sum_(mul(gather_rows(a, index, inverse), weights)), [x])

    def test_roll_roundtrip_and_grad(self, rng):
        x = rng.uniform(size=(1, 4, 4, 2)).astype(np.float32)
        rolled = roll(Tensor(x), (-1, -2), axes=(1, 2))
        back = roll(rolled, (1, 2), axes=(1, 2))
        np.testing.assert_array_equal(back.data, x)
        check_gradients(lambda a: sum_(roll(a, (-1, -2), axes=(1, 2))[:, :2] ** 2.0), [x])

    def test_concat_grad(self, rng):
        a, b = rng.uniform(size=(2, 3)), rng.uniform(size=(2, 2))
        check_gradients(lambda x, y: sum_(concat([x, y], axis=1) ** 2.0), [a, b])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_reshape_permute_roundtrip(self, seed):
        r = np.random.default_rng(seed)
        dims = tuple(int(d) for d in r.integers(1, 5, size=4))
        x = r.normal(size=dims).astype(np.float32)
        perm = tuple(r.permutation(4))
        inv = tuple(int(i) for i in np.argsort(perm))
        t = Tensor(x)
        back = permute(Tensor(permute(t, *perm).data), *inv)
        np.testing.assert_array_equal(back.data, x)
        flat = reshape(reshape(t, -1), *dims)
        np.testing.assert_array_equal(flat.data, x)

    def test_mutation_hook_exists(self):
        # the gradcheck mutation test monkeypatches this; keep it addressable
        assert callable(T._gelu_grad)
