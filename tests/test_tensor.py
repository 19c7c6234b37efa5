import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from conftest import (assert_all_equal, block_budgets, check_gradients,
                      max_rel_err, tape_gradients)
from swinir import tensor as T
from swinir.tensor import (Tensor, abs_, concat, conv2d, gather_rows, gelu,
                           layer_norm, linear, matmul, mean, mul, no_grad,
                           pixel_shuffle, pixel_unshuffle, roll, softmax, sqrt,
                           sum_, take)


# -- conv2d ---------------------------------------------------------------

class TestConv2d:
    def test_identity_1x1(self, rng):
        x = Tensor(rng.uniform(size=(2, 3, 5, 5)).astype(np.float32))
        w = Tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        b = Tensor(np.zeros(3, dtype=np.float32))
        out = conv2d(x, w, b, padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_kernel_on_constant(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = conv2d(x, w, padding=1)
        assert out.data[0, 0, 1, 1] == 9.0
        assert out.data[0, 0, 2, 2] == 9.0
        for corner in ((0, 0), (0, 3), (3, 0), (3, 3)):
            assert out.data[0, 0][corner] == 4.0

    def test_weight_gradient_matches_fd(self, rng):
        x = rng.uniform(size=(1, 1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3)) * 0.5
        b = rng.normal(size=(2,)) * 0.1
        check_gradients(lambda xx, ww, bb: sum_(conv2d(xx, ww, bb, padding=1)),
                        [x, w, b], tol=1e-3)

    def test_delta_kernel_bit_identical(self, rng):
        x = Tensor(rng.uniform(size=(1, 2, 6, 7)).astype(np.float32))
        w = np.zeros((2, 2, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = conv2d(x, Tensor(w), padding=1)
        np.testing.assert_array_equal(out.data, x.data)

    @staticmethod
    def loop_oracle(x, w, b, padding, g):
        """Direct loops over every output position and tap: the output of
        conv2d(x, w, b, padding) and the gradients of sum(out * g)."""
        n, cin, h, wd = x.shape
        cout, _, k, _ = w.shape
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

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_loop_oracle_under_block_budgets(self, rng, monkeypatch, k, padding):
        # small integers: every sum is exact in float64 whatever the order,
        # so any slip in the blocks' offsets or the junk columns shows as an
        # exact mismatch
        x = rng.integers(-3, 4, size=(2, 3, 5, 7)).astype(np.float64)
        w = rng.integers(-3, 4, size=(4, 3, k, k)).astype(np.float64)
        b = rng.integers(-3, 4, size=(4,)).astype(np.float64)
        hout, wout = 5 + 2 * padding - k + 1, 7 + 2 * padding - k + 1
        g = rng.integers(-3, 4, size=(2, 4, hout, wout)).astype(np.float64)
        out_ref, grads_ref = self.loop_oracle(x, w, b, padding, g)

        def loss(xx, ww, bb):
            return sum_(conv2d(xx, ww, bb, padding=padding) * Tensor(g))

        runs = []
        for _ in block_budgets(monkeypatch):
            out = conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding).data
            grads = tape_gradients(loss, [x, w, b])
            np.testing.assert_array_equal(out, out_ref)
            for got, want in zip(grads, grads_ref, strict=True):
                np.testing.assert_array_equal(got, want)
            runs.append([out] + grads)
        assert_all_equal(runs)

    def test_gradients_one_position_per_block(self, rng, monkeypatch):
        monkeypatch.setattr(T, "_BLOCK_BYTES", 1)
        x = rng.uniform(size=(2, 2, 4, 5))
        w = rng.normal(size=(3, 2, 3, 3)) * 0.5
        b = rng.normal(size=(3,)) * 0.1
        check_gradients(lambda xx, ww, bb: sum_(conv2d(xx, ww, bb, padding=1) ** 2),
                        [x, w, b])

    def test_wide_input_blocks_hold_256_positions(self, rng, monkeypatch):
        # Cin = 180 takes 6,480 bytes of columns per position, 80 positions
        # in a plain 512 KiB block; the floor gives 256, and the one-byte
        # budget still gives every position a block of its own
        seen = []
        real = T._blocks
        monkeypatch.setattr(T, "_blocks", lambda *a: seen.append(real(*a)) or seen[-1])
        x = Tensor(rng.normal(size=(1, 180, 20, 20)).astype(np.float32))
        w = Tensor(rng.normal(size=(2, 180, 3, 3)).astype(np.float32))
        span = 19 * 22 + 20
        lengths = []
        for _ in block_budgets(monkeypatch):
            seen.clear()
            conv2d(x, w, padding=1)
            lengths.append(sorted({pos.stop - pos.start for pos in seen[0]}))
        assert lengths == [[span - 256, 256], [1]]

    def test_inference_memory_below_column_matrix(self, rng):
        x = Tensor(rng.normal(size=(1, 60, 128, 128)).astype(np.float32))
        w = Tensor(rng.normal(size=(60, 60, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(60, dtype=np.float32))
        whole_columns = 128 * 128 * 60 * 9 * 4
        tracemalloc.start()
        try:
            with no_grad():
                conv2d(x, w, b, padding=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_columns

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_nonpositive_output_raises(self):
        with pytest.raises(ValueError, match="output size"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


# -- linear ---------------------------------------------------------------

class TestLinear:
    def test_identity(self, rng):
        x = Tensor(rng.uniform(size=(4, 3)).astype(np.float32))
        out = linear(x, Tensor(np.eye(3, dtype=np.float32)))
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
        check_gradients(lambda *a: sum_(mean(linear(*a), axis=-1)), [x, w, b])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


# -- layer_norm -----------------------------------------------------------

class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = Tensor(np.full((2, 5), 3.7, dtype=np.float32))
        out = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_row(self):
        x = Tensor(np.array([[1.0, -1.0]], dtype=np.float32))
        out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-5)
        np.testing.assert_allclose(out.data, [[0.999995, -0.999995]], atol=1e-6)

    def test_gradients(self, rng, monkeypatch):
        x = rng.uniform(size=(3, 6))
        g = 1.0 + 0.2 * rng.normal(size=(6,))
        b = 0.2 * rng.normal(size=(6,))

        def squares(*a):
            return sum_(mean(layer_norm(*a) ** 2.0))

        runs = []
        for _ in block_budgets(monkeypatch):
            check_gradients(lambda *a: sum_(layer_norm(*a)), [x, g, b])
            check_gradients(squares, [x, g, b])
            out = layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
            runs.append([out] + tape_gradients(squares, [x, g, b]))
        assert_all_equal(runs)

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

    def test_gradients(self, rng, monkeypatch):
        x = rng.normal(size=(2, 7))
        runs = []
        for _ in block_budgets(monkeypatch):
            check_gradients(lambda a: sum_(gelu(a)), [x])
            runs.append([gelu(Tensor(x)).data]
                        + tape_gradients(lambda a: sum_(gelu(a)), [x]))
        assert_all_equal(runs)


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


# -- pixel shuffle ----------------------------------------------------------

class TestPixelShuffle:
    def test_r1_identity(self, rng):
        x = Tensor(rng.uniform(size=(1, 3, 4, 4)).astype(np.float32))
        assert pixel_shuffle(x, 1) is x

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
        assert not y.requires_grad and y._backward is None


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

    def test_mean_axis(self, rng):
        x = rng.uniform(size=(2, 3, 4))
        out = mean(Tensor(x), axis=(0, 2))
        np.testing.assert_allclose(out.data, x.mean(axis=(0, 2)), rtol=1e-6)
        check_gradients(lambda a: sum_(mean(a, axis=1) ** 2.0), [x])

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
        back = Tensor(t.permute(*perm).data).permute(*inv)
        np.testing.assert_array_equal(back.data, x)
        flat = t.reshape(-1).reshape(*dims)
        np.testing.assert_array_equal(flat.data, x)

    def test_mutation_hook_exists(self):
        # the gradcheck mutation test monkeypatches this; keep it addressable
        assert callable(T._gelu_grad)
