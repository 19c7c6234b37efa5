import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_all_equal, block_budgets, check_gradients,
                      max_rel_err, tape_gradients)
from swinir import tensor as T
from swinir.tensor import (Tensor, abs_, concat, conv2d, gelu, layer_norm,
                           linear, matmul, mean, no_grad, pixel_shuffle,
                           pixel_unshuffle, roll, softmax, sqrt, sum_, take)


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
