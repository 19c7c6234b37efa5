import math

import numpy as np
import pytest

from conftest import check_gradients
from swinir.imageio import ImageBuffer
from swinir.losses import (CHARBONNIER_EPS, charbonnier_loss, compute_loss,
                           l1_loss, loss_for_task)
from swinir.metrics import (SSIM_SIGMA, SSIM_WINDOW, eval_pair, psnr,
                            rgb_to_y, ssim)
from swinir.tensor import Tensor


class TestL1:
    def test_equal_inputs(self, rng):
        x = rng.uniform(size=(3, 4))
        assert l1_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_constant_half(self, rng):
        x = rng.uniform(size=(2, 5))
        assert l1_loss(Tensor(x + 0.5), Tensor(x)).item() == pytest.approx(0.5, rel=1e-6)

    def test_gradient_away_from_ties(self, rng):
        pred = rng.uniform(size=(2, 3))
        target = pred + 1.0 + rng.uniform(size=(2, 3))
        check_gradients(lambda p, t: l1_loss(p, t), [pred, target])
        # analytic form: sign(pred - target) / numel
        p = Tensor(np.asarray(pred), requires_grad=True)
        l1_loss(p, Tensor(target)).backward()
        np.testing.assert_allclose(p.grad, np.sign(pred - target) / pred.size)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            l1_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


class TestCharbonnier:
    def test_zero_residual_returns_eps(self, rng):
        x = np.asarray(rng.uniform(size=(4, 4)))
        loss = charbonnier_loss(Tensor(x), Tensor(x.copy()))
        assert loss.item() == pytest.approx(1e-3, rel=1e-12)

    def test_single_element_unit_diff(self):
        loss = charbonnier_loss(Tensor(np.array([1.0])), Tensor(np.array([0.0])))
        assert loss.item() == pytest.approx(math.sqrt(1.0 + 1e-6), rel=1e-12)

    def test_differentiable_at_zero_diff(self, rng):
        x = rng.uniform(size=(3, 3))
        check_gradients(lambda p, t: charbonnier_loss(p, t), [x, x.copy()],
                        tol=1e-3)

    def test_task_binding(self):
        assert loss_for_task("sr") == "l1"
        assert loss_for_task("denoise") == "charbonnier"
        assert loss_for_task("car") == "charbonnier"
        # the kind trains at the one eps: the loss of a zero residual
        zero = Tensor(np.zeros((2, 2)))
        assert CHARBONNIER_EPS == 1e-3
        assert compute_loss("charbonnier", zero, zero).item() == pytest.approx(1e-3, rel=1e-12)
        with pytest.raises(ValueError, match="unknown loss"):
            compute_loss("l2", zero, zero)


class TestPsnr:
    def test_identical_is_inf(self, rng):
        img = rng.uniform(size=(8, 8, 1)).astype(np.float32)
        assert psnr(ImageBuffer(img), ImageBuffer(img.copy())) == math.inf

    def test_full_scale_difference_is_zero_db(self):
        a = ImageBuffer(np.zeros((4, 4, 1), dtype=np.float32))
        b = ImageBuffer(np.ones((4, 4, 1), dtype=np.float32))
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_unit_difference(self):
        a = ImageBuffer(np.full((16, 16, 1), 100, dtype=np.uint8))
        b = ImageBuffer(np.full((16, 16, 1), 101, dtype=np.uint8))
        assert psnr(a, b) == pytest.approx(48.13, abs=0.01)

    def test_symmetry_and_border(self, rng):
        a = ImageBuffer(rng.uniform(size=(12, 12, 1)).astype(np.float32))
        b = ImageBuffer(rng.uniform(size=(12, 12, 1)).astype(np.float32))
        assert psnr(a, b, border=2) == psnr(b, a, border=2)
        # corrupt only the border: cropped metric unaffected
        a2 = ImageBuffer(a.data.copy())
        a2.data[0, :, :] = 1.0
        assert psnr(a2, b, border=2) == psnr(a, b, border=2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            psnr(ImageBuffer(np.zeros((4, 4, 1))), ImageBuffer(np.zeros((4, 5, 1))))


def naive_ssim_oracle(x, y, window=SSIM_WINDOW, sigma=SSIM_SIGMA):
    """Per-pixel double-loop SSIM with symmetric edge padding."""
    half = window // 2
    xs = np.pad(x, half, mode="symmetric")
    ys = np.pad(y, half, mode="symmetric")
    g1 = np.arange(window) - (window - 1) / 2.0
    k = np.exp(-0.5 * (g1 / sigma) ** 2)
    kern = np.outer(k, k)
    kern /= kern.sum()
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    vals = []
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            px = xs[i:i + window, j:j + window]
            py = ys[i:i + window, j:j + window]
            mx, my = (kern * px).sum(), (kern * py).sum()
            vx = (kern * px * px).sum() - mx * mx
            vy = (kern * py * py).sum() - my * my
            cxy = (kern * px * py).sum() - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cxy + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


class TestSsim:
    def test_identical_is_one(self, rng):
        img = rng.uniform(size=(16, 16, 1)).astype(np.float32)
        assert ssim(ImageBuffer(img), ImageBuffer(img.copy())) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_below_one(self, rng):
        img = rng.uniform(size=(16, 16, 1)).astype(np.float32)
        assert ssim(ImageBuffer(img), ImageBuffer(1.0 - img)) < 1.0

    def test_matches_naive_oracle_on_ramp(self):
        ramp = (np.arange(64, dtype=np.float64).reshape(8, 8) * 3.0)
        other = ramp[::-1].copy()
        a = (ramp / 255.0).astype(np.float32)[:, :, None]
        b = (other / 255.0).astype(np.float32)[:, :, None]
        got = ssim(ImageBuffer(a), ImageBuffer(b))
        want = naive_ssim_oracle(np.floor(np.clip(a[:, :, 0], 0, 1) * 255.0 + 0.5),
                                 np.floor(np.clip(b[:, :, 0], 0, 1) * 255.0 + 0.5))
        assert got == pytest.approx(want, abs=1e-6)

    def test_matches_naive_oracle_on_noise(self, rng):
        a = rng.uniform(size=(9, 13)).astype(np.float32)
        b = np.clip(a + 0.1 * rng.normal(size=a.shape), 0, 1).astype(np.float32)
        got = ssim(ImageBuffer(a), ImageBuffer(b))
        want = naive_ssim_oracle(np.floor(a * 255.0 + 0.5).astype(np.float64),
                                 np.floor(np.clip(b, 0, 1) * 255.0 + 0.5).astype(np.float64))
        assert got == pytest.approx(want, abs=1e-6)

    def test_symmetry(self, rng):
        a = ImageBuffer(rng.uniform(size=(12, 12, 1)).astype(np.float32))
        b = ImageBuffer(rng.uniform(size=(12, 12, 1)).astype(np.float32))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ssim(ImageBuffer(np.zeros((3, 3, 1))), ImageBuffer(np.zeros((3, 3, 1))))


class TestRgbToY:
    def test_white(self):
        img = ImageBuffer(np.ones((2, 2, 3), dtype=np.float32), color="rgb")
        y = rgb_to_y(img)
        assert y.channels == 1
        np.testing.assert_allclose(y.data * 255.0, 235.0, atol=1e-4)

    def test_black(self):
        img = ImageBuffer(np.zeros((2, 2, 3), dtype=np.float32), color="rgb")
        np.testing.assert_allclose(rgb_to_y(img).data * 255.0, 16.0, atol=1e-4)

    def test_gray_is_affine(self):
        def y_of(g):
            img = ImageBuffer(np.full((1, 1, 3), g, dtype=np.float32), color="rgb")
            return float(rgb_to_y(img).data[0, 0, 0]) * 255.0

        y0, y1, y2 = y_of(0.0), y_of(0.25), y_of(0.5)
        assert (y2 - y1) == pytest.approx(y1 - y0, abs=1e-4)

    def test_wrong_channels(self):
        with pytest.raises(ValueError):
            rgb_to_y(ImageBuffer(np.zeros((2, 2, 1), dtype=np.float32)))

    def test_eval_pair_uses_luma_for_color(self, rng):
        a = ImageBuffer(rng.uniform(size=(16, 16, 3)).astype(np.float32), color="rgb")
        p, s = eval_pair(a, a, border=2)
        assert p == math.inf and s == pytest.approx(1.0)
