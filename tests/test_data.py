import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dctn

from swinir.degrade import (DegradationSpec, _keys, _resize_matrix,
                            add_gaussian_noise,
                            bicubic_resize, dct_quantize_degrade,
                            degrade_image, procedural_texture, quant_table,
                            sample_patch_pair)
from swinir.imageio import (ImageBuffer, ImageFormatError, load_image,
                            read_image_shape, read_manifest, save_image)
from swinir.rng import GAMMA, MASK64, SplitMix64


class TestNetpbm:
    @given(h=st.integers(1, 12), w=st.integers(1, 12), color=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_save_load_roundtrip_bit_identical(self, h, w, color, seed,
                                               tmp_path_factory):
        r = np.random.default_rng(seed)
        c = 3 if color else 1
        arr = r.integers(0, 256, size=(h, w, c)).astype(np.uint8)
        img = ImageBuffer(arr, color="rgb" if color else "gray")
        path = str(tmp_path_factory.mktemp("pnm") / "img.pnm")
        save_image(img, path)
        back = load_image(path)
        np.testing.assert_array_equal(back.to_u8(), arr)
        save_image(back, path + "2")
        with open(path, "rb") as f1, open(path + "2", "rb") as f2:
            assert f1.read() == f2.read()

    def test_failed_save_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"previous")

        def crash(src, dst):
            raise OSError("crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="crash before rename"):
            save_image(ImageBuffer(np.zeros((2, 2), np.float32)), str(path))
        assert path.read_bytes() == b"previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.pgm"]

    def test_2x2_p5_exact_values(self, tmp_path):
        path = str(tmp_path / "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255]))
        img = load_image(path)
        np.testing.assert_array_equal(img.to_u8()[:, :, 0], [[0, 85], [170, 255]])

    def test_comments_tolerated(self, tmp_path):
        path = str(tmp_path / "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([7, 9]))
        img = load_image(path)
        np.testing.assert_array_equal(img.to_u8()[:, :, 0], [[7, 9]])

    def test_16bit_maxval_rejected(self, tmp_path):
        path = str(tmp_path / "t.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n1 1\n65535\n" + bytes([0] * 6))
        with pytest.raises(ImageFormatError, match="maxval"):
            load_image(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 4\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(ImageFormatError, match="truncated"):
            load_image(path)

    def test_bytes_after_payload_refused(self, tmp_path):
        # netpbm allows several images in one file; this reader takes one
        path = str(tmp_path / "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 2\n255\n" + bytes(4 + 40))
        for read in (load_image, read_image_shape):
            with pytest.raises(ImageFormatError, match="40 bytes after") as exc:
                read(path)
            assert path in str(exc.value)

    @pytest.mark.parametrize("header, payload", [
        (b"P5\n2 1_0\n255\n", 20), (b"P5\n+2 2\n255\n", 4),
        (b"P5\n2 2\n2_55\n", 4)], ids=["underscore", "sign", "maxval"])
    def test_non_decimal_header_token_refused(self, tmp_path, header, payload):
        # int() reads each of these; "1_0" would load a 10x2 image
        path = str(tmp_path / "t.pgm")
        with open(path, "wb") as fh:
            fh.write(header + bytes(payload))
        for read in (load_image, read_image_shape):
            with pytest.raises(ImageFormatError, match="not a decimal number"):
                read(path)

    def test_header_number_past_int_digit_limit_refused(self, tmp_path):
        # int() refuses more than 4,300 digits with its own ValueError
        path = str(tmp_path / "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n" + b"1" * 5000 + b" 1\n255\n" + bytes(4))
        for read in (load_image, read_image_shape):
            with pytest.raises(ImageFormatError, match="5000 digits") as exc:
                read(path)
            assert path in str(exc.value)

    def test_read_image_shape(self, tmp_path):
        path = str(tmp_path / "t.ppm")
        save_image(ImageBuffer(np.zeros((3, 5, 3), np.float32), color="rgb"), path)
        assert read_image_shape(path) == (3, 5, 3)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P3\n1 1\n255\n0")
        with pytest.raises(ImageFormatError, match="magic"):
            load_image(path)

    def test_manifest(self, tmp_path):
        (tmp_path / "list.txt").write_text("# hq set\na.pgm\n\nsub/b.pgm\n")
        paths = read_manifest(str(tmp_path / "list.txt"))
        assert paths == [str(tmp_path / "a.pgm"), str(tmp_path / "sub" / "b.pgm")]


class TestBicubic:
    def test_kernel_taps_at_phase_half(self):
        taps = _keys(np.array([-1.5, -0.5, 0.5, 1.5]))
        np.testing.assert_allclose(taps, [-0.0625, 0.5625, 0.5625, -0.0625])

    def test_identity_size_within_one_step(self, rng):
        img = ImageBuffer(rng.uniform(size=(9, 7, 1)).astype(np.float32))
        out = bicubic_resize(img, 9, 7)
        assert np.abs(out.to_u8().astype(int) - img.to_u8().astype(int)).max() <= 1

    def test_constant_stays_constant(self):
        img = ImageBuffer(np.full((8, 8, 1), 0.4, dtype=np.float32))
        for hw in ((4, 4), (16, 16), (5, 11)):
            out = bicubic_resize(img, *hw)
            np.testing.assert_allclose(out.data, 0.4, atol=1e-6)

    def test_bandlimited_roundtrip(self):
        # low-frequency half-period cosines (zero slope at the borders, so
        # the edge-replicate boundary is consistent) survive down/up by 2
        n = 40
        x = np.arange(n)
        img = (0.5
               + 0.18 * np.outer(np.cos(np.pi * 2 * x / (n - 1)),
                                 np.cos(np.pi * 3 * x / (n - 1)))
               + 0.10 * np.outer(np.cos(np.pi * 1 * x / (n - 1)), np.ones(n)))
        buf = ImageBuffer(np.clip(img, 0, 1).astype(np.float32)[:, :, None])
        down = bicubic_resize(buf, 20, 20)
        up = bicubic_resize(down, 40, 40)
        err = np.abs(up.data - buf.data).max()
        assert err <= 2.0 / 255.0

    def test_bad_size(self):
        with pytest.raises(ValueError):
            bicubic_resize(ImageBuffer(np.zeros((4, 4, 1), dtype=np.float32)), 0, 4)

    @pytest.mark.parametrize("n_in,n_out", [(96, 48), (97, 32), (25, 12),
                                            (12, 25), (5, 17), (9, 9)])
    def test_resize_matrix_cached_read_only(self, n_in, n_out):
        cached = _resize_matrix(n_in, n_out)
        assert _resize_matrix(n_in, n_out) is cached
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
        fresh = _resize_matrix.__wrapped__(n_in, n_out)
        assert fresh is not cached
        np.testing.assert_array_equal(cached, fresh)


class TestGaussianNoise:
    def test_sigma_zero_identity(self, rng):
        img = ImageBuffer(rng.uniform(size=(6, 6, 1)).astype(np.float32))
        out = add_gaussian_noise(img, 0.0, seed=3)
        np.testing.assert_array_equal(out.data, img.data)

    def test_sample_statistics(self):
        # mid-gray at sigma 25: the clip to [0, 255] is over 5 sigma away
        # and cuts no sample of this seed
        img = ImageBuffer(np.full((256, 256, 1), 0.5, dtype=np.float32))
        out = add_gaussian_noise(img, 25.0, seed=11)
        delta = (out.data - img.data).astype(np.float64) * 255.0
        assert abs(delta.mean()) < 0.5
        assert abs(delta.std() - 25.0) < 0.5

    def test_deterministic(self, rng):
        img = ImageBuffer(rng.uniform(size=(16, 16, 3)).astype(np.float32), color="rgb")
        a = add_gaussian_noise(img, 15.0, seed=42)
        b = add_gaussian_noise(img, 15.0, seed=42)
        np.testing.assert_array_equal(a.data, b.data)
        c = add_gaussian_noise(img, 15.0, seed=43)
        assert (a.data != c.data).any()

    def test_negative_sigma_rejected(self, rng):
        img = ImageBuffer(np.zeros((4, 4, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            add_gaussian_noise(img, -1.0, seed=0)
        with pytest.raises(ValueError):
            DegradationSpec(kind="gaussian_noise", sigma=-1.0)


class TestDctQuantize:
    def test_constant_block_survives(self):
        # a constant block is DC-only; the round trip error is bounded by
        # half the DC quantizer step spread over the 8x8 block
        for q in (1, 10, 50, 90, 100):
            dc_step = quant_table(q)[0, 0]
            bound = max(1, int(np.ceil(dc_step / 16.0)))
            for level in (100, 7, 200):
                img = ImageBuffer(np.full((8, 8, 1), level / 255.0, dtype=np.float32))
                out = dct_quantize_degrade(img, q)
                assert np.abs(out.to_u8().astype(int) - level).max() <= bound, (q, level)

    def test_constant_block_exact_for_moderate_quality(self):
        # DC steps are <= 16 from quality 50 up, so any constant survives
        # within one intensity level there
        for q in (50, 70, 90, 100):
            for level in (0, 31, 100, 128, 255):
                img = ImageBuffer(np.full((8, 8, 1), level / 255.0, dtype=np.float32))
                out = dct_quantize_degrade(img, q)
                assert np.abs(out.to_u8().astype(int) - level).max() <= 1, (q, level)

    def test_midgray_constant_exact_any_quality(self):
        # 128 level-shifts to zero: every coefficient is zero at any quality
        for q in (1, 10, 40, 100):
            img = ImageBuffer(np.full((8, 8, 1), 128 / 255.0, dtype=np.float32))
            out = dct_quantize_degrade(img, q)
            assert np.abs(out.to_u8().astype(int) - 128).max() == 0

    def test_quality_100_near_lossless(self, rng):
        img = ImageBuffer(rng.integers(0, 256, size=(16, 16, 1)).astype(np.uint8))
        out = dct_quantize_degrade(img, 100)
        err = np.abs(out.to_u8().astype(int) - img.to_u8().astype(int)).max()
        assert err <= 1

    def test_low_quality_zeroes_more_ac(self, rng):
        # oracle DCT from scipy, independent of the implementation's matrix
        block = np.clip(
            0.5 + 0.25 * np.sin(np.arange(8)[:, None] * 1.1)
            + 0.2 * np.cos(np.arange(8)[None, :] * 0.7)
            + 0.05 * rng.normal(size=(8, 8)), 0, 1) * 255.0

        def zero_count(q):
            coef = dctn(block - 128.0, type=2, norm="ortho")
            quant = np.round(coef / quant_table(q))
            return int(np.sum(quant[1:, 1:] == 0))

        assert zero_count(10) > zero_count(40)

    def test_idempotent_within_one_level(self, rng):
        # mid-range content so no block clips; clipping feeds different
        # pixels into the second pass and breaks exact requantization
        img = ImageBuffer((0.25 + 0.5 * rng.uniform(size=(24, 24, 1))).astype(np.float32))
        once = dct_quantize_degrade(img, 30)
        twice = dct_quantize_degrade(once, 30)
        assert np.abs(twice.to_u8().astype(int) - once.to_u8().astype(int)).max() <= 1

    def test_dct_matrix_matches_scipy(self, rng):
        from swinir.degrade import _DCT
        block = rng.normal(size=(8, 8))
        mine = _DCT @ block @ _DCT.T
        ref = dctn(block, type=2, norm="ortho")
        np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_non_multiple_size_and_color(self, rng):
        img = ImageBuffer(rng.uniform(size=(13, 19, 3)).astype(np.float32), color="rgb")
        out = dct_quantize_degrade(img, 40)
        assert out.data.shape == (13, 19, 3)

    def test_blocking_artifacts_present(self, rng):
        img = ImageBuffer(rng.uniform(size=(32, 32, 1)).astype(np.float32))
        out = dct_quantize_degrade(img, 10)
        assert (np.abs(out.data - img.data) * 255.0).mean() > 1.0


class TestPatchSampling:
    def test_r1_shares_coordinates(self, rng):
        hq = ImageBuffer(rng.uniform(size=(32, 32, 1)).astype(np.float32))
        # sigma 0 makes the degradation the identity, so shared coordinates
        # and shared augmentation mean the two patches must be equal
        spec = DegradationSpec(kind="gaussian_noise", sigma=0.0, seed=1)
        lq, hqp = sample_patch_pair(hq, spec, patch=12, seed=5)
        assert lq.shape == hqp.shape == (12, 12, 1)
        np.testing.assert_array_equal(lq, hqp)

    def test_r1_dct_determinism(self, rng):
        hq = ImageBuffer(rng.uniform(size=(32, 32, 1)).astype(np.float32))
        spec = DegradationSpec(kind="dct_quantize", quality=40)
        lq, hqp = sample_patch_pair(hq, spec, patch=12, seed=5)
        lq2, hqp2 = sample_patch_pair(hq, spec, patch=12, seed=5)
        np.testing.assert_array_equal(lq, lq2)
        np.testing.assert_array_equal(hqp, hqp2)

    def test_augmentation_reproducible(self, rng):
        hq = ImageBuffer(rng.uniform(size=(48, 48, 1)).astype(np.float32))
        spec = DegradationSpec(kind="bicubic", scale=2)
        a = sample_patch_pair(hq, spec, patch=8, seed=9)
        b = sample_patch_pair(hq, spec, patch=8, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = sample_patch_pair(hq, spec, patch=8, seed=10)
        assert (a[0] != c[0]).any() or (a[1] != c[1]).any()

    def test_alignment_under_bicubic(self, rng):
        # lq patch times r must cover the same area as the hq patch:
        # downscaling the hq patch approximates the lq patch away from
        # the crop borders (kernel support is finite)
        hq = ImageBuffer(rng.uniform(size=(64, 64, 1)).astype(np.float32))
        spec = DegradationSpec(kind="bicubic", scale=2)
        for seed in range(4):
            lq, hqp = sample_patch_pair(hq, spec, patch=16, seed=seed)
            redegraded = bicubic_resize(
                ImageBuffer(hqp.copy()), 16, 16).data
            inner = (slice(3, -3), slice(3, -3))
            np.testing.assert_allclose(lq[inner], redegraded[inner], atol=2e-3)

    def test_image_too_small(self, rng):
        hq = ImageBuffer(rng.uniform(size=(8, 8, 1)).astype(np.float32))
        with pytest.raises(ValueError, match="smaller"):
            sample_patch_pair(hq, DegradationSpec(kind="bicubic", scale=2),
                              patch=8, seed=0)


class TestTextures:
    def test_deterministic_and_in_range(self):
        a = procedural_texture(7, 48, 48)
        b = procedural_texture(7, 48, 48)
        np.testing.assert_array_equal(a.data, b.data)
        assert a.data.min() >= 0.0 and a.data.max() <= 1.0
        c = procedural_texture(8, 48, 48)
        assert (a.data != c.data).any()

    def test_has_structure(self):
        # not a constant image: learning needs edges
        img = procedural_texture(3, 64, 64)
        assert img.data.std() > 0.02

    def test_color_mode(self):
        img = procedural_texture(5, 16, 16, channels=3)
        assert img.channels == 3 and img.color == "rgb"


class TestSplitMix64:
    # MASK64 and the last three: the counter wraps past 2^64 to 1 on the
    # first, second or third draw
    @pytest.mark.parametrize("seed", [0, 12345, MASK64] + [(1 - k * GAMMA) % 2 ** 64
                                                           for k in (1, 2, 3)])
    def test_one_value_draws_are_slices_of_a_block(self, seed):
        block, block_rng = SplitMix64(seed).u64(6), SplitMix64(seed)
        block_rng.u64(6)
        rng = SplitMix64(seed)
        for i in range(3):
            one = rng.u64(1)
            assert one.dtype == np.uint64 and one.shape == (1,)
            assert one[0] == block[i]
        np.testing.assert_array_equal(rng.u64(3), block[3:])
        assert rng.state == block_rng.state
