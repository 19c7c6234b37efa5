import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_shift_mask
from swinir.tensor import Tensor, window_attention
from swinir.windows import (WindowGrid, build_attn_mask, crop_to,
                            cyclic_shift, pad_to_multiple, reorder, row_gather,
                            unshift, window_partition, window_reverse)


class TestPadToMultiple:
    def test_already_aligned(self, rng):
        x = Tensor(rng.uniform(size=(1, 8, 8, 2)).astype(np.float32))
        padded, (h, w) = pad_to_multiple(x, 8)
        assert (h, w) == (8, 8)
        np.testing.assert_array_equal(padded.data, x.data)

    def test_ceiling_arithmetic(self, rng):
        x = Tensor(rng.uniform(size=(1, 7, 9, 1)).astype(np.float32))
        padded, (h, w) = pad_to_multiple(x, 4)
        assert padded.shape == (1, 8, 12, 1)
        assert (h, w) == (7, 9)

    def test_pad_crop_roundtrip(self, rng):
        x = Tensor(rng.uniform(size=(2, 5, 6, 3)).astype(np.float32))
        padded, (h, w) = pad_to_multiple(x, 4)
        np.testing.assert_array_equal(crop_to(padded, h, w).data, x.data)

    def test_reflected_content(self):
        x = Tensor(np.arange(3, dtype=np.float32).reshape(1, 3, 1, 1))
        padded, _ = pad_to_multiple(x, 4)
        # reflect without repeating the edge: 0 1 2 | 1
        np.testing.assert_array_equal(padded.data[0, :, 0, 0], [0, 1, 2, 1])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            pad_to_multiple(Tensor(np.zeros((1, 0, 3, 1))), 4)


class TestPartition:
    def test_single_window(self, rng):
        x = rng.uniform(size=(1, 4, 4, 2)).astype(np.float32)
        wins = window_partition(Tensor(x), 4)
        assert wins.shape == (1, 16, 2)
        np.testing.assert_array_equal(wins.data[0], x.reshape(16, 2))

    def test_tile_enumeration(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        wins = window_partition(Tensor(x), 2)
        np.testing.assert_array_equal(wins.data[0, :, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(wins.data[1, :, 0], [2, 3, 6, 7])
        np.testing.assert_array_equal(wins.data[3, :, 0], [10, 11, 14, 15])

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            window_partition(Tensor(np.zeros((1, 5, 4, 1))), 2)
        with pytest.raises(ValueError):
            window_reverse(Tensor(np.zeros((3, 4, 1))), 2, 4, 4)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_bit_identical(self, n, hh, ww, m, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(n, hh * m, ww * m, 2)).astype(np.float32)
        wins = window_partition(Tensor(x), m)
        back = window_reverse(wins, m, hh * m, ww * m)
        np.testing.assert_array_equal(back.data, x)


class TestCyclicShift:
    def test_zero_identity(self, rng):
        x = Tensor(rng.uniform(size=(1, 3, 3, 1)).astype(np.float32))
        assert cyclic_shift(x, 0) is x

    def test_2x2_by_hand(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        x = Tensor(np.array([[a, b], [c, d]], dtype=np.float32).reshape(1, 2, 2, 1))
        out = cyclic_shift(x, 1).data[0, :, :, 0]
        np.testing.assert_array_equal(out, [[d, c], [b, a]])

    def test_shift_unshift_bit_identical(self, rng):
        x = rng.uniform(size=(2, 6, 8, 3)).astype(np.float32)
        back = unshift(cyclic_shift(Tensor(x), 2), 2)
        np.testing.assert_array_equal(back.data, x)


def expand(mask):
    """The mask as the attention core adds it, one [m^2, m^2] per window."""
    per_window = mask.blocks[mask.slots, 0]
    return np.where(mask.slots[:, None, None] >= 0, per_window, np.float32(0.0))


class TestReorder:
    @pytest.mark.parametrize("h, w, m", [(8, 12, 4), (14, 7, 7), (6, 6, 3)])
    def test_each_order_is_shift_then_partition(self, rng, h, w, m):
        # image order -> plain windows -> shifted windows -> plain -> image
        x = rng.normal(size=(2, h, w, 3))
        grid = WindowGrid(h, w, m)
        orders = [None, 0, m // 2, 0, m // 2, None]
        rows = Tensor(x.reshape(2, h * w, 3))
        for src, dst in zip(orders, orders[1:]):
            rows = reorder(rows, grid, src, dst)
            want = x if dst is None else window_partition(cyclic_shift(Tensor(x), dst), m).data
            np.testing.assert_array_equal(rows.data.reshape(-1), want.reshape(-1))

    def test_same_order_gathers_nothing(self):
        assert row_gather(WindowGrid(8, 8, 4), 2, 2) is None
        # one window per grid row: plain window order is image order
        assert row_gather(WindowGrid(8, 4, 4), None, 0) is None
        rows = Tensor(np.zeros((1, 32, 2)))
        assert reorder(rows, WindowGrid(8, 4, 4), 0, None) is rows

    def test_cached_read_only_inverse_pair(self):
        index, inverse = row_gather(WindowGrid(8, 12, 4), 0, 2)
        assert row_gather(WindowGrid(8, 12, 4), 0, 2)[0] is index
        np.testing.assert_array_equal(index[inverse], np.arange(96))
        with pytest.raises(ValueError):
            index[0] = 1


class TestAttnMask:
    def test_zero_shift_all_zero(self):
        mask = build_attn_mask(8, 8, 4, 0)
        np.testing.assert_array_equal(mask.slots, [-1, -1, -1, -1])
        assert not expand(mask).any()

    def test_tiny_window_mixes_four_regions(self):
        mask = build_attn_mask(2, 2, 2, 1)
        np.testing.assert_array_equal(mask.slots, [2])
        np.testing.assert_array_equal(mask.blocks[2, 0] == 0, np.eye(4))

    def test_interior_window_unmasked(self):
        mask = build_attn_mask(8, 8, 4, 2)
        # window 0 covers rows/cols [0,4): a single pre-shift region; then
        # the last column, the last row and the corner
        np.testing.assert_array_equal(mask.slots, [-1, 1, 0, 2])
        assert not expand(mask)[0].any()
        # the corner window mixes all four region pairs
        assert len(np.unique(mask.blocks[2, 0] == 0, axis=0)) == 4

    def test_symmetric_relation(self):
        mask = build_attn_mask(8, 8, 4, 2)
        np.testing.assert_array_equal(mask.blocks, np.swapaxes(mask.blocks, -1, -2))

    def test_read_only(self):
        mask = build_attn_mask(8, 8, 4, 2)
        for part in mask:
            with pytest.raises(ValueError):
                part[0] = 0

    def test_invalid_shift(self):
        with pytest.raises(ValueError):
            build_attn_mask(8, 8, 4, 1)

    def test_matches_dense_region_mask(self):
        geometries = [(hh * m, ww * m, m) for m in range(2, 10)
                      for hh in range(1, 6) for ww in range(1, 5)]
        for h, w, m in geometries + [(70, 70, 7), (128, 128, 8)]:
            for s in (0, m // 2):
                np.testing.assert_array_equal(expand(build_attn_mask(h, w, m, s)),
                                              dense_shift_mask(h, w, m, s),
                                              err_msg=f"{h}x{w} m={m} s={s}")

    def test_memory_does_not_grow_with_image(self):
        # 4096 windows at 512^2: the mask is one slot per window plus
        # three 64x64 blocks, not a [4096, 64, 64] array (64 MB)
        tracemalloc.start()
        try:
            build_attn_mask.__wrapped__(512, 512, 8, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_masked_pairs_get_zero_weight(self, rng):
        # V = I per window makes the output the attention weights
        # [query, key]; heads 1 with zero bias
        h, w, m = 4, 4, 2
        mask = build_attn_mask(h, w, m, 1)
        nw, mm = len(mask.slots), m * m
        qkv = np.concatenate([rng.normal(size=(nw, mm, 2 * mm)),
                              np.broadcast_to(np.eye(mm), (nw, mm, mm))], axis=-1)
        weights = window_attention(Tensor(qkv.astype(np.float32)),
                                   Tensor(np.zeros((1, mm, mm), np.float32)), mask).data
        masked = dense_shift_mask(h, w, m, 1) == -np.inf
        assert masked.any()
        assert (weights[masked] == 0.0).all()
        assert (weights[~masked] > 0.0).all()

    def test_grid_validates(self):
        with pytest.raises(ValueError):
            WindowGrid(9, 8, 4)
        g = WindowGrid(8, 12, 4)
        assert g.num_windows == 6
