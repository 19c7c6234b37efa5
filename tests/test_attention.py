from dataclasses import replace

import numpy as np
import pytest

from conftest import (assert_all_equal, check_gradients, dense_attention_oracle,
                      dense_shift_mask, make_attn_params, traced_peak, usable_cpus)
from swinir import attention
from swinir import tensor as T
from swinir.attention import (MlpParams, StlParams, WindowAttentionParams,
                              attn_weights, mlp_forward, relative_position_index,
                              stl_forward, window_msa)
from swinir.model import init_params, lightweight_sr_config
from swinir.tensor import (Tensor, gelu, layer_norm, no_grad, reshape, sum_,
                           window_attention)
from swinir.windows import WindowGrid, build_attn_mask, pad_to_multiple, reorder


def msa(x, params, mask=None):
    """``window_msa`` with its weights from ``attn_weights`` under a unit
    norm (gain 1, shift 0), which folds into the products unchanged."""
    c, dtype = params.wq.shape[0], params.wq.dtype
    unit = (Tensor(np.ones(c, dtype=dtype)), Tensor(np.zeros(c, dtype=dtype)))
    return window_msa(x, params, mask, attn_weights(params, unit))


def mlp_of(x, params):
    """``mlp_forward`` with fc1 taken from ``params`` as it stands."""
    return mlp_forward(x, params, (params.fc1_w, params.fc1_b))


class TestRelativePositionIndex:
    def test_m1(self):
        np.testing.assert_array_equal(relative_position_index(1), [[0]])

    def test_center_of_offset_grid(self):
        idx = relative_position_index(2)
        for p in range(4):
            assert idx[p, p] == 4

    def test_corner_offset(self):
        idx = relative_position_index(2)
        # p=(0,0) is token 0, q=(1,1) is token 3; delta (-1,-1) -> 0
        assert idx[0, 3] == 0
        assert idx[3, 0] == 8

    def test_range_and_negation_symmetry(self):
        m = 4
        idx = relative_position_index(m)
        assert idx.min() >= 0 and idx.max() < (2 * m - 1) ** 2
        # index[j][i] is the negated offset of index[i][j]
        span = 2 * m - 1
        di, dj = idx // span - (m - 1), idx % span - (m - 1)
        assert np.all(di == -di.T) and np.all(dj == -dj.T)

    @staticmethod
    def coordinate_formula(m):
        coords = np.stack(np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
        flat = coords.reshape(2, -1)
        delta = flat[:, :, None] - flat[:, None, :]
        return (delta[0] + m - 1) * (2 * m - 1) + (delta[1] + m - 1)

    def test_matches_coordinate_formula(self):
        for m in range(1, 10):
            np.testing.assert_array_equal(relative_position_index(m),
                                          self.coordinate_formula(m))

    def test_peak_memory_near_result(self):
        # a checkpoint's window sets m, and the loader builds the index
        # before it checks any record, so no temporary may dwarf the result
        with traced_peak() as peak:
            idx = relative_position_index(30)
            assert peak() <= 2.1 * idx.nbytes


class TestWindowMsa:
    def test_uniform_attention_returns_column_mean(self, rng):
        c, m = 4, 2
        params = make_attn_params(c, 1, m, zero=True)
        params.wv = Tensor(np.eye(c, dtype=np.float32))
        params.proj_w = Tensor(np.eye(c, dtype=np.float32))
        x = rng.uniform(size=(3, m * m, c)).astype(np.float32)
        out = msa(Tensor(x), params)
        expected = np.repeat(x.mean(axis=1, keepdims=True), m * m, axis=1)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_bias_table_row_suppresses_mapped_pairs(self, rng):
        c, heads, m = 4, 2, 2
        params = make_attn_params(c, heads, m, zero=True)
        params.wv = Tensor(np.eye(c, dtype=np.float32))
        params.proj_w = Tensor(np.eye(c, dtype=np.float32))
        idx = relative_position_index(m)
        target = 1   # suppress every pair whose offset maps to this entry
        table = np.zeros(((2 * m - 1) ** 2, heads), dtype=np.float32)
        table[target] = -100.0
        params.bias_table = Tensor(table)

        # with V = identity and x one-hot per token, attention weights are
        # readable from the output columns
        x = np.eye(m * m, c, dtype=np.float32)[None]
        out = msa(Tensor(x), params).data[0]
        pairs = np.argwhere(idx == target)
        assert len(pairs) > 0
        for i, j in pairs:
            if j < c:
                assert out[i, j] < 1e-8

    def test_matches_dense_oracle_single_window(self, rng):
        c, heads, m = 8, 2, 3
        params = make_attn_params(c, heads, m, rng=rng)
        x = rng.normal(size=(1, m * m, c)).astype(np.float32)
        got = msa(Tensor(x), params).data
        np.testing.assert_allclose(got, dense_attention_oracle(x, params), atol=1e-5)

    def test_matches_dense_oracle_many_windows(self, rng):
        c, heads, m = 6, 3, 2
        params = make_attn_params(c, heads, m, rng=rng)
        x = rng.normal(size=(5, m * m, c)).astype(np.float32)
        # shifted pass on a batch of two 6x6 images: 9 mask windows, of
        # which only the last row and column are masked, repeated per image
        mask = build_attn_mask(6, 6, m, 1)
        assert mask.per_image == 9
        xm = rng.normal(size=(2 * mask.per_image, m * m, c)).astype(np.float32)
        got = msa(Tensor(x), params).data
        np.testing.assert_allclose(got, dense_attention_oracle(x, params), atol=1e-5)
        got_masked = msa(Tensor(xm), params, mask).data
        np.testing.assert_allclose(
            got_masked, dense_attention_oracle(xm, params, dense_shift_mask(6, 6, m, 1)),
            atol=1e-5)

    def test_permutation_equivariance_unbiased(self, rng):
        c, m = 6, 2
        params = make_attn_params(c, 2, m, rng=rng)
        params.bias_table = Tensor(np.zeros(((2 * m - 1) ** 2, 2), dtype=np.float32))
        x = rng.normal(size=(1, m * m, c)).astype(np.float32)
        perm = rng.permutation(m * m)
        out = msa(Tensor(x), params).data
        out_perm = msa(Tensor(x[:, perm]), params).data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-6)

    def test_bias_gather_shifts_logit_by_exact_value(self, rng):
        # writing v at table[rel_index[i, j]] must shift logit (i, j) by v
        # in every window and head: check via the suppressed-pair weights
        c, heads, m = 4, 2, 2
        params = make_attn_params(c, heads, m, zero=True)
        params.wv = Tensor(np.eye(c, dtype=np.float32))
        params.proj_w = Tensor(np.eye(c, dtype=np.float32))
        x = np.eye(m * m, c, dtype=np.float32)[None].repeat(3, axis=0)
        base = msa(Tensor(x), params).data

        idx = params.rel_index
        i, j = 0, 3
        table = np.zeros(((2 * m - 1) ** 2, heads), dtype=np.float32)
        table[idx[i, j]] = float(np.log(2.0))
        params.bias_table = Tensor(table)
        bumped = msa(Tensor(x), params).data
        # with zero logits, weight(i->j) goes from 1/4 to 2/5 in every window
        off_diag = [(i, jj) for jj in range(4) if idx[i, jj] != idx[i, j]]
        for w in range(3):
            assert bumped[w, i, j] == pytest.approx(2.0 / 5.0, abs=1e-6)
            for ii, jj in off_diag:
                if jj < c:
                    assert bumped[w, ii, jj] == pytest.approx(1.0 / 5.0, abs=1e-6)
            assert base[w, i, j] == pytest.approx(0.25, abs=1e-6)

    def test_shifted_batch_gradcheck_float64(self, rng):
        # window 7 on 9x9 images: reflect-padded to 14x14, their rows in
        # the window order of shift 3, two images sharing one 4-window mask
        c, heads, m, s = 4, 2, 7, 3
        x = rng.uniform(size=(2, 9, 9, c))
        shapes = [(c, c), (c,), (c, c), (c, c), ((2 * m - 1) ** 2, heads)]
        arrays = [x] + [0.3 * rng.normal(size=shape) for shape in shapes]
        grid, mask = WindowGrid(14, 14, m), build_attn_mask(14, 14, m, s)
        proj_w = Tensor(0.3 * rng.normal(size=(c, c)))
        zeros = Tensor(np.zeros(c))

        def fn(xx, wq, bq, wk, wv, table):
            params = WindowAttentionParams(
                wq=wq, bq=bq, wk=wk, bk=zeros, wv=wv, bv=zeros,
                proj_w=proj_w, proj_b=zeros, bias_table=table,
                rel_index=relative_position_index(m), heads=heads)
            padded, _ = pad_to_multiple(xx, m)
            rows = reorder(reshape(padded, 2, 14 * 14, c), grid, None, s)
            return sum_(msa(rows, params, mask) ** 2.0)

        check_gradients(fn, arrays)

    def test_inference_memory_below_score_tensor(self, rng, monkeypatch):
        # a shifted lightweight x2 layer at 128^2: 256 windows of 8x8
        # tokens, C=60 in 6 heads; the full [nW, heads, key, query] float32
        # score tensor would take 25 MB. The core holds the scores of the
        # windows it is given, and the layer gives it one chunk of 32
        # windows at a time, so the bound lives in the layer's chunks
        usable_cpus(monkeypatch, 2)
        stl = init_params(lightweight_sr_config(2, 3), seed=0).rstbs[0].stls[1]
        x = Tensor(rng.normal(size=(1, 16384, 60)).astype(np.float32))
        full_scores = 256 * 6 * 64 * 64 * 4
        with traced_peak() as peak, no_grad():
            stl_forward(x, stl, WindowGrid(128, 128, 8))
            assert peak() < full_scores

    def test_heads_must_divide_channels(self, rng):
        params = make_attn_params(4, 2, 2, rng=rng)
        params.heads = 3
        with pytest.raises(ValueError, match="heads"):
            msa(Tensor(np.zeros((1, 4, 4), dtype=np.float32)), params)


class TestLogitBound:
    """The core skips the softmax column max only while ``_skips_max``
    bounds every logit (and, through max|qkv|, V), and keeps the exact max
    otherwise. Cases: small logits; logits near +-200 (Q K^T large, bias
    +-100); bias +-100 alone."""

    CASES = [(False, False), (True, True), (False, True)]   # (big Q K^T, big bias)

    @staticmethod
    def record_paths(monkeypatch):
        """Record what every call's ``_skips_max`` returned."""
        taken = []
        real = T._skips_max

        def spy(*args):
            taken.append(real(*args))
            return taken[-1]

        monkeypatch.setattr(T, "_skips_max", spy)
        return taken

    @staticmethod
    def diagonal_only_mask(m):
        # shift 1 on 6x6 at window 2: in the last window every token is
        # its own region, so each query column keeps only its diagonal key;
        # returns the mask and its dense form for the oracle
        dense = dense_shift_mask(6, 6, m, 1)
        np.testing.assert_array_equal(dense[-1] == 0, np.eye(m * m))
        return build_attn_mask(6, 6, m, 1), dense

    @pytest.mark.parametrize("big_qk, big_bias", CASES)
    def test_matches_dense_oracle(self, rng, monkeypatch, big_qk, big_bias):
        c, heads, m = 6, 3, 2
        params = make_attn_params(c, heads, m, rng=rng)
        mask, oracle_mask = self.diagonal_only_mask(m)
        x = rng.normal(size=(2 * mask.per_image, m * m, c))
        if big_qk:
            params.wq, params.wk = (Tensor(6.0 * rng.normal(size=(c, c))) for _ in range(2))
        if big_bias:
            params.bias_table = Tensor(
                100.0 * rng.choice([-1.0, 1.0], size=((2 * m - 1) ** 2, heads)))
        q, k = (np.einsum("wic,cj->wij", x, w.data).reshape(-1, m * m, heads, c // heads)
                for w in (params.wq, params.wk))
        qk = np.einsum("wihd,wjhd->whij", q, k) / np.sqrt(c // heads)
        assert (np.abs(qk).max() > 150) == big_qk
        taken = self.record_paths(monkeypatch)
        for dtype in (np.float32, np.float64):
            typed = replace(params, **{
                name: Tensor(getattr(params, name).data.astype(dtype))
                for name in ("wq", "bq", "wk", "bk", "wv", "bv",
                             "proj_w", "proj_b", "bias_table")})
            for mk, omk in ((None, None), (mask, oracle_mask)):
                out = msa(Tensor(x.astype(dtype)), typed, mk).data
                assert np.isfinite(out).all()
                # float32 rounding of logits near +-200 reorders near
                # ties, so only float64 is held to the oracle there
                if dtype == np.float64 or not big_qk:
                    np.testing.assert_allclose(
                        out, dense_attention_oracle(x, typed, omk), atol=1e-5)
        assert set(taken) == {not (big_qk or big_bias)}

    @pytest.mark.parametrize("big_qk, big_bias", CASES)
    def test_gradcheck_float64(self, rng, monkeypatch, big_qk, big_bias):
        heads, d, m = 2, 2, 2
        mask, _ = self.diagonal_only_mask(m)
        qkv = rng.uniform(-1.0, 1.0, size=(2 * mask.per_image, m * m, 3 * heads * d))
        bias = 0.1 * rng.normal(size=(heads, m * m, m * m))
        if big_qk:
            qkv[..., :2 * heads * d] *= 10.0
        if big_bias:
            bias = 100.0 * rng.choice([-1.0, 1.0], size=bias.shape)
        taken = self.record_paths(monkeypatch)

        def fn(t, b):
            return sum_(window_attention(t, b, mask) ** 2.0)

        check_gradients(fn, [qkv, bias])
        assert set(taken) == {not (big_qk or big_bias)}

    def test_huge_values_with_moderate_logits_stay_finite(self, monkeypatch):
        # logits 57.8 and |V| = 1e13: unshifted, exp(S) V would overflow
        # float32; the weights are uniform, so the output is V exactly
        qkv = np.full((1, 4, 3), 7.6, dtype=np.float32)
        qkv[..., 2] = 1e13
        taken = self.record_paths(monkeypatch)
        out = window_attention(Tensor(qkv), Tensor(np.zeros((1, 4, 4), np.float32)), None)
        np.testing.assert_array_equal(out.data, np.float32(1e13))
        assert taken == [False]

    def test_bound_counts_every_channel(self, monkeypatch):
        # Q = K = 1.5 over d = 16 channels: every logit is 36, above 30
        qkv = np.full((1, 4, 48), 1.5, dtype=np.float32)
        taken = self.record_paths(monkeypatch)
        out = window_attention(Tensor(qkv), Tensor(np.zeros((1, 4, 4), np.float32)), None)
        np.testing.assert_array_equal(out.data, 1.5)
        assert taken == [False]

    def test_non_finite_inputs_keep_the_max(self):
        bias = np.zeros((1, 4, 4))
        for bad in (np.nan, np.inf, -np.inf):
            qkv = np.zeros((1, 4, 3))
            qkv[0, 1, 2] = bad
            assert not T._skips_max(qkv, bias, 1)
            assert not T._skips_max(np.zeros((1, 4, 3)), bias + bad, 1)
        assert T._skips_max(np.zeros((1, 4, 3)), bias, 1)


class TestMlp:
    def test_all_zero(self):
        p = MlpParams(fc1_w=Tensor(np.zeros((3, 5))), fc1_b=Tensor(np.zeros(5)),
                      fc2_w=Tensor(np.zeros((5, 3))), fc2_b=Tensor(np.zeros(3)))
        out = mlp_of(Tensor(np.ones((2, 3))), p)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_identity_weights_collapse_to_gelu(self, rng):
        c = 4
        p = MlpParams(fc1_w=Tensor(np.eye(c)), fc1_b=Tensor(np.zeros(c)),
                      fc2_w=Tensor(np.eye(c)), fc2_b=Tensor(np.zeros(c)))
        x = rng.normal(size=(3, c))
        out = mlp_of(Tensor(x), p)
        np.testing.assert_allclose(out.data, gelu(Tensor(x)).data, atol=1e-7)

    def test_gradients(self, rng):
        x = rng.normal(size=(2, 3)) * 0.5
        arrays = [x, 0.3 * rng.normal(size=(3, 5)), 0.1 * rng.normal(size=(5,)),
                  0.3 * rng.normal(size=(5, 3)), 0.1 * rng.normal(size=(3,))]

        def fn(xx, w1, b1, w2, b2):
            p = MlpParams(fc1_w=w1, fc1_b=b1, fc2_w=w2, fc2_b=b2)
            return sum_(mlp_of(xx, p) ** 2.0)

        check_gradients(fn, arrays)


def make_stl(c, heads, m, shift, rng=None, zero_out=False):
    attn = make_attn_params(c, heads, m, rng=rng)
    mlp = MlpParams(
        fc1_w=Tensor((0.2 * rng.normal(size=(c, 2 * c))).astype(np.float32)),
        fc1_b=Tensor(np.zeros(2 * c, dtype=np.float32)),
        fc2_w=Tensor((0.2 * rng.normal(size=(2 * c, c))).astype(np.float32)),
        fc2_b=Tensor(np.zeros(c, dtype=np.float32)))
    if zero_out:
        attn.proj_w = Tensor(np.zeros((c, c), dtype=np.float32))
        attn.proj_b = Tensor(np.zeros(c, dtype=np.float32))
        mlp.fc2_w = Tensor(np.zeros((2 * c, c), dtype=np.float32))
        mlp.fc2_b = Tensor(np.zeros(c, dtype=np.float32))
    return StlParams(norm1_gamma=Tensor(np.ones(c, dtype=np.float32)),
                     norm1_beta=Tensor(np.zeros(c, dtype=np.float32)),
                     attn=attn,
                     norm2_gamma=Tensor(np.ones(c, dtype=np.float32)),
                     norm2_beta=Tensor(np.zeros(c, dtype=np.float32)),
                     mlp=mlp, shift=shift)


class TestStl:
    def test_zero_sublayers_give_residual_identity(self, rng):
        c, m = 4, 2
        stl = make_stl(c, 2, m, shift=1, rng=rng, zero_out=True)
        x = rng.uniform(size=(1, 4, 4, c)).astype(np.float32)
        out = stl_forward(Tensor(x), stl, WindowGrid(4, 4, m))
        np.testing.assert_array_equal(out.data, x)

    def test_shift_zero_paths_agree_bitwise(self, rng):
        c, m = 4, 2
        stl = make_stl(c, 2, m, shift=0, rng=rng)
        x = Tensor(rng.uniform(size=(1, 4, 4, c)).astype(np.float32))
        a = stl_forward(x, stl, WindowGrid(4, 4, m)).data
        # the shifted code path with s=0 degenerates to the same ops
        b = stl_forward(x, stl, WindowGrid(4, 4, m)).data
        np.testing.assert_array_equal(a, b)

    def test_whole_layer_gradcheck(self, rng):
        c, m = 4, 4
        stl = make_stl(c, 2, m, shift=2, rng=rng)
        x = rng.uniform(size=(1, m, m, c))
        grid = WindowGrid(m, m, m)

        def fn(xx):
            return sum_(stl_forward(xx, stl, grid) ** 2.0)

        for t in [stl.attn.wq, stl.attn.wv, stl.attn.bias_table,
                  stl.mlp.fc1_w, stl.norm1_gamma]:
            t.requires_grad = True
        check_gradients(fn, [x], tol=1e-3)

    def test_gradcheck_reaches_norm_gain_and_shift(self, rng):
        # float64 gamma and beta away from 1 and 0 reach the QKV and fc1
        # products only through the fold; x holds the window-ordered rows
        # of one image, a 4 x 4 grid of 2 x 2 windows, shifted
        c, m = 4, 2
        stl = make_stl(c, 2, m, shift=1, rng=rng)
        grid = WindowGrid(4, 4, m)
        arrays = [rng.uniform(size=(1, 16, c))]
        arrays += [1.0 + 0.3 * rng.normal(size=c), 0.3 * rng.normal(size=c),
                   1.0 + 0.3 * rng.normal(size=c), 0.3 * rng.normal(size=c)]

        def fn(xx, g1, b1, g2, b2):
            layer = replace(stl, norm1_gamma=g1, norm1_beta=b1,
                            norm2_gamma=g2, norm2_beta=b2)
            return sum_(stl_forward(xx, layer, grid) ** 2.0)

        check_gradients(fn, arrays, tol=1e-3)

    def test_float32_forward_matches_unfused_norms(self, rng):
        # LayerNorm with its own affine step, then the plain products
        c, m = 8, 4
        stl = make_stl(c, 2, m, shift=2, rng=rng)
        for t in (stl.norm1_gamma, stl.norm2_gamma):
            t.data = (1.0 + 0.3 * rng.normal(size=c)).astype(np.float32)
        for t in (stl.norm1_beta, stl.norm2_beta):
            t.data = (0.3 * rng.normal(size=c)).astype(np.float32)
        grid = WindowGrid(8, 8, m)
        x = Tensor(rng.uniform(size=(2, 64, c)).astype(np.float32))
        got = stl_forward(x, stl, grid).data
        mask = build_attn_mask(8, 8, m, 2)
        h = x + msa(layer_norm(x, stl.norm1_gamma, stl.norm1_beta), stl.attn, mask)
        want = h + mlp_of(layer_norm(h, stl.norm2_gamma, stl.norm2_beta), stl.mlp)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want.data, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("taped_input, nodes", [(False, 20), (True, 21)])
    def test_taped_layer_node_count(self, rng, taped_input, nodes):
        # 13 nodes build the folded products and the gathered bias; the
        # rows take two LayerNorms (the first untaped when x takes no
        # gradient), QKV, the attention core, the output projection, the
        # MLP as one op and two residual adds
        stl = init_params(lightweight_sr_config(2, 1), seed=0).rstbs[0].stls[1]
        assert stl.shift
        x = Tensor(rng.normal(size=(1, 256, 60)).astype(np.float32),
                   requires_grad=taped_input)
        reached, stack = set(), [stl_forward(x, stl, WindowGrid(16, 16, 8))._node]
        while stack:
            node = stack.pop()
            if isinstance(node, T._Node) and id(node) not in reached:
                reached.add(id(node))
                stack.extend(node.inputs)
        assert len(reached) == nodes

    def test_chunked_layer_matches_dense_oracle(self, rng, monkeypatch):
        # shifted layer on a batch of two 6x6 images at window 2: 18
        # windows, 9 mask windows per image. Chunks of 4 windows (16 rows)
        # give 5 chunks, one straddling the two images, so each chunk's
        # mask starts mid-image. fc2 is zero, so the layer is
        # x + attention(LayerNorm(x)), which the dense oracle gives
        c, heads, m = 6, 3, 2
        stl = make_stl(c, heads, m, shift=1, rng=rng)
        stl.mlp.fc2_w = Tensor(np.zeros((2 * c, c), dtype=np.float32))
        monkeypatch.setattr(attention, "_CHUNK_ROWS", 4 * m * m)
        x = rng.normal(size=(2, 36, c)).astype(np.float32)
        rows = x.reshape(-1, m * m, c).astype(np.float64)
        normed = (rows - rows.mean(-1, keepdims=True)) / np.sqrt(
            rows.var(-1, keepdims=True) + 1e-5)
        want = rows + dense_attention_oracle(normed, stl.attn,
                                             dense_shift_mask(6, 6, m, 1))
        calls = []
        real = T.window_attention
        monkeypatch.setattr(attention, "window_attention",
                            lambda *a: calls.append(a[0].shape[0]) or real(*a))
        runs = []
        for workers in (1, 2, 3):
            usable_cpus(monkeypatch, workers)
            calls.clear()
            with no_grad():
                got = stl_forward(Tensor(x), stl, WindowGrid(6, 6, m)).data
            assert sorted(calls) == [8, 16, 16, 16, 16]
            np.testing.assert_allclose(got.reshape(want.shape), want, atol=1e-5)
            runs.append([got])
        assert_all_equal(runs)

    def test_layer_builds_its_weights_once(self, rng, monkeypatch):
        # a shifted lightweight layer (C = 60, window 8, 6 heads) on a
        # 128^2 grid: 256 windows in 8 chunks of 32 windows (2,048 rows)
        stl = init_params(lightweight_sr_config(2, 3), seed=0).rstbs[0].stls[1]
        x = Tensor(rng.normal(size=(1, 16384, 60)).astype(np.float32))
        builds = []
        real_build = attention.layer_weights
        monkeypatch.setattr(attention, "layer_weights",
                            lambda p: builds.append(p) or real_build(p))
        for layer_calls in (1, 2):
            with no_grad():
                stl_forward(x, stl, WindowGrid(128, 128, 8))
            assert builds == [stl] * layer_calls

    def test_one_chunk_layer_same_with_and_without_tape(self, rng):
        # a shifted lightweight layer on a 16^2 grid, four windows: the
        # taped layer and the untaped one are the same single chunk, with
        # the weights built once either way
        stl = init_params(lightweight_sr_config(2, 3), seed=0).rstbs[0].stls[1]
        x = rng.normal(size=(1, 256, 60)).astype(np.float32)
        grid = WindowGrid(16, 16, 8)
        taped = stl_forward(Tensor(x, requires_grad=True), stl, grid)
        assert taped.requires_grad
        with no_grad():
            untaped = stl_forward(Tensor(x), stl, grid)
        np.testing.assert_array_equal(taped.data, untaped.data)

    def test_untaped_layer_memory_bounded(self, monkeypatch):
        # one shifted lightweight layer (C = 60, window 8, 6 heads) on the
        # 65,536 rows of a 256^2 grid, 15.7 MB in and 15.7 MB out. Run
        # whole, its [65536, 180] qkv alone took 47 MB and the layer peaked
        # at 81 MB; chunks of whole windows on two threads peak at 22 MB,
        # the output plus a few MB per chunk in flight
        usable_cpus(monkeypatch, 2)
        stl = init_params(lightweight_sr_config(2, 3), seed=0).rstbs[0].stls[1]
        x = Tensor(np.random.default_rng(0).normal(size=(1, 65536, 60)).astype(np.float32))
        with traced_peak() as peak, no_grad():
            stl_forward(x, stl, WindowGrid(256, 256, 8))
            assert peak() < 2 * x.data.nbytes
