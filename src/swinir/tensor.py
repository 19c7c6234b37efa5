"""Dense N-d float tensor with reverse-mode differentiation.

Tensors wrap contiguous row-major numpy arrays (float32 by default; build
parameters and inputs as float64 arrays to run the whole graph in the
64-bit gradient-check mode). Every operation that participates in training
records a backward closure; ``Tensor.backward()`` on a scalar loss walks
the recorded graph once in reverse topological order and accumulates
gradients additively into ``.grad``.

The operator set is exactly what the restoration model needs; this is not
a general autodiff system (no control-flow capture, no higher-order
gradients).
"""
from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.special import erf

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True

# working-set budget of one block in the blocked kernels (conv2d, layer_norm,
# gelu, window_attention): small enough that every pass over a block's
# temporaries hits cache, large enough that per-block overhead stays small
_BLOCK_BYTES = 512 * 1024


class no_grad:
    """Context manager that disables tape recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """N-d float array plus optional gradient slot and tape linkage."""

    __slots__ = ("data", "requires_grad", "grad", "_prev", "_backward", "_backward_ran")

    def __init__(self, data, requires_grad: bool = False,
                 _prev: Iterable["Tensor"] = ()):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad: Optional[np.ndarray] = None
        self._prev: Tuple[Tensor, ...] = tuple(_prev)
        self._backward = None
        self._backward_ran = False

    # -- bookkeeping ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # copy: closures may hand the same buffer to several parents
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    # -- backward -------------------------------------------------------

    def backward(self) -> None:
        """Populate ``.grad`` of every reachable tensor with d(self)/d(tensor).

        ``self`` must be scalar. Gradients accumulate additively across
        uses and across calls; the caller zeroes them between steps.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._backward_ran:
            raise RuntimeError("backward already ran on this tape; re-record the graph first")
        self._backward_ran = True

        topo: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                fn = node._backward
                node._backward = None
                fn(node.grad)
                # interior nodes only carry gradient transiently; leaves keep theirs
                node.grad = None

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self.dtype), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul(self, 1.0 / other)
        return mul(self, pow_(other, -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def permute(self, *axes):
        return permute(self, *axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def _wrap(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype if dtype in _FLOAT_DTYPES else np.float32)
    return Tensor(arr)


def _unbroadcast(g: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _taped(parents: Sequence[Tensor]) -> bool:
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(out_data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    needs = _taped(parents)
    out = Tensor(out_data, requires_grad=needs, _prev=parents if needs else ())
    if needs:
        out._backward = backward
    return out


# -- elementwise and structural ops -------------------------------------

def add(a: Tensor, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a.dtype)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    a = _wrap(a)
    if isinstance(b, (int, float)):
        scale = float(b)

        def backward_scalar(g):
            a._accumulate(g * scale)

        return _make(a.data * np.asarray(scale, dtype=a.dtype), (a,), backward_scalar)

    b = _wrap(b, a.dtype)

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward)


def pow_(a: Tensor, exponent: float) -> Tensor:
    a = _wrap(a)
    p = float(exponent)

    def backward(g):
        a._accumulate(g * p * a.data ** (p - 1.0))

    return _make(a.data**p, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    a = _wrap(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * (0.5 / out_data))

    return _make(out_data, (a,), backward)


def abs_(a: Tensor) -> Tensor:
    a = _wrap(a)

    def backward(g):
        a._accumulate(g * np.sign(a.data))

    return _make(np.abs(a.data), (a,), backward)


def reshape(a: Tensor, *shape) -> Tensor:
    a = _wrap(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _make(np.ascontiguousarray(a.data.reshape(shape)), (a,), backward)


def permute(a: Tensor, *axes) -> Tensor:
    a = _wrap(a)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    inverse = np.argsort(axes)

    def backward(g):
        a._accumulate(g.transpose(inverse))

    return _make(np.ascontiguousarray(a.data.transpose(axes)), (a,), backward)


def getitem(a: Tensor, idx) -> Tensor:
    """Basic (slice/int) indexing. Backward scatters into a zero buffer, so
    the index must not repeat elements; use ``take`` for gather semantics."""
    a = _wrap(a)

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a._accumulate(full)

    return _make(np.ascontiguousarray(a.data[idx]), (a,), backward)


def take(a: Tensor, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Gather along one axis with a 1-d integer index; repeats allowed."""
    a = _wrap(a)
    idx = np.asarray(indices)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(np.moveaxis(full, axis, 0), idx, np.moveaxis(g, axis, 0))
        a._accumulate(full)

    return _make(np.ascontiguousarray(np.take(a.data, idx, axis=axis)), (a,), backward)


def gather_rows(a: Tensor, index: np.ndarray, inverse: np.ndarray) -> Tensor:
    """Rows of [N, L, C] in a new order: out[:, r] = a[:, index[r]].

    ``index`` is a permutation of range(L) and ``inverse`` its inverse, so
    backward is the inverse gather: every row moves once, and nothing is
    summed or scattered."""
    a = _wrap(a)

    def backward(g):
        a._accumulate(np.take(g, inverse, axis=1))

    return _make(np.take(a.data, index, axis=1), (a,), backward)


def roll(a: Tensor, shifts: Tuple[int, ...], axes: Tuple[int, ...]) -> Tensor:
    a = _wrap(a)

    def backward(g):
        a._accumulate(np.roll(g, tuple(-s for s in shifts), axis=axes))

    return _make(np.roll(a.data, shifts, axis=axes), (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]

    def backward(g):
        start = 0
        for t, n in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + n)
            t._accumulate(g[tuple(sl)])
            start += n

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    axes = axis if axis is None else (axis if isinstance(axis, tuple) else (axis,))

    def backward(g):
        if axes is None:
            a._accumulate(np.broadcast_to(g, a.shape).copy())
            return
        if not keepdims:
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _make(np.asarray(a.data.sum(axis=axes, keepdims=keepdims)), (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product contracting the trailing pair of dimensions."""
    a = _wrap(a)
    b = _wrap(b)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.shape))
        b._accumulate(_unbroadcast(gb, b.shape))

    return _make(np.matmul(a.data, b.data), (a, b), backward)


# -- neural-net ops ---------------------------------------------------------

def _blocks(rows: int, row_bytes: int) -> list:
    """Slices that cover ``range(rows)`` in blocks of whole rows, each
    block's temporaries within ``_BLOCK_BYTES`` (one row at the least)."""
    step = max(1, _BLOCK_BYTES // max(1, row_bytes))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """x[..., Din] @ weight[Din, Dout] (+ bias[Dout])."""
    x = _wrap(x)
    din, dout = weight.shape
    if x.shape[-1] != din:
        raise ValueError(f"linear: input width {x.shape[-1]} != weight Din {din}")
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, din)
    out = x2 @ weight.data
    if bias is not None:
        out += bias.data

    def backward(g):
        g2 = g.reshape(-1, dout)
        x._accumulate((g2 @ weight.data.T).reshape(x.shape))
        weight._accumulate(x2.T @ g2)
        if bias is not None:
            bias._accumulate(g2.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out.reshape(*lead, dout), parents, backward)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           padding: int = 0) -> Tensor:
    """2-d cross-correlation, stride 1, zero padding.

    x: [N, Cin, H, W]; weight: [Cout, Cin, k, k]; output [N, Cout, H', W']
    with H' = H + 2*padding - k + 1.

    Blocked im2col (Cho & Brand, "MEC", arXiv 1706.06873): the padded input
    is viewed as ``flat`` [N, Cin, Hp*Wp], and output position p of an
    H' x Wp grid reads ``flat[:, :, p + i*Wp + j]`` for tap (i, j), so each
    tap of a run of positions is one contiguous slice. Per image, the
    ``span`` = (H'-1)*Wp + W' positions run in blocks (``_blocks``) whose
    [Cin*kh*kw, L] columns fit ``_BLOCK_BYTES``: one copy from a strided
    view of the taps fills one reused column buffer, one GEMM writes the
    block's outputs. The Wp - W' junk columns of each grid row are dropped
    at the end. The whole column matrix never exists.

    The tape keeps only the padded input. Backward recomputes each block's
    columns, accumulates dW += g_blk cols^T, and scatter-adds
    dcols = W^T g_blk back into ``flat``'s gradient as kh*kw slices.
    """
    x = _wrap(x)
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d: input has {cin} channels, weight expects {cin_w}")
    hp, wp = h + 2 * padding, w + 2 * padding
    hout, wout = hp - kh + 1, wp - kw + 1
    if hout <= 0 or wout <= 0:
        raise ValueError(f"conv2d: non-positive output size {hout}x{wout}")

    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    flat = xp.reshape(n, cin, hp * wp)
    span = (hout - 1) * wp + wout
    kk = cin * kh * kw
    # read-only view, taps[n, c, i, j, p] = flat[n, c, p + i*Wp + j]; the
    # last tap of the last position is the last element of a channel plane
    es = xp.itemsize
    taps = np.lib.stride_tricks.as_strided(
        flat, shape=(n, cin, kh, kw, span),
        strides=flat.strides[:2] + (wp * es, es, es), writeable=False)
    # a floor of _BLOCK_BYTES // 256 bytes per position (256 positions at
    # the default budget) keeps wide inputs (Cin = 180: 80 positions in a
    # plain budget) from running many small GEMMs
    blocks = _blocks(span, min(kk * es, _BLOCK_BYTES // 256))
    buf = np.empty(kk * blocks[0].stop, dtype=xp.dtype)

    def columns(img, pos):
        """Block ``pos`` of image ``img``'s column matrix, [Cin*kh*kw, L]
        in (cin, i, j) order, in ``buf``: one copy that walks the input
        channel by channel, so each channel's rows stay in cache for all
        of its taps."""
        cols = buf[:kk * (pos.stop - pos.start)].reshape(cin, kh, kw, -1)
        cols[...] = taps[img, ..., pos]
        return cols.reshape(kk, -1)

    wmat = weight.data.reshape(cout, kk)
    # positions past span (the last grid row's junk tail) are never written
    grid = np.empty((n, cout, hout * wp), dtype=np.result_type(xp, wmat))
    for img in range(n):
        for pos in blocks:
            ob = grid[img, :, pos]
            np.matmul(wmat, columns(img, pos), out=ob)
            if bias is not None:
                ob += bias.data[:, None]
    out = grid.reshape(n, cout, hout, wp)[:, :, :, :wout]

    def backward(g):
        ggrid = np.zeros((n, cout, hout * wp), dtype=g.dtype)
        ggrid.reshape(n, cout, hout, wp)[:, :, :, :wout] = g
        dw = np.zeros_like(wmat)
        dflat = np.zeros_like(flat, dtype=g.dtype)
        dbuf = np.empty_like(buf, dtype=g.dtype)
        for img in range(n):
            for pos in blocks:
                length = pos.stop - pos.start
                gb = ggrid[img, :, pos]
                dw += gb @ columns(img, pos).T
                db = dbuf[:kk * length].reshape(kk, length)
                np.matmul(wmat.T, gb, out=db)
                db = db.reshape(cin, kh, kw, length)
                for i in range(kh):
                    for j in range(kw):
                        at = pos.start + i * wp + j
                        dflat[img, :, at:at + length] += db[:, i, j]
        weight._accumulate(dw.reshape(weight.shape))
        if bias is not None:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        dxp = dflat.reshape(n, cin, hp, wp)
        x._accumulate(dxp[:, :, padding:padding + h, padding:padding + w])

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out, parents, backward)


def layer_norm(x: Tensor, gamma: Optional[Tensor], beta: Optional[Tensor],
               eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to zero mean / unit variance, then scale
    by ``gamma`` and shift by ``beta`` unless they are None. Population
    (biased) variance.

    The model passes None: its γ and β enter the product that follows
    (``attention.fold_norm``), so the kernel makes no pass for them; a
    given affine is applied with the ``mul`` and ``add`` ops.

    Runs over blocks of rows (``_blocks``), every pass over a block while it
    is in cache. The row mean and the row sum of squares are einsum
    contractions, which need no squared temporary and beat numpy's slow
    reductions over short rows. They are not BLAS products (x @ ones):
    BLAS was faster still, but its row sums changed with the number of
    rows in a block, so the output would depend on the block budget. The
    normalized rows are the output, and backward reads them."""
    x = _wrap(x)
    c = x.shape[-1]
    if c == 0:
        raise ValueError("layer_norm: empty normalization axis")
    x2 = x.data.reshape(-1, c)
    out = np.empty_like(x2)
    inv = np.empty((len(x2), 1), dtype=x2.dtype)
    weights = np.full(c, 1.0 / c, dtype=x2.dtype)
    for rows in _blocks(len(x2), 2 * c * x2.itemsize):
        xb, hb, ib = x2[rows], out[rows], inv[rows]
        np.subtract(xb, np.einsum("ij,j->i", xb, weights)[:, None], out=hb)
        np.einsum("ij,ij->i", hb, hb, out=ib[:, 0])
        ib *= 1.0 / c
        ib += eps
        np.sqrt(ib, out=ib)
        np.divide(1.0, ib, out=ib)
        hb *= ib
    xhat = out.reshape(x.shape)
    inv = inv.reshape(*x.shape[:-1], 1)

    def backward(g):
        m1 = g.mean(axis=-1, keepdims=True)
        m2 = (g * xhat).mean(axis=-1, keepdims=True)
        x._accumulate(inv * (g - m1 - xhat * m2))

    out = _make(xhat, (x,), backward)
    if gamma is None:
        return out
    return add(mul(out, gamma), beta)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float32 erf(x / sqrt 2) = tanh(u), u = y S(min(y^2, (6.5 _CDF_SCALE)^2)),
# y = _CDF_SCALE x. S has degree 6 in y^2, coefficients from y^0 up: the
# float32 values of a minimax fit (a linear program) for the relative error
# of tanh(u), constrained so that its mean over N(0, sigma^2) inputs stays
# within 4e-9 for sigma = 0.028, 0.071, 0.28 and 1.41, where GELU's inputs
# sit and where a model adds up any bias over its layers. In float64 the
# relative error is at most 1.7e-7, so |Phi error| is at most 8.6e-8.
# _CDF_SCALE * S(0) is sqrt(2/pi) to 1e-12; a lone float32 S(0) would be
# 2.8e-8 high, a bias on every small input, so the product by _CDF_SCALE is
# the one pass this costs. At |x| = 6.5 u = 12.4, where float32 tanh is
# exactly +-1, and |u| only grows beyond, so Phi is exactly 0 and 1 there.
# Bounding y^2 rather than clipping x gives the same values: np.minimum is
# half the cost of np.clip, and a y^2 that overflows to inf is bounded too.
_CDF_CLIP = 6.5
_CDF_SCALE = 1.0034637451171875
_CDF_T_MAX = (_CDF_CLIP * _CDF_SCALE) ** 2
_CDF_S = (0.7951304316520691, 0.035960353910923004, -3.474223194643855e-05,
          -5.281210542307235e-05, 3.628205831773812e-06,
          -1.1040672376338989e-07, 1.2153292816563521e-09)


def _horner(coeffs, t: np.ndarray) -> np.ndarray:
    acc = t * coeffs[-1]
    for a in coeffs[-2:0:-1]:
        acc += a
        acc *= t
    acc += coeffs[0]
    return acc


def _erf_over_sqrt2(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """erf(x / sqrt 2) = 2 Phi(x) - 1 into ``out`` (which may be ``x``),
    any layout.

    float64 takes scipy's erf. float32 takes tanh(u) as set out above: 17
    elementwise passes, within 2.3e-7 of float64 on [-10, 10]; NaN stays
    NaN and +-inf give +-1."""
    if x.dtype != np.float32:
        np.multiply(x, _INV_SQRT2, out=out)
        return erf(out, out=out)
    with np.errstate(over="ignore"):      # huge |x|: inf, which tanh maps to +-1
        y = np.multiply(x, _CDF_SCALE, out=out)
        t = y * y
        u = _horner(_CDF_S, np.minimum(t, _CDF_T_MAX, out=t))
        u *= y
    return np.tanh(u, out=out)


def _normal_cdf(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2 into ``out``; GELU is x Phi(x)."""
    _erf_over_sqrt2(x, out)
    out += 1.0
    out *= 0.5
    return out


def _gelu_grad(xd: np.ndarray) -> np.ndarray:
    # d/dx [x * Phi(x)] = Phi(x) + x * phi(x); phi from the clipped value,
    # as x^2 overflows float32 above 1.8e19 and exp(-800) is 0 anyway
    xc = np.clip(xd, -40.0, 40.0)
    phi = np.exp(-0.5 * xc * xc) * _INV_SQRT2PI
    return _normal_cdf(xd, np.empty_like(xd)) + xd * phi


def gelu(x: Tensor) -> Tensor:
    """Exact error-function GELU, x * Phi(x) = x (1 + erf(x / sqrt 2)) / 2,
    over blocks of elements.

    float32 takes erf from ``_erf_over_sqrt2``'s tanh form, so that float32
    GELU and its derivative stay within 1e-6 of their float64 values on
    [-10, 10]. float64 keeps scipy's erf, so gradient checks keep float64
    accuracy."""
    x = _wrap(x)
    flat = x.data.reshape(-1)
    out = np.empty_like(flat)
    for part in _blocks(flat.size, 5 * flat.itemsize):
        xb, ob = flat[part], out[part]
        _normal_cdf(xb, ob)
        ob *= xb

    def backward(g):
        x._accumulate(g * _gelu_grad(x.data))

    return _make(out.reshape(x.shape), (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Stable softmax over the trailing dimension."""
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        x._accumulate(out * (g - dot))

    return _make(out, (x,), backward)


# logit bound below which softmax needs no column max: E = exp(S) stays in
# [e^-30, e^30] and |V| <= sqrt(30 / d), so no product of the forward, nor
# of the backward for gradients below 1e20, comes near float32 overflow
# (e^88), and E times any |V| above 1e-25 stays a normal float32
_EXP_SAFE = 30.0


def _skips_max(qkv: np.ndarray, bias: np.ndarray, d: int) -> bool:
    """True when bound = d a^2 + max|B|, with a = max|qkv| (Q, K and V
    at once; two fast reductions over contiguous memory), is below
    ``_EXP_SAFE``. The bound holds every |logit|. NaN or inf gives False."""
    a = max(float(qkv.max()), -float(qkv.min()))
    return d * a * a + max(float(bias.max()), -float(bias.min())) < _EXP_SAFE


def window_attention(qkv: Tensor, bias: Tensor, mask=None) -> Tensor:
    """Fused multi-head attention core over windows of m^2 rows.

    ``qkv`` is [..., 3C], window-ordered rows ([nW, m^2, 3C] or any
    leading shape with m^2 consecutive rows per window), and holds Q
    (already scaled by 1/sqrt(d)), K and V side by side, each split into
    heads by contiguous channel chunks; ``bias`` is [heads, key, query];
    ``mask`` is None or a ``windows.AttnMask``, -inf only on boundary
    windows, whose slots repeat over the batch. Returns softmax(Q K^T + B +
    mask) V with heads concatenated, [..., C].

    Windows run in blocks (``_blocks``) sized so that a block's scores,
    [windows, heads, key, query], stay in cache from Q K^T to the output.
    Bias and the mask's -inf entries (added window by window, only on the
    block's boundary windows) update one buffer in place, which exp turns
    into E. E is never normalized: its column sums come from one product,
    ones[1, key] @ E, and the output is scaled by their reciprocals r.

    Softmax does not change when a column of logits is shifted
    (Milakov & Gimelshein, arXiv 1805.02867), so E needs no column max
    while neither exp(S) nor its products can overflow. Once per call,
    ``_skips_max`` bounds every |logit| from max|qkv| and max|B|; below 30,
    E = exp(S), otherwise E = exp(S - max) with the exact column max over
    keys (axis -2, which numpy vectorizes across the contiguous query
    axis). An untrained lightweight model stays far below the bound, an
    untrained C = 180 model straddles it, and trained weights grow past
    it; a call that falls back pays two reductions over ``qkv``. The bound
    is per call, not per block, so the block size never changes the
    arithmetic.

    The output product runs transposed: V^T E into one reused [windows,
    heads, d, query] buffer, scaled by r along its contiguous query axis,
    then copied into the [query, d] head slices of the output. Without a
    tape the blocks share one block-sized score buffer; the taped path
    keeps all of E and r.

    Backward, with A = E r and gs = r g, the gradient g scaled per query:
    dV = E gs, and the softmax rule dS = A (dA - D) with dA = V g^T and
    D = rowsum(out * g) becomes dS = E (V gs^T - rowsum(out * gs)), as in
    FlashAttention; dQ = dS^T K, dK = dS Q and dB = dS summed over windows.
    """
    qkv = _wrap(qkv)
    heads, mm = bias.shape[0], bias.shape[-1]
    c3 = qkv.shape[-1]
    if qkv.size % (mm * c3):
        raise ValueError(f"{qkv.size // c3} rows do not make windows of {mm} tokens")
    nw = qkv.size // (mm * c3)
    c = c3 // 3
    d = c // heads
    if mask is not None and nw % len(mask.slots):
        raise ValueError(f"{nw} windows not a multiple of {len(mask.slots)} mask windows")
    dtype = qkv.dtype
    # [3, nW, heads, tokens, d] strided views; BLAS reads them in place
    q, k, v = qkv.data.reshape(nw, mm, 3, heads, d).transpose(2, 0, 3, 1, 4)

    def heads_view(buf):
        return buf.reshape(nw, mm, heads, d).transpose(0, 2, 1, 3)

    out = np.empty((nw, mm, c), dtype=dtype)
    out_h = heads_view(out)
    taped = _taped((qkv, bias))
    blocks = _blocks(nw, heads * mm * mm * dtype.itemsize)
    e = np.empty((nw if taped else blocks[0].stop, heads, mm, mm), dtype=dtype)
    r = np.empty((nw, heads, 1, mm), dtype=dtype)
    vte = np.empty((blocks[0].stop, heads, d, mm), dtype=dtype)
    ones = np.ones((1, mm), dtype=dtype)
    skip_max = _skips_max(qkv.data, bias.data, d)
    for wins in blocks:
        s = e[wins] if taped else e[:wins.stop - wins.start]
        np.matmul(k[wins], q[wins].swapaxes(-1, -2), out=s)
        s += bias.data
        if mask is not None:
            slots = mask.slots[np.arange(wins.start, wins.stop) % len(mask.slots)]
            for i in np.flatnonzero(slots >= 0):
                s[i] += mask.blocks[slots[i]]
        if not skip_max:
            s -= s.max(axis=-2, keepdims=True)
        np.exp(s, out=s)
        rb = r[wins]
        np.matmul(ones, s, out=rb)
        np.divide(1.0, rb, out=rb)
        ob = vte[:wins.stop - wins.start]
        np.matmul(v[wins].swapaxes(-1, -2), s, out=ob)
        ob *= rb
        out_h[wins] = ob.swapaxes(-1, -2)

    def backward(g):
        gs = heads_view(g) * r.swapaxes(-1, -2)
        grad = np.empty_like(qkv.data)
        gq, gk, gv = grad.reshape(nw, mm, 3, heads, d).transpose(2, 0, 3, 1, 4)
        np.matmul(e, gs, out=gv)
        ds = np.matmul(v, gs.swapaxes(-1, -2))
        ds -= (out_h * gs).sum(axis=-1)[:, :, None]
        ds *= e
        np.matmul(ds.swapaxes(-1, -2), k, out=gq)
        np.matmul(ds, q, out=gk)
        qkv._accumulate(grad)
        bias._accumulate(ds.sum(axis=0))

    return _make(out.reshape(*qkv.shape[:-1], c), (qkv, bias), backward)


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Rearrange [N, r*r*C, H, W] -> [N, C, r*H, r*W].

    Element (n, c*r*r + a*r + b, i, j) lands at (n, c, i*r + a, j*r + b).
    """
    if r == 1:
        return x
    n, crr, h, w = x.shape
    if crr % (r * r) != 0:
        raise ValueError(f"pixel_shuffle: {crr} channels not divisible by r^2={r * r}")
    c = crr // (r * r)
    y = reshape(x, n, c, r, r, h, w)
    y = permute(y, 0, 1, 4, 2, 5, 3)
    return reshape(y, n, c, h * r, w * r)


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """Exact inverse of ``pixel_shuffle``."""
    if r == 1:
        return x
    n, c, hr, wr = x.shape
    if hr % r or wr % r:
        raise ValueError(f"pixel_unshuffle: spatial size {hr}x{wr} not divisible by {r}")
    h, w = hr // r, wr // r
    y = reshape(x, n, c, h, r, w, r)
    y = permute(y, 0, 1, 3, 5, 2, 4)
    return reshape(y, n, c * r * r, h, w)
