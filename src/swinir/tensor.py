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
    blocks = _blocks(span, kk * es)
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


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to zero mean / unit variance, then scale
    and shift. Population (biased) variance.

    Runs over blocks of rows (``_blocks``), every pass over a block while it
    is in cache. The taped path keeps the normalized rows for backward;
    without a tape they are formed in the output buffer."""
    x = _wrap(x)
    c = x.shape[-1]
    if c == 0:
        raise ValueError("layer_norm: empty normalization axis")
    x2 = x.data.reshape(-1, c)
    out = np.empty_like(x2)
    xhat = np.empty_like(x2) if _taped((x, gamma, beta)) else out
    inv = np.empty((len(x2), 1), dtype=x2.dtype)
    for rows in _blocks(len(x2), 3 * c * x2.itemsize):
        xb, hb, ib = x2[rows], xhat[rows], inv[rows]
        np.subtract(xb, xb.mean(axis=-1, keepdims=True), out=hb)
        np.mean(hb * hb, axis=-1, keepdims=True, out=ib)
        ib += eps
        np.sqrt(ib, out=ib)
        np.divide(1.0, ib, out=ib)
        hb *= ib
        ob = out[rows]
        np.multiply(hb, gamma.data, out=ob)
        ob += beta.data
    xhat = xhat.reshape(x.shape)
    inv = inv.reshape(*x.shape[:-1], 1)

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        gamma._accumulate((g * xhat).sum(axis=lead))
        beta._accumulate(g.sum(axis=lead))
        gx = g * gamma.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        x._accumulate(inv * (gx - m1 - xhat * m2))

    return _make(out.reshape(x.shape), (x, gamma, beta), backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_grad(xd: np.ndarray) -> np.ndarray:
    # d/dx [x * Phi(x)] = Phi(x) + x * phi(x)
    phi = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    return cdf + xd * phi


def gelu(x: Tensor) -> Tensor:
    """Exact error-function GELU, x * Phi(x), over blocks of elements."""
    x = _wrap(x)
    flat = x.data.reshape(-1)
    out = np.empty_like(flat)
    for part in _blocks(flat.size, 2 * flat.itemsize):
        xb, ob = flat[part], out[part]
        np.multiply(xb, _INV_SQRT2, out=ob)
        erf(ob, out=ob)
        ob += 1.0
        ob *= 0.5
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


def window_attention(qkv: Tensor, bias: Tensor, mask=None) -> Tensor:
    """Fused multi-head attention core over [nW, m^2, 3C] windows.

    ``qkv`` holds Q (already scaled by 1/sqrt(d)), K and V side by side,
    each split into heads by contiguous channel chunks; ``bias`` is
    [heads, key, query]; ``mask`` is None or a ``windows.AttnMask`` whose
    windows repeat over the batch. Returns softmax(Q K^T + B + mask) V
    with heads concatenated, [nW, m^2, C].

    Windows run in blocks (``_blocks``) sized so that a block's scores,
    [windows, heads, key, query], stay in cache from Q K^T to the output.
    Scores are key-major, so the softmax max runs over axis -2, which
    numpy vectorizes across the contiguous query axis. Bias, the mask's
    -inf entries (only on the block's masked windows), the max and exp
    update one buffer in place into E = exp(S - max). E is never
    normalized: its column sums come from one product, ones[1, key] @ E,
    and the [query, d] output E^T V is scaled by their reciprocals r.
    Without a tape the blocks share one block-sized score buffer; the
    taped path keeps all of E and r.

    Backward, with A = E r and gs = r g, the gradient g scaled per query:
    dV = E gs, and the softmax rule dS = A (dA - D) with dA = V g^T and
    D = rowsum(out * g) becomes dS = E (V gs^T - rowsum(out * gs)), as in
    FlashAttention; dQ = dS^T K, dK = dS Q and dB = dS summed over windows.
    """
    qkv = _wrap(qkv)
    nw, mm, c3 = qkv.shape
    heads = bias.shape[0]
    c = c3 // 3
    d = c // heads
    if mask is not None and nw % mask.shape[0]:
        raise ValueError(f"{nw} windows not a multiple of {mask.shape[0]} mask windows")
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
    ones = np.ones((1, mm), dtype=dtype)
    for wins in blocks:
        s = e[wins] if taped else e[:wins.stop - wins.start]
        np.matmul(k[wins], q[wins].swapaxes(-1, -2), out=s)
        s += bias.data
        if mask is not None:
            slots = mask.slots[np.arange(wins.start, wins.stop) % mask.shape[0]]
            hit = slots >= 0
            if hit.any():
                s[hit] += mask.blocks[slots[hit]]
        s -= s.max(axis=-2, keepdims=True)
        np.exp(s, out=s)
        rb = r[wins]
        np.matmul(ones, s, out=rb)
        np.divide(1.0, rb, out=rb)
        ob = out_h[wins]
        np.matmul(s.swapaxes(-1, -2), v[wins], out=ob)
        ob *= rb.swapaxes(-1, -2)

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

    return _make(out, (qkv, bias), backward)


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
