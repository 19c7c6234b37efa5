"""Dense N-d float tensor with reverse-mode differentiation.

Tensors wrap contiguous row-major numpy arrays (float32 by default; build
parameters and inputs as float64 arrays to run the whole graph in the
64-bit gradient-check mode). Every operation that participates in training
records a tape node; ``Tensor.backward()`` on a scalar loss walks
the recorded graph once in reverse topological order, accumulates
gradients additively into ``.grad`` and frees the graph as it goes.

The operator set is exactly what the restoration model needs, in the one
form it calls each op; this is not a general autodiff system (no
control-flow capture, no higher-order gradients). Ops take tensors (only
``add`` and ``mul`` also take a number or an array as their second
operand), every product and every convolution is biased, every
convolution is a "same" one with an odd square kernel, and the reductions
(``sum_``, ``mean``) are over the whole tensor, as the losses take them.

The tape is a graph of ``_Node``s apart from the tensors: a taped output
links to its node, and a node to its inputs' nodes (a leaf tensor that
requires grad is its own node) and to a rule that captures only the
arrays its gradient formula reads. So the tape keeps no activation for
its own sake: an array that no rule reads goes with the caller's last
reference to its tensor.

Without a tape, work that splits into independent parts runs over the
usable CPUs (``parallel_for``); the tape itself is recorded by one thread.
"""
from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True

# bytes of columns in one conv2d block. A GEMM's float32 sums depend on its
# width, so conv blocks take their width from the conv's shape and this
# constant alone: a conv's bits depend on its inputs only. The row kernels
# (layer_norm, gelu, window_attention) have no budget of their own; they
# make each pass once over the array they are given, and a transformer
# layer bounds that array by its chunk of whole windows (attention._CHUNK_ROWS)
_CONV_BYTES = 512 << 10


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


def grad_enabled() -> bool:
    """False inside ``no_grad``: nothing is taped, so work may be split
    over threads."""
    return _grad_enabled


# -- threads ------------------------------------------------------------------

def _blas_controls():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    or None where numpy exports no such symbols."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.restype = ctypes.c_int
    put.argtypes = (ctypes.c_int,)
    return get, put


_BLAS = _blas_controls()


@contextmanager
def single_thread_blas():
    """BLAS at one thread inside the block; the previous count comes back
    on exit, also on an exception. Python threads then own the CPUs: a
    BLAS thread left spinning after a threaded product would share a core
    with the next worker."""
    if _BLAS is None:
        yield
        return
    get, put = _BLAS
    prev = get()
    put(1)
    try:
        yield
    finally:
        put(prev)


_pool = None                        # (executor, its thread count), made on first use
_in_task = threading.local()
_heap_shared = False


def _share_heap() -> None:
    """Set glibc's malloc up, once per process: before the pool's first
    thread starts, and before the first taped op. One arena, so memory
    any thread frees serves every thread, and fixed mmap and trim
    thresholds of 32 and 64 MB, so the temporaries of each chunk, layer
    and convolution come back from the free lists rather than being
    unmapped and faulted in again. Without it a helper thread's own arena
    keeps a chunk's working set that the caller cannot reuse, and a 64x64
    car restore faults in 90k pages; a tape frees each array once no rule
    reads it, and a taped 2 x 32x32 lightweight step faults in 9k. No-op
    where the C library cannot be opened or has no mallopt, and after the
    first call."""
    global _heap_shared
    if _heap_shared:
        return
    _heap_shared = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):    # TypeError: no CDLL(None)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in ((-8, 1), (-3, 32 << 20), (-1, 64 << 20)):
        mallopt(param, value)     # M_ARENA_MAX, M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _helpers(count: int) -> ThreadPoolExecutor:
    """An executor of at least ``count`` threads; its threads start as
    work arrives and then wait for more."""
    global _pool
    _share_heap()
    if _pool is None or _pool[1] < count:
        if _pool is not None:
            _pool[0].shutdown(wait=False)
        _pool = (ThreadPoolExecutor(count, thread_name_prefix="swinir"), count)
    return _pool[0]


def parallel_for(fn: Callable, items: Sequence) -> None:
    """fn(item) for every item, spread over the usable CPUs.

    The caller and (CPUs - 1) pool threads take the items one at a time,
    in order, each as soon as it is free, so a stalled CPU holds up one
    item rather than a fixed share. Runs everything in order on the
    calling thread while the tape records (it is not thread-safe), when
    one CPU is usable, when there is one item, or when called from inside
    a task: it never nests, and never runs more threads than there are
    usable CPUs. Pool threads run in a copy of the caller's context, so
    its ``np.errstate`` holds in every item. After every started item has
    ended, the exception of the first failed item, if any, is raised
    unchanged."""
    # the CPUs of the affinity mask, or all of them where the platform has
    # none; one where BLAS cannot be held at one thread, as its own threads
    # would compete with the pool's
    if _BLAS is None:
        cpus = 1
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(items))
    if _grad_enabled or workers <= 1 or getattr(_in_task, "active", False):
        for item in items:
            fn(item)
        return
    failed = []
    order = iter(range(len(items)))      # shared: each index is taken once

    def drain():
        _in_task.active = True
        try:
            for i in order:
                if failed:
                    return
                try:
                    fn(items[i])
                except BaseException as exc:
                    failed.append((i, exc))
        finally:
            _in_task.active = False

    pool = _helpers(workers - 1)
    helpers = [pool.submit(contextvars.copy_context().run, drain)
               for _ in range(workers - 1)]
    drain()
    for helper in helpers:
        helper.result()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


class _Node:
    """One taped op: its inputs' nodes (None for an input that takes no
    gradient), the gradient reaching its output so far, and ``rule``,
    which maps that gradient to one gradient per input (None where none
    flows)."""

    __slots__ = ("inputs", "rule", "grad", "dtype")

    def __init__(self, inputs, rule, dtype):
        self.inputs, self.rule, self.grad, self.dtype = inputs, rule, None, dtype


def _accumulate(node, g: np.ndarray) -> None:
    """Add g to the gradient of a node or of a leaf tensor."""
    if node.grad is None:
        # copy: a rule may hand the same buffer to several inputs
        node.grad = np.array(g, dtype=node.dtype)
    else:
        node.grad += g


class Tensor:
    """N-d float array plus optional gradient slot and tape node."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None

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

    # -- backward -------------------------------------------------------

    def backward(self) -> None:
        """Populate ``.grad`` of every reachable leaf with d(self)/d(leaf).

        ``self`` must be scalar. Gradients accumulate additively across
        uses and across calls; the caller zeroes them between steps.

        The tape keeps no tensor: a node keeps its inputs' nodes and a rule
        holding only the arrays its formula reads (the input and weight of
        ``linear``, the padded input of ``conv2d``, the normalized rows and
        1/sigma of ``layer_norm``, the input of ``gelu``, the input,
        weights and hidden pre-activation h of ``mlp``, qkv, r and the
        output of ``window_attention``, and no array for ``add``,
        ``reshape``, ``permute``, ``gather_rows``, ``concat`` or ``sum_``),
        so every other activation went with the caller's last reference.
        Where a product is cheap to redo, the rule recomputes it rather
        than keep it: ``window_attention`` rebuilds its scores E from qkv,
        and ``mlp`` rebuilds GELU(h) from h.

        Backward consumes the tape: it pops each node off the walk and
        unlinks its inputs and rule, so a rule is freed once it has run (at
        once if its node received no gradient), and with it every array
        only that rule read. Interior gradients live only until their
        node's rule has run; leaves keep ``.grad``. The graph cannot be
        walked again.
        """
        if self.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        root = self._node
        if root is None:                    # a leaf (or untaped) loss
            if self.requires_grad:
                _accumulate(self, np.ones_like(self.data))
            return
        if root.rule is None:
            raise RuntimeError("backward already ran on this tape; re-record the graph first")

        topo: list[_Node] = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in node.inputs:
                if isinstance(parent, _Node) and parent not in visited:
                    stack.append((parent, False))

        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            rule, inputs, g = node.rule, node.inputs, node.grad
            node.rule, node.inputs, node.grad = None, (), None
            if rule is not None and g is not None:
                for target, gi in zip(inputs, rule(g)):
                    if target is not None:
                        _accumulate(target, gi)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self.dtype), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _wrap(x, dtype) -> Tensor:
    """The second operand of ``add`` or ``mul`` as a tensor: a number or an
    array takes the dtype of the tensor it meets."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(g: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _make(out_data: np.ndarray, inputs: Sequence[Tensor], rule) -> Tensor:
    """The output tensor of an op; taped, with a node of ``rule``, when
    the tape records and an input requires grad."""
    out = Tensor(out_data)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        _share_heap()
        out.requires_grad = True
        # a leaf tensor that requires grad is its own node
        nodes = tuple((t._node or t) if t.requires_grad else None for t in inputs)
        out._node = _Node(nodes, rule, out.dtype)
    return out


# -- elementwise and structural ops -------------------------------------

def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    sa, sb = a.shape, b.shape
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        scale = float(b)
        return _make(a.data * np.asarray(scale, dtype=a.dtype), (a,),
                     lambda g: (g * scale,))

    b = _wrap(b, a.dtype)
    ad, bd = a.data, b.data
    return _make(ad * bd, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape),
                                             _unbroadcast(g * ad, bd.shape)))


def pow_(a: Tensor, exponent: float) -> Tensor:
    p = float(exponent)
    ad = a.data
    return _make(ad**p, (a,), lambda g: (g * p * ad ** (p - 1.0),))


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return _make(out_data, (a,), lambda g: (g * (0.5 / out_data),))


def abs_(a: Tensor) -> Tensor:
    ad = a.data
    return _make(np.abs(ad), (a,), lambda g: (g * np.sign(ad),))


def reshape(a: Tensor, *shape) -> Tensor:
    sa = a.shape
    return _make(np.ascontiguousarray(a.data.reshape(shape)), (a,),
                 lambda g: (g.reshape(sa),))


def permute(a: Tensor, *axes) -> Tensor:
    inverse = np.argsort(axes)
    return _make(np.ascontiguousarray(a.data.transpose(axes)), (a,),
                 lambda g: (g.transpose(inverse),))


def getitem(a: Tensor, idx) -> Tensor:
    """Basic (slice/int) indexing. Backward scatters into a zero buffer, so
    the index must not repeat elements; use ``take`` for gather semantics."""
    sa, dtype = a.shape, a.dtype

    def rule(g):
        full = np.zeros(sa, dtype=dtype)
        full[idx] = g
        return (full,)

    return _make(np.ascontiguousarray(a.data[idx]), (a,), rule)


def take(a: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Gather along one axis with a 1-d integer index; repeats allowed."""
    idx = np.asarray(indices)
    sa, dtype = a.shape, a.dtype

    def rule(g):
        full = np.zeros(sa, dtype=dtype)
        np.add.at(np.moveaxis(full, axis, 0), idx, np.moveaxis(g, axis, 0))
        return (full,)

    return _make(np.ascontiguousarray(np.take(a.data, idx, axis=axis)), (a,), rule)


def gather_rows(a: Tensor, index: np.ndarray, inverse: np.ndarray) -> Tensor:
    """Rows of [N, L, C] in a new order: out[:, r] = a[:, index[r]].

    ``index`` is a permutation of range(L) and ``inverse`` its inverse, so
    backward is the inverse gather: every row moves once, and nothing is
    summed or scattered."""
    return _make(np.take(a.data, index, axis=1), (a,),
                 lambda g: (np.take(g, inverse, axis=1),))


def roll(a: Tensor, shifts: Tuple[int, ...], axes: Tuple[int, ...]) -> Tensor:
    back = tuple(-s for s in shifts)
    return _make(np.roll(a.data, shifts, axis=axes), (a,),
                 lambda g: (np.roll(g, back, axis=axes),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ends = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                 lambda g: np.split(g, ends, axis=axis))


def sum_(a: Tensor) -> Tensor:
    """The sum of every element, a scalar: the losses' one reduction."""
    sa = a.shape
    return _make(np.asarray(a.data.sum()), (a,),
                 lambda g: (np.broadcast_to(g, sa).copy(),))


def mean(a: Tensor) -> Tensor:
    """The mean of every element, a scalar."""
    return mul(sum_(a), 1.0 / a.size)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product contracting the trailing pair of dimensions."""
    ad, bd = a.data, b.data
    return _make(np.matmul(ad, bd), (a, b), lambda g: (
        _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape),
        _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)))


# -- neural-net ops ---------------------------------------------------------

_BIAS_TILE = 64


def _add_bias(out: np.ndarray, b: np.ndarray) -> None:
    """out[rows, Dout] += b. Whole runs of 64 rows take b tiled 64 times
    over a [rows/64, 64 Dout] view, the remaining rows a plain broadcast:
    the same sums, in about half the time of a broadcast over short rows."""
    rows, dout = out.shape
    full = rows - rows % _BIAS_TILE
    if full:
        tiled = out[:full].reshape(-1, _BIAS_TILE * dout)
        tiled += np.tile(b, _BIAS_TILE)
    out[full:] += b


def _affine(x2: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x2[rows, Din] @ w[Din, Dout] + b[Dout] into a new array."""
    out = x2 @ w
    _add_bias(out, b)
    return out


def _rows(x: Tensor, weight: Tensor) -> np.ndarray:
    """x's data as [rows, Din] for a product with weight[Din, Dout]."""
    din = weight.shape[0]
    if x.shape[-1] != din:
        raise ValueError(f"linear: input width {x.shape[-1]} != weight Din {din}")
    return x.data.reshape(-1, din)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[..., Din] @ weight[Din, Dout] + bias[Dout]; every product of the
    model is biased."""
    x2 = _rows(x, weight)
    sx, wd = x.shape, weight.data
    dout = wd.shape[1]
    out = _affine(x2, wd, bias.data)

    def rule(g):
        g2 = g.reshape(-1, dout)
        return (g2 @ wd.T).reshape(sx), x2.T @ g2, g2.sum(axis=0)

    return _make(out.reshape(*sx[:-1], dout), (x, weight, bias), rule)


def _correlate(xp: np.ndarray, w: np.ndarray,
               bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Stride-1 cross-correlation of the padded xp [N, Cin, Hp, Wp] with
    w [Cout, Cin, kh, kw] (+ bias[Cout]): [N, Cout, Hp-kh+1, Wp-kw+1].

    Blocked im2col (Cho & Brand, "MEC", arXiv 1706.06873): xp is viewed as
    ``flat`` [N, Cin, Hp*Wp], and output position p of an H' x Wp grid reads
    ``flat[:, :, p + i*Wp + j]`` for tap (i, j), so each tap of a run of
    positions is one contiguous slice. Per image, the (H'-1)*Wp + W'
    positions run in blocks of L positions, L fixed by Cin*kh*kw and
    ``_CONV_BYTES``: one copy from a strided view of the taps fills a reused
    [Cin*kh*kw, L] column buffer, one per thread, and one GEMM writes the
    block's outputs; the Wp - W' junk columns of each grid row are dropped
    at the end. The (image, block) pairs go over ``parallel_for``; every
    block's arithmetic is the same on any thread. This is the one kernel
    with blocks of its own: a layer chunk bounds the row kernels, but a
    conv takes the whole image.
    """
    n, cin, hp, wp = xp.shape
    cout, _, kh, kw = w.shape
    hout, wout = hp - kh + 1, wp - kw + 1
    flat = xp.reshape(n, cin, hp * wp)
    span = (hout - 1) * wp + wout
    kk = cin * kh * kw
    # read-only view, taps[n, c, i, j, p] = flat[n, c, p + i*Wp + j]; the
    # last tap of the last position is the last element of a channel plane
    es = xp.itemsize
    taps = np.lib.stride_tricks.as_strided(
        flat, shape=(n, cin, kh, kw, span),
        strides=flat.strides[:2] + (wp * es, es, es), writeable=False)
    # a block holds _CONV_BYTES of columns; a floor of _CONV_BYTES // 2048
    # positions (256) keeps wide inputs (Cin = 180: 80 positions in a plain
    # 512 KiB) from running many small GEMMs
    width = max(1, _CONV_BYTES // (kk * es), _CONV_BYTES // 2048)
    blocks = [slice(p, min(p + width, span)) for p in range(0, span, width)]
    buf_size = kk * blocks[0].stop
    wmat = w.reshape(cout, kk)
    # positions past span (the last grid row's junk tail) are never written
    grid = np.empty((n, cout, hout * wp), dtype=np.result_type(xp, wmat))
    local = threading.local()         # one column buffer per thread

    def block(task):
        img, pos = task
        buf = getattr(local, "buf", None)
        if buf is None:
            buf = local.buf = np.empty(buf_size, dtype=xp.dtype)
        # (cin, i, j) order, as in wmat: the copy walks the input channel
        # by channel, so each channel's rows stay in cache for all its taps
        cols = buf[:kk * (pos.stop - pos.start)].reshape(cin, kh, kw, -1)
        cols[...] = taps[img, ..., pos]
        ob = grid[img, :, pos]
        np.matmul(wmat, cols.reshape(kk, -1), out=ob)
        if bias is not None:
            ob += bias[:, None]

    parallel_for(block, [(img, pos) for img in range(n) for pos in blocks])
    return grid.reshape(n, cout, hout, wp)[:, :, :, :wout]


def _zero_pad(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """a [N, C, H, W] with ph zero rows above and below and pw zero columns
    on either side: one zeroed buffer, a copied into its interior."""
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=a.dtype)
    out[:, :, ph:ph + h, pw:pw + w] = a
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """2-d biased "same" cross-correlation, stride 1: the model's convs.

    x: [N, Cin, H, W]; weight: [Cout, Cin, k, k] with k odd; output
    [N, Cout, H, W], the input padded by k // 2 zeros on every side. An
    even or non-square kernel raises ValueError. Both directions run
    ``_correlate``: dx correlates g, padded by k // 2 as well, with the
    kernel flipped in both spatial axes and Cin, Cout swapped (Dumoulin &
    Visin, arXiv 1603.07285). dW is one batched GEMM per tap: g on the
    padded input's Wp-stride grid, zero in the junk columns, times the
    tap's slice of it. The tape keeps the padded input.
    """
    n, cin, h, w = x.shape
    cout, cin_w, k, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d: input has {cin} channels, weight expects {cin_w}")
    if k != kw or k % 2 == 0:
        raise ValueError(f"conv2d: kernel {k}x{kw} is not square and odd")
    pad = k // 2
    wp = w + 2 * pad

    xp = _zero_pad(x.data, pad, pad)
    wd, needs_dx = weight.data, x.requires_grad
    out = _correlate(xp, wd, bias.data)

    def rule(g):
        gx = None
        if needs_dx:
            gx = _correlate(_zero_pad(g, pad, pad), wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        span = (h - 1) * wp + w
        ggrid = np.zeros((n, cout, h * wp), dtype=g.dtype)
        ggrid.reshape(n, cout, h, wp)[:, :, :, :w] = g
        flat = xp.reshape(n, cin, -1)
        dw = np.empty((cout, cin, k, k), dtype=g.dtype)
        for i, j in np.ndindex(k, k):
            tap = flat[:, :, i * wp + j:i * wp + j + span].transpose(0, 2, 1)
            dw[:, :, i, j] = np.matmul(ggrid[:, :, :span], tap).sum(axis=0)
        return gx, dw, g.sum(axis=(0, 2, 3))

    return _make(out, (x, weight, bias), rule)


_LN_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Optional[Tensor], beta: Optional[Tensor]) -> Tensor:
    """Normalize the last dimension to zero mean / unit variance, then scale
    by ``gamma`` and shift by ``beta`` unless they are None. Population
    (biased) variance, plus ``_LN_EPS``.

    The model passes None: its γ and β enter the product that follows
    (``attention.fold_norm``), so the kernel makes no pass for them; a
    given affine is applied with the ``mul`` and ``add`` ops.

    Each pass runs once over all the rows given; a transformer layer
    passes one chunk of at most 2,048 rows (``attention._CHUNK_ROWS``).
    The row mean and the row sum of squares are einsum contractions, which
    need no squared temporary and beat numpy's slow reductions over short
    rows. They are not BLAS products (x @ ones): BLAS was faster still, but
    its row sums changed with the number of rows, so a row's output would
    depend on how the layer is chunked. The normalized rows are the output,
    and backward reads them."""
    c = x.shape[-1]
    if c == 0:
        raise ValueError("layer_norm: empty normalization axis")
    x2 = x.data.reshape(-1, c)
    h = x2 - np.einsum("ij,j->i", x2, np.full(c, 1.0 / c, dtype=x2.dtype))[:, None]
    inv = np.einsum("ij,ij->i", h, h)[:, None]
    inv *= 1.0 / c
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    h *= inv
    xhat = h.reshape(x.shape)
    inv = inv.reshape(*x.shape[:-1], 1)

    def rule(g):
        m1 = np.add.reduce(g, axis=-1, keepdims=True) / c
        m2 = np.add.reduce(g * xhat, axis=-1, keepdims=True) / c
        return (inv * (g - m1 - xhat * m2),)

    out = _make(xhat, (x,), rule)
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

    float64 takes scipy's erf, imported on its first call so that a float32
    process never loads scipy.special (about 20 MB of RSS and 0.25 s of
    start-up); the import system's per-module lock makes a second thread
    that arrives meanwhile wait for the finished module. float32 takes
    tanh(u) as set out above: 17 elementwise passes, within 2.3e-7 of
    float64 on [-10, 10]; NaN stays NaN and +-inf give +-1."""
    if x.dtype != np.float32:
        from scipy.special import erf
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


def _gelu_grad(xd: np.ndarray, cdf: Optional[np.ndarray] = None) -> np.ndarray:
    # d/dx [x * Phi(x)] = Phi(x) + x * phi(x), with cdf = Phi(x) where the
    # caller has it; phi from the clipped value, as x^2 overflows float32
    # above 1.8e19 and exp(-800) is 0 anyway
    xc = np.clip(xd, -40.0, 40.0)
    phi = np.exp(-0.5 * xc * xc) * _INV_SQRT2PI
    if cdf is None:
        cdf = _normal_cdf(xd, np.empty_like(xd))
    return cdf + xd * phi


def _gelu(xd: np.ndarray) -> np.ndarray:
    out = _normal_cdf(xd, np.empty_like(xd))
    out *= xd
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact error-function GELU, x * Phi(x) = x (1 + erf(x / sqrt 2)) / 2,
    each pass once over the whole array given: in a transformer layer one
    chunk's hidden rows, in the staged head a whole image.

    float32 takes erf from ``_erf_over_sqrt2``'s tanh form, so that float32
    GELU and its derivative stay within 1e-6 of their float64 values on
    [-10, 10]. float64 keeps scipy's erf, so gradient checks keep float64
    accuracy."""
    xd = x.data
    return _make(_gelu(xd), (x,), lambda g: (g * _gelu_grad(xd),))


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """GELU(x W1 + b1) W2 + b2 over x[..., Din], as one op: the bits of
    ``linear(gelu(linear(x, w1, b1)), w2, b2)``, with and without a tape.

    The tape keeps x and h = x W1 + b1, not GELU(h). Backward evaluates
    Phi(h) once and reads it twice: GELU(h) = h Phi(h) for dW2, and the
    derivative Phi(h) + h phi(h) (``_gelu_grad``) for dh. That is one
    multiply more than the separate ops' backward, which evaluated Phi
    for the derivative anyway."""
    x2 = _rows(x, w1)
    sx, w1d, w2d = x.shape, w1.data, w2.data
    h = _affine(x2, w1d, b1.data)
    out = _affine(_gelu(h), w2d, b2.data)

    def rule(g):
        g2 = g.reshape(-1, w2d.shape[1])
        cdf = _normal_cdf(h, np.empty_like(h))
        dw2 = (h * cdf).T @ g2
        dh = g2 @ w2d.T
        dh *= _gelu_grad(h, cdf)
        return ((dh @ w1d.T).reshape(sx), x2.T @ dh, dh.sum(axis=0),
                dw2, g2.sum(axis=0))

    return _make(out.reshape(*sx[:-1], w2d.shape[1]), (x, w1, b1, w2, b2), rule)


def softmax(x: Tensor) -> Tensor:
    """Stable softmax over the trailing dimension."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (x,), rule)


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


def window_attention(qkv: Tensor, bias: Tensor, mask) -> Tensor:
    """Fused multi-head attention core over windows of m^2 rows.

    ``qkv`` is [..., 3C], window-ordered rows ([nW, m^2, 3C] or any
    leading shape with m^2 consecutive rows per window), and holds Q
    (already scaled by 1/sqrt(d)), K and V side by side, each split into
    heads by contiguous channel chunks; ``bias`` is [heads, key, query];
    ``mask`` is None or a ``windows.AttnMask``, -inf only on boundary
    windows, whose ``first`` places the call's windows in the batch's
    window order. Returns softmax(Q K^T + B + mask) V with heads
    concatenated, [..., C].

    Each step runs once over all the windows given, taped or not. The
    scores, [windows, heads, key, query], take heads * m^2 floats per row;
    a transformer layer passes one chunk of at most 2,048 rows
    (``attention._CHUNK_ROWS``), 3 MB of float32 scores at 6 heads and
    window 8, and that chunk is the only bound on them. Bias and the
    mask (``AttnMask.add_to``, strided slices of the boundary windows) update
    the score buffer in place, which exp turns into E. E is never
    normalized: its column sums come from one product, ones[1, key] @ E,
    and the output is scaled by their reciprocals r.

    Softmax does not change when a column of logits is shifted
    (Milakov & Gimelshein, arXiv 1805.02867), so E needs no column max
    while neither exp(S) nor its products can overflow. Once per call,
    ``_skips_max`` bounds every |logit| from max|qkv| and max|B|; below 30,
    E = exp(S), otherwise E = exp(S - max) with the exact column max over
    keys (axis -2, which numpy vectorizes across the contiguous query
    axis). An untrained lightweight model stays far below the bound, an
    untrained C = 180 model straddles it, and trained weights grow past
    it; a call that falls back pays two reductions over ``qkv``. An
    untaped layer calls the core once per chunk of whole windows
    (``attention.stl_forward``), so there the bound holds per chunk; the
    chunks are fixed by the grid and the batch, so the path each takes
    does not depend on the thread count. Every other step acts on each
    window alone, so a window's output bits do not depend on which other
    windows share the call.

    The output product runs transposed: V^T E into one [windows, heads, d,
    query] buffer, scaled by r along its contiguous query axis, then
    copied into the [query, d] head slices of the output. E is dropped
    there: the tape keeps qkv, r, the output and, on the exact-max path,
    the column max, [windows, heads, 1, query], 1/m^2 of E's size.

    Backward rebuilds E with the same local function as the forward, the
    kept column max in place of a new one, so it has the forward's bits;
    as in FlashAttention (Dao et al., arXiv 2205.14135), one more K Q^T,
    bias add and exp buy back E's memory. With A = E r and gs = r g, the
    gradient g scaled per query: dV = E gs, and the softmax rule dS =
    A (dA - D) with dA = V g^T and D = rowsum(out * g) becomes dS =
    E (V gs^T - rowsum(out * gs)); dQ = dS^T K, dK = dS Q and dB = dS
    summed over windows.
    """
    heads, mm = bias.shape[0], bias.shape[-1]
    c3 = qkv.shape[-1]
    if qkv.size % (mm * c3):
        raise ValueError(f"{qkv.size // c3} rows do not make windows of {mm} tokens")
    nw = qkv.size // (mm * c3)
    c = c3 // 3
    d = c // heads
    qd, dtype = qkv.data, qkv.dtype
    # [3, nW, heads, tokens, d] strided views; BLAS reads them in place
    q, k, v = qd.reshape(nw, mm, 3, heads, d).transpose(2, 0, 3, 1, 4)

    def heads_view(buf):
        return buf.reshape(nw, mm, heads, d).transpose(0, 2, 1, 3)

    bd, skip = bias.data, _skips_max(qd, bias.data, d)

    def scores(shift=None):
        """(E, shift): exp(K Q^T + B + mask - shift). The forward passes
        no shift, and one is taken from the column max unless ``skip``."""
        e = np.matmul(k, q.swapaxes(-1, -2))
        e += bd
        if mask is not None:
            mask.add_to(e)
        if shift is None and not skip:
            shift = e.max(axis=-2, keepdims=True)
        if shift is not None:
            e -= shift
        return np.exp(e, out=e), shift

    e, shift = scores()
    r = np.matmul(np.ones((1, mm), dtype=dtype), e)
    np.divide(1.0, r, out=r)
    vte = np.matmul(v.swapaxes(-1, -2), e)
    del e
    vte *= r
    out = np.empty((nw, mm, c), dtype=dtype)
    out_h = heads_view(out)
    out_h[...] = vte.swapaxes(-1, -2)

    def rule(g):
        e = scores(shift)[0]
        gs = heads_view(g) * r.swapaxes(-1, -2)
        grad = np.empty_like(qd)
        gq, gk, gv = grad.reshape(nw, mm, 3, heads, d).transpose(2, 0, 3, 1, 4)
        np.matmul(e, gs, out=gv)
        ds = np.matmul(v, gs.swapaxes(-1, -2))
        ds -= (out_h * gs).sum(axis=-1)[:, :, None]
        ds *= e
        np.matmul(ds.swapaxes(-1, -2), k, out=gq)
        np.matmul(ds, q, out=gk)
        return grad, ds.sum(axis=0)

    return _make(out.reshape(*qkv.shape[:-1], c), (qkv, bias), rule)


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Rearrange [N, r*r*C, H, W] -> [N, C, r*H, r*W].

    Element (n, c*r*r + a*r + b, i, j) lands at (n, c, i*r + a, j*r + b).
    """
    n, crr, h, w = x.shape
    if crr % (r * r) != 0:
        raise ValueError(f"pixel_shuffle: {crr} channels not divisible by r^2={r * r}")
    c = crr // (r * r)
    y = reshape(x, n, c, r, r, h, w)
    y = permute(y, 0, 1, 4, 2, 5, 3)
    return reshape(y, n, c, h * r, w * r)


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """Exact inverse of ``pixel_shuffle``."""
    n, c, hr, wr = x.shape
    if hr % r or wr % r:
        raise ValueError(f"pixel_unshuffle: spatial size {hr}x{wr} not divisible by {r}")
    h, w = hr // r, wr // r
    y = reshape(x, n, c, h, r, w, r)
    y = permute(y, 0, 1, 3, 5, 2, 4)
    return reshape(y, n, c * r * r, h, w)
