import importlib.util
import os
import tracemalloc
from contextlib import contextmanager
from functools import cache

import numpy as np
import pytest

from swinir import tensor as tensor_mod
from swinir.tensor import Tensor


@cache
def load_perfbench(name):
    """The module ``perfbench/<name>.py``, loaded by path (the directory is
    no package). The tests read ``perfbench/`` and never edit it: the
    tracer's bindings and the float64 reference (``reference``) are checked
    as the benchmark runs them."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_env():
    """The environment of a fresh interpreter that imports this checkout's
    ``swinir``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def usable_cpus(monkeypatch, count):
    """Stub the affinity mask to ``count`` CPUs, so that ``parallel_for``
    runs ``count`` threads, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def conv_byte_budgets(monkeypatch, workers=(1,)):
    """Run a loop body under two values of ``tensor._CONV_BYTES``, the
    budget of conv2d's column blocks and nothing else, for each of
    ``workers`` usable CPUs (``usable_cpus``): the default, then one byte,
    which makes every block one output position wide."""
    default = tensor_mod._CONV_BYTES
    for count in workers:
        usable_cpus(monkeypatch, count)
        for budget in (default, 1):
            monkeypatch.setattr(tensor_mod, "_CONV_BYTES", budget)
            yield budget


@contextmanager
def traced_peak():
    """Trace Python allocations over the block. Yields ``peak()``, which
    returns the largest traced size (bytes allocated in the block and
    still held) since the block began or since the previous call, and
    starts the next measurement from the current size."""
    def peak():
        top = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return top

    tracemalloc.start()
    try:
        yield peak
    finally:
        tracemalloc.stop()


def assert_all_equal(runs):
    """Every run's list of arrays equals the first run's, bit for bit."""
    for run in runs[1:]:
        for a, b in zip(runs[0], run, strict=True):
            np.testing.assert_array_equal(a, b)


def fd_gradients(fn, arrays, step=1e-4):
    """Central finite differences of a scalar-valued fn over numpy inputs.

    ``fn`` takes Tensors and returns a scalar Tensor; evaluation here never
    touches the tape, so it stays independent of the backward rules it is
    used to check.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    def value(mats):
        return fn(*[Tensor(m) for m in mats]).item()

    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = value(arrays)
            flat[i] = keep - step
            lo = value(arrays)
            flat[i] = keep
            gf[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def tape_gradients(fn, arrays):
    """Gradients recorded by the engine for the same scalar fn."""
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    fn(*tensors).backward()
    return [np.zeros_like(t.data) if t.grad is None else t.grad for t in tensors]


def max_rel_err(a, b, floor=1.0):
    a, b = np.asarray(a), np.asarray(b)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / scale).max())


def check_gradients(fn, arrays, tol=1e-3, step=1e-4):
    analytic = tape_gradients(fn, arrays)
    numeric = fd_gradients(fn, arrays, step=step)
    for k, (a, n) in enumerate(zip(analytic, numeric)):
        err = max_rel_err(a, n)
        assert err < tol, f"input {k}: rel err {err:.3e} >= {tol}"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_attn_params(c, heads, m, rng=None, zero=False):
    """Window-attention parameters, random (scaled) or all-zero."""
    from swinir.attention import WindowAttentionParams, relative_position_index

    def mat(shape, scale=0.2):
        if zero or rng is None:
            return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
        return Tensor((scale * rng.normal(size=shape)).astype(np.float32),
                      requires_grad=True)

    table_rows = (2 * m - 1) ** 2
    return WindowAttentionParams(
        wq=mat((c, c)), bq=mat((c,)), wk=mat((c, c)), bk=mat((c,)),
        wv=mat((c, c)), bv=mat((c,)), proj_w=mat((c, c)), proj_b=mat((c,)),
        bias_table=mat((table_rows, heads)),
        rel_index=relative_position_index(m), heads=heads)


def dense_shift_mask(h, w, m, s):
    """Additive shifted-window mask, [nW, m^2, m^2] float64, -inf where the
    float64 reference's region-label mask (``perfbench/reference.py``) masks
    a pair, else 0; at shift 0 its band edges fall on window edges, so it
    masks nothing."""
    return np.where(load_perfbench("reference").shift_mask(h, w, m, s) < 0, -np.inf, 0.0)


def dense_attention_oracle(x, params, mask=None):
    """Straight-line float64 reference: per head, softmax(QK^T/sqrt(d)+B)V,
    heads concatenated, output projected. Loops, no window machinery.

    ``mask``, if given, is an additive [nW_mask, m^2, m^2] array such as
    ``dense_shift_mask``; window ``wi`` adds ``mask[wi % nW_mask]`` to its
    logits, as when the same mask repeats over a batch of images."""
    nw, mm, c = x.shape
    heads = params.heads
    d = c // heads
    x = x.astype(np.float64)
    wq, bq = params.wq.data.astype(np.float64), params.bq.data
    wk, bk = params.wk.data.astype(np.float64), params.bk.data
    wv, bv = params.wv.data.astype(np.float64), params.bv.data
    pw, pb = params.proj_w.data.astype(np.float64), params.proj_b.data
    table = params.bias_table.data.astype(np.float64)
    bias = table[params.rel_index.reshape(-1)].reshape(mm, mm, heads)
    out = np.empty_like(x)
    for wi in range(nw):
        q_all = x[wi] @ wq + bq
        k_all = x[wi] @ wk + bk
        v_all = x[wi] @ wv + bv
        heads_out = []
        for h in range(heads):
            sl = slice(h * d, (h + 1) * d)
            q, k, v = q_all[:, sl], k_all[:, sl], v_all[:, sl]
            logits = q @ k.T / np.sqrt(d) + bias[:, :, h]
            if mask is not None:
                logits = logits + mask[wi % len(mask)]
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            heads_out.append(a @ v)
        out[wi] = np.concatenate(heads_out, axis=1) @ pw + pb
    return out
