"""Outside-in span tracer for the swinir modules.

``Tracer.install()`` rebinds public functions of the swinir modules to
timing wrappers: every module attribute that refers to a traced function
is replaced, so names imported into other modules (``swinir.attention.
layer_norm``, ``swinir.model.conv2d``) are traced too. ``uninstall()``
puts the originals back. No program file is edited.

Each call records one span: (id, name, start, end, parent id, op id,
scope, self seconds). Self time is the duration minus the time covered by
child spans; spans are nested, so that is the sum of the children's
durations. Spans stay in memory until ``summary()`` and ``dump()`` run.

Scopes follow ``ModelParams.named()``: a call that receives parameter
tensors (window_msa, mlp_forward, layer_norm, conv2d, ...) is attributed
to the hierarchical name of the tensor it was passed, such as
``rstb.2.stl.3.attn``; other spans inherit the scope of their parent.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

import swinir.attention
import swinir.checkpoint
import swinir.degrade
import swinir.imageio
import swinir.losses
import swinir.metrics
import swinir.model
import swinir.tensor
import swinir.train
import swinir.windows

_clock = time.perf_counter

# tensor ops that create their own output array; composite ops (mean,
# pixel_shuffle) are traced but not counted, their inner ops are
LEAF_OPS = ("add", "mul", "pow_", "sqrt", "abs_", "reshape", "permute",
            "getitem", "take", "roll", "concat", "sum_", "matmul", "linear",
            "conv2d", "layer_norm", "gelu", "softmax")
COMPOSITE_OPS = ("mean", "pixel_shuffle", "pixel_unshuffle")
STRUCTURAL = ("tensor.reshape", "tensor.permute", "tensor.take",
              "tensor.roll", "tensor.getitem", "tensor.concat")

# (module, attribute, span name, scope): scope is None or (getter, levels),
# where getter picks a parameter tensor out of the call's arguments and
# levels is how many trailing name parts to drop from its name
# (rstb.0.stl.1.norm1.gamma, 2 -> rstb.0.stl.1)
_FUNCTIONS = [
    (swinir.windows, "pad_to_multiple", "windows.pad_to_multiple", None),
    (swinir.windows, "crop_to", "windows.crop_to", None),
    (swinir.windows, "window_partition", "windows.window_partition", None),
    (swinir.windows, "window_reverse", "windows.window_reverse", None),
    (swinir.windows, "cyclic_shift", "windows.cyclic_shift", None),
    (swinir.windows, "unshift", "windows.unshift", None),
    (swinir.windows, "build_attn_mask", "windows.build_attn_mask", None),
    (swinir.attention, "window_msa", "attention.window_msa",
     (lambda a: a[1].wq, 1)),
    (swinir.attention, "mlp_forward", "attention.mlp_forward",
     (lambda a: a[1].fc1_w, 1)),
    (swinir.attention, "stl_forward", "attention.stl_forward",
     (lambda a: a[1].norm1_gamma, 2)),
    (swinir.model, "forward", "model.forward", None),
    (swinir.model, "init_params", "model.init_params", None),
    (swinir.model, "shallow_extract", "model.shallow_extract", None),
    (swinir.model, "deep_extract", "model.deep_extract", None),
    (swinir.model, "rstb_forward", "model.rstb_forward",
     (lambda a: a[1].conv.w, 2)),
    (swinir.model, "reconstruct_sr", "model.reconstruct_sr", None),
    (swinir.model, "reconstruct_residual", "model.reconstruct_residual", None),
    (swinir.train, "restore_image", "train.restore_image", None),
    (swinir.train, "adam_step", "train.adam_step", None),
    (swinir.train, "validation_psnr", "train.validation_psnr", None),
    (swinir.train, "save_train_state", "train.save_train_state", None),
    (swinir.train, "make_validation_pairs", "train.make_validation_pairs", None),
    (swinir.degrade, "degrade_image", "degrade.degrade_image", None),
    (swinir.degrade, "sample_patch_pair", "degrade.sample_patch_pair", None),
    (swinir.degrade, "procedural_texture", "degrade.procedural_texture", None),
    (swinir.losses, "compute_loss", "losses.compute_loss", None),
    (swinir.metrics, "psnr", "metrics.psnr", None),
    (swinir.checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", None),
    (swinir.checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
    (swinir.imageio, "load_image", "imageio.load_image", None),
    (swinir.imageio, "save_image", "imageio.save_image", None),
]
for _name in LEAF_OPS + COMPOSITE_OPS:
    _FUNCTIONS.append((swinir.tensor, _name, "tensor." + _name.rstrip("_"),
                       (lambda a: a[1], 1) if _name in ("linear", "conv2d",
                                                        "layer_norm") else None))

# class attributes: (class, attribute, span name)
_METHODS = [
    (swinir.tensor.Tensor, "backward", "tensor.backward"),
    (swinir.train.PairDataset, "sample_batch", "train.sample_batch"),
]

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "scope", "self_s")


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self.counts = {}
        self._stack = []        # open spans: [id, name, start, child_s, scope]
        self._next_id = 0
        self._names = {}        # id(parameter tensor) -> name parts
        self._undo = []

    # -- counters -------------------------------------------------------

    def count(self, key: str, amount) -> None:
        per_op = self.counts.setdefault(self.op, {})
        per_op[key] = per_op.get(key, 0) + amount

    def register_params(self, params) -> None:
        for name, tensor in params.named():
            self._names[id(tensor)] = name.split(".")

    # -- spans ----------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name, scope_spec=None, args=()):
        scope = None
        if scope_spec is not None:
            parts = self._names.get(id(scope_spec[0](args)))
            if parts is not None:
                scope = ".".join(parts[:-scope_spec[1]])
        if scope is None and self._stack:
            scope = self._stack[-1][4]
        frame = [self._next_id, name, 0.0, 0.0, scope]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = _clock()
        return frame

    def _close(self, frame):
        end = _clock()
        self._stack.pop()
        sid, name, start, child_s, scope = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((sid, name, start, end,
                           parent[0] if parent is not None else None,
                           self.op, scope, duration - child_s))

    # -- installation ---------------------------------------------------

    def _wrap(self, fn, name, scope):
        tracer = self
        counted = name in _LEAF_NAMES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name, scope, args)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if counted:
                tracer.count("tensor.op_calls", 1)
                tracer.count("tensor.bytes_out", out.data.nbytes)
            hook = _HOOKS.get(name)
            if hook is not None:
                hook(tracer, args, out)
            return out

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "swinir" or n.startswith("swinir.")]
        for module, attr, name, scope in _FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, scope)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)
        for cls, attr, name in _METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, None))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------

    def dump(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = list(SPAN_FIELDS)
        doc["spans"] = [list(s) for s in self.spans]
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)


class _Span:
    """A span opened by the benchmark itself, such as the root of one op."""
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame)
        return False


_LEAF_NAMES = frozenset("tensor." + n.rstrip("_") for n in LEAF_OPS)


# -- counters recorded at particular boundaries ----------------------------

def _on_forward(tracer, args, out):
    params, x = args[0], args[1]
    cfg = params.config
    macs = swinir.model.count_mult_adds(cfg, out.shape[2], out.shape[3]) * x.shape[0]
    tracer.count("model.macs", macs)


def _on_pad(tracer, args, out):
    x = args[0]
    padded = out[0]
    tracer.count("windows.tokens", x.shape[0] * x.shape[1] * x.shape[2])
    tracer.count("windows.padded_tokens",
                 padded.shape[0] * padded.shape[1] * padded.shape[2])


def _on_degrade(tracer, args, out):
    tracer.count("degrade.pixels_out", out.height * out.width)


def _on_patch(tracer, args, out):
    lq = out[0]
    tracer.count("degrade.patch_pixels", lq.shape[0] * lq.shape[1])


def _on_save_checkpoint(tracer, args, out):
    tracer.count("checkpoint.bytes_saved", os.path.getsize(args[1]))
    tracer.count("checkpoint.saves", 1)


def _on_params(tracer, args, out):
    tracer.register_params(out)


_HOOKS = {
    "model.init_params": _on_params,
    "checkpoint.load_checkpoint": _on_params,
    "model.forward": _on_forward,
    "windows.pad_to_multiple": _on_pad,
    "degrade.degrade_image": _on_degrade,
    "degrade.sample_patch_pair": _on_patch,
    "checkpoint.save_checkpoint": _on_save_checkpoint,
}


# -- per-layer metrics ------------------------------------------------------

# per-layer metric -> span names whose self time it sums, per unit of work
SELF_TIME_GROUPS = {
    "tensor.softmax.self_s": ("tensor.softmax",),
    "tensor.add.self_s": ("tensor.add",),
    "tensor.mul.self_s": ("tensor.mul",),
    "tensor.matmul.self_s": ("tensor.matmul",),
    "tensor.linear.self_s": ("tensor.linear",),
    "tensor.gelu.self_s": ("tensor.gelu",),
    "tensor.layer_norm.self_s": ("tensor.layer_norm",),
    "tensor.conv2d.self_s": ("tensor.conv2d",),
    "tensor.structural.self_s": STRUCTURAL,
    "tensor.backward.self_s": ("tensor.backward",),
    "attention.window_msa.self_s": ("attention.window_msa",),
    "attention.mlp_forward.self_s": ("attention.mlp_forward",),
    "attention.stl_forward.self_s": ("attention.stl_forward",),
    "model.head.self_s": ("model.shallow_extract", "model.reconstruct_sr",
                          "model.reconstruct_residual"),
    "model.rstb_forward.self_s": ("model.rstb_forward",),
    "windows.shift_partition.self_s": ("windows.window_partition",
                                       "windows.window_reverse",
                                       "windows.cyclic_shift", "windows.unshift"),
    "windows.pad_crop.self_s": ("windows.pad_to_multiple", "windows.crop_to"),
    "train.sample_batch.self_s": ("train.sample_batch",),
    "degrade.degrade_image.self_s": ("degrade.degrade_image",),
    "losses.compute_loss.self_s": ("losses.compute_loss",),
    "train.adam_step.self_s": ("train.adam_step",),
    "train.save_train_state.self_s": ("train.save_train_state",),
    "metrics.psnr.self_s": ("metrics.psnr",),
}

# per-layer metric -> span name whose mean duration per call it reports,
# over the whole traced run, set-up included
CALL_TIMES = {
    "model.forward.s": "model.forward",
    "train.validation_psnr.s": "train.validation_psnr",
    "checkpoint.load_checkpoint.s": "checkpoint.load_checkpoint",
    "checkpoint.save_checkpoint.s": "checkpoint.save_checkpoint",
    "imageio.load_image.s": "imageio.load_image",
    "imageio.save_image.s": "imageio.save_image",
}

# inclusive time of these spans, as a share of op wall time, sits next to
# the layer split measured at the ROADMAP baseline
LAYER_SHARES = {
    "attention": ("attention.window_msa",),
    "mlp": ("attention.mlp_forward",),
    "layer_norm": ("tensor.layer_norm",),
    "convs": ("tensor.conv2d",),
    "shift_partition": SELF_TIME_GROUPS["windows.shift_partition.self_s"],
}

ROOT = "op"


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(tracer: Tracer, ops, units: int, mask_hits: int,
              mask_misses: int):
    """Per-layer metrics over the traced ops ``ops``, which hold ``units``
    units of work (images restored, or training steps).

    Returns (metrics, breakdown): metrics maps name -> value; breakdown
    holds the per-scope and per-span tables for the trace file.
    """
    ops = set(ops)
    self_s, incl_s, calls = {}, {}, {}
    all_durations = {}
    op_wall = covered = 0.0
    by_scope = {}
    for _sid, name, start, end, _parent, op, scope, self_time in tracer.spans:
        duration = end - start
        all_durations.setdefault(name, []).append(duration)
        if op not in ops:
            continue
        if name == ROOT:
            op_wall += duration
            continue
        covered += self_time
        self_s[name] = self_s.get(name, 0.0) + self_time
        incl_s[name] = incl_s.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        key = scope or "(unscoped)"
        by_scope[key] = by_scope.get(key, 0.0) + self_time

    counts = {}
    for op, per_op in tracer.counts.items():
        if op in ops:
            for key, value in per_op.items():
                counts[key] = counts.get(key, 0) + value
    every_op = {}
    for per_op in tracer.counts.values():
        for key, value in per_op.items():
            every_op[key] = every_op.get(key, 0) + value

    m = {}
    for metric, names in SELF_TIME_GROUPS.items():
        m[metric] = sum(self_s.get(n, 0.0) for n in names) / units
    for metric, name in CALL_TIMES.items():
        durations = all_durations.get(name, ())
        m[metric] = _ratio(sum(durations), len(durations))
    m["model.forward.s"] = _ratio(incl_s.get("model.forward", 0.0),
                                  calls.get("model.forward", 0))
    m["attention.window_msa.calls"] = calls.get("attention.window_msa", 0) / units
    m["tensor.op_calls"] = counts.get("tensor.op_calls", 0) / units
    m["tensor.bytes_out"] = counts.get("tensor.bytes_out", 0) / units
    m["windows.padded_token_ratio"] = _ratio(counts.get("windows.padded_tokens", 0),
                                             counts.get("windows.tokens", 0))
    m["windows.mask_cache_hit_ratio"] = _ratio(mask_hits, mask_hits + mask_misses)
    m["degrade.useful_pixel_ratio"] = _ratio(counts.get("degrade.patch_pixels", 0),
                                             counts.get("degrade.pixels_out", 0))
    macs = counts.get("model.macs", 0)
    m["model.gmac_per_op"] = macs / units / 1e9
    m["model.achieved_gmac_per_s"] = _ratio(macs / 1e9, incl_s.get("model.forward", 0.0))
    m["checkpoint.bytes"] = _ratio(every_op.get("checkpoint.bytes_saved", 0),
                                   every_op.get("checkpoint.saves", 0))
    m["trace.coverage"] = _ratio(covered, op_wall)

    shares = {layer: _ratio(sum(incl_s.get(n, 0.0) for n in names), op_wall)
              for layer, names in LAYER_SHARES.items()}
    breakdown = {
        "units": units,
        "op_wall_s_per_unit": op_wall / units,
        "layer_shares": shares,
        "scopes_self_s_per_unit": {k: v / units for k, v in sorted(by_scope.items())},
        "spans_per_unit": {n: {"self_s": self_s[n] / units,
                               "incl_s": incl_s[n] / units,
                               "calls": calls[n] / units}
                           for n in sorted(self_s)},
    }
    return m, breakdown
