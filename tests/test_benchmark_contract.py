"""The benchmark's tracer (perfbench/tracer.py) binds program functions by
name; a rename breaks traced benchmark runs. These run a short training
and one restore under the tracer and check that the spans, scopes and
counters the benchmark reports are recorded."""
import importlib.util
import os

import numpy as np

from swinir.degrade import DegradationSpec, procedural_texture
from swinir.imageio import ImageBuffer
from swinir.model import init_params, tiny_config
from swinir.train import (PairDataset, TrainConfig, make_validation_pairs,
                          restore_image, train)

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_training_records_checkpoint_spans(tmp_path):
    tracer = load_tracer().Tracer()
    cfg = tiny_config(task="sr", scale=2, channels=8, window=4, heads=2)
    spec = DegradationSpec(kind="bicubic", scale=2)
    hq = [procedural_texture(i, 16, 16) for i in range(2)]
    tracer.install()
    try:
        train(cfg, TrainConfig(iterations=2, val_period=1, batch_size=1,
                               patch_size=8, seed=0),
              PairDataset(hq_images=hq, spec=spec),
              make_validation_pairs(hq[:1], spec), out_dir=str(tmp_path))
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"train.save_train_state", "checkpoint.save_checkpoint"} <= names
    saved = sum(c.get("checkpoint.bytes_saved", 0) for c in tracer.counts.values())
    assert saved > 0


def test_traced_inference_scopes_every_layer():
    tracer_mod = load_tracer()
    for module, attr, _name, _scope in tracer_mod._FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls, attr, _name in tracer_mod._METHODS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
    tracer = tracer_mod.Tracer()
    cfg = tiny_config(task="sr", scale=2, channels=8, stl_per_rstb=2, window=4,
                      heads=2)
    lq = ImageBuffer(np.random.default_rng(0).uniform(size=(10, 10, 1)).astype(np.float32))
    params = init_params(cfg, seed=0)
    tracer.register_params(params)
    tracer.install()
    try:
        restore_image(params, lq)
    finally:
        tracer.uninstall()
    scopes = {}
    for span in tracer.spans:
        scopes.setdefault(span[1], set()).add(span[6])
    layers = {"rstb.0.stl.0", "rstb.0.stl.1"}
    assert scopes["attention.stl_forward"] == layers
    assert scopes["attention.window_msa"] == {f"{j}.attn" for j in layers}
    assert scopes["attention.mlp_forward"] == {f"{j}.mlp" for j in layers}
    # layer_norm's second argument is None, so its spans take their layer's scope
    assert scopes["tensor.layer_norm"] == layers
