"""The benchmark's tracer (perfbench/tracer.py) binds program functions by
name; a rename breaks traced benchmark runs. This runs a short training
under the tracer and checks that the checkpoint spans and counters the
benchmark reports are recorded."""
import importlib.util
import os

from swinir.degrade import DegradationSpec, procedural_texture
from swinir.model import tiny_config
from swinir.train import PairDataset, TrainConfig, make_validation_pairs, train

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
