"""The benchmark's per-layer trace still reaches gflow.

perfbench/spans.py records spans by replacing gflow module and class
attributes.  A call path that stops going through those attributes leaves
the trace silently empty, so one traced trust-region step on a tabular
suite and one trajectory-balance step on an MLP suite must record the
trust-region call, the score matrix, the loss, the MLP forward and the
policy log-probabilities.
"""

import importlib
from pathlib import Path

import numpy as np

from gflow import training
from gflow.envs import HyperGrid
from gflow.training import Trainer, TrainerConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_steps_reach_every_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    env = HyperGrid(2, 3)
    original_step = vars(training.Trainer)["step"]
    tracer = spans.Tracer("t")
    with tracer.installed():
        tabular = Trainer(env, TrainerConfig(strategy="RL-T", batch_size=8, tabular=True),
                          np.random.default_rng(0))
        tabular.step(np.random.default_rng(1))
        mlp = Trainer(env, TrainerConfig(strategy="TB-U", batch_size=8, hidden=(8,)),
                      np.random.default_rng(2))
        mlp.step(np.random.default_rng(3))
    assert vars(training.Trainer)["step"] is original_step
    assert tracer.trpo_calls == 1
    assert tracer.score_shapes
    names = {span[0] for span in tracer.spans}
    assert {"objectives.loss", "autodiff.mlp_forward", "policy.log_probs"} <= names
