"""The benchmark's per-layer trace still reaches gflow.

perfbench/spans.py records spans by replacing gflow module and class
attributes.  A call path that stops going through those attributes leaves
the trace silently empty, so one traced trust-region step on a tabular
suite and one trajectory-balance step on an MLP suite must record the
trust-region call, the score matrix over the batch's visited table rows,
the conjugate-gradient solve, the advantages, the loss, the MLP forward and
the policy log-probabilities; one traced guided step must record both samplers
and the guide; and one traced theorem audit plus flow construction must
record every exact dynamic-programming sweep.
"""

import importlib
from pathlib import Path

import numpy as np

from gflow import autodiff as ad
from gflow import exact, training
from gflow.envs import HyperGrid, SequenceEnv
from gflow.guides import TableGuide
from gflow.objectives import step_batch
from gflow.training import Trainer, TrainerConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_traced_steps_reach_every_span(monkeypatch):
    spans = load_spans(monkeypatch)
    env = HyperGrid(2, 8)
    original_step = vars(training.Trainer)["step"]
    tracer = spans.Tracer("t")
    with tracer.installed():
        tabular = Trainer(env, TrainerConfig(strategy="RL-T", batch_size=8, tabular=True),
                          np.random.default_rng(0))
        batch = tabular.step(np.random.default_rng(1))["batch"]
        mlp = Trainer(env, TrainerConfig(strategy="TB-U", batch_size=8, hidden=(8,)),
                      np.random.default_rng(2))
        mlp.step(np.random.default_rng(3))
    assert vars(training.Trainer)["step"] is original_step
    assert tracer.trpo_calls == 1
    names = {span[0] for span in tracer.spans}
    assert {"training.cg", "training.advantages", "objectives.loss",
            "autodiff.mlp_forward", "policy.log_probs"} <= names
    # The recorded score shape, which the score-matrix and CG traffic
    # metrics are computed from, is that of the visited-row solve.
    sb = step_batch(batch)
    visited = np.unique(env.enumeration().positions(sb.states))
    assert len(visited) < env.enumeration().n
    assert tracer.score_shapes == [(sb.n_steps, len(visited) * env.n_action_slots)]


def test_traced_guided_step_reaches_samplers_and_guide(monkeypatch):
    spans = load_spans(monkeypatch)
    env = HyperGrid(2, 3)
    tracer = spans.Tracer("t")
    with tracer.installed():
        trainer = Trainer(env, TrainerConfig(strategy="RL-G", batch_size=8, tabular=True),
                          np.random.default_rng(5))
        trainer.step(np.random.default_rng(6))
    names = {span[0] for span in tracer.spans}
    assert {"sampling.forward", "sampling.backward", "guides.refresh",
            "guides.edge_log_probs"} <= names
    assert tracer.counts["sampling.transitions"] > 0


def test_traced_audit_reaches_every_exact_sweep(monkeypatch):
    spans = load_spans(monkeypatch)
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    enum = env.enumeration()
    rng = np.random.default_rng(4)

    def table(masks):
        rows = np.flatnonzero(masks.any(axis=1))
        out = np.full(masks.shape, -np.inf)
        out[rows] = ad.log_softmax_masked(None, rng.normal(0, 1, masks[rows].shape),
                                          masks[rows]).data
        return out

    fwd, alt = table(enum.action_masks()), table(enum.action_masks())
    bwd = table(enum.parent_masks())
    tracer = spans.Tracer("t")
    with tracer.installed():
        report = training.check_theorem_bounds(env, fwd, bwd, 0.2,
                                               TableGuide.random(env, rng),
                                               forward_alt=alt)
        exact.flow_from_rewards(enum, bwd)
    assert report["theorem1"]["holds"] and report["theorem2"]["holds"]
    names = {span[0] for span in tracer.spans}
    assert {"training.check_bounds", "exact.forward_values", "exact.backward_values",
            "exact.flow_from_rewards", "exact.visit_probabilities"} <= names
