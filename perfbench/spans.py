"""Spans and counters recorded from outside gflow.

`Tracer.installed()` replaces module and class attributes of gflow with
wrappers for the duration of a `with` block.  A span wrapper records
(name, start, end, parent) around one call; a counter wrapper only bumps a
count, because per-state environment methods run ~2000 times per grid
step and timing them would distort what is measured.  Spans stay in memory
and are written out by `write_spans` after the run.

Self time of a span is its duration minus the time its direct children
cover.  Every traced call happens on one thread (the traced run forces
GFLOW_THREADS=1), so children nest inside their parent and the self times
of all spans under a root sum to the root's duration.
"""

import json
import time
from contextlib import contextmanager
from functools import partial

import numpy as np

from gflow import autodiff as ad
from gflow import exact, guides, objectives, policy, runner, training
from gflow.envs import base as envs_base
from gflow.envs import explicit, grid, sequence

# Per-state DagEnv queries: counted, never timed.
ENV_METHODS = ("action_mask", "child", "terminal_slot", "children", "parent_mask",
               "parent", "backward_slot", "forward_slot", "parents", "n_parents",
               "reward", "log_reward", "encode", "sequence_index")
ENV_CLASSES = (envs_base.DagEnv, grid.HyperGrid, sequence.SequenceEnv, explicit.ExplicitDag)

POLICY_METHODS = ("masks", "log_probs_numpy", "step_log_probs", "log_prob_matrix")

# Functions whose calls directly under a seed's training loop make up one
# CSV eval row (runner.run_seed computes the row inline).
EVAL_ROW_PARTS = ("exact.forward_log_table", "exact.terminating_distribution",
                  "exact.metrics", "exact.mode_count")

# (owner, attribute, span name).  Owners that imported a function by name
# (training imports sample_forward, score_matrix) are patched at the
# importing module, since that is the reference the caller resolves.
SPANS = [
    (runner, "run", "runner.run"),
    (runner, "run_seed", "runner.run_seed"),
    (training, "forward_advantages", "training.advantages"),
    (training, "backward_advantages", "training.advantages"),
    (training, "check_theorem_bounds", "training.check_bounds"),
    (training, "sample_forward", "sampling.forward"),
    (training, "sample_backward", "sampling.backward"),
    (objectives, "step_batch", "objectives.step_batch"),
    (objectives, "tb_loss", "objectives.loss"),
    (objectives, "db_loss", "objectives.loss"),
    (objectives, "subtb_loss", "objectives.loss"),
    (ad.Mlp, "forward", "autodiff.mlp_forward"),
    (ad.Mlp, "forward_numpy", "autodiff.mlp_forward"),
    (ad.Mlp, "forward_cached", "autodiff.mlp_forward"),
    (ad.Tape, "backward", "autodiff.backward"),
    (ad.Adam, "step", "autodiff.adam"),
    (guides.HyperGridGuide, "refresh", "guides.refresh"),
    (guides.SequenceGuide, "refresh", "guides.refresh"),
    (guides._MarkovGuide, "edge_log_probs", "guides.edge_log_probs"),
    (guides.SequenceGuide, "edge_log_probs", "guides.edge_log_probs"),
    (exact, "forward_values", "exact.forward_values"),
    (exact, "backward_values", "exact.backward_values"),
    (exact, "flow_from_rewards", "exact.flow_from_rewards"),
    (exact, "visit_probabilities", "exact.visit_probabilities"),
    (exact, "forward_log_table", "exact.forward_log_table"),
    (exact, "terminating_distribution", "exact.terminating_distribution"),
    (exact, "total_variation", "exact.metrics"),
    (exact, "jensen_shannon", "exact.metrics"),
    (exact, "reward_accuracy", "exact.metrics"),
    (exact, "mode_count", "exact.mode_count"),
    (training, "conjugate_gradient", "training.cg"),
    (training, "score_matrix", "policy.score_matrix"),
    (training, "trpo_step", "training.rl_t"),
    (envs_base.DagEnv, "enumeration", "envs.enumeration"),
    (envs_base.Enumeration, "action_masks", "envs.enumeration"),
    (envs_base.Enumeration, "parent_masks", "envs.enumeration"),
    (envs_base.Enumeration, "terminal_slots", "envs.enumeration"),
    (envs_base.Enumeration, "encodings", "envs.enumeration"),
]
SPANS += [(cls, m, "policy.log_probs")
          for cls in (policy._PolicyBase, policy.UniformBackward) for m in POLICY_METHODS]

COUNTERS = [(cls, m, "envs.calls")
            for cls in ENV_CLASSES for m in ENV_METHODS if m in vars(cls)]
COUNTERS += [
    (objectives, "gae_advantages", "objectives.gae_calls"),
    (ad.Tape, "record", "autodiff.tape_records"),
]

# Counts attributed to the training step that was open when they happened.
STEP_COUNTS = ("envs.calls", "objectives.gae_calls", "autodiff.tape_records",
               "sampling.transitions")


class Tracer:
    """In-memory span and counter store for one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []          # [name, start_ns, end_ns, parent index]
        self.counts = dict.fromkeys(STEP_COUNTS, 0)
        self.step_counts = dict.fromkeys(STEP_COUNTS, 0)
        self.step_strategy = {}  # span index -> strategy of training.step spans
        self.trpo_calls = 0
        self.trpo_accepted = 0
        self.cg_bytes = 0.0
        self.score_shapes = []
        self._stack = []

    # -- recording -----------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    def _span_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _step_wrapper(self, fn):
        tracer = self

        def step(trainer, rng):
            before = {k: tracer.counts[k] for k in STEP_COUNTS}
            rec = tracer.open("training.step")
            tracer.step_strategy[tracer._stack[-1]] = trainer.cfg.strategy
            try:
                return fn(trainer, rng)
            finally:
                tracer.close(rec)
                for k in STEP_COUNTS:
                    tracer.step_counts[k] += tracer.counts[k] - before[k]
        return step

    def _sample_wrapper(self, fn):
        counts = self.counts

        def sample_forward(*args, **kwargs):
            trajs = fn(*args, **kwargs)
            counts["sampling.transitions"] += sum(len(tr.slots) for tr in trajs)
            return trajs
        return sample_forward

    def _score_wrapper(self, fn):
        def score_matrix(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.score_shapes.append(out.shape)
            return out
        return score_matrix

    def _cg_wrapper(self, fn):
        tracer = self

        def conjugate_gradient(matvec, *args, **kwargs):
            calls = [0]

            def counted(v):
                calls[0] += 1
                return matvec(v)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                m, p = tracer.score_shapes[-1] if tracer.score_shapes else (0, 0)
                tracer.cg_bytes += calls[0] * 2.0 * m * p * 8
        return conjugate_gradient

    def _trpo_wrapper(self, fn):
        tracer = self

        def trpo_step(*args, **kwargs):
            stats = fn(*args, **kwargs)
            tracer.trpo_calls += 1
            tracer.trpo_accepted += bool(stats["accepted"])
            return stats
        return trpo_step

    @contextmanager
    def installed(self):
        """Patch every wrapper into gflow; restore the originals on exit.

        Wrappers apply in list order, each around the attribute's current
        value, so the special wrappers sit inside their spans.
        """
        plan = [
            (training.Trainer, "step", self._step_wrapper),
            (training, "sample_forward", self._sample_wrapper),
            (training, "score_matrix", self._score_wrapper),
            (training, "conjugate_gradient", self._cg_wrapper),
            (training, "trpo_step", self._trpo_wrapper),
        ]
        plan += [(o, a, partial(self._span_wrapper, name=n)) for o, a, n in SPANS]
        plan += [(o, a, partial(self._count_wrapper, name=n)) for o, a, n in COUNTERS]
        saved = []
        try:
            for owner, attr, make in plan:
                current = vars(owner)[attr]
                saved.append((owner, attr, current))
                setattr(owner, attr, make(current))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self, lo, hi):
        """(duration, self time) in ns of spans[lo:hi], a closed subtree."""
        spans = self.spans[lo:hi]
        dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
        cover = np.zeros(len(spans), dtype=np.int64)
        for i, s in enumerate(spans):
            if s[3] >= lo:
                cover[s[3] - lo] += dur[i]
        return dur, dur - cover

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "workload": self.workload,
                                     "strategy": self.step_strategy.get(i)}) + "\n")
