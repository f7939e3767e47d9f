"""Experiment orchestration.

A run is described by a flat key = value config file; each seed trains
independently and writes one CSV of metric rows plus a final parameter
checkpoint.  Exact metrics (total variation, Jensen-Shannon divergence,
reward accuracy) come from the dynamic-programming evaluator whenever the
state space enumerates under the cap; otherwise those columns hold nan.
Every emitted number except the seconds column is a deterministic function
of (config, seed); set timing = off for byte-identical reruns.
"""

import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import exact
from .autodiff import BLOCK
from .envs import ENUMERATION_CAP, HyperGrid, SequenceEnv, load_reward_table, synthetic_rewards
from .errors import ConfigError, EnumerationLimit
from .training import FIELD_KEYS, ROSTER, Trainer, TrainerConfig

HEADER = "iter,loss,d_tv,d_jsd,acc,modes,seconds"

# Memory plan, in bytes: per enumerated state (its row, position entry,
# terminal slot, log reward and encoding scratch), per (state, forward
# slot) pair (an edge's four intp entries and the float64 tables of one
# exact evaluation), per parameter entry of a table or an Mlp (value,
# gradient, Adam m and v, and the bincount of a second gather of the same
# table on one tape, as the balance losses make; 8 bytes each), per
# sampled trajectory (its Trajectory object and three array views, about
# 490 bytes measured), and per sampled (trajectory, step, column) entry, the
# columns being the state row plus its forward and backward slot (the
# sampler's array entry and its StepBatch copy).  The first gather's
# bincount becomes the gradient, and Adam's scratch is two blocks.  A policy
# table (autodiff.Tabular) holds only its valid slots, plus an 8-byte slot
# number per (state, slot) pair (SlotIndex.cells), under the 5 x 8 bytes
# per table entry charged.  An untaped policy evaluation
# (policy.log_prob_matrix) holds one row block at a time, in at most five
# float64 arrays of the block's size: the model input and two layer
# outputs, or the logits and the log-softmax temporaries.  A tabular eval
# row (Tabular.log_softmax) holds a few valid-slot arrays.
STATE_BYTES = 256
SLOT_BYTES = 80
TABULAR_ENTRY_BYTES = 5 * 8
TRAJECTORY_BYTES = 512
SAMPLE_ENTRY_BYTES = 2 * 8
EVAL_BLOCK_BYTES = 5 * 8


@dataclass(frozen=True)
class RunConfig(TrainerConfig):
    """A run's settings; grid rewards are checked by HyperGrid, their total by Enumeration."""

    env: str = "grid"
    d: int = 2
    n: int = 8
    reward_seed: int = 0
    beta: float = 3.0
    reward_table: str = ""
    r0: float = 0.01
    r1: float = 0.5
    r2: float = 2.0
    iterations: int = 1000
    eval_every: int = 10
    seeds: tuple = (0,)
    out: str = "runs"
    mode_samples: int = 0  # 0: as many as the batch
    timing: bool = True

    _FLOATS = TrainerConfig._FLOATS + ("beta", "r0", "r1", "r2")

    def __post_init__(self):
        super().__post_init__()
        if self.env not in ("grid", "sequence"):
            raise ConfigError(f"unknown env {self.env!r}; choose grid or sequence")
        if ROSTER[self.strategy].graded and self.env == "grid":
            raise ConfigError(f"{self.strategy} requires equal-length trajectories; "
                              "the grid environment is not graded")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be at least 1")
        if self.d < 1 or self.n < 2:
            raise ConfigError("need d >= 1 and n >= 2")
        for name in ("iterations", "mode_samples", "reward_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        for i, seed in enumerate(self.seeds):
            if seed < 0:
                raise ConfigError(f"seed must be nonnegative, got {seed}")
            if seed in self.seeds[:i]:
                raise ConfigError(f"seed {seed} is repeated; each seed writes one CSV and "
                                  "one .params file")

    @property
    def batch(self):
        # Read by perfbench/workloads.py, which builds its own TrainerConfig.
        return self.batch_size


# Each config key's field, by the key's name.
_FIELDS = {FIELD_KEYS.get(f.name, f.name): f for f in fields(RunConfig)}


def _convert(key, value, default):
    if isinstance(default, bool):
        low = value.lower()
        if low in ("on", "true", "yes", "1"):
            return True
        if low in ("off", "false", "no", "0"):
            return False
        raise ConfigError(f"{key}: expected on/off, got {value!r}")
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    if isinstance(default, tuple):
        parts = [p for p in value.replace(",", " ").split() if p]
        return tuple(int(p) for p in parts)
    return value


def parse_config_text(text):
    values = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        field = _FIELDS.get(key)
        if field is None:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        try:
            values[field.name] = _convert(key, value, field.default)
        except ValueError as err:
            raise ConfigError(f"config line {ln}: bad value for {key!r}: {err}") from None
    return RunConfig(**values)


def _read_text(path, what):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"{path}: cannot read {what}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: {what} is not UTF-8 text") from None


def parse_config(path):
    return parse_config_text(_read_text(path, "config file"))


def _check_fits(planned, what):
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if planned > physical:
        raise ConfigError(
            f"planned memory {planned / 2**20:.0f} MiB for {what} exceeds "
            f"physical memory {physical / 2**20:.0f} MiB")


def build_env(cfg):
    if cfg.env == "grid":
        return HyperGrid(cfg.d, cfg.n, r0=cfg.r0, r1=cfg.r1, r2=cfg.r2)
    _check_fits(cfg.n ** cfg.d * 8, f"a reward table of {cfg.n}**{cfg.d} sequences")
    if cfg.reward_table:
        d, n, rewards = load_reward_table(cfg.reward_table)
        if (d, n) != (cfg.d, cfg.n):
            raise ConfigError(f"reward table is {d}x{n}, config says {cfg.d}x{cfg.n}")
    else:
        rewards = synthetic_rewards(cfg.d, cfg.n, cfg.reward_seed, beta=cfg.beta)
    return SequenceEnv(cfg.d, cfg.n, rewards)


def check_memory(cfg, env):
    """Raise ConfigError when a run of `cfg` on `env` plans more bytes than
    the machine's physical memory; returns the planned bytes.

    The plan is arithmetic on sizes and allocates nothing:

        S * (STATE_BYTES + SLOT_BYTES * A) + TABULAR_ENTRY_BYTES * P
          + N * (TRAJECTORY_BYTES + SAMPLE_ENTRY_BYTES * (T + 1) * (W + 2))
          + EVAL_BLOCK_BYTES * X

    S is env.n_states(), or 0 above the enumeration cap, where nothing is
    enumerated.  A and B are the forward and backward slot counts.  P counts
    the parameter entries of the strategy's models, each with K outputs: K
    is A for the forward policy, B for a learned backward policy and 1 for
    each value or flow estimator.  A table is charged S * K entries, though
    a policy table keeps only its valid slots, so tabular runs overplan.
    An Mlp with layer widths (E, *hidden, K), E being env.encoding_dim, has
    (fan_in + 1) * fan_out per layer.  N counts the trajectories sampled at
    once: the batch, the backward walks from its endpoints when the backward
    policy is learned, and the mode-count samples when S > 0, since the
    step's batch is still held during evaluation.  T is
    env.max_trajectory_len and W env.width.  X is the entry count of the
    largest row block of an untaped policy evaluation over every state (an
    Mlp eval row, the grid guide's refresh): max(1, autodiff.BLOCK // V)
    rows of V entries, V being the widest layer output (K for a table, the
    largest of hidden and K for an Mlp), or of E for an Mlp whose input is
    wider.  X does not grow with S.  Physical memory is
    os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE").
    """
    n = env.n_states()
    if n > ENUMERATION_CAP:
        n = 0
    planned = n * (STATE_BYTES + SLOT_BYTES * env.n_action_slots)
    row = ROSTER[cfg.strategy]
    sampled = cfg.batch_size * (1 + row.learned_backward)
    if n:
        sampled += cfg.mode_samples or cfg.batch_size
    planned += sampled * (TRAJECTORY_BYTES + SAMPLE_ENTRY_BYTES
                          * (env.max_trajectory_len + 1) * (env.width + 2))
    policies = [env.n_action_slots] + [env.n_backward_slots] * row.learned_backward
    outputs = policies + [1] * (row.value_f + row.value_b + row.flow)
    n_params = 0
    for k in outputs:
        dims = (env.encoding_dim, *cfg.hidden, k)
        n_params += n * k if cfg.tabular else sum((a + 1) * b for a, b in zip(dims, dims[1:]))
    planned += TABULAR_ENTRY_BYTES * n_params
    block = 0
    for k in policies:
        widest = k if cfg.tabular else max((*cfg.hidden, k))
        width = widest if cfg.tabular else max(widest, env.encoding_dim)
        block = max(block, max(1, BLOCK // widest) * width)
    planned += EVAL_BLOCK_BYTES * block
    _check_fits(planned, f"{n} states, {n_params} parameters and {sampled} sampled trajectories")
    return planned


def run_seed(cfg, env, seed, out_dir, enum):
    """Train one seed and write its metrics CSV; returns the CSV path.

    `enum` is the env's enumeration, or None above the enumeration cap,
    where the exact metric columns hold nan.
    """
    init_rng = np.random.default_rng([seed, 0])
    train_rng = np.random.default_rng([seed, 1])
    eval_rng = np.random.default_rng([seed, 2])
    trainer = Trainer(env, cfg, init_rng)
    modes = exact.mode_states(enum) if enum is not None else None
    p_star = exact.reward_distribution(enum) if enum is not None else None
    seen = set()
    n_mode_samples = cfg.mode_samples if cfg.mode_samples > 0 else cfg.batch_size

    out_dir = Path(out_dir)
    path = out_dir / f"{cfg.strategy}_seed{seed}.csv"
    lines = [HEADER]
    t0 = time.perf_counter()
    for it in range(cfg.iterations):
        stats = trainer.step(train_rng)
        if it % cfg.eval_every == 0 or it == cfg.iterations - 1:
            seconds = (time.perf_counter() - t0) if cfg.timing else 0.0
            if enum is not None:
                fwd_log = exact.forward_log_table(enum, trainer.suite.forward)
                pt = exact.terminating_distribution(enum, fwd_log)
                d_tv = exact.total_variation(pt, p_star)
                d_jsd = exact.jensen_shannon(pt, p_star)
                acc = exact.reward_accuracy(pt, enum)
                count, seen = exact.mode_count(env, trainer.suite.forward, modes,
                                               n_mode_samples, eval_rng, seen)
            else:
                d_tv = d_jsd = acc = count = float("nan")
            lines.append(f"{it},{stats['loss']!r},{d_tv!r},{d_jsd!r},"
                         f"{acc!r},{count},{seconds:.3f}")
    try:
        path.write_text("\n".join(lines) + "\n")
        trainer.suite.save(out_dir / f"{cfg.strategy}_seed{seed}.params", seed=seed)
    except OSError as err:
        raise ConfigError(f"{out_dir}: cannot write output: {err.strerror}") from None
    return path


def run(cfg, seed=None, out=None):
    """Execute a config over its seeds; returns the list of CSV paths.

    Seeds run in order in this process and share the env and its enumeration;
    for parallel seeds, start one `gflow run --seed k` process per seed.
    """
    if seed is not None:
        cfg = replace(cfg, seeds=(seed,))
    env = build_env(cfg)
    check_memory(cfg, env)
    try:
        # Built once before the seeds start; this frame holds it until they
        # finish, since the env keeps only a weak reference.
        enum = env.enumeration()
    except EnumerationLimit:
        enum = None
    out_dir = Path(out if out is not None else cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"{out_dir}: cannot create output directory: {err.strerror}") from None
    return [run_seed(cfg, env, s, out_dir, enum) for s in cfg.seeds]


# ---------------------------------------------------------------------------
# Metrics files
# ---------------------------------------------------------------------------

def read_metrics(path):
    """Parse one metrics CSV into a float array of shape (rows, 7)."""
    lines = _read_text(path, "metrics file").splitlines()
    if not lines or lines[0] != HEADER:
        raise ConfigError(f"{path}: expected header {HEADER!r}")
    rows = []
    for no, ln in enumerate(lines[1:], 2):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != 7:
            raise ConfigError(f"{path} line {no}: {len(cells)} columns, expected 7")
        try:
            rows.append([float(v) for v in cells])
        except ValueError as err:
            raise ConfigError(f"{path} line {no}: {err}") from None
    return np.asarray(rows).reshape(-1, 7)


METRIC_NAMES = ("loss", "d_tv", "d_jsd", "acc", "modes", "seconds")


def summarize(paths, window=10):
    """Mean and sample std (n-1) of each metric across runs at the final
    iteration, after trailing-window smoothing within each file.

    window=1 disables smoothing.  Returns {"iter": final iteration,
    metric: (mean, std), ...}; a single file reports std 0.
    """
    if not paths:
        raise ConfigError("summarize needs at least one metrics file")
    if window < 1:
        raise ConfigError(f"window must be at least 1, got {window}")
    finals = []
    last_iters = []
    for p in paths:
        arr = read_metrics(p)
        if arr.shape[0] == 0:
            raise ConfigError(f"{p}: no metric rows to summarize")
        tail = arr[-int(window):, 1:]
        finals.append(tail.mean(axis=0))
        last_iters.append(int(arr[-1, 0]))
    if len(set(last_iters)) > 1:
        raise ConfigError(f"metrics files end at different iterations: {sorted(set(last_iters))}")
    stack = np.stack(finals)
    means = stack.mean(axis=0)
    if stack.shape[0] > 1:
        stds = stack.std(axis=0, ddof=1)
    else:
        stds = np.zeros(stack.shape[1])
    out = {"iter": last_iters[0]}
    for i, name in enumerate(METRIC_NAMES):
        out[name] = (float(means[i]), float(stds[i]))
    return out
