"""Experiment orchestration.

A run is described by a flat key = value config file; each seed trains
independently and writes one CSV of metric rows plus a final parameter
checkpoint.  Exact metrics (total variation, Jensen-Shannon divergence,
reward accuracy) come from the dynamic-programming evaluator whenever the
state space enumerates under the cap; otherwise those columns hold nan.
Every emitted number except the seconds column is a deterministic function
of (config, seed); set timing = off for byte-identical reruns.
"""

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import exact
from .envs import ENUMERATION_CAP, HyperGrid, SequenceEnv, load_reward_table, synthetic_rewards
from .errors import ConfigError, EnumerationLimit
from .training import ROSTER, STRATEGIES, Trainer, TrainerConfig

HEADER = "iter,loss,d_tv,d_jsd,acc,modes,seconds"

# Config keys that are not valid Python identifiers map to renamed fields.
_KEY_TO_FIELD = {"lambda": "lam"}
_FIELD_TO_KEY = {v: k for k, v in _KEY_TO_FIELD.items()}

# Memory plan, in bytes: per enumerated state (its row, position entry,
# terminal slot, log reward and encoding scratch), per (state, forward
# slot) pair (an edge's four intp entries and the float64 tables of one
# exact evaluation), and per tabular parameter entry (value, gradient,
# Adam m and v, and the scatter table of a second gather of the same table
# on one tape, as the balance losses make; 8 bytes each).  The first
# gather's scatter table becomes the gradient, and Adam's own scratch is
# one block, not a table.
STATE_BYTES = 256
SLOT_BYTES = 80
TABULAR_ENTRY_BYTES = 5 * 8


@dataclass
class RunConfig:
    env: str = "grid"
    d: int = 2
    n: int = 8
    reward_seed: int = 0
    beta: float = 3.0
    reward_table: str = ""
    r0: float = 0.01
    r1: float = 0.5
    r2: float = 2.0
    strategy: str = "TB-U"
    iterations: int = 1000
    batch: int = 128
    lam: float = 0.99
    zeta: float = 0.01
    gamma: float = 0.99
    lr_policy: float = 1e-3
    lr_value: float = 5e-3
    lr_logz: float = 0.1
    eval_every: int = 10
    seeds: tuple = (0,)
    out: str = "runs"
    hidden: tuple = (64, 64)
    tabular: bool = False
    subtb_base: float = 0.9
    guide_eps: float = 1e-5
    mode_samples: int = 0
    timing: bool = True


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
    cfg = RunConfig()
    known = {f.name: f for f in fields(RunConfig)}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        name = _KEY_TO_FIELD.get(key, key)
        if name not in known:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        try:
            setattr(cfg, name, _convert(key, value, getattr(cfg, name)))
        except ValueError as err:
            raise ConfigError(f"config line {ln}: bad value for {key!r}: {err}") from None
    validate_config(cfg)
    return cfg


def _read_text(path, what):
    try:
        return Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"{path}: cannot read {what}: {err.strerror}") from None


def parse_config(path):
    return parse_config_text(_read_text(path, "config file"))


def validate_config(cfg):
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{_FIELD_TO_KEY.get(f.name, f.name)} must be finite, got {value}")
    if cfg.strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {cfg.strategy!r}; "
                          f"choose from {', '.join(STRATEGIES)}")
    if cfg.env not in ("grid", "sequence"):
        raise ConfigError(f"unknown env {cfg.env!r}; choose grid or sequence")
    if ROSTER[cfg.strategy].graded and cfg.env == "grid":
        raise ConfigError(f"{cfg.strategy} requires equal-length trajectories; "
                          "the grid environment is not graded")
    for name in ("lr_policy", "lr_value", "lr_logz"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if cfg.iterations < 0:
        raise ConfigError("iterations must be nonnegative")
    if cfg.batch < 1:
        raise ConfigError("batch must be at least 1")
    if not 0.0 <= cfg.lam <= 1.0:
        raise ConfigError("lambda must lie in [0, 1]")
    if cfg.zeta <= 0:
        raise ConfigError("zeta must be positive")
    if not 0.0 < cfg.gamma <= 1.0:
        raise ConfigError("gamma must lie in (0, 1]")
    if cfg.eval_every < 1:
        raise ConfigError("eval_every must be at least 1")
    if cfg.d < 1 or cfg.n < 2:
        raise ConfigError("need d >= 1 and n >= 2")
    if cfg.env == "grid" and min(cfg.r0, cfg.r0 + cfg.r1, cfg.r0 + cfg.r1 + cfg.r2) <= 0:
        raise ConfigError("grid rewards r0, r0 + r1 and r0 + r1 + r2 must be positive")
    if cfg.guide_eps < 0:
        raise ConfigError("guide_eps must be nonnegative")
    if cfg.subtb_base <= 0:
        raise ConfigError("subtb_base must be positive")
    if any(width < 1 for width in cfg.hidden):
        raise ConfigError(f"hidden layer widths must be at least 1, got {cfg.hidden}")
    if cfg.mode_samples < 0:
        raise ConfigError("mode_samples must be nonnegative (0 means batch)")
    if cfg.reward_seed < 0:
        raise ConfigError(f"reward_seed must be nonnegative, got {cfg.reward_seed}")
    if not cfg.seeds:
        raise ConfigError("seeds must not be empty")
    for seed in cfg.seeds:
        _check_seed(seed)
    return cfg


def _check_seed(seed):
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def build_env(cfg):
    if cfg.env == "grid":
        return HyperGrid(cfg.d, cfg.n, r0=cfg.r0, r1=cfg.r1, r2=cfg.r2)
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

        S * (STATE_BYTES + SLOT_BYTES * A) + TABULAR_ENTRY_BYTES * S * C

    S is env.n_states(), or 0 above the enumeration cap, where nothing is
    enumerated.  A and B are the forward and backward slot counts.  C counts
    the tabular columns per state of the strategy's parameter groups: A for
    the forward policy, plus B when the backward policy is learned, plus 1
    per value or flow estimator (0 for Mlp models, whose size does not grow
    with S).  Physical memory is
    os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE").
    """
    n = env.n_states()
    if n > ENUMERATION_CAP:
        n = 0
    planned = n * (STATE_BYTES + SLOT_BYTES * env.n_action_slots)
    if cfg.tabular:
        row = ROSTER[cfg.strategy]
        cols = (env.n_action_slots + row.learned_backward * env.n_backward_slots
                + row.value_f + row.value_b + row.flow)
        planned += TABULAR_ENTRY_BYTES * n * cols
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if planned > physical:
        raise ConfigError(
            f"planned memory {planned / 2**20:.0f} MiB for {n} states exceeds "
            f"physical memory {physical / 2**20:.0f} MiB")
    return planned


def _trainer_config(cfg):
    return TrainerConfig(
        strategy=cfg.strategy, batch_size=cfg.batch, lam=cfg.lam,
        gamma=cfg.gamma, zeta=cfg.zeta, lr_policy=cfg.lr_policy,
        lr_value=cfg.lr_value, lr_logz=cfg.lr_logz, subtb_base=cfg.subtb_base,
        hidden=tuple(cfg.hidden), tabular=cfg.tabular, guide_eps=cfg.guide_eps,
    )


def run_seed(cfg, env, seed, out_dir, enum):
    """Train one seed and write its metrics CSV; returns the CSV path.

    `enum` is the env's enumeration, or None above the enumeration cap,
    where the exact metric columns hold nan.
    """
    init_rng = np.random.default_rng([seed, 0])
    train_rng = np.random.default_rng([seed, 1])
    eval_rng = np.random.default_rng([seed, 2])
    trainer = Trainer(env, _trainer_config(cfg), init_rng)
    modes = exact.mode_states(enum) if enum is not None else None
    p_star = exact.reward_distribution(enum) if enum is not None else None
    seen = set()
    n_mode_samples = cfg.mode_samples if cfg.mode_samples > 0 else cfg.batch

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
                d_tv = d_jsd = acc = float("nan")
                count = 0
            lines.append(f"{it},{stats['loss']!r},{d_tv!r},{d_jsd!r},"
                         f"{acc!r},{count},{seconds:.3f}")
    path.write_text("\n".join(lines) + "\n")
    trainer.suite.save(out_dir / f"{cfg.strategy}_seed{seed}.params", seed=seed)
    return path


def run(cfg, seed=None, out=None):
    """Execute a config over its seeds; returns the list of CSV paths.

    GFLOW_THREADS > 1 runs seeds on a thread pool (each seed owns its models;
    the environment and its enumeration are shared read-only).
    """
    raw = os.environ.get("GFLOW_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"GFLOW_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"GFLOW_THREADS must be at least 1, got {threads}")
    if seed is not None:
        _check_seed(seed)
    seeds = [seed] if seed is not None else list(cfg.seeds)
    env = build_env(cfg)
    check_memory(cfg, env)
    out_dir = Path(out if out is not None else cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        # Built once before the seeds start; this frame holds it until they
        # finish, since the env keeps only a weak reference.
        enum = env.enumeration()
    except EnumerationLimit:
        enum = None
    if threads > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda s: run_seed(cfg, env, s, out_dir, enum), seeds))
    return [run_seed(cfg, env, s, out_dir, enum) for s in seeds]


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
