"""The benchmark's four workloads.

Each workload is a batch job with one job in flight at a time.  Training
workloads go through `runner.run` with a config text, exactly as
`gflow run` does, and are judged from the CSV and `.params` files the run
leaves; `exact-audit` calls `check_theorem_bounds` and `gflow.exact`
directly on random tables.  The workload seed picks the reward table, the
training seeds and the random tables, so the same seed gives the same
inputs and the same deterministic outputs.
"""

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from gflow import GflowError, Trainer, TrainerConfig, TableGuide, exact, runner, training

DESK = """\
batch = 64
lambda = 0.99
lr_policy = 0.04
lr_value = 0.3
lr_logz = 0.02
zeta = 0.01
guide_eps = 1e-5
tabular = on
eval_every = 10
"""


@dataclass
class JobResult:
    wall_s: float                   # the whole job, as a user waits for it
    cpu_s: float                    # process CPU time, self plus children
    op_ms: list                     # one sample per CSV interval or audit
    attempted: int                  # operations: training iterations or audits
    failed: int
    digest: str                     # of the deterministic outputs
    notes: dict = field(default_factory=dict)


def _cpu():
    kids = os.times()
    return time.process_time() + kids.children_user + kids.children_system


def _stripped_csv(text):
    """CSV text without its last column (`seconds`, the only timed one)."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def _expected_iters(iterations, every):
    return [it for it in range(iterations) if it % every == 0 or it == iterations - 1]


def _build(config_text):
    """Config parse, env, and the enumeration with its mask and slot caches."""
    cfg = runner.parse_config_text(config_text)
    env = runner.build_env(cfg)
    enum = env.enumeration()
    enum.action_masks()
    enum.parent_masks()
    enum.terminal_slots()
    return cfg, env, enum


class TrainingWorkload:
    """`legs` run one after another, each one `runner.run` over the seeds.

    `threads` is the GFLOW_THREADS value of the traced run's threaded
    phase; measured jobs run serially (see run.py).
    """

    def __init__(self, name, base, legs, n_seeds, threads):
        self.name = name
        self.base = base
        self.legs = legs            # [(strategy, iterations)]
        self.n_seeds = n_seeds
        self.threads = threads
        self.check_env = None
        self.check_enum = None

    def config_text(self, seed, strategy, iterations):
        seeds = ", ".join(str(seed + k) for k in range(self.n_seeds))
        return (f"{self.base}reward_seed = {seed}\nseeds = {seeds}\n"
                f"strategy = {strategy}\niterations = {iterations}\n")

    def scaled(self, factor, minimum=2):
        """The same workload with every leg's iteration count scaled; two
        iterations give the one CSV interval an op sample needs."""
        legs = [(s, max(minimum, int(round(n * factor)))) for s, n in self.legs]
        return TrainingWorkload(self.name, self.base, legs, self.n_seeds, self.threads)

    def setup(self, seed):
        """What a run builds before training, plus one Trainer per leg."""
        cfg, env, enum = _build(self.config_text(seed, *self.legs[0]))
        for strategy, _ in self.legs:
            Trainer(env, self.trainer_config(cfg, strategy), np.random.default_rng([seed, 0]))
        return env, enum

    def prepare(self, seed, env, enum):
        """Keep a set-up environment for the output checks."""
        self.check_env, self.check_enum = env, enum
        self.p_star = exact.reward_distribution(enum)

    @staticmethod
    def trainer_config(cfg, strategy):
        return TrainerConfig(strategy=strategy, batch_size=cfg.batch, lam=cfg.lam,
                             gamma=cfg.gamma, zeta=cfg.zeta, lr_policy=cfg.lr_policy,
                             lr_value=cfg.lr_value, lr_logz=cfg.lr_logz,
                             subtb_base=cfg.subtb_base, hidden=tuple(cfg.hidden),
                             tabular=cfg.tabular, guide_eps=cfg.guide_eps)

    def job(self, seed, out_dir, threads):
        """Run every leg; returns (wall, cpu, [(cfg, error or None, run wall)])."""
        os.environ["GFLOW_THREADS"] = str(threads)
        outcomes = []
        t0, c0 = time.perf_counter(), _cpu()
        for strategy, iterations in self.legs:
            cfg = runner.parse_config_text(self.config_text(seed, strategy, iterations))
            start = time.perf_counter()
            try:
                runner.run(cfg, out=out_dir)
                err = None
            except GflowError as exc:
                err = exc
            outcomes.append((cfg, err, time.perf_counter() - start))
        return time.perf_counter() - t0, _cpu() - c0, outcomes

    def check(self, out_dir, ran):
        """Judge a finished job from the files it left."""
        wall, cpu, outcomes = ran
        digest = hashlib.sha256()
        op_ms, attempted, failed = [], 0, 0
        notes = {"run_wall_s": 0.0, "seed_seconds": 0.0, "rows": {}, "errors": [],
                 "leg_walls_s": {}}
        for cfg, err, run_wall in outcomes:
            n_ops = cfg.iterations * len(cfg.seeds)
            attempted += n_ops
            notes["run_wall_s"] += run_wall
            notes["leg_walls_s"][cfg.strategy] = run_wall
            if err is not None:
                failed += n_ops
                notes["errors"].append(f"{cfg.strategy}: {type(err).__name__}: {err}")
                continue
            for s in cfg.seeds:
                stem = os.path.join(out_dir, f"{cfg.strategy}_seed{s}")
                bad, samples, rows, text = self.check_csv(cfg, stem + ".csv")
                bad |= self.check_params(cfg, stem + ".params", rows)
                failed += len(bad)
                op_ms += samples
                digest.update(f"{cfg.strategy}_seed{s}\n".encode())
                digest.update(_stripped_csv(text).encode())
                if rows:
                    notes["seed_seconds"] += rows[-1][6]
                notes["rows"][f"{cfg.strategy}_seed{s}"] = rows
        return JobResult(wall, cpu, op_ms, attempted, failed, digest.hexdigest(), notes)

    def check_csv(self, cfg, path):
        """(failed iteration set, op samples in ms, rows, raw text).

        A row covers the iterations since the previous row; a missing,
        non-finite or out-of-range row fails them all.
        """
        expected = _expected_iters(cfg.iterations, cfg.eval_every)
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError:
            return set(range(cfg.iterations)), [], [], ""
        lines = text.splitlines()
        rows = {}
        if lines and lines[0] == runner.HEADER:
            for line in lines[1:]:
                try:
                    vals = [float(v) for v in line.split(",")]
                except ValueError:
                    continue
                if len(vals) == 7:
                    rows[int(vals[0])] = vals
        bad, samples, kept = set(), [], []
        prev_it, prev_sec = -1, None
        for it in expected:
            covered = range(prev_it + 1, it + 1)
            row = rows.get(it)
            ok = (row is not None and all(np.isfinite(row))
                  and all(0.0 <= v <= 1.0 for v in row[2:5]))
            if not ok:
                bad.update(covered)
            else:
                kept.append(row)
                if prev_sec is not None:
                    samples.append(1000.0 * (row[6] - prev_sec) / len(covered))
            prev_it, prev_sec = it, row[6] if ok else None
        return bad, samples, kept, text

    def check_params(self, cfg, path, rows):
        """The saved policy reproduces the last row's d_tv and its exact
        terminating distribution sums to 1; else the last row fails."""
        expected = _expected_iters(cfg.iterations, cfg.eval_every)
        last = set(range(expected[-2] + 1 if len(expected) > 1 else 0, cfg.iterations))
        if not rows or rows[-1][0] != cfg.iterations - 1:
            return last
        try:
            trainer = Trainer(self.check_env, self.trainer_config(cfg, cfg.strategy),
                              np.random.default_rng(0))
            trainer.suite.load(path)
        except (GflowError, OSError):
            return last
        fwd = exact.forward_log_table(self.check_enum, trainer.suite.forward)
        pt = exact.terminating_distribution(self.check_enum, fwd)
        d_tv = exact.total_variation(pt, self.p_star)
        if abs(pt.sum() - 1.0) > 1e-9 or abs(d_tv - rows[-1][2]) > 1e-12:
            return last
        return set()


class ExactAudit:
    """Bound checks and flow construction on random tabular tables."""

    name = "exact-audit"
    threads = 1

    def __init__(self, audits, base):
        self.audits = audits
        self.base = base

    def scaled(self, factor, minimum=1):
        return ExactAudit(max(minimum, int(round(self.audits * factor))), self.base)

    def config_text(self, seed):
        return f"{self.base}reward_seed = {seed}\n"

    def setup(self, seed):
        return _build(self.config_text(seed))[1:]

    def prepare(self, seed, env, enum):
        """Keep a set-up environment and draw the audit inputs (untimed)."""
        self.check_env, self.check_enum = env, enum
        self.p_star = exact.reward_distribution(enum)
        self.inputs = [self.draw(env, enum, np.random.default_rng([seed, 3, k]))
                       for k in range(self.audits)]

    @staticmethod
    def draw(env, enum, rng):
        def table(masks):
            out = np.full(masks.shape, -np.inf)
            rows = np.flatnonzero(masks.any(axis=1))
            logits = np.where(masks[rows], rng.normal(0.0, 1.0, masks[rows].shape), -np.inf)
            out[rows] = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
            return out
        fwd = table(enum.action_masks())
        bwd = table(enum.parent_masks())
        guide = TableGuide.random(env, rng)
        log_z = float(np.log(enum.partition()) + rng.normal(0.0, 0.5))
        alt = table(enum.action_masks())
        return fwd, bwd, guide, log_z, alt

    def job(self, seed, out_dir, threads):
        env, enum = self.check_env, self.check_enum
        digest = hashlib.sha256()
        op_ms, failed, errors = [], 0, []
        wall, cpu = 0.0, 0.0
        for fwd, bwd, guide, log_z, alt in self.inputs:
            t0, c0 = time.perf_counter(), _cpu()
            try:
                report = training.check_theorem_bounds(env, fwd, bwd, log_z, guide,
                                                       forward_alt=alt)
                flow_fwd, _, log_z_star, _ = exact.flow_from_rewards(enum, bwd)
                pt = exact.terminating_distribution(enum, flow_fwd)
            except GflowError as err:
                failed += 1
                errors.append(f"{type(err).__name__}: {err}")
                continue
            finally:
                dt, dc = time.perf_counter() - t0, _cpu() - c0
                wall += dt
                cpu += dc
            op_ms.append(1000.0 * dt)
            ok = (report["theorem1"]["holds"] and report["theorem2"]["holds"]
                  and abs(pt.sum() - 1.0) <= 1e-9
                  and float(np.abs(pt - self.p_star).max()) <= 1e-12)
            failed += not ok
            for part in ("theorem1", "theorem2"):
                digest.update(f"{report[part]['lhs']!r},{report[part]['rhs']!r}\n".encode())
            digest.update(f"{log_z_star!r}\n".encode())
        notes = {"run_wall_s": wall, "seed_seconds": 0.0, "rows": {}, "errors": errors,
                 "leg_walls_s": {}}
        return JobResult(wall, cpu, op_ms, self.audits, failed, digest.hexdigest(), notes)

    def check(self, out_dir, ran):
        """Audits check their outputs as they go."""
        return ran


SEQ = "env = sequence\nd = 6\nn = 4\n"


def make_workloads():
    """Workloads in run order, at the sizes a benchmark run repeats."""
    grid_base = "env = grid\nd = 2\nn = 16\n" + DESK
    seq_mlp_base = (SEQ + "batch = 64\nhidden = 64, 64\ntabular = off\n"
                    "eval_every = 10\n")
    seq_tab_base = SEQ + DESK
    return {
        "grid-race": TrainingWorkload("grid-race", grid_base, [("RL-G", 80)],
                                      n_seeds=2, threads=2),
        "seq-mlp": TrainingWorkload("seq-mlp", seq_mlp_base,
                                    [("TB-U", 40), ("RL-B", 20)], n_seeds=1, threads=1),
        "seq-tabular": TrainingWorkload("seq-tabular", seq_tab_base,
                                        [("RL-U", 60), ("RL-G", 10), ("RL-T", 2)],
                                        n_seeds=1, threads=1),
        "exact-audit": ExactAudit(6, SEQ),
    }

