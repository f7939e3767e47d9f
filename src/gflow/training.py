"""Training steps for every strategy in the roster.

Value-based strategies (detailed balance, trajectory balance, sub-trajectory
balance) take one Adam step per parameter group on a differentiable batch
loss.  Policy-gradient strategies build per-step policy-dependent rewards,
sweep lambda advantages, and update the forward policy by a plain surrogate
step or a trust-region step; log Z descends its unbiased gradient estimate
(the batch mean of the lambda=1 root value estimates), value estimators
regress on lambda targets, and a learned backward policy trains on
backward-sampled trajectories against the forward policy or a guide.
Each update evaluates each model it trains once, taped, per batch: rewards
and advantages read those tensors' numbers, and the losses differentiate them.
"""

import logging
import math
import numbers
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import exact
from . import objectives as obj
from .envs import HyperGrid, SequenceEnv
from .errors import ConfigError, ContractError, NumericFault
from .guides import HyperGridGuide, SequenceGuide
from .policy import PolicySuite, make_suite, score_matrix
from .sampling import ReplayBuffer, sample_backward, sample_forward

logger = logging.getLogger("gflow")

# Trust-region step constants: Fisher damping, the most products and the
# relative residual at which conjugate gradients stop, and the backtracking
# factor and count of the step-size search.
DAMPING = 1e-3
CG_ITERS = 10
CG_TOL = 1e-10
BACKTRACK = 0.8
MAX_BACKTRACKS = 10

# Replay capacity of the default sequence guide, in batches.
REPLAY_BATCHES = 10

# Rounding allowance of check_theorem_bounds: a bound holds when its left
# side exceeds its right by at most this much.
BOUND_TOL = 1e-9


def conjugate_gradient(matvec, b):
    """Solve A x = b for symmetric positive definite A given only x -> A x.

    Stops after CG_ITERS products, or earlier once the residual norm is at
    most CG_TOL times that of b.  Each new residual is orthogonalized
    against the earlier ones (one classical Gram-Schmidt pass), a no-op in
    exact arithmetic.  Without it, once CG resolves the large eigenvalues
    of a Fisher, rounding in the products grows about tenfold per
    iteration, and two equal evaluation orders of the same product give
    steps 1e-11 apart after ten iterations.  The vector updates run in
    place through one scratch vector.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    scratch = np.empty_like(b)
    basis = np.empty((CG_ITERS, b.size))
    rs = float(r @ r)
    stop = CG_TOL * np.sqrt(rs)
    for k in range(CG_ITERS):
        if np.sqrt(rs) <= stop:
            break
        np.divide(r, np.sqrt(rs), out=basis[k])
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, ap, out=scratch)
        done = basis[:k + 1]
        r -= np.matmul(done @ r, done, out=scratch)
        rs_new = float(r @ r)
        p *= rs_new / rs
        p += r
        rs = rs_new
    return x


def fisher_product(scores):
    """v -> F v = J^T (J v) / M + DAMPING v, the damped empirical Fisher of
    the ScoreOperator J over its M samples, applied matrix-free."""
    m = scores.shape[0]
    damped = np.empty(scores.shape[1])

    def matvec(v):
        out = scores.T @ (scores @ v)
        out /= m
        out += np.multiply(DAMPING, v, out=damped)
        return out
    return matvec


# ---------------------------------------------------------------------------
# Advantage assembly
# ---------------------------------------------------------------------------

def forward_advantages(sb, suite, lam, lpf, values):
    """Per-step lambda advantages of the forward chain, from one scan over
    `lpf` (log pi_F of each chosen slot) and `values` (V_F of each source).

    Returns (advantages, value targets at the given lambda, per-trajectory
    lambda=1 root value estimates).  The root estimates equal each
    trajectory's balance log-ratio and feed the log Z update.
    """
    rewards = obj.forward_step_rewards(sb, suite, lpf)
    adv, targets, targets_one = obj.gae_advantages(rewards, values, sb.lengths, lam)
    return adv, targets, targets_one[np.cumsum(sb.lengths) - sb.lengths]


def backward_advantages(sb, lpb, values, ref, lam):
    """Advantages of the backward chain over interior edges, from one scan.

    The reward is `lpb - ref`, with `ref` the forward policy's or a guide's
    edge log-prob, and `values` are V_B of the entered states.  The chain
    runs x -> root with the root value pinned to 0, so the scan reads the
    forward-order interior arrays back to front (which reverses every
    trajectory and their order); outputs are re-aligned with the
    forward-order arrays.  Value targets are the unbiased lambda=1
    estimates.
    """
    rewards = lpb - ref
    adv, _, targets = obj.gae_advantages(rewards[::-1], values[::-1],
                                         (sb.lengths - 1)[::-1], lam)
    return adv[::-1], targets[::-1]


def surrogate_loss(tape, lp, adv, n_traj):
    """(1/B) sum over steps of stopgrad(advantage) * log pi, for the taped
    chosen-slot log-probabilities `lp`."""
    weighted = ad.mul(tape, lp, ad.Tensor(np.asarray(adv)))
    return ad.scale(tape, ad.sum(tape, weighted), 1.0 / n_traj)


def _descend(tape, loss, params, optimizers, what):
    """Backpropagate a scalar loss into `params`, step each optimizer and return
    the loss value; a non-finite loss raises NumericFault naming `what`."""
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericFault(f"non-finite {what}")
    ad.zero_grads(params)
    tape.backward(loss)
    for opt in optimizers:
        opt.step()
    return value


def _value_step(tape, v, targets, estimator, optimizer, n_traj):
    """Regress the values `v`, taped on `tape` alone, onto `targets`."""
    resid = ad.sub(tape, v, ad.Tensor(np.asarray(targets)))
    loss = ad.scale(tape, ad.sum(tape, ad.square(tape, resid)), 1.0 / n_traj)
    return _descend(tape, loss, estimator.params(), [optimizer], "value regression loss")


def _logz_step(suite, root_v1, optimizer):
    suite.log_z.value.grad = np.array([float(np.mean(root_v1))])
    optimizer.step()


# ---------------------------------------------------------------------------
# Strategy steps
# ---------------------------------------------------------------------------

def balance_step(suite, sb, optimizers, loss_fn, **kwargs):
    """One Adam step of every parameter group on a balance loss."""
    tape = ad.Tape()
    loss = loss_fn(tape, sb, suite, **kwargs)
    value = _descend(tape, loss, suite.all_params(), optimizers.values(), "balance loss")
    return {"loss": value}


def _policy_b_update(suite, xs, optimizers, lam, rng, guide=None):
    """Backward-policy step on trajectories sampled from P_B given xs.

    The per-step reward is log pi_B minus the forward policy's edge log-prob
    (standard) or the guide kernel's (guided).
    """
    sb = obj.step_batch(sample_backward(suite.env, suite.backward, xs, rng))
    if not len(sb.in_states):
        return {"backward_loss": 0.0, "backward_value_loss": 0.0}
    interior = ~sb.terminal
    if guide is None:
        ref = suite.forward.step_log_probs(None, sb.states[interior], sb.slots[interior]).data
    else:
        ref = guide.edge_log_probs(sb)
    tape, value_tape = ad.Tape(), ad.Tape()
    lpb = suite.backward.step_log_probs(tape, sb.in_states, sb.in_bslots)
    v = suite.value_b.values(value_tape, sb.in_states)
    adv, targets = backward_advantages(sb, lpb.data, v.data, ref, lam)
    surr = _descend(tape, surrogate_loss(tape, lpb, adv, sb.n_traj), suite.backward.params(),
                    [optimizers["policy_b"]], "backward surrogate")
    vloss = _value_step(value_tape, v, targets, suite.value_b, optimizers["value_b"],
                        sb.n_traj)
    return {"backward_loss": surr, "backward_value_loss": vloss}


def actor_critic_step(suite, sb, optimizers, lam=0.99, rng=None, guide=None):
    """Policy-gradient step: forward surrogate, log Z, value regression, and
    (when the backward policy is learned) the mirrored backward update,
    trained toward `guide` when one is given."""
    tape, value_tape = ad.Tape(), ad.Tape()
    lp = suite.forward.step_log_probs(tape, sb.states, sb.slots)
    v = suite.value_f.values(value_tape, sb.states)
    adv, targets, root_v1 = forward_advantages(sb, suite, lam, lp.data, v.data)
    surr = _descend(tape, surrogate_loss(tape, lp, adv, sb.n_traj), suite.forward.params(),
                    [optimizers["policy_f"]], "policy surrogate")
    _logz_step(suite, root_v1, optimizers["log_z"])
    vloss = _value_step(value_tape, v, targets, suite.value_f, optimizers["value_f"],
                        sb.n_traj)
    stats = {"loss": float(np.mean(root_v1 ** 2)), "surrogate": surr,
             "value_loss": vloss, "accepted": True}
    if "policy_b" in optimizers:
        if rng is None:
            raise ConfigError("learned backward policy updates need an rng")
        stats.update(_policy_b_update(suite, sb.xs, optimizers, lam, rng, guide=guide))
    return stats


def _solved_entries(policy, rows):
    """(values, gradient, assign) of the parameters a trust-region solve
    covers: the table rows `rows` of a tabular policy, else every
    parameter in flatten() order.  assign(vec) writes those entries only."""
    if rows is None:
        params = policy.params()
        return ad.flatten(params), ad.flat_grad(params), partial(ad.assign_flat, params)
    # The rows' entries off the mask read 0 and are never written; the
    # solve's direction is 0 there.
    table = policy.model.table
    cells = policy.model.index.cells[rows].ravel()
    on = cells < table.data.size

    def assign(vec):
        table.data[cells[on]] = vec[on]
    return (np.where(on, table.data.take(cells, mode="clip"), 0.0),
            np.where(on, table.grad.take(cells, mode="clip"), 0.0), assign)


def trpo_step(suite, sb, optimizers, zeta=0.01, lam=0.99):
    """Trust-region forward-policy step; log Z and values as the plain step.

    The step direction solves F x = g by conjugate gradients (stopping on a
    residual of CG_TOL relative to g) with F the damped empirical Fisher of
    the batch scores, scaled to the KL budget `zeta` and backtracked until
    the batch KL stays inside it and the surrogate improves.  An exhausted
    search restores the old parameters.  F is applied matrix-free through
    the ScoreOperator J from score_matrix, so no M x P array is allocated.
    A tabular policy is solved on the rows the batch visits only: elsewhere
    g is 0 and F is DAMPING times the identity, so the full solution is 0
    there, and the line search writes and restores those rows alone.
    """
    policy = suite.forward
    masks = policy.masks(sb.states)
    tape, value_tape = ad.Tape(), ad.Tape()
    log_matrix = policy.log_prob_matrix(tape, sb.states, masks)
    old_log = log_matrix.data  # the rewards, the KL and the surrogate read one evaluation
    lp = ad.pick(tape, log_matrix, sb.slots)
    v = suite.value_f.values(value_tape, sb.states)
    adv, targets, root_v1 = forward_advantages(sb, suite, lam, lp.data, v.data)
    surr0 = _descend(tape, surrogate_loss(tape, lp, adv, sb.n_traj), policy.params(), [],
                     "policy surrogate")
    scores = score_matrix(policy, sb.states, sb.slots, masks)
    old, g, assign = _solved_entries(policy, scores.rows)

    stats = {"loss": float(np.mean(root_v1 ** 2)), "surrogate": surr0,
             "accepted": False, "kl": 0.0, "step_scale": 0.0}
    direction_ok = bool(np.any(g))
    if direction_ok:
        x = conjugate_gradient(fisher_product(scores), g)
        gx = float(g @ x)
        if not np.all(np.isfinite(x)):
            logger.warning("conjugate gradient produced non-finite direction; "
                           "skipping policy update")
            direction_ok = False
        elif gx <= 0.0:
            direction_ok = False
    if direction_ok:
        full = -np.sqrt(2.0 * zeta / gx) * x
        state_weights = np.full(sb.n_steps, 1.0 / sb.n_steps)
        scale = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            assign(old + scale * full)
            new_log = policy.log_probs_numpy(sb.states, masks)
            kl = exact.policy_kl(old_log, new_log, state_weights, masks)
            chosen = new_log[np.arange(sb.n_steps), sb.slots]
            new_surr = float((chosen * adv).sum() / sb.n_traj)
            if kl <= zeta and new_surr < surr0:
                stats.update(accepted=True, kl=kl, step_scale=scale,
                             surrogate=new_surr)
                break
            scale *= BACKTRACK
        if not stats["accepted"]:
            assign(old)
    _logz_step(suite, root_v1, optimizers["log_z"])
    stats["value_loss"] = _value_step(value_tape, v, targets, suite.value_f,
                                      optimizers["value_f"], sb.n_traj)
    return stats


# ---------------------------------------------------------------------------
# Trainer
# ---------------------------------------------------------------------------

# Config-file keys that differ from their field names; messages name the key.
FIELD_KEYS = {"lam": "lambda", "batch_size": "batch"}


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_type(name, value, default):
    """Raise ConfigError, naming the key, unless value has the kind of its
    field's default: a bool, an integer, a real number, a tuple of integers
    or a string."""
    kind = type(default)
    if type(value) is kind and (kind is not tuple or all(type(v) is int for v in value)):
        return
    if kind is bool:
        ok, what = isinstance(value, (bool, np.bool_)), "a bool"
    elif kind is int:
        ok, what = _is_int(value), "an integer"
    elif kind is float:
        ok, what = isinstance(value, numbers.Real) and not isinstance(value, bool), "a number"
    elif kind is tuple:
        ok = isinstance(value, tuple) and all(_is_int(v) for v in value)
        what = "a tuple of integers"
    else:
        ok, what = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{FIELD_KEYS.get(name, name)} must be {what}, got {value!r}")


@dataclass(frozen=True)
class TrainerConfig:
    """Training settings, checked on construction: every field, a subclass's
    too, must have its default's type before any value is compared."""

    strategy: str = "TB-U"
    batch_size: int = 128
    lam: float = 0.99
    gamma: float = 0.99
    zeta: float = 0.01
    lr_policy: float = 1e-3
    lr_value: float = 5e-3
    lr_logz: float = 0.1
    subtb_base: float = 0.9
    hidden: tuple = (64, 64)
    tabular: bool = False
    guide_eps: float = 1e-5

    # The fields that must be finite; a class attribute, as it has no annotation.
    _FLOATS = ("lam", "gamma", "zeta", "lr_policy", "lr_value", "lr_logz", "subtb_base",
               "guide_eps")

    def __post_init__(self):
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), f.default)
        for name in self._FLOATS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{FIELD_KEYS.get(name, name)} must be finite, got {value}")
        if self.strategy not in ROSTER:
            raise ConfigError(f"unknown strategy {self.strategy!r}; "
                              f"choose from {', '.join(STRATEGIES)}")
        if self.batch_size < 1:
            raise ConfigError("batch must be at least 1")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lambda must lie in [0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")
        for name in ("zeta", "lr_policy", "lr_value", "lr_logz", "subtb_base"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden layer widths must be at least 1, got {self.hidden}")
        if self.guide_eps < 0:
            raise ConfigError("guide_eps must be nonnegative")


@dataclass(frozen=True)
class Strategy:
    """One roster entry: `update(trainer, sb, rng)` returns the step's stats;
    the flags name the suite components and guide it trains, whether batches
    come from the exploration mixture, and whether it needs a graded env."""

    update: Callable
    learned_backward: bool = False
    value_f: bool = False
    value_b: bool = False
    flow: bool = False
    guide: bool = False
    mixture: bool = False
    graded: bool = False


# Update functions resolve the step and loss functions through their modules
# on each call, so replacing a module attribute (as a tracer does) reaches
# every strategy.

def _tb(trainer, sb, rng):
    return balance_step(trainer.suite, sb, trainer.optimizers, obj.tb_loss)


def _db(trainer, sb, rng):
    return balance_step(trainer.suite, sb, trainer.optimizers, obj.db_loss)


def _subtb(trainer, sb, rng):
    return balance_step(trainer.suite, sb, trainer.optimizers, obj.subtb_loss,
                        weight_base=trainer.cfg.subtb_base)


def _actor_critic(trainer, sb, rng):
    return actor_critic_step(trainer.suite, sb, trainer.optimizers,
                             lam=trainer.cfg.lam, rng=rng, guide=trainer.guide)


def _trust_region(trainer, sb, rng):
    return trpo_step(trainer.suite, sb, trainer.optimizers,
                     zeta=trainer.cfg.zeta, lam=trainer.cfg.lam)


ROSTER = {
    "DB-U": Strategy(_db, flow=True, mixture=True),
    "DB-B": Strategy(_db, learned_backward=True, flow=True, mixture=True),
    "TB-U": Strategy(_tb, mixture=True),
    "TB-B": Strategy(_tb, learned_backward=True, mixture=True),
    "TB-Sub": Strategy(_subtb, flow=True, mixture=True, graded=True),
    "RL-U": Strategy(_actor_critic, value_f=True),
    "RL-B": Strategy(_actor_critic, learned_backward=True, value_f=True, value_b=True),
    "RL-T": Strategy(_trust_region, value_f=True),
    "RL-G": Strategy(_actor_critic, learned_backward=True, value_f=True, value_b=True,
                     guide=True),
}
STRATEGIES = tuple(ROSTER)


def default_guide(env, cfg):
    if isinstance(env, HyperGrid):
        return HyperGridGuide(env, eps=cfg.guide_eps)
    if isinstance(env, SequenceEnv):
        return SequenceGuide(env, ReplayBuffer(REPLAY_BATCHES * cfg.batch_size))
    raise ConfigError(f"no guided backward kernel defined for {type(env).__name__}")


class Trainer:
    """One training strategy bound to an environment and a policy suite.

    step(rng) runs one iteration: sample a batch, lay it out once as a
    StepBatch, refresh the guide and apply the strategy's update on it, and
    return a stats dict whose "loss" entry is the balance loss for
    value-based strategies and the batch mean squared balance log-ratio for
    policy-gradient ones; stats["batch"] is the sampled trajectory list and
    stats["eps"] the batch's uniform exploration weight: gamma ** iteration
    for strategies that sample from the exploration mixture, else 0.
    A guide is accepted only by strategies that train toward one.
    """

    def __init__(self, env, cfg, rng, guide=None):
        row = ROSTER[cfg.strategy]
        if row.graded and not env.graded:
            raise ConfigError(f"{cfg.strategy} needs a graded environment "
                              "(equal-length trajectories)")
        if guide is not None and not row.guide:
            raise ConfigError(f"strategy {cfg.strategy} does not use a guide")
        self.env = env
        self.cfg = cfg
        self.suite = make_suite(env, rng, tabular=cfg.tabular, hidden=cfg.hidden,
                                learned_backward=row.learned_backward,
                                need_value_f=row.value_f, need_value_b=row.value_b,
                                need_flow=row.flow)
        self.optimizers = {
            name: ad.Adam(params, getattr(cfg, PolicySuite.GROUPS[name]))
            for name, params in self.suite.param_groups().items()
        }
        self.guide = default_guide(env, cfg) if row.guide and guide is None else guide
        self.iteration = 0

    def step(self, rng):
        row = ROSTER[self.cfg.strategy]
        eps = float(self.cfg.gamma) ** self.iteration if row.mixture else 0.0
        batch = sample_forward(self.env, self.suite.forward, self.cfg.batch_size, rng,
                               eps=eps)
        sb = obj.step_batch(batch)
        if self.guide is not None:
            self.guide.refresh(self.suite.forward, sb)
        stats = row.update(self, sb, rng)
        self.iteration += 1
        stats["batch"] = batch
        stats["eps"] = eps
        return stats


# ---------------------------------------------------------------------------
# Exact bound checks
# ---------------------------------------------------------------------------

def check_theorem_bounds(env, fwd_log, bwd_log, log_z, guide, forward_alt=None):
    """Exact verification of the coupling and performance-difference bounds.

    Bound 1: the guided objective J_F^G is at most J_F + J_B^G plus a slack
    proportional to the largest guided backward reward magnitude and the
    square root of half the balance divergence J_F + log Z* - log Z.

    Bound 2 (when a second forward table is supplied): the per-step change
    of J_F is at most the old-distribution expectation of the new policy's
    advantages plus zeta + eps_F * sqrt(2 zeta), where zeta is the
    accumulated-distribution KL between new and old policies.  It needs a
    graded environment.

    The policies are dense log tables over the enumeration (see
    exact.forward_log_table); the guide is a log table or a Markov guide.
    Each forward table is read once into hop form (its interior edges and
    stop hops) and swept once for its visit probabilities, which give both
    P_F^T and the accumulated distribution.  The KL and the expected
    advantage are sums over hops, per source state.  Each bound holds up to
    BOUND_TOL.  Returns a report dict with both sides and a boolean per
    bound.
    """
    if forward_alt is not None and not env.graded:
        raise ContractError("bound two needs the accumulated distribution, "
                            "which requires a graded environment")
    enum = env.enumeration()
    g_table = guide if isinstance(guide, np.ndarray) else guide.backward_kernel()
    log_z = float(log_z)
    log_z_star = float(np.log(enum.partition()))
    root = enum.root_index
    n_edges = len(enum.edge_src)

    ref_b = exact.edge_logs_backward(enum, bwd_log)
    ref_g = exact.edge_logs_backward(enum, g_table)
    t_len = len(enum.layers)

    old_log, old_p = hops = exact.forward_hops(enum, fwd_log)
    v, q = exact.forward_values(enum, hops, ref_b, log_z)
    j_f = v[root]
    j_fg = exact.forward_values(enum, hops, ref_g, log_z)[0][root]
    reach, pt = exact.reach_and_terminating(enum, old_p)
    v_bg = exact.backward_values(enum, bwd_log, ref_g)[0]
    j_bg = float(pt @ v_bg)
    r_max = float(np.max(np.abs(ref_b - ref_g))) if ref_b.size else 0.0
    kl_mu = max(j_f + log_z_star - log_z, 0.0)
    slack = (t_len - 1) * r_max * np.sqrt(kl_mu / 2.0)
    rhs1 = j_f + j_bg + slack
    report = {
        "theorem1": {
            "lhs": float(j_fg), "rhs": float(rhs1), "holds": bool(j_fg <= rhs1 + BOUND_TOL),
            "j_f": float(j_f), "j_b_g": float(j_bg), "r_max": r_max,
            "kl_mu": float(kl_mu), "slack": float(slack),
        },
    }
    if forward_alt is None:
        return report

    new_log, new_p = hops_new = exact.forward_hops(enum, forward_alt)
    j_new = exact.forward_values(enum, hops_new, ref_b, log_z)[0][root]
    d_old = reach / t_len
    d_new = exact.visit_probabilities(enum, new_p[:n_edges]) / t_len
    src = np.concatenate([enum.edge_src, enum.stops])  # each hop's source state
    # Hops the new policy never takes add nothing, even where both logs are -inf.
    kl = np.subtract(new_log, old_log, out=np.zeros_like(new_log), where=new_p > 0)
    kl *= new_p
    zeta = float(d_new @ np.bincount(src, kl, minlength=enum.n))
    q -= v[src]  # each hop's advantage under the old policy
    q *= new_p
    ea_new = np.bincount(src, q, minlength=enum.n)
    expected = float(d_old @ ea_new)
    eps_f = float(np.abs(ea_new).max())
    lhs2 = (j_new - j_f) / t_len
    rhs2 = expected + zeta + eps_f * np.sqrt(2.0 * zeta)
    report["theorem2"] = {
        "lhs": float(lhs2), "rhs": float(rhs2), "holds": bool(lhs2 <= rhs2 + BOUND_TOL),
        "zeta": float(zeta), "eps_f": eps_f, "expected_advantage": expected,
        "j_f": float(j_f), "j_f_new": float(j_new),
    }
    return report
