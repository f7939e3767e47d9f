"""Training objectives over step batches.

`step_batch` lays a sampler's trajectory list out once as a StepBatch of
flat row arrays; every loss, update step and guide reads only that.  The
value-based losses (trajectory balance, detailed balance, sub-trajectory
balance) are differentiable scalars built on one batched policy evaluation
per loss.  The policy-gradient path instead uses per-step rewards
R_F = log pi_F - log pi_B (with the R(x)/Z convention on the terminal hop)
and lambda-weighted advantages from one reverse scan over the whole batch;
the rewards read the numbers of the update's taped forward evaluation, so
gradients flow only through the surrogate's log-probability factors.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError


@dataclass
class StepBatch:
    """Flat per-step view of a trajectory batch, as row arrays.

    Steps are ordered trajectory by trajectory: `states` (N x width) holds
    the source row of every edge and `slots` its forward slot.  The
    interior-edge arrays (in_*) cover the same steps minus the terminal
    hops; `in_states` holds the row each interior edge enters, where the
    backward policy is evaluated.
    """

    n_traj: int
    states: np.ndarray
    slots: np.ndarray
    traj: np.ndarray
    terminal: np.ndarray
    in_states: np.ndarray
    in_bslots: np.ndarray
    in_traj: np.ndarray
    log_rewards: np.ndarray
    lengths: np.ndarray

    @property
    def n_steps(self):
        return len(self.states)

    @property
    def xs(self):
        """Endpoint row of every trajectory (n_traj x width)."""
        return self.states[self.terminal]


def step_batch(trajectories):
    """Concatenate trajectory records into one StepBatch."""
    n_traj = len(trajectories)
    lengths = np.fromiter((tr.length for tr in trajectories), dtype=np.intp, count=n_traj)
    states = np.concatenate([tr.states for tr in trajectories])
    ends = np.cumsum(lengths)
    terminal = np.zeros(len(states), dtype=bool)
    terminal[ends - 1] = True
    # Every row but a trajectory's first is the state its previous edge enters.
    entered = np.ones(len(states), dtype=bool)
    entered[ends - lengths] = False
    index = np.arange(n_traj)
    return StepBatch(
        n_traj=n_traj,
        states=states,
        slots=np.concatenate([tr.slots for tr in trajectories]),
        traj=np.repeat(index, lengths),
        terminal=terminal,
        in_states=states[entered],
        in_bslots=np.concatenate([tr.bslots for tr in trajectories]),
        in_traj=np.repeat(index, lengths - 1),
        log_rewards=np.fromiter((tr.log_reward for tr in trajectories), dtype=np.float64,
                                count=n_traj),
        lengths=lengths,
    )


def tb_loss(tape, sb, suite, weights=None):
    """Mean squared trajectory-balance residual
    (log Z + log P_F(tau) - log P_B(tau|x) - log R(x))^2.

    `weights` replaces the batch mean with a weighted sum (used for exact
    expectations over enumerated trajectories).
    """
    lpf = suite.forward.step_log_probs(tape, sb.states, sb.slots)
    sum_f = ad.segment_sum(tape, lpf, sb.traj, sb.n_traj)
    if len(sb.in_states):
        lpb = suite.backward.step_log_probs(tape, sb.in_states, sb.in_bslots)
        sum_b = ad.segment_sum(tape, lpb, sb.in_traj, sb.n_traj)
    else:
        sum_b = ad.Tensor(np.zeros(sb.n_traj))
    ratio = ad.sub(tape, ad.add(tape, sum_f, suite.log_z.value),
                   ad.add(tape, sum_b, ad.Tensor(sb.log_rewards)))
    sq = ad.square(tape, ratio)
    if weights is None:
        return ad.mean(tape, sq)
    return ad.sum(tape, ad.mul(tape, sq, ad.Tensor(np.asarray(weights, dtype=np.float64))))


def _flow_values(tape, suite, states):
    """log F(s) with graded terminal-layer states pinned to log R(x).

    The pin blocks gradients into the flow model at pinned rows."""
    env = suite.env
    out = suite.state_flow.values(tape, states)
    if not env.graded:
        return out
    pin = env.terminal_slots(states) >= 0
    if not pin.any():
        return out
    pinned = np.zeros(len(states))
    pinned[pin] = env.log_rewards(states[pin])
    keep = (~pin).astype(np.float64)
    return ad.add(tape, ad.mul(tape, out, ad.Tensor(keep)), ad.Tensor(pinned))


def db_loss(tape, sb, suite):
    """Detailed-balance residuals summed over each trajectory's edges.

    Interior edge s -> s':  log F(s) pi_F(s,a) - log F(s') pi_B(s',a).
    Terminal edge x -> sink: log F(x) pi_F(sink|x) - log R(x).
    """
    if suite.state_flow is None:
        raise ContractError("db_loss needs a state-flow estimator")
    lpf = suite.forward.step_log_probs(tape, sb.states, sb.slots)
    flow_src = _flow_values(tape, suite, sb.states)
    lhs = ad.add(tape, flow_src, lpf)

    interior = ~sb.terminal
    rhs_parts = np.zeros(sb.n_steps)
    if len(sb.in_states):
        lpb = suite.backward.step_log_probs(tape, sb.in_states, sb.in_bslots)
        flow_dst = _flow_values(tape, suite, sb.in_states)
        rhs_int = ad.add(tape, flow_dst, lpb)
        # Scatter interior rhs into step order; terminal steps get log R.
        scatter = np.flatnonzero(interior)
        rhs = ad.segment_sum(tape, rhs_int, scatter, sb.n_steps)
    else:
        rhs = ad.Tensor(np.zeros(sb.n_steps))
    rhs_parts[sb.terminal] = sb.log_rewards
    resid = ad.sub(tape, lhs, ad.add(tape, rhs, ad.Tensor(rhs_parts)))
    per_traj = ad.segment_sum(tape, ad.square(tape, resid), sb.traj, sb.n_traj)
    return ad.mean(tape, per_traj)


def subtb_weights(n_edges, base):
    """Normalized weights over sub-trajectory spans (i, j), 0 <= i < j <= n_edges,
    proportional to base ** (j - i)."""
    pairs = [(i, j) for i in range(n_edges) for j in range(i + 1, n_edges + 1)]
    w = np.asarray([float(base) ** (j - i) for i, j in pairs])
    return pairs, w / w.sum()


def subtb_loss(tape, sb, suite, weight_base=0.9):
    """Sub-trajectory balance over all layer spans of graded trajectories.

    Span (i, j) compares F(s_i) plus forward transport against F(s_j) plus
    backward transport; the terminal layer's flow is pinned to R(x).  Spans
    are weighted geometrically by length and normalized per trajectory.
    """
    env = suite.env
    if not env.graded:
        raise ContractError("sub-trajectory balance requires a graded environment")
    if suite.state_flow is None:
        raise ContractError("subtb_loss needs a state-flow estimator")
    d = int(sb.lengths[0]) - 1
    if np.any(sb.lengths != d + 1):
        raise ContractError("graded trajectories must share one length")

    interior = ~sb.terminal
    lpf_all = suite.forward.step_log_probs(tape, sb.states, sb.slots)
    lpf = ad.gather(tape, lpf_all, np.flatnonzero(interior))
    lpb = suite.backward.step_log_probs(tape, sb.in_states, sb.in_bslots)
    # Interior step r of trajectory b sits at flat position b * d + r.
    flow_states = sb.states  # s_0 .. s_{d} per trajectory (x included, sink not)
    flow = _flow_values(tape, suite, flow_states)

    pairs, w = subtb_weights(d, weight_base)
    n_pairs = len(pairs)
    # One trajectory's span steps, span buckets and span endpoints, offset
    # per trajectory b by b * d interior steps, b * n_pairs buckets and
    # b * (d + 1) states.
    steps = np.array([t for i, j in pairs for t in range(i, j)], dtype=np.intp)
    buckets = np.repeat(np.arange(n_pairs), [j - i for i, j in pairs])
    ends = np.array(pairs, dtype=np.intp).reshape(n_pairs, 2)
    b = np.arange(sb.n_traj)[:, None]
    rep_step = (b * d + steps).ravel()
    rep_bucket = (b * n_pairs + buckets).ravel()
    pos_i = (b * (d + 1) + ends[:, 0]).ravel()
    pos_j = (b * (d + 1) + ends[:, 1]).ravel()
    w_full = np.tile(w, sb.n_traj)

    n_buckets = sb.n_traj * n_pairs
    span_f = ad.segment_sum(tape, ad.gather(tape, lpf, rep_step), rep_bucket, n_buckets)
    span_b = ad.segment_sum(tape, ad.gather(tape, lpb, rep_step), rep_bucket, n_buckets)
    flow_i = ad.gather(tape, flow, pos_i)
    flow_j = ad.gather(tape, flow, pos_j)
    resid = ad.sub(tape, ad.add(tape, flow_i, span_f), ad.add(tape, flow_j, span_b))
    bucket_traj = np.arange(n_buckets, dtype=np.intp) // n_pairs
    per_traj = ad.segment_sum(
        tape, ad.mul(tape, ad.square(tape, resid), ad.Tensor(w_full)),
        bucket_traj, sb.n_traj)
    return ad.mean(tape, per_traj)


# ---------------------------------------------------------------------------
# Policy-gradient rewards and advantages
# ---------------------------------------------------------------------------

def forward_step_rewards(sb, suite, lpf):
    """R_F per step, aligned with the StepBatch; `lpf` is log pi_F per step.

    Interior: log pi_F(s,a) - log pi_B(s',a).  Terminal:
    log pi_F(sink|x) - log R(x) + log Z.  Values are plain numbers; the
    surrogate differentiates only its log-probability factors.
    """
    r = np.empty(sb.n_steps)
    if len(sb.in_states):
        lpb = suite.backward.log_probs_numpy(sb.in_states)
        r[~sb.terminal] = lpf[~sb.terminal] - lpb[np.arange(len(sb.in_states)), sb.in_bslots]
    r[sb.terminal] = lpf[sb.terminal] - sb.log_rewards + suite.log_z.item()
    return r


def gae_advantages(rewards, values, lengths, lam):
    """Lambda-weighted advantage estimates over a flat batch of trajectories.

    The batch holds lengths[b] steps of trajectory b after those of
    trajectories 0..b-1.  delta[t] = r[t] + V(s_{t+1}) - V(s_t), with the
    value after each trajectory's last step pinned to 0 (the sink for the
    forward chain, the root for the backward chain).  One reverse scan over
    a (trajectories x longest) padded array accumulates
    adv[t] = delta[t] + lam * adv[t+1] for every trajectory at once, and the
    lambda=1 sums alongside.  Returns (advantages, value targets adv + V,
    lambda=1 value targets).
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = np.cumsum(lengths)
    next_values = np.empty_like(values)
    next_values[:-1] = values[1:]
    next_values[ends[lengths > 0] - 1] = 0.0
    delta = rewards + next_values - values
    steps = np.arange(lengths.max(initial=0))
    valid = steps < lengths[:, None]
    padded = np.zeros(valid.shape)
    padded[valid] = delta
    adv = np.empty(valid.shape)
    adv_one = np.empty(valid.shape)
    acc = np.zeros(len(lengths))
    acc_one = np.zeros(len(lengths))
    for t in steps[::-1]:
        acc = padded[:, t] + lam * acc
        acc_one = padded[:, t] + acc_one
        adv[:, t] = acc
        adv_one[:, t] = acc_one
    adv = adv[valid]
    return adv, adv + values, adv_one[valid] + values
