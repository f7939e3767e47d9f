"""Trajectory sampling over DAG environments.

Forward rollouts run all trajectories in lockstep: each step is one batched
policy evaluation and one batched env transition over the (active x width)
state rows still running.  Backward walks do the same from given endpoint
rows.  Sampling is deterministic given the Generator: action order is fixed
by slot index, draws use inverse-CDF per row, and each step draws one
uniform per active trajectory in trajectory order.

Trajectories carry the path as row arrays and its reward only; training
reads them through objectives.step_batch.  Non-finite policy probabilities
raise NumericFault naming the policy instead of being drawn from.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericFault


@dataclass
class Trajectory:
    """A complete root-to-sink path as row arrays.

    states (T x width) holds the source state of each edge, the root first
    and the endpoint x last; slots (T,) holds the forward slot of each edge,
    the last one x's terminal slot.  bslots (T-1,) holds the backward slot
    of each interior edge at the state it enters.
    """

    states: np.ndarray
    slots: np.ndarray
    bslots: np.ndarray
    log_reward: float

    @property
    def x(self):
        return self.states[-1]

    @property
    def length(self):
        return len(self.slots)


@dataclass
class MixtureSchedule:
    """Exploration weight eps_iter = gamma ** iteration (starts at 1.0)."""

    gamma: float = 0.99

    def eps(self, iteration):
        return float(self.gamma) ** int(iteration)


def sample_rows(probs, u):
    """Inverse-CDF categorical draw per row; u in [0, 1) per row."""
    cum = np.cumsum(probs, axis=1)
    r = u * cum[:, -1]
    return (r[:, None] >= cum).sum(axis=1)


def sample_forward(env, forward, n, rng, eps=0.0):
    """Sample n trajectories from the forward policy, optionally mixed with a
    uniform-over-valid-actions distribution with weight eps."""
    n = int(n)
    t_max = env.max_trajectory_len + 1
    states = np.empty((n, t_max, env.width), dtype=np.intp)
    slots = np.empty((n, t_max), dtype=np.intp)
    bslots = np.empty((n, t_max), dtype=np.intp)
    lengths = np.empty(n, dtype=np.intp)
    active = np.arange(n)
    cur = np.repeat(env.root[None], n, axis=0)
    for t in range(t_max + 1):
        if not len(active):
            break
        if t == t_max:
            raise ContractError("rollout exceeded the environment's trajectory bound")
        masks = forward.masks(cur)
        probs = forward.probs_numpy(cur, masks)
        if not np.isfinite(probs).all():
            raise NumericFault("forward policy probabilities are non-finite")
        if eps > 0.0:
            uniform = masks / masks.sum(axis=-1, keepdims=True)
            probs = (1.0 - eps) * probs + eps * uniform
        chosen = sample_rows(probs, rng.random(len(active)))
        states[active, t] = cur
        slots[active, t] = chosen
        stop = chosen == env.terminal_slots(cur)
        lengths[active[stop]] = t + 1
        go = ~stop
        active = active[go]
        cur, bslots[active, t] = env.children(cur[go], chosen[go])

    log_r = env.log_rewards(states[np.arange(n), lengths - 1])
    return [Trajectory(states[i, :k], slots[i, :k], bslots[i, :k - 1], float(log_r[i]))
            for i, k in enumerate(lengths.tolist())]


def sample_backward(env, backward, xs, rng):
    """Sample one trajectory per terminating state row in xs (M x width) by
    walking parents backward to the root, in lockstep."""
    m = len(xs)
    t_max = env.max_trajectory_len
    # Walk step t fills column t_max - 1 - t, so each row's path ends in its
    # last columns in forward order: root first, x and its terminal slot last.
    chain = np.empty((m, t_max + 1, env.width), dtype=np.intp)
    fslots = np.empty((m, t_max + 1), dtype=np.intp)
    picks = np.empty((m, t_max), dtype=np.intp)
    depth = np.zeros(m, dtype=np.intp)
    chain[:, t_max] = xs
    fslots[:, t_max] = env.terminal_slots(xs)
    active = np.flatnonzero((xs != env.root).any(axis=1))
    cur = xs[active]
    for t in range(t_max + 1):
        if not len(active):
            break
        if t == t_max:
            raise ContractError("backward walk exceeded the environment's trajectory bound")
        probs = backward.probs_numpy(cur)
        if not np.isfinite(probs).all():
            raise NumericFault("backward policy probabilities are non-finite")
        chosen = sample_rows(probs, rng.random(len(active)))
        col = t_max - 1 - t
        picks[active, col] = chosen
        cur, fslots[active, col] = env.parents(cur, chosen)
        chain[active, col] = cur
        depth[active] = t + 1
        keep = (cur != env.root).any(axis=1)
        active, cur = active[keep], cur[keep]

    log_r = env.log_rewards(xs)
    return [Trajectory(chain[i, t_max - k:], fslots[i, t_max - k:], picks[i, t_max - k:],
                       float(log_r[i]))
            for i, k in enumerate(depth.tolist())]


class ReplayBuffer:
    """FIFO store of (terminating state, reward) pairs with fixed capacity.

    Entries are held oldest first as an (N x width) state-row array and a
    reward array.  An update replaces both arrays instead of writing into
    them, and they are read-only, so an array once returned stays a valid
    snapshot.
    """

    def __init__(self, capacity):
        self.capacity = int(capacity)
        self._rows = np.zeros((0, 0), dtype=np.intp)
        self._rewards = np.zeros(0)

    def __len__(self):
        return len(self._rewards)

    def update(self, rows, rewards):
        """Append endpoint rows (N x width) with their rewards, dropping the
        oldest entries beyond capacity."""
        rows = np.asarray(rows, dtype=np.intp)
        if not len(rows):
            return
        if len(self):
            rows = np.concatenate([self._rows, rows])
        rewards = np.concatenate([self._rewards, rewards])
        drop = max(len(rewards) - self.capacity, 0)
        self._rows, self._rewards = rows[drop:], rewards[drop:]
        self._rows.flags.writeable = self._rewards.flags.writeable = False

    def state_rows(self):
        """The buffered states as an (N x width) intp array, oldest first."""
        return self._rows

    def rewards(self):
        """The buffered rewards, oldest first."""
        return self._rewards
