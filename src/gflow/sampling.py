"""Trajectory sampling over DAG environments.

Forward rollouts run all trajectories in lockstep so each step is one batched
policy evaluation; backward walks do the same from given endpoints.
Sampling is deterministic given the Generator: action order is fixed by slot
index and draws use inverse-CDF per row.

Trajectories carry the path and its reward only.  Objectives evaluate the
policies' log-probabilities along a batch themselves, through a tape when
they need gradients.
"""

from dataclasses import dataclass

import numpy as np

from .envs import SINK
from .errors import ContractError


@dataclass
class Trajectory:
    """A complete root-to-sink path.

    states has length T+1 (root ... x, SINK) and slots has length T (the
    forward slot of each edge).  bslots has length T-1: the backward slot of
    each interior edge.
    """

    states: list
    slots: list
    bslots: list
    log_reward: float

    @property
    def x(self):
        return self.states[-2]

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
    states = [[env.root] for _ in range(n)]
    slots = [[] for _ in range(n)]
    bslots = [[] for _ in range(n)]
    log_r = [0.0] * n
    active = list(range(n))
    steps = 0
    while active:
        steps += 1
        if steps > env.max_trajectory_len + 1:
            raise ContractError("rollout exceeded the environment's trajectory bound")
        cur = [states[i][-1] for i in active]
        masks = forward.masks(cur)
        probs = forward.probs_numpy(cur, masks)
        if eps > 0.0:
            uniform = masks / masks.sum(axis=-1, keepdims=True)
            probs = (1.0 - eps) * probs + eps * uniform
        chosen = sample_rows(probs, rng.random(len(active)))

        still = []
        for i, s, a in zip(active, cur, chosen.tolist()):
            c = env.child(s, a)
            slots[i].append(a)
            states[i].append(c)
            if c is SINK:
                log_r[i] = env.log_reward(s)
            else:
                bslots[i].append(env.backward_slot(s, a))
                still.append(i)
        active = still

    return [Trajectory(states[i], slots[i], bslots[i], log_r[i]) for i in range(n)]


def sample_backward(env, backward, xs, rng):
    """Sample one trajectory per terminating state in xs by walking parents
    backward to the root, in lockstep."""
    m = len(xs)
    chains = [[x] for x in xs]
    picks = [[] for _ in range(m)]
    active = [i for i in range(m) if xs[i] != env.root]
    steps = 0
    while active:
        steps += 1
        if steps > env.max_trajectory_len:
            raise ContractError("backward walk exceeded the environment's trajectory bound")
        cur = [chains[i][-1] for i in active]
        chosen = sample_rows(backward.probs_numpy(cur), rng.random(len(active)))
        still = []
        for i, s, b in zip(active, cur, chosen.tolist()):
            picks[i].append(b)
            p = env.parent(s, b)
            chains[i].append(p)
            if p != env.root:
                still.append(i)
        active = still

    out = []
    for x, chain, picked in zip(xs, chains, picks):
        fwd_states, bslots = chain[::-1], picked[::-1]
        fslots = [env.forward_slot(s, b) for s, b in zip(fwd_states[1:], bslots)]
        fslots.append(env.terminal_slot(x))
        out.append(Trajectory(fwd_states + [SINK], fslots, bslots, env.log_reward(x)))
    return out


class ReplayBuffer:
    """FIFO store of (terminating state, reward) pairs with fixed capacity.

    Entries are held oldest first as an (N x d) integer state array and a
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

    def add(self, x, reward):
        self.update([(x, reward)])

    def update(self, trajectories_or_pairs):
        """Append trajectory endpoints (reward exp(log_reward)) or (x, reward)
        pairs, dropping the oldest entries beyond capacity."""
        xs, rs = [], []
        for item in trajectories_or_pairs:
            if isinstance(item, Trajectory):
                xs.append(item.x)
                rs.append(float(np.exp(item.log_reward)))
            else:
                xs.append(item[0])
                rs.append(float(item[1]))
        if not xs:
            return
        rows = np.asarray(xs, dtype=np.intp)
        if len(self):
            rows = np.concatenate([self._rows, rows])
        rewards = np.concatenate([self._rewards, rs])
        drop = max(len(rewards) - self.capacity, 0)
        self._rows, self._rewards = rows[drop:], rewards[drop:]
        self._rows.flags.writeable = self._rewards.flags.writeable = False

    def state_rows(self):
        """The buffered states as an (N x d) intp array, oldest first."""
        return self._rows

    def states(self):
        return [tuple(int(c) for c in row) for row in self._rows]

    def rewards(self):
        """The buffered rewards, oldest first."""
        return self._rewards
