"""Guided backward kernels.

A guide assigns each interior edge (s -> s') a backward probability
pi_G(s', edge): the chance, under a guiding distribution over trajectories
conditioned on the endpoint x, that s' was reached from s.  Guides are
consumed by the guided backward rewards log pi_B - log pi_G; they carry
no trainable parameters.

Every guide reads a batch as the StepBatch that objectives.step_batch
builds: `refresh(forward, sb)` updates the guide after a training batch,
and `edge_log_probs(sb)` returns the log-probabilities of the batch's
interior edges in StepBatch order (from `in_states` and `in_bslots`).

Markov guides (grid, table) reduce to a dense backward kernel over the
enumerated states, so a batch is one fancy-index into it.  The replay guide
for sequences (the guided-trajectory-balance guide of Shen et al., arXiv
2305.07170) conditions on x: for all distinct endpoints of a batch it
scores the subsets of filled positions from a snapshot of the replay
buffer and sweeps the subset lattice one popcount layer at a time.
"""

import numpy as np

from . import autodiff as ad
from . import exact
from .envs import EMPTY
from .errors import ContractError

# Score of a partial sequence that no replay entry extends.
SCORE_FLOOR = 1e-8


class _Guide:
    """Shared batch contract; subclasses supply edge_log_probs."""

    def refresh(self, forward, sb):
        """Bring the guide up to date after the training batch `sb` was
        sampled by `forward`; a fixed guide has nothing to update."""


class _MarkovGuide(_Guide):
    """Guide backed by one dense backward kernel log table."""

    def __init__(self, env):
        self.env = env
        self.enum = env.enumeration()
        self.log_table = None

    def backward_kernel(self):
        if self.log_table is None:
            raise ContractError("guide kernel not built; call refresh() first")
        return self.log_table

    def edge_log_probs(self, sb):
        return self.backward_kernel()[self.enum.positions(sb.in_states), sb.in_bslots]


class TableGuide(_MarkovGuide):
    """Fixed backward kernel given directly as a log table; used for
    randomized bound checks where any proper kernel is a valid guide."""

    def __init__(self, env, log_table):
        super().__init__(env)
        self.log_table = np.asarray(log_table, dtype=np.float64)

    @classmethod
    def random(cls, env, rng):
        """Guide whose kernel rows softmax standard normal logits over the
        parent slots."""
        enum = env.enumeration()
        masks = enum.parent_masks()
        logits = rng.normal(0.0, 1.0, size=masks.shape)
        table = np.full(masks.shape, -np.inf)
        rows = np.flatnonzero(masks.any(axis=1))
        table[rows] = ad.log_softmax_masked(None, logits[rows], masks[rows]).data
        return cls(env, table)


class HyperGridGuide(_MarkovGuide):
    """Backward kernel of the reward-floor exploration law on the grid.

    The guiding forward law P_f copies the current policy except at states
    whose reward does not exceed the base constant: there the stop
    probability collapses to eps / (sum of non-stop mass + eps) and the
    non-stop entries are renormalized by the same denominator.  The guide
    conditional P_G(tau|x) is P_f restricted to trajectories ending at x,
    whose backward kernel is reach(s) P_f(s'|s) / reach(s').
    """

    def __init__(self, env, eps=1e-5):
        super().__init__(env)
        self.eps = float(eps)
        self._low = None  # states at the reward floor, found on the first refresh

    def refresh(self, forward, sb):
        """Rebuild P_f and the kernel from the current forward policy; the
        batch is not used."""
        enum = self.enum
        src, dst = enum.edge_src, enum.edge_dst
        if self._low is None:
            self._low = self.env.reward_rows(enum.states) <= self.env.r0
        # The interior edges are exactly the admitted non-stop slots, so
        # their per-source sum is each state's non-stop mass.  Evaluated
        # densely: the pinned grid RL-G outputs depend on the last bits.
        fwd_log = forward.log_probs_numpy(enum.states, enum.action_masks())
        edge_p = np.exp(fwd_log[src, enum.edge_slot])
        denom = np.bincount(src, edge_p, minlength=enum.n) + self.eps
        edge_p /= np.where(self._low, denom, 1.0)[src]
        # The log/exp round trip rounds the probabilities the reach sweep
        # reads; the pinned grid RL-G outputs were computed with it.
        with np.errstate(divide="ignore"):
            reach = exact.visit_probabilities(enum, np.exp(np.log(edge_p)))
        table = np.full((enum.n, self.env.n_backward_slots), -np.inf)
        with np.errstate(divide="ignore"):
            table[dst, enum.edge_bslot] = np.log(reach[src] * edge_p / reach[dst])
        self.log_table = table


class SequenceGuide(_Guide):
    """Replay-derived guide for the sequence environment.

    The score of a partial sequence s compatible with x is the mean reward
    of replay entries extending s (SCORE_FLOOR when none do); the guiding
    forward law normalizes scores over children, and the backward kernel of
    its conditional given x comes from a subset-lattice sweep per x.

    The first query after construction or refresh() snapshots the replay
    buffer; later queries read that snapshot until the next refresh(), which
    also feeds the buffer.
    """

    def __init__(self, env, buffer):
        self.env = env
        self.buffer = buffer
        self._replay = None

    def refresh(self, forward, sb):
        """Append the batch's endpoints and rewards to the replay buffer, in
        batch order, and drop the replay snapshot; the policy is not used."""
        self.buffer.update(sb.xs, np.exp(sb.log_rewards))
        self._replay = None

    def _scores(self, xs):
        """Scores (X x 2^d) over the filled-position subsets of each endpoint
        row of xs (X x d).

        Per endpoint, the replay counts and reward totals are binned by the
        bit mask of positions where an entry agrees with x (entries added in
        buffer order), then summed over supersets one bit at a time.
        """
        if self._replay is None:
            self._replay = (self.buffer.state_rows().reshape(-1, self.env.d),
                            self.buffer.rewards())
        rows, rewards = self._replay
        size = 1 << self.env.d
        n_x = len(xs)
        # key[k, e]: the bit mask of positions where entry e agrees with
        # endpoint k, offset into endpoint k's block of bins.
        key = np.repeat(size * np.arange(n_x)[:, None], len(rows), axis=1)
        for i in range(self.env.d):
            key |= (xs[:, i, None] == rows[None, :, i]) << i
        key = key.ravel()
        count = np.bincount(key, minlength=n_x * size).reshape(n_x, size).astype(float)
        total = np.bincount(key, weights=np.tile(rewards, n_x),
                            minlength=n_x * size).reshape(n_x, size)
        subsets = np.arange(size)
        for bit in 1 << np.arange(self.env.d):
            idx = np.flatnonzero((subsets & bit) == 0)
            count[:, idx] += count[:, idx | bit]
            total[:, idx] += total[:, idx | bit]
        scores = np.full((n_x, size), SCORE_FLOOR)
        has = count > 0
        scores[has] = total[has] / count[has]
        return scores

    def _tables(self, xs):
        """reach (X x 2^d), the probability that the guiding walk toward x
        passes through subset u, and cond (X x 2^d x d), the probability of
        filling position j next from u.

        One popcount layer at a time: each normaliser sums a subset's child
        scores over its free positions in ascending order, as np.sum does
        on the 1-D array of them, and each subset of the next layer receives
        its reach[u] * cond[u, j] terms in ascending u (descending j) order.
        """
        d = self.env.d
        size = 1 << d
        scores = self._scores(xs)
        n_x = len(xs)
        members = (np.arange(size)[:, None] >> np.arange(d)) & 1
        popcount = members.sum(axis=1)
        reach = np.zeros((n_x, size))
        reach[:, 0] = 1.0
        cond = np.zeros((n_x, size, d))
        for p in range(d):
            us = np.flatnonzero(popcount == p)
            free = np.nonzero(members[us] == 0)[1].reshape(len(us), d - p)
            # C order, so each row sum is numpy's pairwise sum of a 1-D array.
            child = np.ascontiguousarray(scores[:, us[:, None] | (1 << free)])
            cond[:, us[:, None], free] = child / child.sum(axis=2, keepdims=True)
            for j in range(d - 1, -1, -1):
                src = us[members[us, j] == 0]
                reach[:, src | (1 << j)] += reach[:, src] * cond[:, src, j]
        return reach, cond

    def _lattice(self, rows, x_rows):
        """Filled-position bit masks of state rows, and whether each row lies
        on the lattice under its endpoint row (agrees wherever filled)."""
        filled = rows != EMPTY
        on = ~(filled & (rows != x_rows)).any(axis=1)
        return (filled * (1 << np.arange(self.env.d))).sum(axis=1), on

    def edge_log_probs(self, sb):
        # Each endpoint's tables depend on that endpoint alone, so the
        # distinct endpoints can come in any order.
        ends = sb.xs
        _, first, which = np.unique(self.env.index(ends), return_index=True,
                                    return_inverse=True)
        xs = ends[first]
        edge_x = which[sb.in_traj]
        j = sb.in_bslots
        u, on = self._lattice(sb.in_states, xs[edge_x])
        if not on.all():
            raise ContractError("guided edge leaves the lattice under x")
        reach, cond = self._tables(xs)
        prev = u & ~(1 << j)
        return np.log(reach[edge_x, prev] * cond[edge_x, prev, j] / reach[edge_x, u])
