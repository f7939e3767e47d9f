"""Guided backward kernels.

A guide assigns each interior edge (s -> s') a backward probability
pi_G(s', edge): the chance, under a guiding distribution over trajectories
conditioned on the endpoint x, that s' was reached from s.  Guides are
consumed by the guided backward rewards log pi_B - log pi_G and by the
guided balance loss; they carry no trainable parameters.

Markov guides (grid, table) reduce to a dense backward kernel over the
enumerated states.  The replay guide for sequences conditions on x, so its
kernels are built per endpoint from the replay buffer.
"""

import numpy as np

from . import autodiff as ad
from . import exact
from .envs import EMPTY
from .errors import ContractError


class _MarkovGuide:
    """Guide backed by one dense backward kernel log table."""

    def __init__(self, env):
        self.env = env
        self.enum = env.enumeration()
        self.log_table = None

    def backward_kernel(self):
        if self.log_table is None:
            raise ContractError("guide kernel not built; call refresh() first")
        return self.log_table

    def edge_log_probs(self, traj):
        table = self.backward_kernel()
        out = np.empty(traj.length - 1)
        for t in range(traj.length - 1):
            child = traj.states[t + 1]
            out[t] = table[self.enum.index[child], traj.bslots[t]]
        return out

    def log_conditional(self, traj):
        return float(self.edge_log_probs(traj).sum())


class TableGuide(_MarkovGuide):
    """Fixed backward kernel given directly as a log table; used for
    randomized bound checks where any proper kernel is a valid guide."""

    def __init__(self, env, log_table):
        super().__init__(env)
        self.log_table = np.asarray(log_table, dtype=np.float64)

    @classmethod
    def random(cls, env, rng, scale=1.0):
        enum = env.enumeration()
        masks = enum.parent_masks()
        logits = rng.normal(0.0, scale, size=masks.shape)
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
        self._pf_log = None
        self._low = None  # states at the reward floor, found on the first refresh

    def refresh(self, forward):
        """Rebuild P_f and the kernel from the current forward policy."""
        enum = self.enum
        env = self.env
        fwd_log = exact.forward_log_table(enum, forward)
        pf = np.exp(fwd_log)
        stop = env.terminal_slot(env.root)
        if self._low is None:
            self._low = np.asarray([env.reward(s) <= env.r0 for s in enum.states])
        low = self._low
        non_stop = pf[:, :stop].sum(axis=1)
        denom = non_stop + self.eps
        adj = pf.copy()
        adj[low, :stop] = pf[low, :stop] / denom[low, None]
        adj[low, stop] = self.eps / denom[low]
        with np.errstate(divide="ignore"):
            self._pf_log = np.log(adj)
        reach = exact.visit_probabilities(enum, self._pf_log)
        table = np.full((enum.n, env.n_backward_slots), -np.inf)
        e = enum
        vals = reach[e.edge_src] * adj[e.edge_src, e.edge_slot] / reach[e.edge_dst]
        with np.errstate(divide="ignore"):
            table[e.edge_dst, e.edge_bslot] = np.log(vals)
        self.log_table = table

    def stop_probability(self, s):
        """P_f's stop probability at s (for inspection)."""
        if self._pf_log is None:
            raise ContractError("guide kernel not built; call refresh() first")
        return float(np.exp(self._pf_log[self.enum.index[s], self.env.terminal_slot(s)]))


class SequenceGuide:
    """Replay-derived guide for the sequence environment.

    The score of a partial sequence s compatible with x is the mean reward
    of replay entries extending s (a small floor when none do); the guiding
    forward law normalizes scores over children, and the backward kernel of
    its conditional given x is built by a subset-lattice sweep per x.
    """

    def __init__(self, env, buffer, floor=1e-8):
        self.env = env
        self.buffer = buffer
        self.floor = float(floor)
        self._cache = {}

    def refresh(self, forward=None):
        """Invalidate per-x kernels after the replay buffer changed."""
        self._cache = {}

    def _scores(self, x):
        """Scores over filled-position subsets of x, by superset sums."""
        d = self.env.d
        size = 1 << d
        count = np.zeros(size)
        total = np.zeros(size)
        for xp, r in self.buffer:
            m = 0
            for i in range(d):
                if xp[i] == x[i]:
                    m |= 1 << i
            count[m] += 1.0
            total[m] += r
        for b in range(d):
            bit = 1 << b
            idx = np.flatnonzero((np.arange(size) & bit) == 0)
            count[idx] += count[idx | bit]
            total[idx] += total[idx | bit]
        scores = np.full(size, self.floor)
        has = count > 0
        scores[has] = total[has] / count[has]
        return scores

    def _tables(self, x):
        cached = self._cache.get(x)
        if cached is not None:
            return cached
        d = self.env.d
        size = 1 << d
        scores = self._scores(x)
        # cond[u, j]: probability of filling position j next from subset u.
        reach = np.zeros(size)
        reach[0] = 1.0
        cond = np.zeros((size, d))
        order = sorted(range(size), key=lambda m: bin(m).count("1"))
        for u in order:
            free = [j for j in range(d) if not u & (1 << j)]
            if free:
                child_scores = np.asarray([scores[u | (1 << j)] for j in free])
                probs = child_scores / child_scores.sum()
                for j, p in zip(free, probs):
                    cond[u, j] = p
                    reach[u | (1 << j)] += reach[u] * p
        self._cache[x] = (reach, cond)
        return reach, cond

    def edge_log_probs(self, traj):
        x = traj.x
        reach, cond = self._tables(x)
        out = np.empty(traj.length - 1)
        for t in range(traj.length - 1):
            child = traj.states[t + 1]
            j = traj.bslots[t]
            u = 0
            for i in range(self.env.d):
                if child[i] != EMPTY:
                    if child[i] != x[i]:
                        raise ContractError("guided edge leaves the lattice under x")
                    u |= 1 << i
            prev = u & ~(1 << j)
            out[t] = np.log(reach[prev] * cond[prev, j] / reach[u])
        return out

    def log_conditional(self, traj):
        return float(self.edge_log_probs(traj).sum())

    def backward_kernel_given_x(self, x):
        """Dense (state-index -> backward slot) log kernel for one endpoint;
        rows off the lattice under x stay -inf.  For exact per-x sweeps."""
        enum = self.env.enumeration()
        reach, cond = self._tables(x)
        table = np.full((enum.n, self.env.n_backward_slots), -np.inf)
        for idx, s in enumerate(enum.states):
            u = 0
            ok = True
            for i in range(self.env.d):
                if s[i] != EMPTY:
                    if s[i] != x[i]:
                        ok = False
                        break
                    u |= 1 << i
            if not ok or u == 0:
                continue
            for j in range(self.env.d):
                if u & (1 << j):
                    prev = u & ~(1 << j)
                    with np.errstate(divide="ignore"):
                        table[idx, j] = np.log(reach[prev] * cond[prev, j] / reach[u])
        return table
