"""Hyper-grid environment: states {0..n-1}^d, moves increment one coordinate.

Every state can stop (hop to the sink), so trajectories have variable length
and the DAG is not graded.  The reward is a base constant plus two nested
band bonuses around the grid corners, producing well separated modes.
"""

from itertools import product

import numpy as np

from ..errors import ConfigError
from .base import ENUMERATION_CAP, DagEnv, SINK, radix_children, state_array


class HyperGrid(DagEnv):
    """d-dimensional grid of side n.

    Forward slots: 0..d-1 increment that coordinate, slot d stops.  The stop
    slot is always available.  Backward slots: 0..d-1 decrement.
    """

    def __init__(self, d, n, r0=0.01, r1=0.5, r2=2.0):
        self.d = int(d)
        self.n = int(n)
        if self.d < 1 or self.n < 2:
            raise ConfigError(f"need d >= 1 and n >= 2, got d={d}, n={n}")
        self.r0, self.r1, self.r2 = float(r0), float(r1), float(r2)
        self.root = (0,) * self.d
        self.graded = False
        self.n_action_slots = self.d + 1
        self.n_backward_slots = self.d
        self.encoding_dim = self.d * self.n
        self.max_trajectory_len = self.d * (self.n - 1) + 1
        self._stop = self.d

    # -- structure -----------------------------------------------------------

    def action_masks(self, states):
        mask = np.ones((len(states), self.n_action_slots), dtype=bool)
        mask[:, :self.d] = state_array(states, self.d) < self.n - 1
        return mask

    def child(self, s, slot):
        if slot == self._stop:
            return SINK
        return s[:slot] + (s[slot] + 1,) + s[slot + 1:]

    def terminal_slot(self, s):
        return self._stop

    def parent_masks(self, states):
        return state_array(states, self.d) > 0

    def parent(self, s, bslot):
        return s[:bslot] + (s[bslot] - 1,) + s[bslot + 1:]

    def backward_slot(self, s, fslot):
        return fslot

    def forward_slot(self, s, bslot):
        return bslot

    # -- reward --------------------------------------------------------------

    def reward(self, x):
        return float(self.reward_rows(np.asarray(x, dtype=np.float64)))

    def reward_rows(self, coords):
        """Rewards of the states along the last axis of `coords`."""
        t = np.abs(coords / (self.n - 1) - 0.5)
        outer = np.all((t > 0.25) & (t <= 0.5), axis=-1)
        inner = np.all((t > 0.3) & (t <= 0.4), axis=-1)
        return self.r0 + self.r1 * outer.astype(np.float64) + self.r2 * inner.astype(np.float64)

    # -- features ------------------------------------------------------------

    def encode_batch(self, states):
        coords = state_array(states, self.d)
        v = np.zeros((len(coords), self.encoding_dim))
        v[np.arange(len(coords))[:, None], coords + np.arange(self.d) * self.n] = 1.0
        return v

    # -- enumeration ---------------------------------------------------------

    def n_states(self):
        return self.n ** self.d

    def enumeration_edges(self, states):
        coords = state_array(states, self.d)
        radix = self.n ** np.arange(self.d)
        src, slot, dst = radix_children(coords @ radix, self.action_masks(coords)[:, :self.d],
                                        radix)
        tslots = np.full(len(coords), self._stop, dtype=np.intp)
        return src, slot, dst, slot.copy(), tslots, np.log(self.reward_rows(coords))

    def enumerate_states(self, cap=ENUMERATION_CAP):
        self.check_cap(cap)
        layers = [[] for _ in range(self.d * (self.n - 1) + 1)]
        for coords in product(range(self.n), repeat=self.d):
            layers[sum(coords)].append(coords)
        return layers
