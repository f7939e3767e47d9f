"""Hyper-grid environment: states {0..n-1}^d, moves increment one coordinate.

Every state can stop (hop to the sink), so trajectories have variable length
and the DAG is not graded.  The reward is a base constant plus two nested
band bonuses around the grid corners, producing well separated modes.
"""

import numpy as np

from ..errors import ConfigError
from .base import DagEnv


class HyperGrid(DagEnv):
    """d-dimensional grid of side n; a state row holds its d coordinates.

    Forward slots: 0..d-1 increment that coordinate, slot d stops.  The stop
    slot is always available.  Backward slots: 0..d-1 decrement.
    """

    def __init__(self, d, n, r0=0.01, r1=0.5, r2=2.0):
        self.d = int(d)
        self.n = int(n)
        if self.d < 1 or self.n < 2:
            raise ConfigError(f"need d >= 1 and n >= 2, got d={d}, n={n}")
        self.r0, self.r1, self.r2 = float(r0), float(r1), float(r2)
        self.width = self.d
        self.root = np.zeros(self.d, dtype=np.intp)
        self.graded = False
        self.n_action_slots = self.d + 1
        self.n_backward_slots = self.d
        self.encoding_dim = self.d * self.n
        self.max_trajectory_len = self.d * (self.n - 1) + 1
        self._stop = self.d
        self._radix = self.n ** np.arange(self.d)

    # -- structure -----------------------------------------------------------

    def action_masks(self, states):
        mask = np.ones((len(states), self.n_action_slots), dtype=bool)
        mask[:, :self.d] = states < self.n - 1
        return mask

    def children(self, states, slots):
        slots = np.array(slots, dtype=np.intp)
        rows = states.copy()
        rows[np.arange(len(rows)), slots] += 1
        return rows, slots

    def terminal_slots(self, states):
        return np.full(len(states), self._stop, dtype=np.intp)

    def parent_masks(self, states):
        return states > 0

    def parents(self, states, bslots):
        bslots = np.array(bslots, dtype=np.intp)
        rows = states.copy()
        rows[np.arange(len(rows)), bslots] -= 1
        return rows, bslots

    # -- reward --------------------------------------------------------------

    def log_rewards(self, states):
        return np.log(self.reward_rows(states))

    def reward_rows(self, coords):
        """Rewards of the states along the last axis of `coords`."""
        t = np.abs(coords / (self.n - 1) - 0.5)
        outer = np.all((t > 0.25) & (t <= 0.5), axis=-1)
        inner = np.all((t > 0.3) & (t <= 0.4), axis=-1)
        return self.r0 + self.r1 * outer.astype(np.float64) + self.r2 * inner.astype(np.float64)

    # -- features ------------------------------------------------------------

    def encode_batch(self, states):
        v = np.zeros((len(states), self.encoding_dim))
        v[np.arange(len(states))[:, None], states + np.arange(self.d) * self.n] = 1.0
        return v

    def index(self, states):
        return states @ self._radix

    # -- enumeration ---------------------------------------------------------

    def n_states(self):
        return self.n ** self.d

    def enumerate_states(self):
        """Layer k holds the cells with coordinate sum k, in lexicographic
        order."""
        coords = np.indices((self.n,) * self.d, dtype=np.intp).reshape(self.d, -1).T
        layer = coords.sum(axis=1)
        coords = coords[np.argsort(layer, kind="stable")]
        counts = np.bincount(layer, minlength=self.d * (self.n - 1) + 1)
        return np.split(coords, np.cumsum(counts)[:-1])
