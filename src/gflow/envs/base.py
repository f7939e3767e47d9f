"""DAG environment contract shared by every state space in the library.

States form a finite DAG with a single source (root) and a virtual sink
absorbing all complete objects.  Forward moves are indexed by action slots
0..n_action_slots-1 so a single policy head covers every state; invalid slots
are masked.  Backward moves get their own slot space (which parent produced
this state), sized independently of the forward one.

A trajectory is root -> ... -> x -> SINK; the final hop always uses the
state's terminal slot.  Rewards attach to terminal-capable states and are
strictly positive.

Masks and encodings are asked for in batches only (`action_masks`,
`parent_masks`, `encode_batch`), and the enumeration gets its edge arrays
from one batched query (`enumeration_edges`).  The per-state queries are
the transitions a sampler takes one state at a time: `child`, `parent`,
`backward_slot`, `forward_slot`, `terminal_slot` and the reward.
"""

import weakref

import numpy as np

from ..errors import EnumerationLimit

ENUMERATION_CAP = 2_000_000
MIN_REWARD = 1e-6


class _Sink:
    """Singleton sentinel for the absorbing sink state."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<sink>"


SINK = _Sink()


class DagEnv:
    """Abstract DAG environment.

    Subclasses set: root, graded, n_action_slots, n_backward_slots,
    encoding_dim, max_trajectory_len; and implement the queries below.
    All state objects must be hashable.
    """

    root = None
    graded = False
    n_action_slots = 0
    n_backward_slots = 0
    encoding_dim = 0
    max_trajectory_len = 0

    # -- forward structure ---------------------------------------------------

    def action_masks(self, states):
        """(len(states) x n_action_slots) boolean masks of the valid forward slots."""
        raise NotImplementedError

    def child(self, s, slot):
        """Successor reached from s via a valid slot (SINK for the terminal slot)."""
        raise NotImplementedError

    def terminal_slot(self, s):
        """Forward slot of the edge s -> SINK, or None if s cannot terminate."""
        raise NotImplementedError

    # -- backward structure --------------------------------------------------

    def parent_masks(self, states):
        """(len(states) x n_backward_slots) boolean masks of the valid backward
        slots (none at the root)."""
        raise NotImplementedError

    def parent(self, s, bslot):
        raise NotImplementedError

    def backward_slot(self, s, fslot):
        """Backward slot at child(s, fslot) identifying the edge from s."""
        raise NotImplementedError

    def forward_slot(self, s, bslot):
        """Forward slot at parent(s, bslot) whose edge leads to s."""
        raise NotImplementedError

    # -- rewards and features ------------------------------------------------

    def reward(self, x):
        raise NotImplementedError

    def log_reward(self, x):
        return float(np.log(self.reward(x)))

    def encode_batch(self, states):
        """(len(states) x encoding_dim) float encodings; distinct states
        encode distinctly."""
        raise NotImplementedError

    # -- enumeration ---------------------------------------------------------

    def n_states(self):
        """Total non-sink state count, computed without materializing states."""
        raise NotImplementedError

    def enumerate_states(self, cap=ENUMERATION_CAP):
        """All non-sink states grouped into topological layers (root first)."""
        raise NotImplementedError

    def check_cap(self, cap):
        n = self.n_states()
        if n > cap:
            raise EnumerationLimit(f"{n} states exceed enumeration cap {cap}")
        return n

    def enumeration_edges(self, states):
        """Flat edge arrays of the enumerated DAG.

        `states` lists every state in enumeration order.  Returns (src,
        slot, dst, bslot) of the interior edges as positions in `states`,
        sorted by source and then slot, plus per state its terminal slot
        (-1 where it cannot terminate) and its log reward (-inf there).
        """
        raise NotImplementedError

    def enumeration(self, cap=ENUMERATION_CAP):
        """Memoized Enumeration index over this environment.

        The memo is a weak reference: an enumeration lives while some caller
        holds it, and a dropped environment and its enumeration are freed by
        reference counting.
        """
        ref = getattr(self, "_enumeration", None)
        enum = ref() if ref is not None else None
        if enum is None:
            enum = Enumeration(self, cap)
            self._enumeration = weakref.ref(enum)
        return enum


def state_array(states, width):
    """States that are equal-length integer tuples, as a (len(states) x
    width) intp array."""
    return np.asarray(states, dtype=np.intp).reshape(len(states), width)


def radix_children(keys, interior, steps):
    """(src, slot, dst) of the interior edges of an enumeration whose states
    carry distinct nonnegative integer keys, where slot a adds steps[a] to
    the key.

    `keys` is in enumeration order and `interior` masks the non-terminal
    slots, which come first.  Edges are sorted by source and then slot, and
    a key -> position lookup table finds each child.
    """
    lut = np.empty(int(keys.max()) + 1, dtype=np.intp)
    lut[keys] = np.arange(len(keys))
    src, slot = np.nonzero(interior)
    return src, slot, lut[keys[src] + steps[slot]]


class Enumeration:
    """Flat index over an enumerable environment.

    Provides state <-> integer maps, per-layer index lists, flat edge arrays
    and cached encodings; the exact-evaluation routines and tabular policies
    all work in this index space.
    """

    def __init__(self, env, cap=ENUMERATION_CAP):
        self.env = env
        self.layers_states = env.enumerate_states(cap)
        self.states = [s for layer in self.layers_states for s in layer]
        self.n = len(self.states)
        self.index = {s: i for i, s in enumerate(self.states)}
        ends = np.cumsum([0] + [len(layer) for layer in self.layers_states]).tolist()
        self.layers = [list(range(lo, hi)) for lo, hi in zip(ends, ends[1:])]

        (self.edge_src, self.edge_slot, self.edge_dst, self.edge_bslot,
         self._terminal_slots, self.log_rewards) = env.enumeration_edges(self.states)
        # Edges come in ascending source order, so the edges leaving any
        # contiguous range of states (a layer) form one contiguous slice.
        self.terminal = self._terminal_slots >= 0
        self.root_index = self.index[env.root]
        self._encodings = None
        self._action_masks = None
        self._parent_masks = None
        self._dst_order = None

    def encodings(self):
        if self._encodings is None:
            self._encodings = self.env.encode_batch(self.states)
        return self._encodings

    def action_masks(self):
        if self._action_masks is None:
            self._action_masks = self.env.action_masks(self.states)
        return self._action_masks

    def parent_masks(self):
        """Backward-slot masks; the root's row is all False."""
        if self._parent_masks is None:
            rows = self.env.parent_masks(self.states)
            rows[self.root_index] = False
            self._parent_masks = rows
        return self._parent_masks

    def terminal_slots(self):
        """Per-state terminal slot, -1 where the state cannot terminate."""
        return self._terminal_slots

    def dst_order(self):
        """Edge indices in stable ascending order of edge_dst, sorted on
        first use."""
        if self._dst_order is None:
            self._dst_order = np.argsort(self.edge_dst, kind="stable")
        return self._dst_order

    def rewards(self):
        r = np.zeros(self.n)
        mask = self.terminal
        r[mask] = np.exp(self.log_rewards[mask])
        return r

    def partition(self):
        """Total reward mass Z* = sum of R over terminal-capable states."""
        return float(np.exp(self.log_rewards[self.terminal]).sum())

