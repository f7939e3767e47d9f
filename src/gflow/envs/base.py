"""DAG environment contract shared by every state space in the library.

States form a finite DAG with a single source (root) and a virtual sink
absorbing all complete objects.  Forward moves are indexed by action slots
0..n_action_slots-1 so a single policy head covers every state; invalid slots
are masked.  Backward moves get their own slot space (which parent produced
this state), sized independently of the forward one.

A trajectory is root -> ... -> x -> SINK; the final hop always uses the
state's terminal slot.  Rewards attach to terminal-capable states and are
strictly positive.
"""

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
    encoding_dim, max_trajectory_len; and implement the per-state queries
    below.  All state objects must be hashable.
    """

    root = None
    graded = False
    n_action_slots = 0
    n_backward_slots = 0
    encoding_dim = 0
    max_trajectory_len = 0

    # -- forward structure ---------------------------------------------------

    def action_mask(self, s):
        """Boolean vector over forward slots valid at s."""
        raise NotImplementedError

    def child(self, s, slot):
        """Successor reached from s via a valid slot (SINK for the terminal slot)."""
        raise NotImplementedError

    def terminal_slot(self, s):
        """Forward slot of the edge s -> SINK, or None if s cannot terminate."""
        raise NotImplementedError

    def children(self, s):
        mask = self.action_mask(s)
        return [(slot, self.child(s, slot)) for slot in np.flatnonzero(mask)]

    # -- backward structure --------------------------------------------------

    def parent_mask(self, s):
        """Boolean vector over backward slots valid at s (s != root, s != SINK)."""
        raise NotImplementedError

    def parent(self, s, bslot):
        raise NotImplementedError

    def backward_slot(self, s, fslot):
        """Backward slot at child(s, fslot) identifying the edge from s."""
        raise NotImplementedError

    def forward_slot(self, s, bslot):
        """Forward slot at parent(s, bslot) whose edge leads to s."""
        raise NotImplementedError

    def parents(self, s):
        """List of (backward_slot, parent) pairs.

        For SINK the backward slot space does not apply; the result is
        (terminal_slot_at_parent, x) over every terminal-capable state,
        which requires enumeration.
        """
        if s is SINK:
            out = []
            for layer in self.enumerate_states():
                for x in layer:
                    t = self.terminal_slot(x)
                    if t is not None:
                        out.append((t, x))
            return out
        return [(b, self.parent(s, b)) for b in np.flatnonzero(self.parent_mask(s))]

    def n_parents(self, s):
        return int(self.parent_mask(s).sum())

    # -- rewards and features ------------------------------------------------

    def reward(self, x):
        raise NotImplementedError

    def log_reward(self, x):
        return float(np.log(self.reward(x)))

    def encode(self, s):
        """Float feature vector for s; distinct states encode distinctly."""
        raise NotImplementedError

    def encode_batch(self, states):
        return np.stack([self.encode(s) for s in states])

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

    def enumeration(self, cap=ENUMERATION_CAP):
        """Memoized Enumeration index over this environment."""
        cached = getattr(self, "_enumeration", None)
        if cached is None:
            cached = Enumeration(self, cap)
            self._enumeration = cached
        return cached


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
        self.layers = []
        start = 0
        for layer in self.layers_states:
            self.layers.append(list(range(start, start + len(layer))))
            start += len(layer)

        src, slot, dst, bslot = [], [], [], []
        terminal = np.zeros(self.n, dtype=bool)
        log_r = np.full(self.n, -np.inf)
        for i, s in enumerate(self.states):
            for a, c in env.children(s):
                if c is SINK:
                    terminal[i] = True
                    log_r[i] = env.log_reward(s)
                else:
                    src.append(i)
                    slot.append(int(a))
                    dst.append(self.index[c])
                    bslot.append(int(env.backward_slot(s, a)))
        # Edges are emitted in ascending source order, so the edges leaving
        # any contiguous range of states (a layer) form one contiguous slice.
        self.edge_src = np.asarray(src, dtype=np.intp)
        self.edge_slot = np.asarray(slot, dtype=np.intp)
        self.edge_dst = np.asarray(dst, dtype=np.intp)
        self.edge_bslot = np.asarray(bslot, dtype=np.intp)
        self.terminal = terminal
        self.log_rewards = log_r
        self.root_index = self.index[env.root]
        self._encodings = None
        self._action_masks = None
        self._parent_masks = None
        self._terminal_slots = None
        self._dst_order = None

    def encodings(self):
        if self._encodings is None:
            self._encodings = self.env.encode_batch(self.states)
        return self._encodings

    def action_masks(self):
        if self._action_masks is None:
            self._action_masks = np.stack([self.env.action_mask(s) for s in self.states])
        return self._action_masks

    def parent_masks(self):
        """Backward-slot masks; the root's row is all False."""
        if self._parent_masks is None:
            rows = np.zeros((self.n, self.env.n_backward_slots), dtype=bool)
            for i, s in enumerate(self.states):
                if i != self.root_index:
                    rows[i] = self.env.parent_mask(s)
            self._parent_masks = rows
        return self._parent_masks

    def terminal_slots(self):
        if self._terminal_slots is None:
            out = np.full(self.n, -1, dtype=np.intp)
            for i, s in enumerate(self.states):
                t = self.env.terminal_slot(s)
                if t is not None:
                    out[i] = t
            self._terminal_slots = out
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


def validate_trajectory(env, states, slots):
    """Check that a (states, slots) pair is a root-to-sink path in the DAG."""
    if not states or states[0] != env.root or states[-1] is not SINK:
        return False
    if len(slots) != len(states) - 1:
        return False
    for s, a, nxt in zip(states[:-1], slots, states[1:]):
        mask = env.action_mask(s)
        if a < 0 or a >= mask.size or not mask[a]:
            return False
        c = env.child(s, a)
        if c is not nxt and c != nxt:
            return False
    return True
