"""DAG environment contract shared by every state space in the library.

States form a finite DAG with a single source (root) and a virtual sink
absorbing all complete objects.  A state is a row of `width` integers, and
every query takes a batch of states as an (M x width) intp array, one row
per state; the sink has no row.  Forward moves are indexed by action slots
0..n_action_slots-1 so a single policy head covers every state; invalid
slots are masked.  Backward moves get their own slot space (which parent
produced this state), sized independently of the forward one.

A trajectory is root -> ... -> x -> sink; the final hop always uses x's
terminal slot.  Rewards attach to terminal-capable states and are strictly
positive.

Every query answers a whole batch: masks (`action_masks`,
`parent_masks`), transitions (`children`, `parents`), `terminal_slots`,
`log_rewards`, encodings (`encode_batch`) and `index`, a dense integer
per state that the enumeration maps to its position.
"""

import weakref

import numpy as np

from ..errors import ConfigError, EnumerationLimit

ENUMERATION_CAP = 2_000_000
MIN_REWARD = 1e-6
EDGE_BLOCK = 1 << 16  # edges whose child rows the enumeration builds at once


class DagEnv:
    """Abstract DAG environment.

    Subclasses set: root (a (width,) intp row), width, graded,
    n_action_slots, n_backward_slots, encoding_dim, max_trajectory_len; and
    implement the batched queries below.
    """

    root = None
    width = 0
    graded = False
    n_action_slots = 0
    n_backward_slots = 0
    encoding_dim = 0
    max_trajectory_len = 0

    # -- forward structure ---------------------------------------------------

    def action_masks(self, states):
        """(M x n_action_slots) boolean masks of the valid forward slots."""
        raise NotImplementedError

    def children(self, states, slots):
        """(child rows, backward slots): the state each row reaches through a
        valid non-terminal forward slot, and the backward slot of that edge
        at the child."""
        raise NotImplementedError

    def terminal_slots(self, states):
        """(M,) intp forward slot of the edge to the sink, -1 where the state
        cannot terminate."""
        raise NotImplementedError

    # -- backward structure --------------------------------------------------

    def parent_masks(self, states):
        """(M x n_backward_slots) boolean masks of the valid backward slots
        (none at the root)."""
        raise NotImplementedError

    def parents(self, states, bslots):
        """(parent rows, forward slots): the state each non-root row came
        from through a valid backward slot, and the forward slot of that
        edge at the parent."""
        raise NotImplementedError

    # -- rewards and features ------------------------------------------------

    def log_rewards(self, states):
        """(M,) log R per state, -inf where the state cannot terminate."""
        raise NotImplementedError

    def encode_batch(self, states):
        """(M x encoding_dim) float encodings; distinct states encode
        distinctly."""
        raise NotImplementedError

    def index(self, states):
        """(M,) intp: distinct integers in [0, n_states()), one per state."""
        raise NotImplementedError

    # -- enumeration ---------------------------------------------------------

    def n_states(self):
        """Total non-sink state count, computed without materializing states."""
        raise NotImplementedError

    def enumerate_states(self):
        """All non-sink states grouped into topological layers (root first),
        one row array per layer."""
        raise NotImplementedError

    def enumeration(self):
        """Memoized Enumeration index over this environment.

        The memo is a weak reference: an enumeration lives while some caller
        holds it, and a dropped environment and its enumeration are freed by
        reference counting.
        """
        ref = getattr(self, "_enumeration", None)
        enum = ref() if ref is not None else None
        if enum is None:
            enum = Enumeration(self)
            self._enumeration = weakref.ref(enum)
        return enum


class Enumeration:
    """Flat index over an enumerable environment.

    `states` holds every state as one (n x width) row array, layer by layer,
    and `layers` holds each topological layer's range of positions;
    `positions` maps rows back to their place in it.  The interior edges
    are flat arrays (src, slot, dst, bslot) of positions and slots, sorted
    by source and then slot, built once from the env's batched queries.
    So the edges leaving a layer form one slice, and each ends in a deeper
    layer: the exact layer sweep walks these slices in either direction.
    The exact-evaluation routines and tabular policies all work in this
    index space.  An env of more than ENUMERATION_CAP states raises
    EnumerationLimit before any state row exists, and rewards whose total
    overflows float64 raise ConfigError.
    """

    def __init__(self, env):
        n = env.n_states()
        if n > ENUMERATION_CAP:
            raise EnumerationLimit(f"{n} states exceed enumeration cap {ENUMERATION_CAP}")
        self.env = env
        layers = env.enumerate_states()
        self.states = np.concatenate(layers)
        self.n = len(self.states)
        ends = np.cumsum([0] + [len(layer) for layer in layers]).tolist()
        self.layers = [range(lo, hi) for lo, hi in zip(ends, ends[1:])]
        self._position = np.empty(self.n, dtype=np.intp)
        self._position[env.index(self.states)] = np.arange(self.n)
        self.root_index = int(self.positions(env.root[None])[0])

        self._terminal_slots = env.terminal_slots(self.states)
        self.terminal = self._terminal_slots >= 0
        self.log_rewards = env.log_rewards(self.states)
        with np.errstate(over="ignore"):
            self._partition = float(np.exp(self.log_rewards[self.terminal]).sum())
        if self._partition == np.inf:
            raise ConfigError(f"the rewards of the {int(self.terminal.sum())} terminal "
                              "states total more than float64 holds")
        self._action_masks = env.action_masks(self.states)
        interior = self._action_masks.copy()
        term = np.flatnonzero(self.terminal)
        interior[term, self._terminal_slots[term]] = False
        # np.nonzero yields the edges in ascending source order, so the
        # edges leaving any contiguous range of states (a layer) form one
        # contiguous slice.  Child rows exist one block of edges at a time.
        self.edge_src, self.edge_slot = np.nonzero(interior)
        self.edge_dst = np.empty(len(self.edge_src), dtype=np.intp)
        self.edge_bslot = np.empty(len(self.edge_src), dtype=np.intp)
        for lo in range(0, len(self.edge_src), EDGE_BLOCK):
            block = slice(lo, lo + EDGE_BLOCK)
            rows, self.edge_bslot[block] = env.children(self.states[self.edge_src[block]],
                                                        self.edge_slot[block])
            self.edge_dst[block] = self.positions(rows)
        self._parent_masks = None

    def positions(self, states):
        """Enumeration positions of state rows, as an intp array."""
        return self._position[self.env.index(states)]

    def encodings(self):
        """Every state's encoding, computed afresh and not kept.  Nothing in
        gflow calls this; perfbench/spans.py traces it by name."""
        return self.env.encode_batch(self.states)

    def action_masks(self):
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

    def rewards(self):
        """Per-state rewards, 0 off the terminals; fresh, as flow_from_rewards sweeps into it."""
        r = np.zeros(self.n)
        mask = self.terminal
        r[mask] = np.exp(self.log_rewards[mask])
        return r

    def partition(self):
        """Total reward mass Z* = sum of R over terminal-capable states."""
        return self._partition
