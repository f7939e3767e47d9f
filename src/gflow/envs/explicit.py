"""Explicit DAGs given by adjacency, used for randomized exactness checks.

States are given as arbitrary hashable labels; a state's row is its
position in a fixed topological order (width 1).  Forward slots are
positions in the (ordered) child list, with the terminal slot appended
after the children for reward-carrying states; backward slots are positions
in the parent list.
"""

import numpy as np

from ..errors import ConfigError
from .base import DagEnv, MIN_REWARD


class ExplicitDag(DagEnv):
    """Environment over an explicit child map and reward map.

    A state's row is its position in a fixed topological order, and every
    batched query answers from dense tables built once over that order:
    the child of each (state, slot), the parent of each (state, backward
    slot), the slot of each edge at its other end, the terminal slots and
    the log rewards.

    Parameters
    ----------
    children_map : dict state -> list of states
        Ordered successor lists.  States absent from the map have no
        non-sink children.
    rewards : dict state -> float
        Terminal-capable states and their (positive) rewards.
    root : state, optional
        The unique state with no incoming edge; inferred when omitted, and
        a given root that is not that state raises ConfigError.
    """

    def __init__(self, children_map, rewards, root=None):
        self._children = {s: list(cs) for s, cs in children_map.items()}
        for s, cs in self._children.items():
            if len(set(cs)) != len(cs):
                raise ConfigError(f"duplicate edges out of {s!r}")
        bad = [s for s, r in rewards.items() if not np.isfinite(float(r))]
        if bad:
            raise ConfigError(f"reward of state {bad[0]!r} is not finite: {rewards[bad[0]]}")
        self._rewards = {s: max(float(r), MIN_REWARD) for s, r in rewards.items()}
        states = set(self._children).union(*self._children.values(), self._rewards)
        parents = {s: [] for s in states}
        for s, cs in self._children.items():
            for c in cs:
                parents[c].append(s)
        roots = sorted((s for s in states if not parents[s]), key=repr)
        if root is None:
            if len(roots) != 1:
                raise ConfigError(f"need exactly one root, found {len(roots)}")
            root = roots[0]
        elif roots != [root]:
            raise ConfigError(f"root {root!r} must be the only state without a parent; "
                              f"states without one: {roots[:3]}")

        # Longest-path depth from the root; a valid topological grading.
        depth = {root: 0}
        order = self._toposort(parents)
        for s in order:
            for c in self._children.get(s, ()):
                depth[c] = max(depth.get(c, 0), depth[s] + 1)
        self._depth = depth
        # Deterministic parent order: by topological position.
        pos = {s: i for i, s in enumerate(order)}
        parents = {s: sorted(ps, key=pos.__getitem__) for s, ps in parents.items()}
        self._order = order

        dead = [s for s in order
                if s not in self._rewards and not self._children.get(s)]
        if dead:
            raise ConfigError(f"states with no outgoing edge and no reward: {dead[:3]}")

        self.width = 1
        self.root = np.array([pos[root]], dtype=np.intp)
        self.graded = self._check_graded()
        self.n_action_slots = max(
            len(self._children.get(s, ())) + (1 if s in self._rewards else 0)
            for s in order)
        self.n_backward_slots = max(1, max(len(parents[s]) for s in order))
        self.encoding_dim = len(order)
        self.max_trajectory_len = max(depth.values()) + 1
        self._index = pos
        self._build_tables(parents)

    def _build_tables(self, parents):
        """Dense (state x slot) tables over topological positions; an invalid
        slot holds -1, or n in the state tables, a row that no enumeration
        position lookup accepts."""
        n, pos = len(self._order), self._index
        self._child = np.full((n, self.n_action_slots), n, dtype=np.intp)
        self._bslot = np.full((n, self.n_action_slots), -1, dtype=np.intp)
        self._parent = np.full((n, self.n_backward_slots), n, dtype=np.intp)
        self._fslot = np.full((n, self.n_backward_slots), -1, dtype=np.intp)
        self._tslots = np.full(n, -1, dtype=np.intp)
        self._log_r = np.full(n, -np.inf)
        edge_slot = {}
        for i, s in enumerate(self._order):
            cs = self._children.get(s, ())
            for a, c in enumerate(cs):
                self._child[i, a] = pos[c]
                edge_slot[i, pos[c]] = a
            if s in self._rewards:
                self._tslots[i] = len(cs)
        for j, c in enumerate(self._order):
            for b, p in enumerate(parents[c]):
                i = pos[p]
                a = edge_slot[i, j]
                self._parent[j, b], self._fslot[j, b], self._bslot[i, a] = i, a, b
        term = np.flatnonzero(self._tslots >= 0)
        self._log_r[term] = np.log([self._rewards[self._order[i]] for i in term])
        self._action_masks = self._child < n
        self._action_masks[term, self._tslots[term]] = True
        self._parent_masks = self._parent < n

    def _toposort(self, parents):
        remaining = {s: len(ps) for s, ps in parents.items()}
        frontier = [s for s, k in remaining.items() if k == 0]
        frontier.sort(key=repr)
        order = []
        while frontier:
            s = frontier.pop(0)
            order.append(s)
            added = []
            for c in self._children.get(s, ()):
                remaining[c] -= 1
                if remaining[c] == 0:
                    added.append(c)
            added.sort(key=repr)
            frontier.extend(added)
        if len(order) != len(parents):
            raise ConfigError("children_map contains a cycle")
        return order

    def _check_graded(self):
        """Every edge advances one layer and rewards sit exactly on the last."""
        depth = self._depth
        top = max(depth.values())
        return (all(depth[c] == depth[s] + 1 for s, cs in self._children.items() for c in cs)
                and all((depth[s] == top) == (s in self._rewards) for s in self._order))

    # -- structure -----------------------------------------------------------

    def action_masks(self, states):
        return self._action_masks[states[:, 0]]

    def children(self, states, slots):
        at = states[:, 0], slots
        return self._child[at][:, None], self._bslot[at]

    def terminal_slots(self, states):
        return self._tslots[states[:, 0]]

    def parent_masks(self, states):
        return self._parent_masks[states[:, 0]]

    def parents(self, states, bslots):
        at = states[:, 0], bslots
        return self._parent[at][:, None], self._fslot[at]

    # -- reward / features / enumeration -------------------------------------

    def log_rewards(self, states):
        return self._log_r[states[:, 0]]

    def encode_batch(self, states):
        v = np.zeros((len(states), self.encoding_dim))
        v[np.arange(len(states)), states[:, 0]] = 1.0
        return v

    def index(self, states):
        return states[:, 0]

    def n_states(self):
        return len(self._order)

    def enumerate_states(self):
        """Layer k holds the states at depth k, in topological order."""
        depth = np.array([self._depth[s] for s in self._order])
        return [np.flatnonzero(depth == k)[:, None] for k in range(depth.max() + 1)]


def random_graded_dag(rng, n_layers=4, max_width=4, edge_prob=0.6,
                      reward_low=0.5, reward_high=2.0):
    """Random graded DAG: rewards only on the last layer, edges between
    consecutive layers, every state connected forward and backward."""
    widths = [1] + [int(rng.integers(1, max_width + 1)) for _ in range(n_layers - 1)]
    nodes = [[("g", t, i) for i in range(w)] for t, w in enumerate(widths)]
    children = {}
    for t in range(n_layers - 1):
        for s in nodes[t]:
            children[s] = []
        for c in nodes[t + 1]:
            picks = [s for s in nodes[t] if rng.random() < edge_prob]
            if not picks:
                picks = [nodes[t][int(rng.integers(len(nodes[t])))]]
            for s in picks:
                children[s].append(c)
        for s in nodes[t]:
            if not children[s]:
                children[s].append(nodes[t + 1][int(rng.integers(len(nodes[t + 1])))])
    rewards = {x: float(rng.uniform(reward_low, reward_high)) for x in nodes[-1]}
    return ExplicitDag(children, rewards, root=nodes[0][0])


def random_dag(rng, n_layers=4, max_width=4, edge_prob=0.6, skip_prob=0.2,
               interior_reward_prob=0.4, reward_low=0.5, reward_high=2.0):
    """Random non-graded DAG: skip-level edges and interior rewards give
    variable-length trajectories, as on the grid."""
    widths = [1] + [int(rng.integers(1, max_width + 1)) for _ in range(n_layers - 1)]
    nodes = [[("r", t, i) for i in range(w)] for t, w in enumerate(widths)]
    children = {s: [] for layer in nodes for s in layer}
    for t in range(n_layers - 1):
        for c in nodes[t + 1]:
            picks = [s for s in nodes[t] if rng.random() < edge_prob]
            if not picks:
                picks = [nodes[t][int(rng.integers(len(nodes[t])))]]
            for s in picks:
                children[s].append(c)
        for u in range(t + 2, n_layers):
            for c in nodes[u]:
                for s in nodes[t]:
                    if rng.random() < skip_prob * edge_prob:
                        children[s].append(c)
    rewards = {x: float(rng.uniform(reward_low, reward_high)) for x in nodes[-1]}
    for layer in nodes[1:-1]:
        for s in layer:
            if rng.random() < interior_reward_prob:
                rewards[s] = float(rng.uniform(reward_low, reward_high))
    for layer in nodes[:-1]:
        for s in layer:
            if not children[s] and s not in rewards:
                children[s].append(nodes[-1][int(rng.integers(len(nodes[-1])))])
    return ExplicitDag(children, rewards, root=nodes[0][0])
