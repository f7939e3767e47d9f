"""Exact evaluation on enumerable environments by dynamic programming.

Everything here works on the Enumeration index.  Policies come in as
dense (state x slot) log-probability tables, -inf off the valid slots
(forward_log_table), and the recurrences read them in edge form: one
gather per table onto the interior edges, or for a forward table onto its
hops (the edges, then the stop hops at enum.stops and enum.stop_slots),
then one sweep over the topological layers, root first or deepest first,
that sums per state over the edges leaving each layer (enum.edge_layers).
The layout lives on the Enumeration; nothing here builds a lasting index.
Values come back per state and Q per edge or hop, never as a dense table.
These routines are the library's measurement instruments, and the grid
guide's backward kernel, the theorem-bound audit and the runner's eval
rows build on them.
"""

import numpy as np

from .errors import ContractError
from .sampling import sample_forward

# Share of the terminal-capable states, by reward, that mode_states counts
# as modes.
MODE_QUANTILE = 0.005


# ---------------------------------------------------------------------------
# Policy tables
# ---------------------------------------------------------------------------

def forward_log_table(enum, forward):
    """Dense (n_states x n_action_slots) log pi_F table, -inf off the valid
    slots: a tabular policy's log-softmax over its packed logits, or any
    other policy evaluated over every state."""
    if forward.tabular:
        return forward.model.log_softmax()
    return forward.log_probs_numpy(enum.states, enum.action_masks())


def edge_logs_backward(enum, bwd_log):
    """Per-edge log of a backward kernel evaluated at the edge's child."""
    return bwd_log[enum.edge_dst, enum.edge_bslot]


def forward_hops(enum, fwd_log):
    """A forward table read once into hop form: (log pi_F, pi_F) per hop.
    The first len(enum.edge_src) hops are the interior edges in edge order,
    the rest the stop hops (enum.stops, enum.stop_slots)."""
    n_edges = len(enum.edge_src)
    hop_log = np.empty(n_edges + len(enum.stops))
    hop_log[:n_edges] = fwd_log[enum.edge_src, enum.edge_slot]
    hop_log[n_edges:] = fwd_log[enum.stops, enum.stop_slots]
    return hop_log, np.exp(hop_log)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def _sweep(enum, values, edge_p, edge_q=None, toward_root=False):
    """Accumulate values[w] += edge_p * (edge_q + values[r]) over the
    interior edges, one topological layer at a time, and return `values`.

    Root first, r is an edge's source and w its destination; toward_root,
    the layers run deepest first, r is the destination and w the source.
    Each step takes the edges leaving one layer, a slice since edges are
    sorted by source (enum.edge_layers).  Every edge ends in a strictly
    deeper layer, so each read value is final, and every state adds its
    edges in ascending edge order.  edge_q, if given, holds per-edge
    rewards; the sweep adds values[r] to each, in place, and so leaves each
    edge's Q in it.
    """
    layers = enum.edge_layers
    read, write = (enum.edge_dst, enum.edge_src) if toward_root else (enum.edge_src, enum.edge_dst)
    for e in reversed(layers) if toward_root else layers:
        term = values[read[e]]
        if edge_q is not None:
            edge_q[e] += term
            term = edge_q[e]
        np.add.at(values, write[e], edge_p[e] * term)
    return values


def visit_probabilities(enum, edge_p):
    """P(trajectory passes through s) for every state, from the forward
    policy's per-edge probabilities; root gets 1."""
    reach = np.zeros(enum.n)
    reach[enum.root_index] = 1.0
    return _sweep(enum, reach, edge_p)


def reach_and_terminating(enum, hop_p):
    """(visit probabilities, P_F^T) of a forward policy in hop form."""
    n_edges = len(enum.edge_src)
    reach = visit_probabilities(enum, hop_p[:n_edges])
    pt = np.zeros(enum.n)
    pt[enum.stops] = reach[enum.stops] * hop_p[n_edges:]
    return reach, pt


def terminating_distribution(enum, fwd_log):
    """Exact P_F^T: probability of ending at each terminal-capable state."""
    return reach_and_terminating(enum, forward_hops(enum, fwd_log)[1])[1]


def reward_distribution(enum):
    """Ground-truth target P*(x) = R(x) / Z* as a full state vector."""
    p = enum.rewards()
    return p / p.sum()


def accumulated_distribution(enum, fwd_log):
    """Accumulated state distribution d(s) = (1/T) sum_t P(s_t = s).

    Defined for graded environments, where every trajectory has the same
    length T, so it is the visit probability over T.  The sink's
    accumulated mass is 0 by construction and is not represented.
    """
    if not enum.env.graded:
        raise ContractError("accumulated distribution requires a graded environment")
    edge_p = np.exp(fwd_log[enum.edge_src, enum.edge_slot])
    return visit_probabilities(enum, edge_p) / len(enum.layers)


# ---------------------------------------------------------------------------
# State values
# ---------------------------------------------------------------------------

def forward_values(enum, hops, ref_edge_logs, log_z):
    """V and Q of the forward MDP with per-step rewards
    log pi_F(s,a) - ref(edge) on interior edges and
    log pi_F(stop | x) - log R(x) + log Z on stop hops.

    hops is a forward table in hop form (forward_hops).  ref_edge_logs is
    an array over the enumeration's interior edges: the backward policy for
    the standard reward, a guide kernel for the guided variant.  The stop
    hops seed V, and one sweep deepest first adds the edges.  Returns
    (V, Q) with Q per hop, in forward_hops order.
    """
    hop_log, hop_p = hops
    n_edges = len(enum.edge_src)
    stops = enum.stops
    q = np.empty_like(hop_log)
    np.subtract(hop_log[:n_edges], ref_edge_logs, out=q[:n_edges])
    q[n_edges:] = hop_log[n_edges:] - enum.log_rewards[stops] + log_z
    v = np.zeros(enum.n)
    v[stops] = hop_p[n_edges:] * q[n_edges:]
    _sweep(enum, v, hop_p[:n_edges], q[:n_edges], toward_root=True)
    return v, q


def backward_values(enum, bwd_log, ref_edge_logs):
    """V and Q of the backward MDP with rewards
    log pi_B(s', b) - ref(edge) per interior edge, accumulated from x toward
    the root by one sweep root first; the root's value is pinned to 0.  The
    terminal hop carries no backward reward.  Returns (V, Q) with Q per
    interior edge."""
    edge_lb = edge_logs_backward(enum, bwd_log)
    edge_q = edge_lb - ref_edge_logs
    v = _sweep(enum, np.zeros(enum.n), np.exp(edge_lb), edge_q)
    return v, edge_q


# ---------------------------------------------------------------------------
# Flow construction
# ---------------------------------------------------------------------------

def flow_from_rewards(enum, bwd_log=None):
    """Ground-truth tabular policies satisfying the flow-matching identity.

    Chooses a backward kernel (uniform over parents unless given), then sums
    flows from the terminal edges toward the root:
    F(s) = R(s) [if terminal] + sum_children pi_B(child, b) F(child).
    Returns (fwd_log, bwd_log, log_z_star, log_flow); the induced forward
    policy transports exactly R(x)/Z* onto each terminating state.
    """
    env = enum.env
    if bwd_log is None:
        masks = enum.parent_masks()
        counts = masks.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            bwd_log = np.where(masks, -np.log(counts), -np.inf)
    edge_pb = np.exp(edge_logs_backward(enum, bwd_log))
    log_flow = np.log(_sweep(enum, enum.rewards(), edge_pb, toward_root=True))
    fwd_log = np.full((enum.n, env.n_action_slots), -np.inf)
    e_src, e_dst, e_slot = enum.edge_src, enum.edge_dst, enum.edge_slot
    fwd_log[e_src, e_slot] = np.log(edge_pb) + log_flow[e_dst] - log_flow[e_src]
    stops = enum.stops
    fwd_log[stops, enum.stop_slots] = enum.log_rewards[stops] - log_flow[stops]
    return fwd_log, bwd_log, float(log_flow[enum.root_index]), log_flow


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def total_variation(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _kl(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def jensen_shannon(p, q):
    """Symmetric divergence against the even mixture; lies in [0, log 2]."""
    m = 0.5 * (np.asarray(p) + np.asarray(q))
    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def reward_accuracy(pt, enum):
    """min(E_model[R] / E_target[R], 1); both expectations are exact."""
    r = enum.rewards()
    e_model = float(pt @ r)
    p_star = reward_distribution(enum)
    e_target = float(p_star @ r)
    return min(e_model / e_target, 1.0)


def mode_states(enum):
    """Rows of the terminal-capable states in the top MODE_QUANTILE of
    rewards (ties included), in enumeration order."""
    stops = enum.stops
    rewards = np.exp(enum.log_rewards[stops])
    threshold = np.quantile(rewards, 1.0 - MODE_QUANTILE)
    return enum.states[stops[rewards >= threshold]]


def mode_count(env, forward, modes, n_samples, rng, seen=None):
    """Sample terminating states and count the distinct mode rows found so
    far.

    `seen` carries the env indices of discovered modes across calls;
    returns (count, seen).
    """
    if seen is None:
        seen = set()
    if n_samples > 0:
        trajs = sample_forward(env, forward, n_samples, rng)
        found = env.index(np.stack([tr.x for tr in trajs]))
        seen.update(found[np.isin(found, env.index(modes))].tolist())
    return len(seen), seen


def policy_kl(p_log, q_log, weights, masks):
    """Sum_s w(s) KL(p(s,.) || q(s,.)) over masked slots."""
    p = np.where(masks, np.exp(p_log), 0.0)
    valid = masks & (p > 0)
    diff = np.zeros_like(p)
    diff[valid] = p_log[valid] - q_log[valid]
    return float((weights[:, None] * p * diff).sum())
