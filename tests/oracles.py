"""Reference computations and fixtures that only tests use.

Each reference is the straightforward, slow form of something the library
computes another way: brute-force trajectory enumeration, edge-by-edge
path probabilities, central differences, the closed-form tabular policy
gradient, the surrogate gradient as an expectation over enumerated paths,
the guided balance loss and the per-trajectory guide conditional.  The
acceptance criteria hold the library to them, so they live here and not
in gflow.  The layer-loop references keep the exact layer's recurrences
in the form they had before one sweep replaced them: a hand-written loop
each, with backward values summed over the edges entering each layer.
"""

import numpy as np

from gflow import autodiff as ad
from gflow.envs import SequenceEnv, synthetic_rewards
from gflow.exact import edge_logs_backward, edge_logs_forward
from gflow.policy import make_suite
from gflow.sampling import Trajectory
from gflow.training import forward_advantages, surrogate_loss


def synthetic_env(d, n, seed):
    """Sequence env over a seeded synthetic reward table."""
    return SequenceEnv(d, n, synthetic_rewards(d, n, seed))


def random_suite(env, rng, scale=0.0, log_z=0.0, **kwargs):
    """make_suite(env, rng, **kwargs) with log Z set to `log_z` and, for a
    tabular suite with `scale` > 0, every table drawn from N(0, scale).

    The tables are drawn after construction, one rng.normal call per
    component in param_groups() order (log Z excepted), which is the order
    in which the components are built.  A caller that draws `log_z` from
    the same generator draws it first, in the call's arguments.
    """
    suite = make_suite(env, rng, **kwargs)
    suite.log_z.value.data[0] = log_z
    if kwargs.get("tabular") and scale > 0:
        for name, params in suite.param_groups().items():
            if name != "log_z":
                for p in params:
                    p.data[...] = rng.normal(0.0, scale, size=p.data.shape)
    return suite


def random_table(n_rows, n_cols, rng, scale, mask=None):
    """ad.Tabular(n_rows, n_cols, mask=mask) with every entry drawn from
    N(0, scale) by one rng.normal call."""
    model = ad.Tabular(n_rows, n_cols, mask=mask)
    model.table.data[...] = rng.normal(0.0, scale, size=(n_rows, n_cols))
    return model


def enumerate_paths(env):
    """All root-to-sink trajectories, depth first, from the enumeration's
    edge arrays and terminal slots."""
    enum = env.enumeration()
    edge_ptr = np.searchsorted(enum.edge_src, np.arange(enum.n + 1))
    tslots = enum.terminal_slots()
    out = []
    stack = [((enum.root_index,), (), ())]
    while stack:
        path, slots, bslots = stack.pop()
        i = path[-1]
        edges = range(edge_ptr[i], edge_ptr[i + 1])
        moves = [(int(enum.edge_slot[e]), int(enum.edge_dst[e]), int(enum.edge_bslot[e]))
                 for e in edges]
        if tslots[i] >= 0:
            moves = sorted(moves + [(int(tslots[i]), -1, -1)])
        for a, j, b in reversed(moves):
            if j < 0:
                out.append(Trajectory(enum.states[list(path)], np.array(slots + (a,)),
                                      np.array(bslots, dtype=np.intp),
                                      float(enum.log_rewards[i])))
            else:
                stack.append((path + (j,), slots + (a,), bslots + (b,)))
    return out


def path_log_prob(enum, log_table, trajectory, backward=False):
    """Log-probability of a trajectory under a dense slot table, summed
    edge by edge from the root.

    Forward tables cover every edge including the terminal hop; backward
    tables cover interior edges only (the terminal hop is skipped).
    """
    if backward:
        picked = log_table[enum.positions(trajectory.states[1:]), trajectory.bslots]
    else:
        picked = log_table[enum.positions(trajectory.states), trajectory.slots]
    total = 0.0
    for v in picked.tolist():
        total += v
    return total


def exact_logit_gradient(visit, log_table, adv):
    """d J / d logits for a tabular policy: visit(s) * pi(s,a) * A(s,a).

    Valid for forward policies with `visit` probabilities and forward
    advantages, and for backward policies with the analogous quantities.
    Masked slots contribute 0 through exp(-inf).
    """
    return visit[:, None] * np.exp(log_table) * adv


def finite_difference_grad(f, x0, step=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.array(x0, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + step
        fp = f(x)
        x[i] = orig - step
        fm = f(x)
        x[i] = orig
        g[i] = (fp - fm) / (2.0 * step)
    return g


def surrogate_gradient(suite, sb, lam, weights=None):
    """Flat gradient of the forward surrogate over a step batch.

    `weights` (one per trajectory) replaces the batch mean with a weighted
    sum, which computes exact expectations over enumerated trajectories.
    """
    adv, _, _ = forward_advantages(sb, suite, lam)
    params = suite.forward.params()
    tape = ad.Tape()
    if weights is None:
        loss = surrogate_loss(tape, suite.forward, sb.states, sb.slots, adv, sb.n_traj)
    else:
        w = np.asarray(weights, dtype=np.float64)[sb.traj]
        lp = suite.forward.step_log_probs(tape, sb.states, sb.slots)
        loss = ad.sum(tape, ad.mul(tape, lp, ad.Tensor(adv * w)))
    ad.zero_grads(params)
    tape.backward(loss)
    return ad.flat_grad(params)


def log_conditional(guide, sb):
    """log P_G(tau | x) per trajectory of a step batch: the sum of its
    guide edge log-probs."""
    lp = guide.edge_log_probs(sb)
    ends = np.concatenate([[0], np.cumsum(sb.lengths - 1)])
    return np.array([lp[lo:hi].sum() for lo, hi in zip(ends[:-1], ends[1:])])


def guided_tb_loss(tape, sb, suite, guide, weights=None):
    """Mean squared guided balance residual
    (log P_B(tau|x) - log P_G(tau|x))^2; gradients flow through pi_B only.

    `weights` replaces the batch mean with a weighted sum, as in tb_loss.
    """
    lpb = suite.backward.step_log_probs(tape, sb.in_states, sb.in_bslots)
    sum_b = ad.segment_sum(tape, lpb, sb.in_traj, sb.n_traj)
    resid = ad.sub(tape, sum_b, ad.Tensor(log_conditional(guide, sb)))
    sq = ad.square(tape, resid)
    if weights is None:
        return ad.mean(tape, sq)
    return ad.sum(tape, ad.mul(tape, sq, ad.Tensor(np.asarray(weights, dtype=np.float64))))


def backward_log_table(enum, backward):
    """Dense (n_states x n_backward_slots) log pi_B table; root row is -inf."""
    out = np.full((enum.n, enum.env.n_backward_slots), -np.inf)
    idx = np.flatnonzero(np.arange(enum.n) != enum.root_index)
    if len(idx):
        out[idx] = backward.log_probs_numpy(enum.states[idx])
    return out


def layer_edges(enum, entering=False):
    """Edge selectors per topological layer, root first.

    Each selects the interior edges leaving one layer: a slice, since edges
    are sorted by source.  With entering=True each selects the edges
    entering the layer instead, in edge order, from a stable argsort of
    edge_dst.
    """
    bounds = [layer[0] for layer in enum.layers] + [enum.n]
    if not entering:
        cuts = np.searchsorted(enum.edge_src, bounds)
        return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    order = np.argsort(enum.edge_dst, kind="stable")
    cuts = np.searchsorted(enum.edge_dst[order], bounds)
    return [order[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def layer_loop_visits(enum, fwd_log):
    """exact.visit_probabilities as a loop over the layers, root first."""
    reach = np.zeros(enum.n)
    reach[enum.root_index] = 1.0
    edge_p = np.exp(edge_logs_forward(enum, fwd_log))
    for e in layer_edges(enum):
        np.add.at(reach, enum.edge_dst[e], reach[enum.edge_src[e]] * edge_p[e])
    return reach


def layer_loop_forward_values(enum, fwd_log, ref_edge_logs, log_z):
    """exact.forward_values as a loop over the layers, deepest first."""
    src, dst, slot = enum.edge_src, enum.edge_dst, enum.edge_slot
    term = np.flatnonzero(enum.terminal)
    tslots = enum.terminal_slots()[term]
    q = np.zeros(fwd_log.shape)
    q[term, tslots] = fwd_log[term, tslots] - enum.log_rewards[term] + log_z
    v = np.zeros(enum.n)
    v[term] = np.exp(fwd_log[term, tslots]) * q[term, tslots]
    edge_lf = edge_logs_forward(enum, fwd_log)
    edge_r = edge_lf - ref_edge_logs
    edge_p = np.exp(edge_lf)
    for e in reversed(layer_edges(enum)):
        qe = edge_r[e] + v[dst[e]]
        q[src[e], slot[e]] = qe
        np.add.at(v, src[e], edge_p[e] * qe)
    return v, q


def layer_loop_backward_values(enum, bwd_log, ref_edge_logs):
    """exact.backward_values as a loop over the edges entering each layer,
    root first."""
    src, dst, bslot = enum.edge_src, enum.edge_dst, enum.edge_bslot
    q = np.zeros(bwd_log.shape)
    v = np.zeros(enum.n)
    edge_lb = edge_logs_backward(enum, bwd_log)
    edge_r = edge_lb - ref_edge_logs
    edge_p = np.exp(edge_lb)
    for e in layer_edges(enum, entering=True):
        qe = edge_r[e] + v[src[e]]
        q[dst[e], bslot[e]] = qe
        np.add.at(v, dst[e], edge_p[e] * qe)
    return v, q


def layer_loop_flows(enum, bwd_log):
    """exact.flow_from_rewards' state flows F as a loop over the layers,
    deepest first."""
    flow = enum.rewards()
    edge_pb = np.exp(edge_logs_backward(enum, bwd_log))
    for e in reversed(layer_edges(enum)):
        np.add.at(flow, enum.edge_src[e], edge_pb[e] * flow[enum.edge_dst[e]])
    return flow
