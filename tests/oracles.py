"""Reference computations and fixtures that only tests use.

Each reference is the straightforward, slow form of something the library
computes another way: brute-force trajectory enumeration, edge-by-edge
path probabilities, central differences, the closed-form tabular policy
gradient, the surrogate gradient as an expectation over enumerated paths,
the guided balance loss and the per-trajectory guide conditional.  The
acceptance criteria hold the library to them, so they live here and not
in gflow.  The layer-loop references keep the exact layer's recurrences
in the form they had before one sweep replaced them: a hand-written loop
each, with backward values summed over the edges entering each layer, and
Q as a dense (state x slot) table.  The dense wrappers scatter the exact
layer's per-edge Q into such tables, and dense_check_theorem_bounds is the
theorem audit as it was over dense tables, before it read each table once
into edge form.  edge_logs_forward, hop_sources and hop_slots build the
hop layout per call, by concatenation, as exact did before the enumeration
kept `stops` and `stop_slots`; the tests referee exact.forward_hops by them.
"""

import numpy as np

from gflow import autodiff as ad
from gflow import exact
from gflow.envs import SequenceEnv, synthetic_rewards
from gflow.exact import edge_logs_backward
from gflow.policy import make_suite
from gflow.sampling import Trajectory
from gflow.training import BOUND_TOL, forward_advantages, surrogate_loss


def synthetic_env(d, n, seed):
    """Sequence env over a seeded synthetic reward table."""
    return SequenceEnv(d, n, synthetic_rewards(d, n, seed))


def edge_logs_forward(enum, fwd_log):
    """Per-edge log pi_F, aligned with the enumeration's interior edge
    arrays: the edge part of exact.forward_hops, gathered on its own."""
    return fwd_log[enum.edge_src, enum.edge_slot]


def hop_sources(enum):
    """Source state of every forward hop, in exact.forward_hops order: the
    interior edges, then the stop hop of each terminal-capable state."""
    return np.concatenate([enum.edge_src, np.flatnonzero(enum.terminal)])


def hop_slots(enum):
    """Forward slot of every hop, aligned with hop_sources."""
    stops = np.flatnonzero(enum.terminal)
    return np.concatenate([enum.edge_slot, enum.terminal_slots()[stops]])


def set_table(model, table):
    """Write a dense table into a Tabular: its entries on the model's mask,
    packed in row-major order; the others are dropped.  A table of one
    column may be given as a vector."""
    mask = model.index.mask
    model.table.data[...] = np.reshape(table, (len(mask), -1))[mask]


def dense_table(model, packed=None):
    """A Tabular's parameter, or a vector `packed` in its layout such as its
    gradient, as the dense (n_rows x n_cols) table, 0 off the mask."""
    table = np.zeros(model.index.mask.shape)
    table[model.index.mask] = model.table.data if packed is None else packed
    return table


def random_suite(env, rng, scale=0.0, log_z=0.0, **kwargs):
    """make_suite(env, rng, **kwargs) with log Z set to `log_z` and, for a
    tabular suite with `scale` > 0, every table drawn from N(0, scale).

    The tables are drawn after construction, one rng.normal call of a dense
    table's shape per component in param_groups() order (log Z excepted),
    which is the order in which the components are built; a policy keeps
    the entries on its valid slots.  A caller that draws `log_z` from the
    same generator draws it first, in the call's arguments.
    """
    suite = make_suite(env, rng, **kwargs)
    suite.log_z.value.data[0] = log_z
    if kwargs.get("tabular") and scale > 0:
        parts = {"policy_f": suite.forward, "policy_b": suite.backward,
                 "value_f": suite.value_f, "value_b": suite.value_b, "flow": suite.state_flow}
        for name in suite.param_groups():
            if name != "log_z":
                model = parts[name].model
                set_table(model, rng.normal(0.0, scale, size=model.index.mask.shape))
    return suite


def random_table(n_rows, n_cols, rng, scale, index=None):
    """ad.Tabular(n_rows, n_cols, index) with every entry of a dense table
    drawn from N(0, scale) by one rng.normal call and set_table."""
    model = ad.Tabular(n_rows, n_cols, index)
    set_table(model, rng.normal(0.0, scale, size=(n_rows, n_cols)))
    return model


def grid_guide_log_table(env, forward, eps, low):
    """HyperGridGuide's backward kernel log table from the dense forward log
    table `forward.log_probs_numpy` gives over every state, by the same
    operations in the same order as the guide's refresh, so the two agree
    byte for byte.  `low` marks the states at the reward floor."""
    enum = env.enumeration()
    src, dst = enum.edge_src, enum.edge_dst
    fwd_log = forward.log_probs_numpy(enum.states, enum.action_masks())
    edge_p = np.exp(fwd_log[src, enum.edge_slot])
    denom = np.bincount(src, edge_p, minlength=enum.n) + eps
    edge_p /= np.where(low, denom, 1.0)[src]
    with np.errstate(divide="ignore"):
        reach = exact.visit_probabilities(enum, np.exp(np.log(edge_p)))
        table = np.full((enum.n, env.n_backward_slots), -np.inf)
        table[dst, enum.edge_bslot] = np.log(reach[src] * edge_p / reach[dst])
    return table


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
    params = suite.forward.params()
    tape = ad.Tape()
    lp = suite.forward.step_log_probs(tape, sb.states, sb.slots)
    adv, _, _ = forward_advantages(sb, suite, lam, lp.data,
                                   suite.value_f.values(None, sb.states).data)
    if weights is None:
        loss = surrogate_loss(tape, lp, adv, sb.n_traj)
    else:
        w = np.asarray(weights, dtype=np.float64)[sb.traj]
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


def dense_forward_values(enum, fwd_log, ref_edge_logs, log_z):
    """exact.forward_values on a dense forward table, with its per-hop Q
    scattered into a dense (state x slot) table, 0 on invalid slots."""
    v, hop_q = exact.forward_values(enum, exact.forward_hops(enum, fwd_log),
                                    ref_edge_logs, log_z)
    q = np.zeros(fwd_log.shape)
    q[hop_sources(enum), hop_slots(enum)] = hop_q
    return v, q


def dense_backward_values(enum, bwd_log, ref_edge_logs):
    """exact.backward_values with its per-edge Q scattered into a dense
    (state x backward slot) table, 0 on invalid slots."""
    v, edge_q = exact.backward_values(enum, bwd_log, ref_edge_logs)
    q = np.zeros(bwd_log.shape)
    q[enum.edge_dst, enum.edge_bslot] = edge_q
    return v, q


def table_visits(enum, fwd_log):
    """exact.visit_probabilities of a dense forward table."""
    return exact.visit_probabilities(enum, np.exp(edge_logs_forward(enum, fwd_log)))


def advantages(v, q, masks):
    """A = Q - V with invalid slots zeroed, over dense tables."""
    return np.where(masks, q - v[:, None], 0.0)


def dense_check_theorem_bounds(env, fwd_log, bwd_log, log_z, guide, forward_alt=None):
    """training.check_theorem_bounds over dense (state x slot) Q, KL and
    advantage tables, each value sweep and visit sweep run afresh."""
    enum = env.enumeration()
    g_table = guide if isinstance(guide, np.ndarray) else guide.backward_kernel()
    log_z = float(log_z)
    log_z_star = float(np.log(enum.partition()))

    ref_b = exact.edge_logs_backward(enum, bwd_log)
    ref_g = exact.edge_logs_backward(enum, g_table)
    t_len = len(enum.layers)

    v, q = layer_loop_forward_values(enum, fwd_log, ref_b, log_z)
    j_f = v[enum.root_index]
    j_fg = layer_loop_forward_values(enum, fwd_log, ref_g, log_z)[0][enum.root_index]
    pt = exact.terminating_distribution(enum, fwd_log)
    v_bg = layer_loop_backward_values(enum, bwd_log, ref_g)[0]
    j_bg = float(pt @ v_bg)
    r_max = float(np.max(np.abs(ref_b - ref_g))) if ref_b.size else 0.0
    kl_mu = max(j_f + log_z_star - log_z, 0.0)
    slack = (t_len - 1) * r_max * np.sqrt(kl_mu / 2.0)
    rhs1 = j_f + j_bg + slack
    report = {
        "theorem1": {
            "lhs": float(j_fg), "rhs": float(rhs1), "holds": bool(j_fg <= rhs1 + BOUND_TOL),
            "j_f": float(j_f), "j_b_g": float(j_bg), "r_max": r_max,
            "kl_mu": float(kl_mu), "slack": float(slack),
        },
    }
    if forward_alt is None:
        return report

    masks = enum.action_masks()
    d_old = exact.accumulated_distribution(enum, fwd_log)
    d_new = exact.accumulated_distribution(enum, forward_alt)
    zeta = exact.policy_kl(forward_alt, fwd_log, d_new, masks)
    a = advantages(v, q, masks)
    pi_new = np.where(masks, np.exp(forward_alt), 0.0)
    ea_new = (pi_new * a).sum(axis=1)
    expected = float(d_old @ ea_new)
    eps_f = float(np.abs(ea_new).max())
    j_new = layer_loop_forward_values(enum, forward_alt, ref_b, log_z)[0][enum.root_index]
    lhs2 = (j_new - j_f) / t_len
    rhs2 = expected + zeta + eps_f * np.sqrt(2.0 * zeta)
    report["theorem2"] = {
        "lhs": float(lhs2), "rhs": float(rhs2), "holds": bool(lhs2 <= rhs2 + BOUND_TOL),
        "zeta": float(zeta), "eps_f": eps_f, "expected_advantage": expected,
        "j_f": float(j_f), "j_f_new": float(j_new),
    }
    return report
