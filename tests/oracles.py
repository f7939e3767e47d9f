"""Reference computations and fixtures that only tests use.

Each reference is the straightforward, slow form of something the library
computes another way: brute-force trajectory enumeration, edge-by-edge
path probabilities, central differences, the closed-form tabular policy
gradient, the surrogate gradient as an expectation over enumerated paths,
the guided balance loss and the per-trajectory guide conditional.  The
acceptance criteria hold the library to them, so they live here and not
in gflow.
"""

import numpy as np

from gflow import autodiff as ad
from gflow.envs import SequenceEnv, synthetic_rewards
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
