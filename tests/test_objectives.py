"""Loss functions and per-step rewards checked against hand recomputation
and a ground-truth flow fixture on which every balance residual vanishes."""

import numpy as np
import pytest

from gflow import autodiff as ad
from gflow import objectives
from gflow.envs import ExplicitDag, HyperGrid, SequenceEnv, random_dag, random_graded_dag
from gflow.errors import ContractError
from gflow.exact import flow_from_rewards
from gflow.guides import TableGuide
from gflow.objectives import (
    db_loss,
    forward_step_rewards,
    gae_advantages,
    step_batch,
    subtb_loss,
    subtb_weights,
    tb_loss,
)
from gflow.policy import make_suite
from gflow.sampling import Trajectory, sample_backward, sample_forward
from gflow.training import backward_advantages
from oracles import guided_tb_loss, random_suite, set_table, synthetic_env
from test_envs import log_reward, terminal_slot


def perfect_suite(env, need_flow=True):
    """Tabular suite loaded with the ground-truth flow solution."""
    enum = env.enumeration()
    fwd_log, bwd_log, log_z_star, log_flow = flow_from_rewards(enum)
    suite = make_suite(env, np.random.default_rng(0), tabular=True, need_flow=need_flow)
    set_table(suite.forward.model, fwd_log)
    suite.log_z.value.data[0] = log_z_star
    if need_flow:
        set_table(suite.state_flow.model, log_flow)
    return suite, bwd_log


def sample_batch(env, suite, n=32, seed=1):
    return sample_forward(env, suite.forward, n, np.random.default_rng(seed))


def path_log_probs(suite, t):
    """Per-edge log pi_F and per-interior-edge log pi_B of one trajectory,
    each evaluated on that trajectory's states alone."""
    lpf = suite.forward.log_probs_numpy(t.states)[np.arange(t.length), t.slots]
    if t.length == 1:
        return lpf, np.zeros(0)
    lpb = suite.backward.log_probs_numpy(t.states[1:])[np.arange(t.length - 1), t.bslots]
    return lpf, lpb


def traj_log_ratio(suite, t):
    """log Z + log P_F(tau) - log P_B(tau|x) - log R(x), edge by edge."""
    lpf, lpb = path_log_probs(suite, t)
    return suite.log_z.item() + lpf.sum() - lpb.sum() - t.log_reward


# -- step batching -------------------------------------------------------------


def step_batch_per_state(trajectories):
    """step_batch as it was built: Python lists, step by step."""
    states, slots, traj, terminal = [], [], [], []
    in_states, in_bslots, in_traj = [], [], []
    log_r, lengths = [], []
    for b, tr in enumerate(trajectories):
        log_r.append(tr.log_reward)
        lengths.append(tr.length)
        for t, (s, a) in enumerate(zip(tr.states.tolist(), tr.slots.tolist())):
            states.append(s)
            slots.append(a)
            traj.append(b)
            is_last = t == tr.length - 1
            terminal.append(is_last)
            if not is_last:
                in_states.append(tr.states[t + 1].tolist())
                in_bslots.append(int(tr.bslots[t]))
                in_traj.append(b)
    width = trajectories[0].states.shape[1]
    return {
        "states": np.asarray(states, dtype=np.intp).reshape(-1, width),
        "slots": np.asarray(slots, dtype=np.intp),
        "traj": np.asarray(traj, dtype=np.intp),
        "terminal": np.asarray(terminal, dtype=bool),
        "in_states": np.asarray(in_states, dtype=np.intp).reshape(-1, width),
        "in_bslots": np.asarray(in_bslots, dtype=np.intp),
        "in_traj": np.asarray(in_traj, dtype=np.intp),
        "log_rewards": np.asarray(log_r),
        "lengths": np.asarray(lengths, dtype=np.intp),
    }


def test_step_batch_layout():
    t1 = Trajectory(np.array([[0]]), np.array([1]), np.zeros(0, dtype=np.intp), np.log(0.51))
    t2 = Trajectory(np.array([[0], [1]]), np.array([0, 1]), np.array([0]), np.log(0.51))
    sb = step_batch([t1, t2])
    assert sb.n_traj == 2
    assert sb.n_steps == 3
    assert sb.states.tolist() == [[0], [0], [1]]
    assert sb.slots.tolist() == [1, 0, 1]
    assert sb.traj.tolist() == [0, 1, 1]
    assert sb.terminal.tolist() == [True, False, True]
    assert sb.in_states.tolist() == [[1]]
    assert sb.in_bslots.tolist() == [0]
    assert sb.in_traj.tolist() == [1]
    assert sb.lengths.tolist() == [1, 2]


@pytest.mark.parametrize("make_env", [
    lambda: HyperGrid(2, 16), lambda: synthetic_env(6, 4, 2),
    *[lambda seed=seed: random_dag(np.random.default_rng(seed)) for seed in range(8)],
    *[lambda seed=seed: random_graded_dag(np.random.default_rng(seed)) for seed in range(8)],
], ids=["grid-2x16", "seq-6x4", *[f"dag-{k}" for k in range(8)],
        *[f"graded-{k}" for k in range(8)]])
def test_step_batch_matches_the_list_building_oracle(make_env):
    env = make_env()
    suite = random_suite(env, np.random.default_rng(3), 1.0, tabular=True)
    trajs = sample_forward(env, suite.forward, 40, np.random.default_rng(4), eps=0.5)
    xs = np.stack([tr.x for tr in trajs] * 2)
    for batch in (trajs, sample_backward(env, suite.backward, xs, np.random.default_rng(5))):
        sb = step_batch(batch)
        want = step_batch_per_state(batch)
        assert sb.n_traj == len(batch)
        for name, arr in want.items():
            got = getattr(sb, name)
            assert got.dtype == arr.dtype and got.shape == arr.shape, name
            assert got.tobytes() == arr.tobytes(), name


# -- balance losses on the ground-truth flow -----------------------------------


def test_perfect_flow_zeroes_tb_and_db_on_grid():
    env = HyperGrid(2, 3)
    suite, _ = perfect_suite(env)
    trajs = sample_batch(env, suite)
    assert float(tb_loss(ad.Tape(), step_batch(trajs), suite).data) <= 1e-10
    assert float(db_loss(ad.Tape(), step_batch(trajs), suite).data) <= 1e-10


def test_perfect_flow_zeroes_all_losses_on_sequence():
    env = SequenceEnv(2, 3, np.arange(1.0, 10.0))
    suite, bwd_log = perfect_suite(env)
    trajs = sample_batch(env, suite)
    assert float(tb_loss(ad.Tape(), step_batch(trajs), suite).data) <= 1e-10
    assert float(db_loss(ad.Tape(), step_batch(trajs), suite).data) <= 1e-10
    assert float(subtb_loss(ad.Tape(), step_batch(trajs), suite).data) <= 1e-10
    guide = TableGuide(env, bwd_log)
    assert float(guided_tb_loss(ad.Tape(), step_batch(trajs), suite, guide).data) <= 1e-10


# -- straight-line recomputation -----------------------------------------------


def test_tb_loss_matches_hand_recompute():
    env = HyperGrid(2, 3)
    suite = random_suite(env, np.random.default_rng(2), log_z=0.3, hidden=(8,),
                         learned_backward=True)
    trajs = sample_batch(env, suite, n=16, seed=3)
    want = np.mean([traj_log_ratio(suite, t) ** 2 for t in trajs])
    got = float(tb_loss(ad.Tape(), step_batch(trajs), suite).data)
    assert got == pytest.approx(want, rel=1e-10)


def test_tb_loss_weighted_sum():
    env = HyperGrid(1, 3)
    suite = make_suite(env, np.random.default_rng(4), hidden=(8,))
    trajs = sample_batch(env, suite, n=2, seed=5)
    w = np.array([0.25, 0.75])
    want = sum(wi * traj_log_ratio(suite, t) ** 2 for wi, t in zip(w, trajs))
    got = float(tb_loss(ad.Tape(), step_batch(trajs), suite, weights=w).data)
    assert got == pytest.approx(want, rel=1e-10)


def test_db_loss_matches_hand_recompute():
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(6)
    suite = random_suite(env, rng, 0.4, tabular=True, learned_backward=True,
                         need_flow=True)
    trajs = sample_batch(env, suite, n=12, seed=7)
    flow = suite.state_flow.model.table.data  # one entry per state
    enum = env.enumeration()

    want = 0.0
    for t in trajs:
        lpf, lpb = path_log_probs(suite, t)
        acc = 0.0
        pos = enum.positions(t.states)
        for j in range(t.length):
            lhs = flow[pos[j]] + lpf[j]
            if j == t.length - 1:
                rhs = t.log_reward
            else:
                rhs = flow[pos[j + 1]] + lpb[j]
            acc += (lhs - rhs) ** 2
        want += acc / len(trajs)
    got = float(db_loss(ad.Tape(), step_batch(trajs), suite).data)
    assert got == pytest.approx(want, rel=1e-10)


def test_db_loss_needs_flow():
    env = HyperGrid(1, 3)
    suite = make_suite(env, np.random.default_rng(8), hidden=(8,))
    trajs = sample_batch(env, suite, n=2, seed=9)
    with pytest.raises(ContractError):
        db_loss(ad.Tape(), step_batch(trajs), suite)


# -- sub-trajectory spans ------------------------------------------------------


def test_subtb_weights_geometric():
    pairs, w = subtb_weights(2, 0.9)
    assert pairs == [(0, 1), (0, 2), (1, 2)]
    np.testing.assert_allclose(w, np.array([0.9, 0.81, 0.9]) / 2.61)
    assert w.sum() == pytest.approx(1.0)


def full_span_weights(n_edges, base):
    """subtb_weights with all the mass on the full span (0, n_edges)."""
    pairs = [(i, j) for i in range(n_edges) for j in range(i + 1, n_edges + 1)]
    return pairs, np.asarray([float((i, j) == (0, n_edges)) for i, j in pairs])


def test_subtb_full_span_reduces_to_tb(monkeypatch):
    # On a graded environment the terminal hop is forced (log-prob 0), so the
    # full-span residual with F(root) set to log Z equals the TB residual.
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(10)
    suite = random_suite(env, rng, 0.5, log_z=0.7, tabular=True, learned_backward=True,
                         need_flow=True)
    suite.state_flow.model.table.data[env.enumeration().root_index] = suite.log_z.item()
    trajs = sample_batch(env, suite, n=8, seed=11)
    monkeypatch.setattr(objectives, "subtb_weights", full_span_weights)
    full = float(subtb_loss(ad.Tape(), step_batch(trajs), suite).data)
    tb = float(tb_loss(ad.Tape(), step_batch(trajs), suite).data)
    assert full == pytest.approx(tb, rel=1e-10)


def test_subtb_matches_hand_recompute():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(12)
    suite = random_suite(env, rng, 0.5, tabular=True, learned_backward=True,
                         need_flow=True)
    trajs = sample_batch(env, suite, n=6, seed=13)
    enum = env.enumeration()
    flow_tab = suite.state_flow.model.table.data  # one entry per state
    base = 0.9

    def flow_of(row):
        s = tuple(row.tolist())
        if terminal_slot(env, s) is not None:
            return log_reward(env, s)
        return flow_tab[enum.positions(row[None])[0]]

    pairs, w = subtb_weights(2, base)
    want = 0.0
    for t in trajs:
        lpf, lpb = path_log_probs(suite, t)
        acc = 0.0
        for (i, j), wk in zip(pairs, w):
            resid = flow_of(t.states[i]) - flow_of(t.states[j])
            resid += lpf[i:j].sum() - lpb[i:j].sum()
            acc += wk * resid ** 2
        want += acc / len(trajs)
    got = float(subtb_loss(ad.Tape(), step_batch(trajs), suite, weight_base=base).data)
    assert got == pytest.approx(want, rel=1e-10)


def subtb_spans_per_trajectory(n_traj, d, base):
    """subtb_loss's span index arrays as a loop over trajectories and spans:
    interior steps and their span buckets, span endpoint states, weights."""
    pairs, w = subtb_weights(d, base)
    rep_step, rep_bucket, pos_i, pos_j, w_full = [], [], [], [], []
    for b in range(n_traj):
        for k, (i, j) in enumerate(pairs):
            for t in range(i, j):
                rep_step.append(b * d + t)
                rep_bucket.append(b * len(pairs) + k)
            pos_i.append(b * (d + 1) + i)
            pos_j.append(b * (d + 1) + j)
            w_full.append(w[k])
    return rep_step, rep_bucket, pos_i, pos_j, w_full


@pytest.mark.parametrize("d, n_traj", [(2, 5), (4, 3)])
def test_subtb_span_arrays_match_the_per_trajectory_loop(monkeypatch, d, n_traj):
    env = SequenceEnv(d, 2, np.arange(1.0, 2 ** d + 1.0))
    suite = random_suite(env, np.random.default_rng(23), 0.5, tabular=True,
                         learned_backward=True, need_flow=True)
    seen = []
    for name in ("gather", "segment_sum", "mul"):
        op = getattr(ad, name)
        monkeypatch.setattr(ad, name, lambda *a, op=op: seen.append(a) or op(*a))
    subtb_loss(ad.Tape(), step_batch(sample_batch(env, suite, n=n_traj)), suite,
               weight_base=0.7)
    arrays = [np.asarray(x.data if isinstance(x, ad.Tensor) else x)
              for call in seen for x in call[2:] if not isinstance(x, int)]
    for want in subtb_spans_per_trajectory(n_traj, d, 0.7):
        assert any(got.shape == (len(want),) and np.array_equal(got, want) for got in arrays)


def test_subtb_without_spans_is_zero():
    # A graded DAG whose root is terminal: every trajectory is the stop hop.
    env = ExplicitDag({"r": []}, {"r": 2.0})
    suite = make_suite(env, np.random.default_rng(22), tabular=True,
                       learned_backward=True, need_flow=True)
    tape = ad.Tape()
    loss = subtb_loss(tape, step_batch(sample_batch(env, suite, n=3)), suite)
    assert float(loss.data) == 0.0
    tape.backward(loss)


def test_subtb_requires_graded():
    env = HyperGrid(2, 3)
    suite = make_suite(env, np.random.default_rng(14), tabular=True,
                       need_flow=True)
    trajs = sample_batch(env, suite, n=2, seed=15)
    with pytest.raises(ContractError):
        subtb_loss(ad.Tape(), step_batch(trajs), suite)


# -- guided balance ------------------------------------------------------------


def test_guided_tb_only_touches_backward_params():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(16)
    suite = make_suite(env, rng, hidden=(8,), learned_backward=True)
    guide = TableGuide(env, np.where(env.enumeration().parent_masks(), 0.0, -np.inf))
    trajs = sample_batch(env, suite, n=4, seed=17)
    tape = ad.Tape()
    loss = guided_tb_loss(tape, step_batch(trajs), suite, guide)
    assert float(loss.data) > 0.0
    tape.backward(loss)
    assert all(p.grad is None for p in suite.forward.params())
    assert any(p.grad is not None for p in suite.backward.params())


# -- per-step rewards ----------------------------------------------------------


def test_forward_step_rewards_telescope():
    # Interior backward log-probabilities cancel pairwise, so the per-step
    # sums collapse to the trajectory balance log-ratio for any policies.
    env = HyperGrid(2, 4)
    suite = random_suite(env, np.random.default_rng(18), log_z=-0.4, hidden=(8,),
                         learned_backward=True)
    trajs = sample_batch(env, suite, n=16, seed=19)
    sb = step_batch(trajs)
    lpf = suite.forward.step_log_probs(None, sb.states, sb.slots).data
    r = forward_step_rewards(sb, suite, lpf)
    sums = np.zeros(sb.n_traj)
    np.add.at(sums, sb.traj, r)
    want = np.array([traj_log_ratio(suite, t) for t in trajs])
    np.testing.assert_allclose(sums, want, rtol=1e-12, atol=1e-12)


def test_backward_step_rewards_definition():
    env = HyperGrid(2, 3)
    suite = make_suite(env, np.random.default_rng(20), hidden=(8,),
                       learned_backward=True)
    trajs = sample_batch(env, suite, n=8, seed=21)
    sb = step_batch(trajs)
    lpf = suite.forward.log_probs_numpy(sb.states)[np.arange(sb.n_steps), sb.slots]
    ref = lpf[~sb.terminal]
    lpb = suite.backward.log_probs_numpy(sb.in_states)
    picked = lpb[np.arange(len(sb.in_states)), sb.in_bslots]
    # At lambda 0 with zero values, each advantage is the edge's reward.
    got = backward_advantages(sb, picked, np.zeros(len(sb.in_states)), ref, 0.0)[0]
    want = lpb[np.arange(len(sb.in_states)), sb.in_bslots] - ref
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert got.size == (~sb.terminal).sum()


# -- advantage sweeps ----------------------------------------------------------


def gae_per_trajectory(rewards, values, lam):
    """The per-trajectory advantage loop: (advantages, targets adv + V)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    next_values = np.append(values[1:], 0.0)
    delta = rewards + next_values - values
    adv = np.empty(rewards.size)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = delta[t] + lam * acc
        adv[t] = acc
    return adv, adv + values


def test_gae_hand_unrolled():
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.array([0.5, -1.0, 2.0])
    delta_want = np.array([-0.5, 5.0, 1.0])

    adv, targets, targets_one = gae_advantages(rewards, values, [3], 1.0)
    np.testing.assert_allclose(adv, [5.5, 6.0, 1.0])
    # At lambda = 1 the value target is the reward-to-go.
    np.testing.assert_allclose(targets, [6.0, 5.0, 3.0])
    assert targets_one.tobytes() == targets.tobytes()

    adv, targets, targets_one = gae_advantages(rewards, values, [3], 0.0)
    np.testing.assert_allclose(adv, delta_want)
    np.testing.assert_allclose(targets, [0.0, 4.0, 3.0])
    np.testing.assert_allclose(targets_one, [6.0, 5.0, 3.0])

    adv, _, _ = gae_advantages(rewards, values, [3], 0.5)
    np.testing.assert_allclose(adv, [2.25, 5.5, 1.0])


def test_gae_single_step():
    adv, targets, targets_one = gae_advantages([2.0], [0.7], [1], 0.9)
    np.testing.assert_allclose(adv, [1.3])
    np.testing.assert_allclose(targets, [2.0])
    np.testing.assert_allclose(targets_one, [2.0])


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.99, 1.0])
def test_gae_scan_matches_the_per_trajectory_loop(lam):
    # Lengths 0..30 in random order, empty segments included; values of
    # mixed sign and magnitude so any reordered rounding would show.
    rng = np.random.default_rng(int(lam * 100))
    lengths = rng.permutation(np.concatenate([np.arange(31), [0, 1, 1, 7]]))
    n = int(lengths.sum())
    rewards = rng.normal(0.0, 3.0, n) * 10.0 ** rng.integers(-3, 4, n)
    values = rng.normal(0.0, 2.0, n)
    adv, targets, targets_one = gae_advantages(rewards, values, lengths, lam)
    ends = np.cumsum(lengths)
    want = [np.concatenate(parts) for parts in zip(*[
        gae_per_trajectory(rewards[e - k:e], values[e - k:e], lam)
        + gae_per_trajectory(rewards[e - k:e], values[e - k:e], 1.0)[1:]
        for k, e in zip(lengths, ends)])]
    for got, ref in zip((adv, targets, targets_one), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
