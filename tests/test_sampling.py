"""Rollout mechanics: lockstep sampling, exploration, replays."""

import numpy as np
import pytest

from gflow import autodiff as ad
from gflow.envs import SINK, HyperGrid, SequenceEnv
from gflow.errors import ContractError
from gflow.policy import ForwardPolicy, UniformBackward, make_suite
from gflow.sampling import (
    MixtureSchedule,
    ReplayBuffer,
    Trajectory,
    sample_backward,
    sample_forward,
    sample_rows,
)
from test_envs import validate_trajectory

N_MC = 100_000


def forced_forward(env, push, favored=0):
    """Tabular forward policy with one strongly favored slot per state."""
    model = ad.Tabular(env.enumeration().n, env.n_action_slots,
                       rng=np.random.default_rng(0), init_scale=0.0)
    model.table.data[:, favored] = push
    return ForwardPolicy(env, model)


def three_sigma(p, n):
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


def test_sample_rows_inverse_cdf():
    probs = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    u = np.array([0.25, 0.75, 0.99, 0.01])
    assert sample_rows(probs, u).tolist() == [0, 1, 0, 1]
    # Unnormalized rows draw by relative weight.
    assert sample_rows(np.array([[2.0, 6.0]]), np.array([0.2]))[0] == 0
    assert sample_rows(np.array([[2.0, 6.0]]), np.array([0.3]))[0] == 1


def test_forced_policy_gives_unique_trajectory():
    env = HyperGrid(1, 3)
    fwd = forced_forward(env, 50.0)
    trajs = sample_forward(env, fwd, 8, np.random.default_rng(1))
    for t in trajs:
        assert t.states == [(0,), (1,), (2,), SINK]
        assert t.slots == [0, 0, 1]
        assert t.bslots == [0, 0]
        assert t.x == (2,)
        assert t.length == 3
        assert t.log_reward == pytest.approx(np.log(0.51))
        assert validate_trajectory(env, t.states, t.slots)


def test_forward_rollouts_match_hand_distribution():
    # Uniform policy on the 2-state chain: state 0 stops or moves with
    # probability 1/2 each, state 1 can only stop, so P(x=0) = P(x=1) = 1/2.
    env = HyperGrid(1, 2)
    suite = make_suite(env, np.random.default_rng(2), tabular=True, init_scale=0.0)
    trajs = sample_forward(env, suite.forward, N_MC, np.random.default_rng(3))
    freq = np.mean([t.x == (0,) for t in trajs])
    assert freq == pytest.approx(0.5, abs=three_sigma(0.5, N_MC))


def test_mixture_overrides_policy_at_full_weight():
    env = HyperGrid(1, 2)
    fwd = forced_forward(env, 50.0)  # moves almost surely
    ub = UniformBackward(env)
    n = 20_000
    trajs = sample_forward(env, fwd, n, np.random.default_rng(4), eps=1.0)
    stop_freq = np.mean([t.x == (0,) for t in trajs])
    assert stop_freq == pytest.approx(0.5, abs=three_sigma(0.5, n))
    # The stops come from the uniform part: the policy itself almost never stops.
    assert fwd.log_probs_numpy([(0,)])[0, 1] < -40.0


def test_mixture_half_weight():
    # Draw distribution is 0.5 * policy + 0.5 * uniform; with the policy
    # massed on the move slot, stopping happens with probability ~0.25.
    env = HyperGrid(1, 2)
    fwd = forced_forward(env, 50.0)
    n = 40_000
    trajs = sample_forward(env, fwd, n, np.random.default_rng(5), eps=0.5)
    stop_freq = np.mean([t.x == (0,) for t in trajs])
    assert stop_freq == pytest.approx(0.25, abs=three_sigma(0.25, n))


def test_eps_zero_follows_policy():
    env = HyperGrid(1, 2)
    fwd = forced_forward(env, 50.0)
    trajs = sample_forward(env, fwd, 200, np.random.default_rng(6), eps=0.0)
    assert all(t.x == (1,) for t in trajs)


def test_forward_rollouts_are_valid_paths():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    suite = make_suite(env, np.random.default_rng(7), hidden=(8,), learned_backward=True)
    trajs = sample_forward(env, suite.forward, 16, np.random.default_rng(8), eps=0.3)
    for t in trajs:
        assert validate_trajectory(env, t.states, t.slots)
        assert t.bslots == [env.backward_slot(s, a) for s, a in zip(t.states, t.slots[:-1])]
        assert t.log_reward == pytest.approx(env.log_reward(t.x))


def test_backward_two_path_split():
    # Uniform backward from (1,1): both lattice paths equally likely.
    env = HyperGrid(2, 2)
    ub = UniformBackward(env)
    n = 4000
    trajs = sample_backward(env, ub, [(1, 1)] * n, np.random.default_rng(9))
    via_10 = np.mean([t.states[1] == (1, 0) for t in trajs])
    assert via_10 == pytest.approx(0.5, abs=three_sigma(0.5, n))
    for t in trajs[:50]:
        assert t.x == (1, 1)
        assert validate_trajectory(env, t.states, t.slots)


def test_backward_walks_end_at_their_endpoints():
    env = SequenceEnv(3, 2, np.arange(1.0, 9.0))
    suite = make_suite(env, np.random.default_rng(10), hidden=(8,), learned_backward=True)
    xs = [(0, 1, 0), (1, 1, 1), (0, 0, 0)]
    trajs = sample_backward(env, suite.backward, xs, np.random.default_rng(11))
    for t, x in zip(trajs, xs):
        assert t.x == x
        assert validate_trajectory(env, t.states, t.slots)
        assert len(t.slots) == env.max_trajectory_len
        assert t.bslots == [env.backward_slot(s, a) for s, a in zip(t.states, t.slots[:-1])]
        assert t.log_reward == pytest.approx(env.log_reward(x))


def test_backward_from_root_is_single_hop():
    env = HyperGrid(2, 3)
    trajs = sample_backward(env, UniformBackward(env), [env.root],
                            np.random.default_rng(12))
    t = trajs[0]
    assert t.states == [(0, 0), SINK]
    assert t.slots == [2]
    assert t.bslots == []


def test_rollout_bound_guard():
    env = HyperGrid(1, 4)
    env.max_trajectory_len = 1  # deliberately wrong bound
    fwd = forced_forward(env, 50.0)
    with pytest.raises(ContractError):
        sample_forward(env, fwd, 4, np.random.default_rng(13))


def test_mixture_schedule():
    sched = MixtureSchedule(gamma=0.9)
    assert sched.eps(0) == 1.0
    assert sched.eps(1) == pytest.approx(0.9)
    assert sched.eps(10) == pytest.approx(0.9 ** 10)


def test_replay_buffer_fifo():
    buf = ReplayBuffer(3)
    for i in range(4):
        buf.add((i,), float(i))
    assert len(buf) == 3
    assert buf.states() == [(1,), (2,), (3,)]
    np.testing.assert_array_equal(buf.rewards(), [1.0, 2.0, 3.0])


def test_replay_buffer_update_from_trajectories():
    t = Trajectory([(0,), SINK], [1], [], np.log(2.5))
    buf = ReplayBuffer(5)
    buf.update([t, ((1,), 4.0)])
    assert buf.states() == [(0,), (1,)]
    np.testing.assert_allclose(buf.rewards(), [2.5, 4.0])


def test_replay_buffer_rows_keep_the_newest_entries_oldest_first():
    buf = ReplayBuffer(4)
    assert buf.state_rows().shape == (0, 0)
    buf.update([((0, 1), 1.0), ((1, 1), 2.0), ((2, 0), 3.0)])
    buf.update([((i, i), 10.0 + i) for i in range(3)])
    np.testing.assert_array_equal(buf.state_rows(), [[2, 0], [0, 0], [1, 1], [2, 2]])
    np.testing.assert_array_equal(buf.rewards(), [3.0, 10.0, 11.0, 12.0])
    # One update longer than the capacity keeps only its own newest entries.
    buf.update([((i, 0), float(i)) for i in range(6)])
    assert buf.states() == [(2, 0), (3, 0), (4, 0), (5, 0)]
    np.testing.assert_array_equal(buf.rewards(), [2.0, 3.0, 4.0, 5.0])
    # Returned arrays are read-only snapshots: later adds do not reach them.
    rows = buf.state_rows()
    buf.add((9, 9), 9.0)
    np.testing.assert_array_equal(rows[0], [2, 0])
    assert len(buf) == 4
    with pytest.raises(ValueError):
        buf.rewards()[0] = 1.0
