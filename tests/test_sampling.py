"""Rollout mechanics: lockstep sampling, exploration, replays, and the
batched samplers against per-state oracles."""

import numpy as np
import pytest

from gflow import autodiff as ad
from gflow.envs import HyperGrid, SequenceEnv, random_dag, random_graded_dag
from gflow.errors import ContractError, NumericFault
from gflow.policy import ForwardPolicy, UniformBackward, make_suite
from gflow.sampling import (
    ReplayBuffer,
    Trajectory,
    sample_backward,
    sample_forward,
    sample_rows,
)
from gflow.training import Trainer, TrainerConfig
from oracles import dense_table, random_suite, set_table, synthetic_env
from test_envs import (
    backward_slot,
    child,
    forward_slot,
    log_reward,
    parent,
    root,
    rows,
    terminal_slot,
    validate_trajectory,
)

N_MC = 100_000


def forced_forward(env, push, favored=0):
    """Tabular forward policy with one strongly favored slot per state."""
    enum = env.enumeration()
    model = ad.Tabular(enum.n, env.n_action_slots, enum.action_index)
    table = np.zeros((enum.n, env.n_action_slots))
    table[:, favored] = push
    set_table(model, table)
    return ForwardPolicy(env, model)


def three_sigma(p, n):
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


# -- per-state oracles ---------------------------------------------------------
# The samplers as they ran one state at a time over lists of state tuples.
# The policies are still asked once per lockstep step, and the generator is
# drawn in the same order, so the batched samplers must match them exactly.


def _record(env, states, slots, bslots, log_r):
    return Trajectory(rows(env, states), np.array(slots, dtype=np.intp),
                      np.array(bslots, dtype=np.intp), log_r)


def sample_forward_per_state(env, forward, n, rng, eps=0.0):
    states = [[root(env)] for _ in range(n)]
    slots = [[] for _ in range(n)]
    bslots = [[] for _ in range(n)]
    log_r = [0.0] * n
    active = list(range(n))
    steps = 0
    while active:
        steps += 1
        if steps > env.max_trajectory_len + 1:
            raise ContractError("rollout exceeded the environment's trajectory bound")
        cur = [states[i][-1] for i in active]
        masks = forward.masks(rows(env, cur))
        probs = forward.probs_numpy(rows(env, cur), masks)
        if eps > 0.0:
            uniform = masks / masks.sum(axis=-1, keepdims=True)
            probs = (1.0 - eps) * probs + eps * uniform
        chosen = sample_rows(probs, rng.random(len(active)))
        still = []
        for i, s, a in zip(active, cur, chosen.tolist()):
            c = child(env, s, a)
            slots[i].append(a)
            if c is None:
                log_r[i] = log_reward(env, s)
            else:
                states[i].append(c)
                bslots[i].append(backward_slot(env, s, a))
                still.append(i)
        active = still
    return [_record(env, *parts) for parts in zip(states, slots, bslots, log_r)]


def sample_backward_per_state(env, backward, xs, rng):
    m = len(xs)
    chains = [[x] for x in xs]
    picks = [[] for _ in range(m)]
    active = [i for i in range(m) if xs[i] != root(env)]
    steps = 0
    while active:
        steps += 1
        if steps > env.max_trajectory_len:
            raise ContractError("backward walk exceeded the environment's trajectory bound")
        cur = [chains[i][-1] for i in active]
        chosen = sample_rows(backward.probs_numpy(rows(env, cur)), rng.random(len(active)))
        still = []
        for i, s, b in zip(active, cur, chosen.tolist()):
            picks[i].append(b)
            p = parent(env, s, b)
            chains[i].append(p)
            if p != root(env):
                still.append(i)
        active = still
    out = []
    for x, chain, picked in zip(xs, chains, picks):
        fwd_states, bslots = chain[::-1], picked[::-1]
        fslots = [forward_slot(env, s, b) for s, b in zip(fwd_states[1:], bslots)]
        fslots.append(terminal_slot(env, x))
        out.append(_record(env, fwd_states, fslots, bslots, log_reward(env, x)))
    return out


def assert_same_trajectories(fast, slow):
    assert len(fast) == len(slow)
    for f, s in zip(fast, slow):
        for name in ("states", "slots", "bslots"):
            a, b = getattr(f, name), getattr(s, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
        assert type(f.log_reward) is float
        assert np.float64(f.log_reward).tobytes() == np.float64(s.log_reward).tobytes()


ORACLE_ENVS = ([pytest.param(lambda: HyperGrid(2, 16), id="grid-2x16"),
                pytest.param(lambda: synthetic_env(6, 4, 2), id="seq-6x4")]
               + [pytest.param(lambda seed=seed: random_dag(np.random.default_rng(seed)),
                               id=f"dag-{seed}") for seed in range(8)]
               + [pytest.param(lambda seed=seed: random_graded_dag(np.random.default_rng(seed)),
                               id=f"graded-{seed}") for seed in range(8)])


@pytest.mark.parametrize("make_env", ORACLE_ENVS)
def test_batched_samplers_match_per_state_oracles(make_env):
    env = make_env()
    suite = random_suite(env, np.random.default_rng(1), 1.0, tabular=True,
                         learned_backward=True)
    for eps in (0.0, 0.3):
        fast = sample_forward(env, suite.forward, 48, np.random.default_rng(2), eps=eps)
        slow = sample_forward_per_state(env, suite.forward, 48, np.random.default_rng(2),
                                        eps=eps)
        assert_same_trajectories(fast, slow)
    # Backward walks from the sampled endpoints, repeated and reordered, and
    # from the root when it can terminate.
    ends = [tuple(tr.x.tolist()) for tr in fast]
    xs = ends + ends[::-1][:10]
    if terminal_slot(env, root(env)) is not None:
        xs.append(root(env))
    for backward in (suite.backward, UniformBackward(env)):
        got = sample_backward(env, backward, rows(env, xs), np.random.default_rng(3))
        want = sample_backward_per_state(env, backward, xs, np.random.default_rng(3))
        assert_same_trajectories(got, want)
        assert all(validate_trajectory(env, tr) for tr in got)


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
        assert t.states.tolist() == [[0], [1], [2]]
        assert t.slots.tolist() == [0, 0, 1]
        assert t.bslots.tolist() == [0, 0]
        assert t.x.tolist() == [2]
        assert t.length == 3
        assert t.log_reward == pytest.approx(np.log(0.51))
        assert validate_trajectory(env, t)


def test_forward_rollouts_match_hand_distribution():
    # Uniform policy on the 2-state chain: state 0 stops or moves with
    # probability 1/2 each, state 1 can only stop, so P(x=0) = P(x=1) = 1/2.
    env = HyperGrid(1, 2)
    suite = make_suite(env, np.random.default_rng(2), tabular=True)
    trajs = sample_forward(env, suite.forward, N_MC, np.random.default_rng(3))
    freq = np.mean([t.x[0] == 0 for t in trajs])
    assert freq == pytest.approx(0.5, abs=three_sigma(0.5, N_MC))


def test_mixture_overrides_policy_at_full_weight():
    env = HyperGrid(1, 2)
    fwd = forced_forward(env, 50.0)  # moves almost surely
    ub = UniformBackward(env)
    n = 20_000
    trajs = sample_forward(env, fwd, n, np.random.default_rng(4), eps=1.0)
    stop_freq = np.mean([t.x[0] == 0 for t in trajs])
    assert stop_freq == pytest.approx(0.5, abs=three_sigma(0.5, n))
    # The stops come from the uniform part: the policy itself almost never stops.
    assert fwd.log_probs_numpy(rows(env, [(0,)]))[0, 1] < -40.0


def test_mixture_half_weight():
    # Draw distribution is 0.5 * policy + 0.5 * uniform; with the policy
    # massed on the move slot, stopping happens with probability ~0.25.
    env = HyperGrid(1, 2)
    fwd = forced_forward(env, 50.0)
    n = 40_000
    trajs = sample_forward(env, fwd, n, np.random.default_rng(5), eps=0.5)
    stop_freq = np.mean([t.x[0] == 0 for t in trajs])
    assert stop_freq == pytest.approx(0.25, abs=three_sigma(0.25, n))


def test_eps_zero_follows_policy():
    env = HyperGrid(1, 2)
    fwd = forced_forward(env, 50.0)
    trajs = sample_forward(env, fwd, 200, np.random.default_rng(6), eps=0.0)
    assert all(t.x.tolist() == [1] for t in trajs)


def test_forward_rollouts_are_valid_paths():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    suite = make_suite(env, np.random.default_rng(7), hidden=(8,), learned_backward=True)
    trajs = sample_forward(env, suite.forward, 16, np.random.default_rng(8), eps=0.3)
    for t in trajs:
        assert validate_trajectory(env, t)
        assert t.log_reward == log_reward(env, tuple(t.x.tolist()))


def test_backward_two_path_split():
    # Uniform backward from (1,1): both lattice paths equally likely.
    env = HyperGrid(2, 2)
    ub = UniformBackward(env)
    n = 4000
    trajs = sample_backward(env, ub, rows(env, [(1, 1)] * n), np.random.default_rng(9))
    via_10 = np.mean([t.states[1].tolist() == [1, 0] for t in trajs])
    assert via_10 == pytest.approx(0.5, abs=three_sigma(0.5, n))
    for t in trajs[:50]:
        assert t.x.tolist() == [1, 1]
        assert validate_trajectory(env, t)


def test_backward_walks_end_at_their_endpoints():
    env = SequenceEnv(3, 2, np.arange(1.0, 9.0))
    suite = make_suite(env, np.random.default_rng(10), hidden=(8,), learned_backward=True)
    xs = [(0, 1, 0), (1, 1, 1), (0, 0, 0)]
    trajs = sample_backward(env, suite.backward, rows(env, xs), np.random.default_rng(11))
    for t, x in zip(trajs, xs):
        assert tuple(t.x.tolist()) == x
        assert validate_trajectory(env, t)
        assert len(t.slots) == env.max_trajectory_len
        assert t.log_reward == log_reward(env, x)


def test_backward_from_root_is_single_hop():
    env = HyperGrid(2, 3)
    trajs = sample_backward(env, UniformBackward(env), env.root[None],
                            np.random.default_rng(12))
    t = trajs[0]
    assert t.states.tolist() == [[0, 0]]
    assert t.slots.tolist() == [2]
    assert t.bslots.tolist() == []


def test_rollout_bound_guard():
    env = HyperGrid(1, 4)
    env.max_trajectory_len = 1  # deliberately wrong bound
    fwd = forced_forward(env, 50.0)
    with pytest.raises(ContractError):
        sample_forward(env, fwd, 4, np.random.default_rng(13))


def test_forward_sampler_rejects_non_finite_probabilities():
    # NaN parameters once made every draw pick slot 0 until the bound guard.
    env = HyperGrid(2, 4)
    fwd = forced_forward(env, np.nan)
    with pytest.raises(NumericFault, match="forward policy probabilities are non-finite"), \
            np.errstate(invalid="ignore"):
        sample_forward(env, fwd, 4, np.random.default_rng(13), eps=0.5)


def test_backward_sampler_rejects_non_finite_probabilities():
    env = HyperGrid(2, 4)
    suite = make_suite(env, np.random.default_rng(14), tabular=True, learned_backward=True)
    table = dense_table(suite.backward.model)
    table[:, 1] = np.inf
    set_table(suite.backward.model, table)
    with pytest.raises(NumericFault, match="backward policy probabilities are non-finite"), \
            np.errstate(invalid="ignore"):
        sample_backward(env, suite.backward, rows(env, [(3, 3), (0, 0)]),
                        np.random.default_rng(15))


def test_mixture_schedule():
    # Trainer.step samples the balance strategies' batches with exploration
    # weight gamma ** iteration and reports it; the RL rows sample on-policy.
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(0)
    for strategy, want in (("TB-U", [1.0, 0.9, 0.9 ** 2]), ("RL-U", [0.0, 0.0, 0.0])):
        cfg = TrainerConfig(strategy=strategy, batch_size=4, gamma=0.9, tabular=True)
        trainer = Trainer(env, cfg, rng)
        assert [trainer.step(rng)["eps"] for _ in range(3)] == want


def test_replay_buffer_fifo():
    buf = ReplayBuffer(3)
    for i in range(4):
        buf.update([(i,)], [float(i)])
    assert len(buf) == 3
    assert buf.state_rows().tolist() == [[1], [2], [3]]
    np.testing.assert_array_equal(buf.rewards(), [1.0, 2.0, 3.0])


def test_replay_buffer_update_from_trajectories():
    t = Trajectory(np.array([[0]]), np.array([1]), np.zeros(0, dtype=np.intp), np.log(2.5))
    buf = ReplayBuffer(5)
    buf.update([t.x, (1,)], [np.exp(t.log_reward), 4.0])
    buf.update(np.zeros((0, 1), dtype=np.intp), np.zeros(0))
    assert buf.state_rows().tolist() == [[0], [1]]
    np.testing.assert_allclose(buf.rewards(), [2.5, 4.0])


def test_replay_buffer_rows_keep_the_newest_entries_oldest_first():
    buf = ReplayBuffer(4)
    assert buf.state_rows().shape == (0, 0)
    buf.update([(0, 1), (1, 1), (2, 0)], [1.0, 2.0, 3.0])
    buf.update([(i, i) for i in range(3)], [10.0 + i for i in range(3)])
    np.testing.assert_array_equal(buf.state_rows(), [[2, 0], [0, 0], [1, 1], [2, 2]])
    np.testing.assert_array_equal(buf.rewards(), [3.0, 10.0, 11.0, 12.0])
    # One update longer than the capacity keeps only its own newest entries.
    buf.update([(i, 0) for i in range(6)], [float(i) for i in range(6)])
    assert buf.state_rows().tolist() == [[2, 0], [3, 0], [4, 0], [5, 0]]
    np.testing.assert_array_equal(buf.rewards(), [2.0, 3.0, 4.0, 5.0])
    # Returned arrays are read-only snapshots: later adds do not reach them.
    rows = buf.state_rows()
    buf.update([(9, 9)], [9.0])
    np.testing.assert_array_equal(rows[0], [2, 0])
    assert len(buf) == 4
    with pytest.raises(ValueError):
        buf.rewards()[0] = 1.0
