"""Dynamic-programming evaluation checked against brute-force trajectory
enumeration and hand-computed distributions."""

import tracemalloc

import numpy as np
import pytest

from gflow import autodiff as ad
from gflow.envs import (
    ExplicitDag,
    HyperGrid,
    SequenceEnv,
    random_dag,
    random_graded_dag,
)
from gflow.errors import ContractError
from gflow.exact import (
    accumulated_distribution,
    backward_values,
    edge_logs_backward,
    flow_from_rewards,
    forward_hops,
    forward_log_table,
    forward_values,
    jensen_shannon,
    mode_count,
    mode_states,
    policy_kl,
    reward_accuracy,
    reward_distribution,
    terminating_distribution,
    total_variation,
    visit_probabilities,
)
from gflow.policy import ForwardPolicy, UniformBackward, make_suite
from gflow.sampling import sample_forward
from oracles import (
    advantages,
    backward_log_table,
    dense_backward_values,
    dense_forward_values,
    edge_logs_forward,
    enumerate_paths,
    exact_logit_gradient,
    finite_difference_grad,
    hop_slots,
    hop_sources,
    layer_loop_backward_values,
    layer_loop_flows,
    layer_loop_forward_values,
    layer_loop_visits,
    path_log_prob,
    random_suite,
    set_table,
    synthetic_env,
    table_visits,
)
from test_envs import layer_of, log_reward, validate_trajectory


def at(enum, state):
    """Enumeration position of one state given as a tuple."""
    return int(enum.positions(np.array([state], dtype=np.intp))[0])


def log_softmax(logits, masks):
    return ad.log_softmax_masked(None, logits, masks).data


def random_tables(env, seed, learned_backward=True):
    """Dense random policy tables over the enumeration; the root's backward
    row stays -inf (it has no parents and is never evaluated)."""
    enum = env.enumeration()
    rng = np.random.default_rng(seed)
    fwd = log_softmax(rng.normal(0, 1, (enum.n, env.n_action_slots)),
                      enum.action_masks())
    masks = enum.parent_masks()
    rows = [i for i in range(enum.n) if i != enum.root_index]
    bwd = np.full((enum.n, env.n_backward_slots), -np.inf)
    if learned_backward:
        bwd[rows] = log_softmax(
            rng.normal(0, 1, (len(rows), env.n_backward_slots)), masks[rows])
    else:
        bwd[rows] = np.where(masks[rows],
                             -np.log(masks[rows].sum(axis=1, keepdims=True)), -np.inf)
    return enum, fwd, bwd


# -- terminating distribution --------------------------------------------------


def test_deterministic_policy_is_point_mass():
    env = HyperGrid(1, 3)
    enum = env.enumeration()
    fwd = np.full((3, 2), -np.inf)
    fwd[0, 0] = fwd[1, 0] = 0.0  # move, move
    fwd[2, 1] = 0.0              # forced stop
    pt = terminating_distribution(enum, fwd)
    want = np.zeros(3)
    want[at(enum, (2,))] = 1.0
    np.testing.assert_allclose(pt, want)


def test_uniform_chain_splits_evenly():
    # Two-state chain, uniform policy: stop at 0 w.p. 1/2, else forced stop at 1.
    env = HyperGrid(1, 2)
    enum = env.enumeration()
    suite = make_suite(env, np.random.default_rng(0), tabular=True)
    pt = terminating_distribution(enum, forward_log_table(enum, suite.forward))
    np.testing.assert_allclose(pt, [0.5, 0.5])


def test_terminating_distribution_matches_path_enumeration():
    env = HyperGrid(2, 3)
    enum, fwd, _ = random_tables(env, seed=1)
    pt = terminating_distribution(enum, fwd)
    paths = enumerate_paths(env)
    total = np.zeros(enum.n)
    for tr in paths:
        total[at(enum, tr.x)] += np.exp(path_log_prob(enum, fwd, tr))
    np.testing.assert_allclose(pt, total, atol=1e-12)
    assert pt.sum() == pytest.approx(1.0, abs=1e-12)


def test_visit_probabilities_root_one():
    env = SequenceEnv(2, 2, np.ones(4))
    enum, fwd, _ = random_tables(env, seed=2)
    reach = visit_probabilities(enum, np.exp(edge_logs_forward(enum, fwd)))
    assert reach[enum.root_index] == 1.0
    # Graded env: each layer's visit mass sums to 1.
    for layer in enum.layers:
        assert np.sum(reach[layer]) == pytest.approx(1.0, abs=1e-12)


# -- accumulated state distribution --------------------------------------------


def dense_transitions(enum, fwd_log):
    """Dense (n x n) forward transition matrix P and the root start vector."""
    p = np.zeros((enum.n, enum.n))
    p[enum.edge_src, enum.edge_dst] = np.exp(edge_logs_forward(enum, fwd_log))
    mu = np.zeros(enum.n)
    mu[enum.root_index] = 1.0
    return p, mu


def accumulated_by_matrix(enum, fwd_log):
    """Oracle for accumulated_distribution on a graded DAG: the
    fundamental-matrix solve (I - P^T)^-1 mu, over T."""
    p, mu = dense_transitions(enum, fwd_log)
    d = np.linalg.solve(np.eye(enum.n) - p.T, mu)
    return d / len(enum.layers)


def accumulated_by_powers(enum, fwd_log):
    """Oracle for accumulated_distribution on a graded DAG: the nilpotent
    power sum mu + P^T mu + ... + (P^T)^(T-1) mu, over T."""
    p, mu = dense_transitions(enum, fwd_log)
    acc = mu.copy()
    vec = mu
    for _ in range(len(enum.layers) - 1):
        vec = p.T @ vec
        acc += vec
    return acc / len(enum.layers)


def test_accumulated_distribution_three_routes_agree():
    env = SequenceEnv(2, 3, np.arange(1.0, 10.0))
    enum, fwd, _ = random_tables(env, seed=3)
    d_layers = accumulated_distribution(enum, fwd)
    d_matrix = accumulated_by_matrix(enum, fwd)
    d_power = accumulated_by_powers(enum, fwd)
    np.testing.assert_allclose(d_layers, d_matrix, atol=1e-10)
    np.testing.assert_allclose(d_layers, d_power, atol=1e-10)
    assert d_layers.sum() == pytest.approx(1.0, abs=1e-10)


def test_accumulated_distribution_chain():
    # Single-path DAG: every trajectory visits every state, so d(s) = 1/T.
    env = ExplicitDag({"r": ["a"], "a": ["x"]}, {"x": 1.0})
    enum, fwd, _ = random_tables(env, seed=4)
    d = accumulated_distribution(enum, fwd)
    np.testing.assert_allclose(d, np.full(3, 1.0 / 3.0))


def test_accumulated_distribution_requires_graded():
    env = HyperGrid(2, 3)
    enum, fwd, _ = random_tables(env, seed=5)
    with pytest.raises(ContractError):
        accumulated_distribution(enum, fwd)


# -- metrics -------------------------------------------------------------------


def test_metric_identities():
    p = np.array([0.3, 0.7])
    assert total_variation(p, p) == 0.0
    assert jensen_shannon(p, p) == 0.0
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert jensen_shannon([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.log(2.0))
    assert total_variation([0.8, 0.2], [0.5, 0.5]) == pytest.approx(0.3)


def test_reward_accuracy_bounds():
    env = HyperGrid(2, 8)
    enum = env.enumeration()
    p_star = reward_distribution(enum)
    assert reward_accuracy(p_star, enum) == 1.0
    # All mass on the lowest-reward cell underestimates E[R].
    worst = np.zeros(enum.n)
    worst[at(enum, (3, 3))] = 1.0
    acc = reward_accuracy(worst, enum)
    assert 0.0 < acc < 0.1


def test_reward_distribution_is_normalized_target():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    enum = env.enumeration()
    p = reward_distribution(enum)
    assert p.sum() == pytest.approx(1.0)
    assert p[at(enum, (1, 1))] == pytest.approx(0.4)
    assert p[at(enum, env.root)] == 0.0


def test_mode_states_top_quantile_with_ties():
    env = HyperGrid(2, 8)
    modes = mode_states(env.enumeration())
    assert modes.dtype == np.intp
    assert sorted(map(tuple, modes.tolist())) == [(1, 1), (1, 6), (6, 1), (6, 6)]


def test_mode_count_plateaus():
    env = HyperGrid(1, 8)
    enum = env.enumeration()
    modes = mode_states(enum)

    def pushed(slot):
        """A tabular policy with logit 50 on `slot` wherever it is valid."""
        model = ad.Tabular(enum.n, env.n_action_slots, enum.action_index)
        table = np.zeros((enum.n, env.n_action_slots))
        table[:, slot] = 50.0
        set_table(model, table)
        return ForwardPolicy(env, model)

    fwd = pushed(0)  # march to the far edge and stop there
    rng = np.random.default_rng(8)
    count, seen = mode_count(env, fwd, modes, 32, rng)
    if [7] in modes.tolist():
        assert count == 1
    count2, _ = mode_count(env, fwd, modes, 32, rng, seen=seen)
    assert count2 == count

    never = pushed(1)  # stop at the root immediately
    count3, _ = mode_count(env, never, modes, 64, np.random.default_rng(10))
    assert count3 == 0


# -- flow construction ---------------------------------------------------------


def test_flow_fixture_transports_reward_distribution():
    for env in (HyperGrid(2, 5), SequenceEnv(2, 3, np.arange(1.0, 10.0))):
        enum = env.enumeration()
        fwd_log, bwd_log, log_z_star, log_flow = flow_from_rewards(enum)
        pt = terminating_distribution(enum, fwd_log)
        np.testing.assert_allclose(pt, reward_distribution(enum), atol=1e-10)
        assert np.exp(log_z_star) == pytest.approx(enum.partition(), rel=1e-12)
        # Rows of the induced forward policy are normalized.
        mass = np.exp(fwd_log).sum(axis=1)
        np.testing.assert_allclose(mass, 1.0, atol=1e-12)


def test_flow_fixture_on_random_dags():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        env = random_dag(rng) if seed % 2 else random_graded_dag(rng)
        enum = env.enumeration()
        fwd_log, _, _, _ = flow_from_rewards(enum)
        np.testing.assert_allclose(terminating_distribution(enum, fwd_log),
                                   reward_distribution(enum), atol=1e-10)


def test_flow_fixture_with_given_backward():
    env = HyperGrid(2, 3)
    enum, _, bwd = random_tables(env, seed=11)
    fwd_log, bwd_out, _, _ = flow_from_rewards(enum, bwd_log=bwd)
    assert bwd_out is bwd
    np.testing.assert_allclose(terminating_distribution(enum, fwd_log),
                               reward_distribution(enum), atol=1e-10)


# -- state values --------------------------------------------------------------


def path_forward_value(enum, fwd, bwd, log_z, env):
    """E over trajectories of the summed forward step rewards, brute force."""
    total = 0.0
    for tr in enumerate_paths(env):
        lpf = path_log_prob(enum, fwd, tr)
        lpb = path_log_prob(enum, bwd, tr, backward=True)
        total += np.exp(lpf) * (lpf - lpb - tr.log_reward + log_z)
    return total


def value_oracle_envs():
    """Small envs for the path-enumeration oracles.  The random_dag ones have
    skip-level edges and interior rewards: edges that jump several layers and
    states that both stop and continue."""
    return [HyperGrid(2, 3), SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])] + [
        random_dag(np.random.default_rng(seed)) for seed in range(3)]


def test_forward_root_value_matches_trajectory_sum():
    for env in value_oracle_envs():
        enum, fwd, bwd = random_tables(env, seed=12)
        log_z = 0.3
        ref = edge_logs_backward(enum, bwd)
        v, _ = forward_values(enum, forward_hops(enum, fwd), ref, log_z)
        want = path_forward_value(enum, fwd, bwd, log_z, env)
        assert v[enum.root_index] == pytest.approx(want, abs=1e-10)


def test_forward_value_gap_is_trajectory_kl():
    # With log Z = log Z*, the root's forward value is the KL divergence
    # between the trajectory distributions induced by the two policies,
    # hence nonnegative; a mismatched log Z shifts it by logZ - logZ*.
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    enum, fwd, bwd = random_tables(env, seed=13)
    log_z_star = np.log(enum.partition())
    ref = edge_logs_backward(enum, bwd)
    hops = forward_hops(enum, fwd)
    v, _ = forward_values(enum, hops, ref, log_z_star)
    assert v[enum.root_index] >= 0.0
    v_shift, _ = forward_values(enum, hops, ref, log_z_star + 0.25)
    assert v_shift[enum.root_index] == pytest.approx(v[enum.root_index] + 0.25,
                                                     abs=1e-12)


def test_perfect_flow_values_follow_log_flow():
    # Along any trajectory the step rewards telescope, so the reward-to-go
    # from s is log Z* - log F(s): zero at the root, and every advantage
    # vanishes because each action's Q equals V.
    env = HyperGrid(2, 3)
    enum = env.enumeration()
    fwd_log, bwd_log, log_z_star, log_flow = flow_from_rewards(enum)
    ref = edge_logs_backward(enum, bwd_log)
    v, q = forward_values(enum, forward_hops(enum, fwd_log), ref, log_z_star)
    np.testing.assert_allclose(v, log_z_star - log_flow, atol=1e-10)
    assert abs(v[enum.root_index]) <= 1e-10
    np.testing.assert_allclose(q - v[hop_sources(enum)], 0.0, atol=1e-10)


def test_backward_values_match_conditional_enumeration():
    for env in value_oracle_envs():
        enum, fwd, bwd = random_tables(env, seed=14)
        ref = edge_logs_forward(enum, fwd)
        v, _ = backward_values(enum, bwd, ref)
        assert v[enum.root_index] == 0.0

        # Per endpoint x: the backward-weighted mean over paths ending at x.
        want = np.zeros(enum.n)
        norm = np.zeros(enum.n)
        for tr in enumerate_paths(env):
            pos = enum.positions(tr.states)
            x = pos[-1]
            lpb = path_log_prob(enum, bwd, tr, backward=True)
            val = 0.0
            for t, (a, b) in enumerate(zip(tr.slots[:-1], tr.bslots)):
                val += bwd[pos[t + 1], b] - fwd[pos[t], a]
            want[x] += np.exp(lpb) * val
            norm[x] += np.exp(lpb)
        term = enum.terminal
        np.testing.assert_allclose(norm[term], 1.0, atol=1e-12)
        np.testing.assert_allclose(v[term], want[term], atol=1e-10)


def test_advantages_average_to_zero():
    env = HyperGrid(2, 3)
    enum, fwd, bwd = random_tables(env, seed=15)
    _, hop_p = hops = forward_hops(enum, fwd)
    v, q = forward_values(enum, hops, edge_logs_backward(enum, bwd), 0.1)
    src = hop_sources(enum)
    per_state = np.bincount(src, hop_p * (q - v[src]), minlength=enum.n)
    np.testing.assert_allclose(per_state, 0.0, atol=1e-12)


def test_exact_logit_gradient_matches_finite_difference():
    env = HyperGrid(1, 3)
    enum = env.enumeration()
    masks = enum.action_masks()
    ub = UniformBackward(env)
    ref = edge_logs_backward(enum, backward_log_table(enum, ub))
    log_z = 0.4
    rng = np.random.default_rng(16)
    theta0 = rng.normal(0, 1, (enum.n, env.n_action_slots))

    def j_of(flat):
        fwd = log_softmax(flat.reshape(theta0.shape), masks)
        v, _ = forward_values(enum, forward_hops(enum, fwd), ref, log_z)
        return v[enum.root_index]

    fwd0 = log_softmax(theta0, masks)
    v, q = dense_forward_values(enum, fwd0, ref, log_z)
    adv = advantages(v, q, masks)
    want = exact_logit_gradient(table_visits(enum, fwd0), fwd0, adv)
    got = finite_difference_grad(j_of, theta0.ravel())
    np.testing.assert_allclose(got, want.ravel(), atol=1e-6)


def test_finite_difference_grad_basics():
    a = np.array([2.0, -3.0, 0.5])
    g = finite_difference_grad(lambda x: float(a @ x), np.zeros(3))
    np.testing.assert_allclose(g, a, atol=1e-9)
    g = finite_difference_grad(lambda x: float(x @ x), np.array([1.0, -2.0]))
    np.testing.assert_allclose(g, [2.0, -4.0], atol=1e-6)


# -- policy KL -----------------------------------------------------------------


def test_policy_kl_hand_value():
    masks = np.array([[True, True], [True, True]])
    p = np.log(np.array([[0.8, 0.2], [0.5, 0.5]]))
    q = np.log(np.array([[0.5, 0.5], [0.5, 0.5]]))
    w = np.array([1.0, 1.0])
    want = 0.8 * np.log(1.6) + 0.2 * np.log(0.4)
    assert policy_kl(p, q, w, masks) == pytest.approx(want)
    assert policy_kl(p, p, w, masks) == 0.0
    # Row weights scale their contributions.
    assert policy_kl(p, q, np.array([2.0, 5.0]), masks) == pytest.approx(2 * want)


def test_policy_kl_ignores_masked_slots():
    masks = np.array([[True, False]])
    p = np.array([[0.0, -np.inf]])
    q = np.array([[0.0, -np.inf]])
    assert policy_kl(p, q, np.ones(1), masks) == 0.0


# -- table plumbing ------------------------------------------------------------


@pytest.mark.parametrize("make_env", [
    pytest.param(lambda: HyperGrid(2, 5), id="grid"),
    pytest.param(lambda: SequenceEnv(3, 3, np.ones(27)), id="sequence"),
    pytest.param(lambda: random_dag(np.random.default_rng(3)), id="random_dag"),
    pytest.param(lambda: random_graded_dag(np.random.default_rng(4)), id="random_graded_dag"),
])
def test_forward_hops_are_every_valid_slot_once(make_env):
    # Hops are the interior edges in edge order, then each terminal-capable
    # state's stop slot: together every valid slot of the table, each once.
    # The gather matches the concatenated index it replaced byte for byte.
    env = make_env()
    enum, fwd, _ = random_tables(env, seed=20)
    hop_log, hop_p = forward_hops(enum, fwd)
    src, slots = hop_sources(enum), hop_slots(enum)
    assert_same_bytes(hop_log, fwd[src, slots])
    assert_same_bytes(hop_p, np.exp(fwd[src, slots]))
    assert np.array_equal(src[len(enum.edge_src):], enum.stops)
    assert np.array_equal(slots[len(enum.edge_src):], enum.stop_slots)
    covered = np.zeros(fwd.shape, dtype=int)
    np.add.at(covered, (enum.edge_src, enum.edge_slot), 1)
    np.add.at(covered, (enum.stops, enum.stop_slots), 1)
    assert np.array_equal(covered, enum.action_masks().astype(int))


@pytest.mark.parametrize("make_env", [
    pytest.param(lambda: HyperGrid(2, 5), id="grid"),
    pytest.param(lambda: SequenceEnv(3, 3, np.ones(27)), id="sequence"),
    pytest.param(lambda: random_dag(np.random.default_rng(3)), id="random_dag"),
])
def test_edge_layers_are_built_on_first_sweep(make_env):
    # Building an enumeration does no sweep work; the first sweep slices the
    # edges by the layer of their source, and later sweeps reuse the slices.
    enum = make_env().enumeration()
    assert "edge_layers" not in vars(enum)
    visit_probabilities(enum, np.ones(len(enum.edge_src)))
    layers = vars(enum)["edge_layers"]
    depth = layer_of(enum)
    covered = np.concatenate([np.arange(len(enum.edge_src))[e] for e in layers])
    assert np.array_equal(covered, np.arange(len(enum.edge_src)))
    assert len(layers) == len(enum.layers)
    for k, e in enumerate(layers):
        assert np.all(depth[enum.edge_src[e]] == k)
    visit_probabilities(enum, np.ones(len(enum.edge_src)))
    assert vars(enum)["edge_layers"] is layers


def test_log_tables_and_edge_views():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(17)
    suite = make_suite(env, rng, hidden=(8,), learned_backward=True)
    enum = env.enumeration()
    fwd = forward_log_table(enum, suite.forward)
    assert fwd.shape == (enum.n, env.n_action_slots)
    bwd = backward_log_table(enum, suite.backward)
    assert np.all(bwd[enum.root_index] == -np.inf)
    ef = edge_logs_forward(enum, fwd)
    eb = edge_logs_backward(enum, bwd)
    assert ef.shape == eb.shape == (len(enum.edge_src),)
    for e in range(len(enum.edge_src)):
        assert ef[e] == fwd[enum.edge_src[e], enum.edge_slot[e]]
        assert eb[e] == bwd[enum.edge_dst[e], enum.edge_bslot[e]]


def test_forward_log_table_holds_one_row_block_at_a_time():
    # A (1000,) Mlp over the 15 625 states of SequenceEnv(6, 4).  One pass
    # would hold 15 625 x 1000 activations, about 250 MB in all; a row block
    # holds 32 rows of 1000.
    env = synthetic_env(6, 4, 0)
    enum = env.enumeration()
    suite = make_suite(env, np.random.default_rng(0), hidden=(1000,))
    tracemalloc.start()
    try:
        table = forward_log_table(enum, suite.forward)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (5 ** 6, env.n_action_slots)
    assert peak <= table.nbytes + 4 * ad.BLOCK * 8


HOP_ENVS = [HyperGrid(2, 5), SequenceEnv(3, 3, np.arange(1.0, 28.0))] + [
    make(np.random.default_rng(seed)) for make in (random_dag, random_graded_dag)
    for seed in range(3)]


@pytest.mark.parametrize("env", HOP_ENVS, ids=["grid", "sequence"] + [
    f"{kind}{seed}" for kind in ("dag", "graded") for seed in range(3)])
def test_tabular_forward_log_table_matches_the_dense_path(env):
    # A tabular policy's table comes from its packed logits in hop form;
    # the dense log-softmax over the whole table referees it.
    enum = env.enumeration()
    masks = enum.action_masks()
    policy = random_suite(env, np.random.default_rng(enum.n), 2.0, tabular=True).forward
    got = forward_log_table(enum, policy)
    want = log_softmax(policy.model.forward(None, np.arange(enum.n)).data, masks)
    assert np.all(got[~masks] == -np.inf)
    assert np.abs(got[masks] - want[masks]).max() <= 1e-14
    pt = terminating_distribution(enum, got)
    assert np.abs(pt - terminating_distribution(enum, want)).max() <= 1e-14
    assert abs(pt.sum() - 1.0) <= 1e-14


def test_tabular_forward_log_table_holds_only_hop_sized_temporaries():
    # The 15 625 x 25 forward table of tabular SequenceEnv(6, 4) has 79 096
    # valid slots; the hop form holds a few arrays of those beside the
    # dense table it returns.
    env = synthetic_env(6, 4, 0)
    enum = env.enumeration()
    policy = make_suite(env, np.random.default_rng(0), tabular=True).forward
    forward_log_table(enum, policy)  # builds the index's row starts
    tracemalloc.start()
    try:
        table = forward_log_table(enum, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hop = policy.model.table.data.nbytes
    assert hop == 79096 * 8
    assert peak <= table.nbytes + 3 * hop


def test_path_enumeration_probabilities_sum_to_one():
    env = HyperGrid(2, 3)
    enum, fwd, _ = random_tables(env, seed=18)
    paths = enumerate_paths(env)
    total = sum(np.exp(path_log_prob(enum, fwd, tr)) for tr in paths)
    assert total == pytest.approx(1.0, abs=1e-12)
    # Monotone lattice paths to each corner plus shorter stopped walks:
    # every path ends with the stop slot.
    assert all(tr.slots[-1] == 2 for tr in paths)
    for tr in paths:
        assert validate_trajectory(env, tr)
        assert tr.log_reward == log_reward(env, tuple(tr.x.tolist()))


# -- layer sweeps against the per-state loops they replaced -------------------


def loop_forward_values(enum, fwd_log, ref_edge_logs, log_z):
    """forward_values as one Python step per state, deepest state first."""
    edge_ptr = np.searchsorted(enum.edge_src, np.arange(enum.n + 1))
    v = np.zeros(enum.n)
    q = np.zeros((enum.n, fwd_log.shape[1]))
    edge_r = edge_logs_forward(enum, fwd_log) - ref_edge_logs
    tslots = enum.terminal_slots()
    for i in range(enum.n - 1, -1, -1):
        lo, hi = edge_ptr[i], edge_ptr[i + 1]
        total = 0.0
        if hi > lo:
            qi = edge_r[lo:hi] + v[enum.edge_dst[lo:hi]]
            q[i, enum.edge_slot[lo:hi]] = qi
            total += float(np.exp(fwd_log[i, enum.edge_slot[lo:hi]]) @ qi)
        if enum.terminal[i]:
            t = tslots[i]
            qt = fwd_log[i, t] - enum.log_rewards[i] + log_z
            q[i, t] = qt
            total += np.exp(fwd_log[i, t]) * qt
        v[i] = total
    return v, q


def loop_backward_values(enum, bwd_log, ref_edge_logs):
    """backward_values as one Python step per state, root first."""
    v = np.zeros(enum.n)
    q = np.zeros((enum.n, bwd_log.shape[1]))
    edge_r = edge_logs_backward(enum, bwd_log) - ref_edge_logs
    order = np.argsort(enum.edge_dst, kind="stable")
    in_ptr = np.searchsorted(enum.edge_dst[order], np.arange(enum.n + 1))
    for j in range(enum.n):
        lo, hi = in_ptr[j], in_ptr[j + 1]
        if hi <= lo:
            continue
        e = order[lo:hi]
        qj = edge_r[e] + v[enum.edge_src[e]]
        q[j, enum.edge_bslot[e]] = qj
        v[j] = float(np.exp(bwd_log[j, enum.edge_bslot[e]]) @ qj)
    return v, q


def loop_log_flow(enum, bwd_log):
    """flow_from_rewards' flow sum as one Python step per state."""
    edge_ptr = np.searchsorted(enum.edge_src, np.arange(enum.n + 1))
    flow = np.zeros(enum.n)
    edge_pb = np.exp(edge_logs_backward(enum, bwd_log))
    for i in range(enum.n - 1, -1, -1):
        lo, hi = edge_ptr[i], edge_ptr[i + 1]
        f = float(edge_pb[lo:hi] @ flow[enum.edge_dst[lo:hi]]) if hi > lo else 0.0
        if enum.terminal[i]:
            f += np.exp(enum.log_rewards[i])
        flow[i] = f
    return np.log(flow)


def assert_close_to_oracle(got, want, tol=1e-12):
    """|got - want| / max(1, |want|) <= tol entrywise."""
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max(initial=0.0) <= tol


SWEEP_ORACLE_ENVS = [
    pytest.param(lambda: HyperGrid(2, 16), id="grid16"),
    pytest.param(lambda: SequenceEnv(6, 4, np.linspace(0.5, 2.0, 4 ** 6)), id="seq6x4"),
] + [pytest.param(lambda seed=seed: maker(np.random.default_rng(seed)),
                  id=f"{maker.__name__}{seed}")
     for maker in (random_dag, random_graded_dag) for seed in range(5)]


@pytest.mark.parametrize("make_env", SWEEP_ORACLE_ENVS)
def test_layer_sweeps_match_per_state_loops(make_env):
    env = make_env()
    enum, fwd, bwd = random_tables(env, seed=19)
    ref_b = edge_logs_backward(enum, bwd)
    ref_f = edge_logs_forward(enum, fwd)
    for got, want in zip(dense_forward_values(enum, fwd, ref_b, 0.7),
                         loop_forward_values(enum, fwd, ref_b, 0.7)):
        assert_close_to_oracle(got, want)
    for got, want in zip(dense_backward_values(enum, bwd, ref_f),
                         loop_backward_values(enum, bwd, ref_f)):
        assert_close_to_oracle(got, want)
    for table in (None, bwd):
        _, bwd_used, log_z_star, log_flow = flow_from_rewards(enum, bwd_log=table)
        want = loop_log_flow(enum, bwd_used)
        assert_close_to_oracle(log_flow, want)
        assert log_z_star == log_flow[enum.root_index]


# -- the one sweep against the layer loops it replaced ------------------------


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def entered_from_two_layers(enum):
    """Whether some state has parents in two or more layers, so summing per
    source layer and per entered layer group its edges differently."""
    depth = layer_of(enum)
    pairs = np.unique(np.stack([enum.edge_dst, depth[enum.edge_src]]), axis=1)
    return len(np.unique(pairs[0])) < pairs.shape[1]


# Each entry makes the environments and gives how many of them, at least,
# have a state entered from two or more layers.
LAYER_LOOP_ENVS = [
    pytest.param(lambda: [HyperGrid(2, 16), HyperGrid(3, 5)], 0, id="grid"),
    pytest.param(lambda: [synthetic_env(6, 4, 0), synthetic_env(3, 3, 1)], 0, id="sequence"),
    pytest.param(lambda: [random_dag(np.random.default_rng(s)) for s in range(100)], 50,
                 id="random_dag"),
    pytest.param(lambda: [random_graded_dag(np.random.default_rng(s)) for s in range(50)], 0,
                 id="random_graded_dag"),
]


@pytest.mark.parametrize("make_envs, n_mixed", LAYER_LOOP_ENVS)
def test_layer_sweep_matches_layer_loops_byte_for_byte(make_envs, n_mixed):
    # In both forms every state adds its edges in ascending edge order, so
    # the sweep reproduces each loop exactly, including the backward values
    # that the loop sums over the edges entering each layer.
    envs = make_envs()
    assert sum(entered_from_two_layers(env.enumeration()) for env in envs) >= n_mixed
    for seed, env in enumerate(envs):
        enum, fwd, bwd = random_tables(env, seed=seed)
        ref_b = edge_logs_backward(enum, bwd)
        ref_f = edge_logs_forward(enum, fwd)
        assert_same_bytes(table_visits(enum, fwd), layer_loop_visits(enum, fwd))
        for got, want in zip(dense_forward_values(enum, fwd, ref_b, 0.7),
                             layer_loop_forward_values(enum, fwd, ref_b, 0.7)):
            assert_same_bytes(got, want)
        for got, want in zip(dense_backward_values(enum, bwd, ref_f),
                             layer_loop_backward_values(enum, bwd, ref_f)):
            assert_same_bytes(got, want)
        for table in (None, bwd):
            _, bwd_used, _, log_flow = flow_from_rewards(enum, bwd_log=table)
            assert_same_bytes(log_flow, np.log(layer_loop_flows(enum, bwd_used)))
