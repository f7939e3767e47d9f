"""Strategy update steps: advantage assembly, surrogate gradients, the
trust-region contract, guided coupling, and exact bound checks."""

import ast
import gc
import importlib
import inspect
import pkgutil
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import gflow
from gflow import autodiff as ad
from gflow import exact, objectives, policy, runner, training
from gflow.envs import (
    DagEnv,
    Enumeration,
    ExplicitDag,
    HyperGrid,
    SequenceEnv,
    random_dag,
    random_graded_dag,
    synthetic_rewards,
)
from gflow.errors import ConfigError, ContractError
from gflow.exact import edge_logs_backward, flow_from_rewards
from gflow.guides import HyperGridGuide, SequenceGuide, TableGuide
from gflow.objectives import forward_step_rewards, step_batch, subtb_weights
from gflow.policy import BackwardPolicy, LogZ, ScoreOperator, UniformBackward, make_suite
from gflow.sampling import sample_backward, sample_forward
from gflow.training import (
    CG_ITERS,
    CG_TOL,
    DAMPING,
    STRATEGIES,
    Trainer,
    TrainerConfig,
    actor_critic_step,
    backward_advantages,
    check_theorem_bounds,
    conjugate_gradient,
    fisher_product,
    forward_advantages,
    surrogate_loss,
    trpo_step,
)
from oracles import (
    advantages,
    backward_log_table,
    dense_check_theorem_bounds,
    dense_forward_values,
    enumerate_paths,
    exact_logit_gradient,
    path_log_prob,
    random_suite,
    set_table,
    surrogate_gradient,
    synthetic_env,
    table_visits,
)
from test_objectives import gae_per_trajectory


def make_optimizers(suite, lr=0.01, lr_logz=0.1):
    return {name: ad.Adam(params, lr_logz if name == "log_z" else lr)
            for name, params in suite.param_groups().items()}


def fixture_suite(env, logz_shift=0.0):
    """Tabular suite on the ground-truth flow with the value function that
    zeroes every advantage: V(s) = log Z* - log F(s)."""
    enum = env.enumeration()
    fwd_log, _, log_z_star, log_flow = flow_from_rewards(enum)
    suite = make_suite(env, np.random.default_rng(0), tabular=True, need_value_f=True)
    set_table(suite.forward.model, fwd_log)
    suite.log_z.value.data[0] = log_z_star + logz_shift
    set_table(suite.value_f.model, log_z_star - log_flow)
    return suite


def chosen_log_probs(policy, sb):
    """Untaped log pi of every step's chosen slot in a step batch."""
    return policy.step_log_probs(None, sb.states, sb.slots).data


def entered_log_probs(backward, sb):
    """Untaped log pi_B of every interior edge's backward slot."""
    return backward.step_log_probs(None, sb.in_states, sb.in_bslots).data


def traj_log_ratio(suite, t):
    """log Z + log P_F(tau) - log P_B(tau|x) - log R(x), from the policies
    evaluated on this trajectory's states."""
    log_ratio = suite.log_z.item() - t.log_reward
    log_ratio += suite.forward.log_probs_numpy(t.states)[np.arange(t.length), t.slots].sum()
    if t.length > 1:
        lpb = suite.backward.log_probs_numpy(t.states[1:])
        log_ratio -= lpb[np.arange(t.length - 1), t.bslots].sum()
    return log_ratio


# -- conjugate gradients -------------------------------------------------------


def test_conjugate_gradient_matches_dense_solve():
    rng = np.random.default_rng(0)
    b_mat = rng.normal(0, 1, (6, 6))
    a = b_mat @ b_mat.T + 0.5 * np.eye(6)
    rhs = rng.normal(0, 1, 6)
    x = conjugate_gradient(lambda v: a @ v, rhs)
    np.testing.assert_allclose(x, np.linalg.solve(a, rhs), atol=1e-8)


def reference_conjugate_gradient(matvec, b):
    """conjugate_gradient with every vector update allocating a new array."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    basis = []
    rs = float(r @ r)
    stop = CG_TOL * np.sqrt(rs)
    for _ in range(CG_ITERS):
        if np.sqrt(rs) <= stop:
            break
        basis.append(r / np.sqrt(rs))
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        done = np.array(basis)
        r = r - (done @ r) @ done
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def test_conjugate_gradient_in_place_updates_are_bit_identical():
    rng = np.random.default_rng(1)
    j = rng.normal(0, 1, (40, 300))
    rhs = rng.normal(0, 1, 300)
    kept = rhs.copy()

    def matvec(v):
        return j.T @ (j @ v) / 40 + 1e-3 * v

    x = conjugate_gradient(matvec, rhs)
    assert x.tobytes() == reference_conjugate_gradient(matvec, rhs).tobytes()
    assert rhs.tobytes() == kept.tobytes()


def test_conjugate_gradient_stop_is_relative_to_the_right_hand_side():
    rng = np.random.default_rng(2)
    j = rng.normal(0, 1, (40, 300))
    rhs = rng.normal(0, 1, 300)

    def matvec(v):
        return j.T @ (j @ v) / 40 + 1e-3 * v

    x = conjugate_gradient(matvec, rhs)
    for scale in (1e-12, 1e12):
        np.testing.assert_allclose(conjugate_gradient(matvec, scale * rhs), scale * x,
                                   rtol=1e-12, atol=0)
    # A = 2I is solved by the first product, which leaves a zero residual.
    calls = []

    def double(v):
        calls.append(1)
        return 2.0 * v

    np.testing.assert_array_equal(conjugate_gradient(double, rhs), rhs / 2)
    assert len(calls) == 1


def test_conjugate_gradient_zero_rhs():
    np.testing.assert_array_equal(
        conjugate_gradient(lambda v: 2.0 * v, np.zeros(4)), np.zeros(4))


# -- advantage assembly --------------------------------------------------------


def test_root_value_estimate_is_balance_ratio():
    # The lambda=1 root estimate telescopes to the trajectory balance
    # log-ratio whatever the baseline, so it is identical with and without
    # a value function.
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(1)
    with_v = random_suite(env, rng, 0.4, tabular=True, need_value_f=True)
    without = make_suite(env, rng, tabular=True)
    without.forward.model.table.data[...] = with_v.forward.model.table.data
    without.log_z.value.data[...] = with_v.log_z.value.data

    trajs = sample_forward(env, with_v.forward, 16, np.random.default_rng(2))
    sb = step_batch(trajs)
    _, _, root_a = forward_advantages(sb, with_v, 0.3, chosen_log_probs(with_v.forward, sb),
                                      with_v.value_f.values(None, sb.states).data)
    _, _, root_b = forward_advantages(sb, without, 0.3, chosen_log_probs(without.forward, sb),
                                      np.zeros(sb.n_steps))
    want = np.array([traj_log_ratio(with_v, t) for t in trajs])
    np.testing.assert_allclose(root_a, want, atol=1e-10)
    np.testing.assert_allclose(root_b, want, atol=1e-10)


def test_fixture_zeroes_every_advantage():
    env = HyperGrid(2, 3)
    suite = fixture_suite(env)
    trajs = sample_forward(env, suite.forward, 32, np.random.default_rng(3))
    sb = step_batch(trajs)
    lpf, values = chosen_log_probs(suite.forward, sb), suite.value_f.values(None, sb.states).data
    for lam in (0.0, 0.5, 1.0):
        adv, targets, root_v1 = forward_advantages(sb, suite, lam, lpf, values)
        np.testing.assert_allclose(adv, 0.0, atol=1e-12)
        np.testing.assert_allclose(root_v1, 0.0, atol=1e-12)
        # Targets reproduce the current values, so regression is a no-op too.
        np.testing.assert_allclose(targets, values, atol=1e-12)


def test_zero_advantage_batch_leaves_suite_unchanged():
    env = HyperGrid(2, 3)
    suite = fixture_suite(env)
    trajs = sample_forward(env, suite.forward, 32, np.random.default_rng(4))
    before = {name: ad.flatten(ps) for name, ps in suite.param_groups().items()}
    stats = actor_critic_step(suite, step_batch(trajs), make_optimizers(suite), lam=0.99)
    for name, params in suite.param_groups().items():
        np.testing.assert_allclose(ad.flatten(params), before[name], atol=1e-9)
    assert stats["loss"] <= 1e-20


def test_logz_descends_toward_partition():
    env = HyperGrid(2, 3)
    suite = fixture_suite(env, logz_shift=0.5)
    trajs = sample_forward(env, suite.forward, 16, np.random.default_rng(5))
    before = suite.log_z.item()
    stats = actor_critic_step(suite, step_batch(trajs), make_optimizers(suite, lr_logz=0.1))
    # Every balance ratio is +0.5, so the loss is 0.25 and log Z moves down.
    assert stats["loss"] == pytest.approx(0.25, abs=1e-12)
    assert suite.log_z.item() < before
    assert suite.log_z.item() == pytest.approx(before - 0.1, abs=1e-6)


def _slices(lengths):
    ends = np.cumsum(lengths)
    return [(int(e - n), int(e)) for n, e in zip(lengths, ends)]


def forward_advantages_per_trajectory(sb, suite, lam, lpf, values):
    """forward_advantages as it was: one advantage loop per trajectory, and
    a second at lambda = 1 for the root estimate."""
    rewards = forward_step_rewards(sb, suite, lpf)
    adv = np.empty(sb.n_steps)
    targets = np.empty(sb.n_steps)
    root_v1 = np.empty(sb.n_traj)
    for b, (lo, hi) in enumerate(_slices(sb.lengths)):
        a, t = gae_per_trajectory(rewards[lo:hi], values[lo:hi], lam)
        adv[lo:hi] = a
        targets[lo:hi] = t
        if lam == 1.0:
            root_v1[b] = t[0]
        else:
            root_v1[b] = gae_per_trajectory(rewards[lo:hi], values[lo:hi], 1.0)[1][0]
    return adv, targets, root_v1


def backward_advantages_per_trajectory(sb, lpb, values, ref_int, lam):
    """backward_advantages as it was: one reversed loop per trajectory."""
    rewards = lpb - ref_int
    adv = np.empty_like(rewards)
    targets = np.empty_like(rewards)
    for lo, hi in _slices(sb.lengths - 1):
        if hi == lo:
            continue
        r_rev = rewards[lo:hi][::-1]
        v_rev = values[lo:hi][::-1]
        a, t = gae_per_trajectory(r_rev, v_rev, lam)
        adv[lo:hi] = a[::-1]
        if lam == 1.0:
            targets[lo:hi] = t[::-1]
        else:
            targets[lo:hi] = gae_per_trajectory(r_rev, v_rev, 1.0)[1][::-1]
    return adv, targets


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


ADVANTAGE_ENVS = ([pytest.param(lambda: HyperGrid(2, 16), id="grid-2x16"),
                   pytest.param(lambda: synthetic_env(6, 4, 2), id="seq-6x4")]
                  + [pytest.param(lambda seed=seed: random_dag(np.random.default_rng(seed)),
                                  id=f"dag-{seed}") for seed in range(8)]
                  + [pytest.param(lambda seed=seed: random_graded_dag(
                      np.random.default_rng(seed)), id=f"graded-{seed}") for seed in range(8)])


@pytest.mark.parametrize("make_env", ADVANTAGE_ENVS)
def test_advantage_scans_match_the_per_trajectory_loops(make_env):
    env = make_env()
    rng = np.random.default_rng(6)
    suite = random_suite(env, rng, 1.0, log_z=0.4, tabular=True, learned_backward=True,
                         need_value_f=True, need_value_b=True)
    for table in (suite.value_f.model.table, suite.value_b.model.table):
        table.data[...] = rng.normal(0.0, 2.0, len(table.data))  # one entry per state
    trajs = sample_forward(env, suite.forward, 40, np.random.default_rng(7), eps=0.5)
    sb = step_batch(trajs)
    # Backward walks from the endpoints, each one twice.
    xs = np.stack([tr.x for tr in trajs] * 2)
    back = step_batch(sample_backward(env, suite.backward, xs, np.random.default_rng(8)))
    lpf = suite.forward.log_probs_numpy(back.states)[np.arange(back.n_steps), back.slots]
    ref = lpf[~back.terminal]
    fwd = chosen_log_probs(suite.forward, sb), suite.value_f.values(None, sb.states).data
    bwd = entered_log_probs(suite.backward, back), suite.value_b.values(None, back.in_states).data
    for lam in (0.0, 0.5, 0.99, 1.0):
        assert_same_arrays(forward_advantages(sb, suite, lam, *fwd),
                           forward_advantages_per_trajectory(sb, suite, lam, *fwd))
        assert_same_arrays(backward_advantages(back, *bwd, ref, lam),
                           backward_advantages_per_trajectory(back, *bwd, ref, lam))


def test_backward_advantages_alignment():
    env = SequenceEnv(3, 2, np.arange(1.0, 9.0))
    rng = np.random.default_rng(6)
    suite = random_suite(env, rng, 0.3, tabular=True, learned_backward=True,
                         need_value_f=True, need_value_b=True)
    trajs = sample_forward(env, suite.forward, 6, np.random.default_rng(7))
    sb = step_batch(trajs)
    interior = ~sb.terminal
    lpf = suite.forward.log_probs_numpy(sb.states)[np.arange(sb.n_steps), sb.slots]
    ref = lpf[interior]
    lam = 0.7
    lpb = entered_log_probs(suite.backward, sb)
    values = suite.value_b.values(None, sb.in_states).data
    adv, targets = backward_advantages(sb, lpb, values, ref, lam)

    rewards = lpb - ref
    lo = 0
    for n in sb.lengths - 1:
        hi = lo + n
        a, _ = gae_per_trajectory(rewards[lo:hi][::-1], values[lo:hi][::-1], lam)
        t1 = gae_per_trajectory(rewards[lo:hi][::-1], values[lo:hi][::-1], 1.0)[1]
        np.testing.assert_allclose(adv[lo:hi], a[::-1], atol=1e-12)
        np.testing.assert_allclose(targets[lo:hi], t1[::-1], atol=1e-12)
        lo = hi


def test_surrogate_loss_value():
    env = HyperGrid(1, 2)
    suite = make_suite(env, np.random.default_rng(8), tabular=True)
    tape = ad.Tape()
    # Uniform two-action state: log pi = log 1/2 for both entries.
    lp = suite.forward.step_log_probs(tape, np.array([(0,), (0,)]), np.array([0, 1]))
    loss = surrogate_loss(tape, lp, np.array([2.0, -1.0]), 2)
    assert float(loss.data) == pytest.approx(0.5 * (2.0 - 1.0) * np.log(0.5))


# -- model evaluations per update ---------------------------------------------


def record_evaluations(monkeypatch):
    """Log (model, rows) of every evaluation of a policy or estimator, and
    the step batches the update lays out, as (evaluations so far, batch)."""
    calls, batches = [], []
    outputs = policy._StateModel._outputs
    step_batch_fn = objectives.step_batch

    def logged_outputs(model, tape, states):
        calls.append((model, np.array(states)))
        return outputs(model, tape, states)

    def logged_step_batch(trajectories):
        sb = step_batch_fn(trajectories)
        batches.append((len(calls), sb))
        return sb

    monkeypatch.setattr(policy._StateModel, "_outputs", logged_outputs)
    monkeypatch.setattr(objectives, "step_batch", logged_step_batch)
    return calls, batches


def evaluations(calls, model, rows):
    """How many logged evaluations of `model` read exactly `rows`."""
    return sum(m is model and np.array_equal(s, rows) for m, s in calls)


@pytest.mark.parametrize("tabular", [True, False], ids=["tabular", "mlp"])
def test_actor_critic_step_evaluates_each_model_once_per_batch(tabular, monkeypatch):
    env = HyperGrid(2, 4)
    suite = make_suite(env, np.random.default_rng(40), tabular=tabular, hidden=(8,),
                       learned_backward=True, need_value_f=True, need_value_b=True)
    sb = step_batch(sample_forward(env, suite.forward, 8, np.random.default_rng(41)))
    calls, batches = record_evaluations(monkeypatch)
    actor_critic_step(suite, sb, make_optimizers(suite), rng=np.random.default_rng(42))
    ((mark, back),) = batches
    assert len(back.in_states)
    assert evaluations(calls, suite.forward, sb.states) == 1
    assert evaluations(calls, suite.value_f, sb.states) == 1
    assert evaluations(calls[mark:], suite.backward, back.in_states) == 1
    assert evaluations(calls[mark:], suite.value_b, back.in_states) == 1


@pytest.mark.parametrize("tabular", [True, False], ids=["tabular", "mlp"])
def test_trpo_step_evaluates_the_policy_once_before_the_solve(tabular, monkeypatch):
    env = HyperGrid(2, 4)
    suite = make_suite(env, np.random.default_rng(43), tabular=tabular, hidden=(8,),
                       need_value_f=True)
    sb = step_batch(sample_forward(env, suite.forward, 8, np.random.default_rng(44)))
    calls, _ = record_evaluations(monkeypatch)
    marks = []
    score = training.score_matrix

    def marked_score_matrix(*args, **kwargs):
        marks.append(len(calls))
        return score(*args, **kwargs)

    monkeypatch.setattr(training, "score_matrix", marked_score_matrix)
    trpo_step(suite, sb, make_optimizers(suite))
    (mark,) = marks
    assert evaluations(calls[:mark], suite.forward, sb.states) == 1
    assert evaluations(calls, suite.value_f, sb.states) == 1


@pytest.mark.parametrize("reject", [False, True], ids=["moved", "rejected"])
@pytest.mark.parametrize("tabular", [True, False], ids=["tabular", "mlp"])
def test_trpo_step_shares_the_plain_steps_forward_update(tabular, reject, monkeypatch):
    # From equal suites and one batch, RL-T and RL-U step log Z and V_F to
    # equal bytes and report equal losses; RL-T does so also when its
    # line search rejects every trial and leaves the policy as it was.
    env = HyperGrid(2, 4)
    twins = [random_suite(env, np.random.default_rng(45), 0.5, tabular=tabular, hidden=(8,),
                          need_value_f=True) for _ in range(2)]
    sb = step_batch(sample_forward(env, twins[0].forward, 16, np.random.default_rng(46)))
    if reject:
        monkeypatch.setattr(exact, "policy_kl", lambda *args: np.inf)

    def group_bytes(suite, name):
        return ad.flatten(suite.param_groups()[name]).tobytes()

    before = {name: group_bytes(twins[0], name) for name in ("policy_f", "log_z", "value_f")}
    trpo = trpo_step(twins[0], sb, make_optimizers(twins[0]))
    plain = actor_critic_step(twins[1], sb, make_optimizers(twins[1]))
    assert trpo["accepted"] is not reject
    assert (group_bytes(twins[0], "policy_f") == before["policy_f"]) is reject
    for name in ("log_z", "value_f"):
        assert group_bytes(twins[0], name) != before[name]
        assert group_bytes(twins[0], name) == group_bytes(twins[1], name)
    assert trpo["loss"] == plain["loss"]
    assert trpo["value_loss"] == plain["value_loss"]


# -- exact surrogate gradient --------------------------------------------------


def exact_forward_gradient(env, suite):
    """Ground-truth d J_F / d logits via visit * pi * advantage, packed
    like the policy's table."""
    enum = env.enumeration()
    masks = enum.action_masks()
    fwd = suite.forward.log_probs_numpy(enum.states, masks)
    bwd = backward_log_table(enum, suite.backward)
    ref = edge_logs_backward(enum, bwd)
    v, q = dense_forward_values(enum, fwd, ref, suite.log_z.item())
    adv = advantages(v, q, masks)
    return exact_logit_gradient(table_visits(enum, fwd), fwd, adv)[masks]


def all_path_batch(env, suite):
    enum = env.enumeration()
    fwd = suite.forward.log_probs_numpy(enum.states, enum.action_masks())
    trajs = enumerate_paths(env)
    return trajs, np.asarray([np.exp(path_log_prob(enum, fwd, tr)) for tr in trajs])


def test_expected_surrogate_gradient_is_exact_on_bandit():
    env = ExplicitDag({"r": ["x1", "x2"]}, {"x1": 1.0, "x2": 3.0})
    rng = np.random.default_rng(9)
    suite = random_suite(env, rng, 0.6, tabular=True, need_value_f=True)
    trajs, weights = all_path_batch(env, suite)
    got = surrogate_gradient(suite, step_batch(trajs), lam=1.0, weights=weights)
    np.testing.assert_allclose(got, exact_forward_gradient(env, suite), atol=1e-9)


def test_expected_surrogate_gradient_is_exact_with_any_baseline():
    # Lambda=1 advantage estimates keep the expected gradient exact no
    # matter what the value function returns.
    env = HyperGrid(1, 3)
    rng = np.random.default_rng(10)
    want = None
    for trial in range(3):
        suite = random_suite(env, rng, 0.5, tabular=True, need_value_f=True)
        if want is None:
            base = suite
            want = exact_forward_gradient(env, base)
        else:
            set_table(base.value_f.model, rng.normal(0, 3, env.n_states()))
        trajs, weights = all_path_batch(env, base)
        got = surrogate_gradient(base, step_batch(trajs), lam=1.0, weights=weights)
        np.testing.assert_allclose(got, want, atol=1e-9)


# -- trust region --------------------------------------------------------------


def test_trpo_accepted_steps_respect_kl_budget():
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(11)
    suite = random_suite(env, rng, 0.5, tabular=True, need_value_f=True)
    opts = make_optimizers(suite)
    n_accepted = 0
    for _ in range(6):
        batch = sample_forward(env, suite.forward, 64, rng)
        before = ad.flatten(suite.forward.params()).copy()
        stats = trpo_step(suite, step_batch(batch), opts)
        after = ad.flatten(suite.forward.params())
        if stats["accepted"]:
            n_accepted += 1
            assert stats["kl"] <= 0.01 + 1e-8
            assert 0.0 < stats["step_scale"] <= 1.0
            assert not np.array_equal(before, after)
        else:
            np.testing.assert_array_equal(before, after)
    assert n_accepted > 0


def test_trpo_zero_budget_is_rejected_no_op():
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(12)
    suite = random_suite(env, rng, 0.5, tabular=True, need_value_f=True)
    batch = sample_forward(env, suite.forward, 32, rng)
    before = ad.flatten(suite.forward.params()).copy()
    stats = trpo_step(suite, step_batch(batch), make_optimizers(suite), zeta=0.0)
    assert stats["accepted"] is False
    assert stats["step_scale"] == 0.0
    np.testing.assert_array_equal(before, ad.flatten(suite.forward.params()))


def test_trpo_zero_gradient_is_no_op():
    # Single-action chain: log pi = 0 everywhere, so the surrogate gradient
    # vanishes identically and the policy step is skipped.
    env = ExplicitDag({"r": ["a"], "a": ["x"]}, {"x": 2.0})
    rng = np.random.default_rng(13)
    suite = random_suite(env, rng, 0.5, tabular=True, need_value_f=True)
    batch = sample_forward(env, suite.forward, 8, rng)
    before = ad.flatten(suite.forward.params()).copy()
    logz_before = suite.log_z.item()
    stats = trpo_step(suite, step_batch(batch), make_optimizers(suite))
    assert stats["accepted"] is False
    np.testing.assert_array_equal(before, ad.flatten(suite.forward.params()))
    # log Z and the value function still update.
    assert suite.log_z.item() != logz_before


def test_trpo_step_never_allocates_the_dense_score_matrix():
    env = SequenceEnv(4, 4, synthetic_rewards(4, 4, seed=0))
    rng = np.random.default_rng(15)
    suite = random_suite(env, rng, 0.5, tabular=True, need_value_f=True)
    batch = sample_forward(env, suite.forward, 64, rng)
    dense_bytes = step_batch(batch).n_steps * ad.flatten(suite.forward.params()).size * 8
    tracemalloc.start()
    try:
        trpo_step(suite, step_batch(batch), make_optimizers(suite))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4


def full_table_direction(suite, sb, lam=0.99):
    """(g, x) of the trust-region solve over every table entry, as the step
    ran before it solved on the visited rows: the full surrogate gradient g
    and CG on the Fisher of the full-table score operator."""
    policy = suite.forward
    g = surrogate_gradient(suite, sb, lam)
    logits, *cache = policy.model.forward_cached(policy._model_inputs(sb.states))
    d = -ad.masked_softmax(logits, policy.masks(sb.states))
    d[np.arange(sb.n_steps), sb.slots] += 1.0
    return g, conjugate_gradient(fisher_product(ScoreOperator(policy.model, cache, d)), g)


@pytest.mark.parametrize("env", [HyperGrid(2, 16),
                                 SequenceEnv(4, 4, synthetic_rewards(4, 4, seed=1))],
                         ids=["grid", "sequence"])
def test_visited_row_step_matches_the_full_table_solve(env, monkeypatch):
    rng = np.random.default_rng(18)
    suite = random_suite(env, rng, 0.5, tabular=True, need_value_f=True)
    table = suite.forward.model.table.data
    sb = step_batch(sample_forward(env, suite.forward, 32, rng))
    visited = np.zeros(env.enumeration().n, dtype=bool)
    visited[env.enumeration().positions(sb.states)] = True
    # Per packed entry: whether its row was visited.
    visited = visited[np.nonzero(suite.forward.model.index.mask)[0]]
    assert not visited.all()

    g, x = full_table_direction(suite, sb)
    step = -np.sqrt(2.0 * 0.01 / (g @ x)) * x
    assert not step[~visited].any()
    before = table.copy()
    stats = trpo_step(suite, sb, make_optimizers(suite), zeta=0.01)
    assert stats["accepted"]
    want = stats["step_scale"] * step
    assert np.abs((table - before) - want).max() <= 1e-12 * np.abs(want).max()
    np.testing.assert_array_equal(table[~visited], before[~visited])

    # A search whose every trial breaks the KL budget restores the visited
    # rows and never wrote the others.
    monkeypatch.setattr(exact, "policy_kl", lambda *args: np.inf)
    before = table.copy()
    sb = step_batch(sample_forward(env, suite.forward, 32, rng))
    assert not trpo_step(suite, sb, make_optimizers(suite))["accepted"]
    assert table.tobytes() == before.tobytes()


def dense_fisher_product(scores):
    """fisher_product with J^T J formed first: v -> (J^T J) v / M + DAMPING v."""
    m, k = scores.shape
    j = np.stack([scores @ e for e in np.eye(k)], axis=1)
    jtj = j.T @ j
    return lambda v: jtj @ v / m + DAMPING * v


def test_rl_t_output_does_not_depend_on_the_fisher_product_order(tmp_path, monkeypatch):
    cfg = runner.parse_config_text(
        "env = grid\nd = 2\nn = 16\ntabular = on\nstrategy = RL-T\niterations = 200\n"
        "batch = 64\neval_every = 10\ntiming = off\nlr_policy = 0.04\nlr_value = 0.3\n"
        "lr_logz = 0.02\nseeds = 0\n")
    runner.run(cfg, out=tmp_path / "matrix_free")
    monkeypatch.setattr(training, "fisher_product", dense_fisher_product)
    runner.run(cfg, out=tmp_path / "dense")
    a, b = (np.loadtxt(tmp_path / out / "RL-T_seed0.csv", delimiter=",", skiprows=1)
            for out in ("matrix_free", "dense"))
    np.testing.assert_allclose(b, a, rtol=1e-12, atol=0)


# -- guided coupling -----------------------------------------------------------


def test_coupled_training_pulls_backward_to_guide():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(14)
    suite = random_suite(env, rng, 0.5, tabular=True, learned_backward=True,
                         need_value_f=True, need_value_b=True)
    guide = TableGuide.random(env, np.random.default_rng(42))
    opts = {}
    for name, params in suite.param_groups().items():
        lr = 0.1 if name == "log_z" else (0.05 if "policy" in name else 0.02)
        opts[name] = ad.Adam(params, lr)
    enum = env.enumeration()
    masks = enum.parent_masks()
    rows = [i for i in range(enum.n) if masks[i].any()]

    def max_prob_gap():
        states = enum.states[rows]
        pb = np.exp(suite.backward.log_probs_numpy(states))
        pg = np.exp(guide.backward_kernel()[rows])
        pg[~masks[rows]] = 0.0
        return float(np.abs(pb - pg).max())

    start = max_prob_gap()
    for _ in range(150):
        batch = sample_forward(env, suite.forward, 64, rng)
        actor_critic_step(suite, step_batch(batch), opts, lam=1.0, rng=rng, guide=guide)
    end = max_prob_gap()
    assert start > 0.2
    assert end < 0.05


def test_learned_backward_update_requires_rng():
    env = SequenceEnv(2, 2, np.ones(4))
    suite = random_suite(env, np.random.default_rng(15), 0.1, tabular=True,
                         learned_backward=True, need_value_f=True, need_value_b=True)
    batch = sample_forward(env, suite.forward, 4, np.random.default_rng(16))
    with pytest.raises(ConfigError):
        actor_critic_step(suite, step_batch(batch), make_optimizers(suite), rng=None)


# -- bound checks --------------------------------------------------------------


def random_instance(seed, with_alt=False):
    rng = np.random.default_rng(seed)
    env = random_graded_dag(rng)
    enum = env.enumeration()
    fwd = ad.log_softmax_masked(None, rng.normal(0, 1, (enum.n, env.n_action_slots)),
                                enum.action_masks()).data
    masks = enum.parent_masks()
    rows = [i for i in range(enum.n) if i != enum.root_index]
    bwd = np.full((enum.n, env.n_backward_slots), -np.inf)
    bwd[rows] = ad.log_softmax_masked(
        None, rng.normal(0, 1, (len(rows), env.n_backward_slots)), masks[rows]).data
    guide = TableGuide.random(env, rng)
    log_z = float(np.log(enum.partition()) + rng.normal(0, 0.5))
    alt = None
    if with_alt:
        alt = ad.log_softmax_masked(None, rng.normal(0, 1, (enum.n, env.n_action_slots)),
                                    enum.action_masks()).data
    return env, fwd, bwd, guide, log_z, alt


def test_theorem_bounds_trivial_cases():
    env, fwd, bwd, _, log_z, _ = random_instance(17)
    # Guide equal to the backward policy: zero guided rewards, zero slack.
    report = check_theorem_bounds(env, fwd, bwd, log_z, bwd, forward_alt=fwd)
    t1 = report["theorem1"]
    assert t1["holds"]
    assert t1["r_max"] == 0.0
    assert abs(t1["j_b_g"]) <= 1e-10
    assert t1["lhs"] == pytest.approx(t1["rhs"], abs=1e-10)
    # Unchanged policy: both sides of the improvement bound collapse to 0.
    t2 = report["theorem2"]
    assert t2["holds"]
    assert abs(t2["lhs"]) <= 1e-10
    assert t2["zeta"] <= 1e-12
    assert abs(t2["expected_advantage"]) <= 1e-10


def test_theorem_bounds_random_instances():
    for seed in range(10):
        env, fwd, bwd, guide, log_z, alt = random_instance(100 + seed, with_alt=True)
        report = check_theorem_bounds(env, fwd, bwd, log_z, guide, forward_alt=alt)
        assert report["theorem1"]["holds"], (seed, report["theorem1"])
        assert report["theorem2"]["holds"], (seed, report["theorem2"])


def test_theorem_bounds_accept_a_guide_or_its_table():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(18)
    suite = random_suite(env, rng, 0.4, tabular=True, learned_backward=True)
    guide = TableGuide.random(env, rng)
    enum = env.enumeration()
    fwd = exact.forward_log_table(enum, suite.forward)
    bwd = backward_log_table(enum, suite.backward)
    log_z = suite.log_z.item()
    assert (check_theorem_bounds(env, fwd, bwd, log_z, guide)
            == check_theorem_bounds(env, fwd, bwd, log_z, guide.backward_kernel()))


# -- the edge-form audit against the dense one it replaced ---------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
THEOREM1_KEYS = ("lhs", "rhs", "holds", "j_f", "j_b_g", "r_max", "kl_mu", "slack")


def exact_audit_workload(monkeypatch):
    """perfbench's exact-audit workload, whose draw() makes the benchmark's
    random tables for any environment."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads").make_workloads()["exact-audit"]


def assert_matches_dense_audit(env, tables):
    """tables as perfbench's ExactAudit.draw returns them."""
    fwd, bwd, guide, log_z, alt = tables
    if not env.graded:
        for audit in (check_theorem_bounds, dense_check_theorem_bounds):
            with pytest.raises(ContractError):
                audit(env, fwd, bwd, log_z, guide, forward_alt=alt)
        alt = None
    got = check_theorem_bounds(env, fwd, bwd, log_z, guide, forward_alt=alt)
    want = dense_check_theorem_bounds(env, fwd, bwd, log_z, guide, forward_alt=alt)
    assert set(got) == set(want) == {"theorem1"} | ({"theorem2"} if env.graded else set())
    assert set(got["theorem1"]) == set(THEOREM1_KEYS)
    for key in THEOREM1_KEYS:
        assert repr(got["theorem1"][key]) == repr(want["theorem1"][key]), key
    if alt is None:
        return
    t2, w2 = got["theorem2"], want["theorem2"]
    assert set(t2) == set(w2)
    for key in ("lhs", "j_f", "j_f_new", "holds"):
        assert repr(t2[key]) == repr(w2[key]), key
    for key in ("zeta", "expected_advantage", "eps_f", "rhs"):
        assert abs(t2[key] - w2[key]) <= 1e-12 * abs(w2[key]), key
    # An unchanged policy moves no mass: the KL is exactly zero.
    same = check_theorem_bounds(env, fwd, bwd, log_z, guide, forward_alt=fwd)["theorem2"]
    assert same["zeta"] == 0.0


def audit_oracle_cases():
    yield "grid", lambda: HyperGrid(2, 8)
    for maker in (random_graded_dag, random_dag):
        for seed in range(20):
            yield f"{maker.__name__}{seed}", lambda m=maker, s=seed: m(np.random.default_rng(s))


@pytest.mark.parametrize("make_env", [pytest.param(make, id=name)
                                      for name, make in audit_oracle_cases()])
def test_edge_form_audit_matches_dense_audit(monkeypatch, make_env):
    workload = exact_audit_workload(monkeypatch)
    env = make_env()
    tables = workload.draw(env, env.enumeration(), np.random.default_rng(7))
    assert_matches_dense_audit(env, tables)


def test_edge_form_audit_matches_dense_audit_on_the_benchmark_draws(monkeypatch):
    workload = exact_audit_workload(monkeypatch)
    env, enum = workload.setup(0)
    workload.prepare(0, env, enum)
    assert env.n_states() == 5 ** 6 and len(workload.inputs) == 6
    for tables in workload.inputs:
        assert_matches_dense_audit(env, tables)


def test_audit_memory_is_bounded_by_three_dense_tables(monkeypatch):
    # On SequenceEnv(6, 4) the forward table is 15 625 x 25 float64, 3.1 MB,
    # of which 79 096 entries are edges or stops.  The dense audit peaked at
    # 16.7 MB; reading each table once into edge form holds about 7 MB.
    workload = exact_audit_workload(monkeypatch)
    env, enum = workload.setup(0)
    fwd, bwd, guide, log_z, alt = workload.draw(env, enum, np.random.default_rng(0))
    check_theorem_bounds(env, fwd, bwd, log_z, guide, forward_alt=alt)
    tracemalloc.start()
    try:
        check_theorem_bounds(env, fwd, bwd, log_z, guide, forward_alt=alt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * fwd.nbytes, peak


# -- trainer wiring ------------------------------------------------------------


EXPECT_COMPONENTS = {
    # strategy: (learned backward, value_f, value_b, flow)
    "DB-U": (False, False, False, True),
    "DB-B": (True, False, False, True),
    "TB-U": (False, False, False, False),
    "TB-B": (True, False, False, False),
    "TB-Sub": (False, False, False, True),
    "RL-U": (False, True, False, False),
    "RL-B": (True, True, True, False),
    "RL-T": (False, True, False, False),
    "RL-G": (True, True, True, False),
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_trainer_components_and_steps(strategy):
    if strategy == "TB-Sub":
        env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    else:
        env = HyperGrid(2, 3)
    cfg = TrainerConfig(strategy=strategy, batch_size=8, tabular=True)
    trainer = Trainer(env, cfg, np.random.default_rng(19))

    learned_b, need_vf, need_vb, need_flow = EXPECT_COMPONENTS[strategy]
    assert isinstance(trainer.suite.backward,
                      BackwardPolicy if learned_b else UniformBackward)
    assert (trainer.suite.value_f is not None) == need_vf
    assert (trainer.suite.value_b is not None) == need_vb
    assert (trainer.suite.state_flow is not None) == need_flow
    assert ("policy_b" in trainer.optimizers) == learned_b
    if strategy == "RL-G":
        assert isinstance(trainer.guide, HyperGridGuide)

    rng = np.random.default_rng(20)
    for it in range(2):
        stats = trainer.step(rng)
        # Only the balance strategies sample from the exploration mixture.
        assert stats["eps"] == (cfg.gamma ** it if strategy.startswith(("TB", "DB")) else 0.0)
        assert np.isfinite(stats["loss"])
        assert len(stats["batch"]) == 8
        # Only the trust-region step reports its KL and step scale.
        assert ("kl" in stats) == (strategy == "RL-T")
    assert trainer.iteration == 2


PER_STATE_QUERIES = ("action_mask", "parent_mask", "encode", "n_parents", "child",
                     "parent", "backward_slot", "forward_slot", "terminal_slot", "reward",
                     "log_reward", "sequence_index")

GUARD_ENVS = [
    pytest.param(lambda: HyperGrid(2, 4), id="grid"),
    pytest.param(lambda: SequenceEnv(2, 3, np.arange(1.0, 10.0)), id="sequence"),
]


@pytest.mark.parametrize("tabular", [True, False], ids=["tabular", "mlp"])
@pytest.mark.parametrize("make_env", GUARD_ENVS)
def test_steps_never_query_the_env_one_state_at_a_time(make_env, tabular):
    # Every env query exists in a batched form only, so every step and
    # exact evaluation below goes through them.
    env = make_env()
    for cls in (DagEnv, HyperGrid, SequenceEnv, ExplicitDag, type(env)):
        for name in PER_STATE_QUERIES:
            assert not hasattr(cls, name), (cls.__name__, name)
    for name in PER_STATE_QUERIES:
        assert not hasattr(env, name), name
    enum = env.enumeration()
    for strategy in STRATEGIES:
        if strategy == "TB-Sub" and not env.graded:
            continue
        cfg = TrainerConfig(strategy=strategy, batch_size=8, tabular=tabular, hidden=(8,))
        trainer = Trainer(env, cfg, np.random.default_rng(25))
        assert np.isfinite(trainer.step(np.random.default_rng(26))["loss"])
        assert np.all(np.isfinite(exact.forward_log_table(enum, trainer.suite.forward)
                                  [enum.action_masks()]))


# Reference computations that live in tests/oracles.py, and keyword options
# that only tests set and that became module constants.
MOVED_TO_ORACLES = ("enumerate_paths", "path_log_prob", "exact_logit_gradient",
                    "finite_difference_grad", "surrogate_gradient", "guided_tb_loss",
                    "log_conditional")
REMOVED_KEYWORDS = [
    (DagEnv.enumeration, ("cap",)),
    (DagEnv.enumerate_states, ("cap",)),
    (HyperGrid.enumerate_states, ("cap",)),
    (SequenceEnv.enumerate_states, ("cap",)),
    (ExplicitDag.enumerate_states, ("cap",)),
    (Enumeration.__init__, ("cap",)),
    (make_suite, ("init_scale", "logz_init")),
    (ad.Tabular.__init__, ("rng", "init_scale")),
    (LogZ.__init__, ("init",)),
    (check_theorem_bounds, ("forward", "backward", "tol")),
    (conjugate_gradient, ("iters", "tol")),
    (exact.mode_states, ("quantile",)),
    (SequenceGuide.__init__, ("floor",)),
    (TableGuide.random, ("scale",)),
    (random_graded_dag, ("n_layers", "max_width", "edge_prob", "reward_low", "reward_high")),
    (random_dag, ("n_layers", "max_width", "edge_prob", "skip_prob", "interior_reward_prob",
                  "reward_low", "reward_high")),
]


def test_library_keeps_no_test_only_code():
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(gflow.__path__, "gflow.")
               if info.name != "gflow.__main__"]
    for module in [gflow] + modules:
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for name in MOVED_TO_ORACLES:
                assert not hasattr(owner, name), (owner.__name__, name)
    assert not hasattr(DagEnv, "check_cap")
    assert not hasattr(SequenceEnv, "synthetic")
    for fn, names in REMOVED_KEYWORDS:
        for name in names:
            assert name not in inspect.signature(fn).parameters, (fn.__qualname__, name)
    with pytest.raises(TypeError):
        subtb_weights(3, None)  # no full-span-only weights

    # No gflow module imports from the tests.
    for path in Path(gflow.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top not in ("tests", "oracles", "conftest"), (path.name, name)
                assert not top.startswith("test_"), (path.name, name)


def test_trained_env_is_freed_by_refcount():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env = HyperGrid(2, 3)
        trainer = Trainer(env, TrainerConfig(strategy="RL-G", batch_size=4, tabular=True),
                          np.random.default_rng(27))
        stats = trainer.step(np.random.default_rng(28))
        refs = [weakref.ref(env), weakref.ref(env.enumeration())]
        del env, trainer, stats
        assert all(ref() is None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()


def test_trainer_guide_on_sequences():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    cfg = TrainerConfig(strategy="RL-G", batch_size=8, tabular=True)
    trainer = Trainer(env, cfg, np.random.default_rng(21))
    assert isinstance(trainer.guide, SequenceGuide)
    trainer.step(np.random.default_rng(22))
    assert len(trainer.guide.buffer) == 8


def test_trainer_step_with_a_fixed_table_guide():
    # A guide that needs no refresh still gets the refresh call each step.
    env = HyperGrid(2, 4)
    rng = np.random.default_rng(25)
    guide = TableGuide.random(env, rng)
    kernel = guide.backward_kernel().copy()
    trainer = Trainer(env, TrainerConfig(strategy="RL-G", tabular=True, batch_size=4), rng,
                      guide=guide)
    stats = trainer.step(rng)
    assert np.isfinite(stats["loss"])
    assert np.array_equal(guide.backward_kernel(), kernel)


def test_trainer_config_errors():
    env = HyperGrid(2, 3)
    with pytest.raises(ConfigError):
        Trainer(env, TrainerConfig(strategy="TB-X"), np.random.default_rng(23))
    with pytest.raises(ConfigError):
        Trainer(env, TrainerConfig(strategy="TB-Sub"), np.random.default_rng(24))
    # Only RL-G reads a guide; any other strategy would refresh it unread.
    guide = TableGuide.random(env, np.random.default_rng(25))
    for strategy in ("RL-B", "TB-U"):
        with pytest.raises(ConfigError, match="does not use a guide"):
            Trainer(env, TrainerConfig(strategy=strategy), np.random.default_rng(26),
                    guide=guide)
