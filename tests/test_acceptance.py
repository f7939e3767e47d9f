"""End-to-end acceptance gate.

Each test covers one numbered contract of the library and writes a single
"[criterion N] PASS/FAIL" line straight to the terminal (bypassing capture)
so a full run always shows ten verdict lines.  Desk-scale training checks
share one hyperparameter set; the sampled-training comparisons use fixed
seed lists so reruns are deterministic.
"""

import time

import numpy as np
import pytest

from gflow import autodiff as ad
from gflow import exact
from gflow.envs import (
    HyperGrid,
    SequenceEnv,
    random_dag,
    random_graded_dag,
    synthetic_rewards,
)
from gflow.guides import TableGuide
from gflow.objectives import db_loss, step_batch, subtb_loss, tb_loss
from gflow.policy import make_suite
from gflow.sampling import sample_forward
from gflow.training import (
    Trainer,
    TrainerConfig,
    check_theorem_bounds,
    surrogate_loss,
)
from oracles import (
    backward_log_table,
    enumerate_paths,
    exact_logit_gradient,
    finite_difference_grad,
    guided_tb_loss,
    path_log_prob,
    random_suite,
    surrogate_gradient,
)
from test_exact import accumulated_by_matrix, accumulated_by_powers


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    # File-descriptor capture would swallow even direct writes to stdout, so
    # verdict lines are emitted with capture suspended.
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def forward_table_from(logits, enum):
    return ad.log_softmax_masked(None, logits, enum.action_masks()).data


def backward_table_from(logits, enum):
    masks = enum.parent_masks()
    out = np.full_like(logits, -np.inf)
    rows = [i for i in range(enum.n) if masks[i].any()]
    out[rows] = ad.log_softmax_masked(None, logits[rows], masks[rows]).data
    return out


def small_random_suite(seed, learned_backward=True, need_value_f=False):
    """Random DAG of at most 50 states with random tabular policies."""
    rng = np.random.default_rng(seed)
    env = random_dag(rng)
    assert env.n_states() <= 50
    suite = random_suite(env, rng, 0.7, log_z=float(rng.normal(0, 1)), tabular=True,
                         learned_backward=learned_backward, need_value_f=need_value_f)
    return env, suite


# -- criterion 1: balance gradient equals divergence gradient (forward, Z) ----


def test_criterion_01_forward_gradient_equivalence():
    t0 = time.perf_counter()
    env, suite = small_random_suite(1001)
    enum = env.enumeration()
    log_z_star = exact.flow_from_rewards(enum)[2]
    bwd = backward_log_table(enum, suite.backward)
    ref_b = exact.edge_logs_backward(enum, bwd)
    masks = enum.action_masks()

    trajs = enumerate_paths(env)
    fwd0 = suite.forward.log_probs_numpy(enum.states, masks)
    pf = np.array([np.exp(path_log_prob(enum, fwd0, tr)) for tr in trajs])
    assert abs(pf.sum() - 1.0) < 1e-12

    # Half the balance-loss gradient, exactly enumerated over trajectories
    # with stop-gradient sampling weights.
    tape = ad.Tape()
    loss = tb_loss(tape, step_batch(trajs), suite, weights=pf)
    params = suite.forward.params() + [suite.log_z.value]
    ad.zero_grads(params)
    tape.backward(loss)
    lhs = 0.5 * ad.flat_grad(params)

    # Independent side: dynamic-programming divergence as a function of the
    # raw logits, differentiated by central differences; the log Z coordinate
    # is the divergence value plus the calibration residual.
    shape = suite.forward.model.table.data.shape

    def divergence(theta):
        fwd = forward_table_from(theta.reshape(shape), enum)
        v, _ = exact.forward_values(enum, fwd, ref_b, log_z_star)
        return v[enum.root_index]

    theta0 = suite.forward.model.table.data.ravel()
    rhs_theta = finite_difference_grad(divergence, theta0)
    rhs_logz = divergence(theta0) + (suite.log_z.item() - log_z_star)
    rhs = np.concatenate([rhs_theta, [rhs_logz]])
    gap = float(np.abs(lhs - rhs).max())
    elapsed = time.perf_counter() - t0
    report(1, gap <= 1e-8 and elapsed < 1.0,
           f"max coordinate gap {gap:.2e} over {lhs.size} coords, "
           f"{elapsed * 1000:.0f} ms")


# -- criterion 2: balance gradient equals divergence gradient (backward) ------


def test_criterion_02_backward_and_guided_gradient_equivalence():
    env, suite = small_random_suite(1002)
    enum = env.enumeration()
    masks = enum.action_masks()
    fwd = suite.forward.log_probs_numpy(enum.states, masks)
    bwd0 = backward_log_table(enum, suite.backward)
    ref_f = exact.edge_logs_forward(enum, fwd)
    rho = exact.reward_distribution(enum)
    guide = TableGuide.random(env, np.random.default_rng(7))
    ref_g = exact.edge_logs_backward(enum, guide.backward_kernel())

    trajs = enumerate_paths(env)
    w = np.array([rho[enum.positions(tr.x[None])[0]]
                  * np.exp(path_log_prob(enum, bwd0, tr, backward=True))
                  for tr in trajs])
    assert abs(w.sum() - 1.0) < 1e-12

    shape = suite.backward.model.table.data.shape
    phi0 = suite.backward.model.table.data.ravel()

    def half_grad(loss_fn):
        tape = ad.Tape()
        loss = loss_fn(tape)
        params = suite.backward.params()
        ad.zero_grads(params)
        tape.backward(loss)
        return 0.5 * ad.flat_grad(params)

    def expected_divergence(ref):
        def f(phi):
            table = backward_table_from(phi.reshape(shape), enum)
            v, _ = exact.backward_values(enum, table, ref)
            return float(rho @ v)
        return f

    lhs_b = half_grad(lambda tape: tb_loss(tape, step_batch(trajs), suite, weights=w))
    rhs_b = finite_difference_grad(expected_divergence(ref_f), phi0)
    gap_b = float(np.abs(lhs_b - rhs_b).max())

    lhs_g = half_grad(
        lambda tape: guided_tb_loss(tape, step_batch(trajs), suite, guide, weights=w))
    rhs_g = finite_difference_grad(expected_divergence(ref_g), phi0)
    gap_g = float(np.abs(lhs_g - rhs_g).max())

    report(2, gap_b <= 1e-8 and gap_g <= 1e-8,
           f"backward gap {gap_b:.2e}, guided gap {gap_g:.2e}")


# -- criterion 3: full-credit advantage gradient is unbiased -------------------


def test_criterion_03_lambda_one_unbiasedness():
    env, suite = small_random_suite(1003, need_value_f=True)
    enum = env.enumeration()
    masks = enum.action_masks()
    # Arbitrary baseline: unbiasedness must not depend on the critic.
    suite.value_f.model.table.data[:, 0] = \
        np.random.default_rng(8).normal(0, 3, enum.n)

    fwd = suite.forward.log_probs_numpy(enum.states, masks)
    trajs = enumerate_paths(env)
    pf = np.array([np.exp(path_log_prob(enum, fwd, tr)) for tr in trajs])
    got = surrogate_gradient(suite, step_batch(trajs), lam=1.0, weights=pf)

    bwd = backward_log_table(enum, suite.backward)
    ref_b = exact.edge_logs_backward(enum, bwd)
    v, q = exact.forward_values(enum, fwd, ref_b, suite.log_z.item())
    adv = exact.advantages(v, q, masks)
    want = exact_logit_gradient(
        exact.visit_probabilities(enum, fwd), fwd, adv).ravel()
    gap = float(np.abs(got - want).max())
    report(3, gap <= 1e-8, f"max coordinate gap {gap:.2e}")


# -- criterion 4: accumulated occupancy, three computations --------------------


def test_criterion_04_accumulated_distribution_routes_agree():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        env = random_graded_dag(rng)
        enum = env.enumeration()
        fwd = forward_table_from(rng.normal(0, 1, (enum.n, env.n_action_slots)),
                                 enum)
        outs = [route(enum, fwd) for route in (exact.accumulated_distribution,
                                               accumulated_by_matrix, accumulated_by_powers)]
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, float(np.abs(outs[i] - outs[j]).max()))
    report(4, worst <= 1e-10, f"20 DAGs, worst pairwise gap {worst:.2e}")


# -- criterion 5: performance bounds hold on random instances ------------------


def random_bound_instance(seed):
    rng = np.random.default_rng(seed)
    env = random_graded_dag(rng)
    enum = env.enumeration()
    fwd = forward_table_from(rng.normal(0, 1, (enum.n, env.n_action_slots)), enum)
    bwd = backward_table_from(rng.normal(0, 1, (enum.n, env.n_backward_slots)),
                              enum)
    guide = TableGuide.random(env, rng)
    log_z = float(np.log(enum.partition()) + rng.normal(0, 0.5))
    alt = forward_table_from(rng.normal(0, 1, (enum.n, env.n_action_slots)), enum)
    return env, fwd, bwd, guide, log_z, alt


def test_criterion_05_theorem_bounds_hold():
    bad1 = bad2 = 0
    for seed in range(100):
        env, fwd, bwd, guide, log_z, alt = random_bound_instance(3000 + seed)
        rep = check_theorem_bounds(env, fwd, bwd, log_z, guide, forward_alt=alt)
        bad1 += 0 if rep["theorem1"]["holds"] else 1
        bad2 += 0 if rep["theorem2"]["holds"] else 1
    report(5, bad1 == 0 and bad2 == 0,
           f"violations over 100 instances: bound one {bad1}, bound two {bad2}")


# -- criterion 6: ground-truth flows zero every balance loss -------------------


def perfect_suite(env):
    enum = env.enumeration()
    fwd_log, _, log_z_star, log_flow = exact.flow_from_rewards(enum)
    suite = make_suite(env, np.random.default_rng(0), tabular=True, need_flow=True)
    suite.forward.model.table.data[...] = fwd_log
    suite.log_z.value.data[0] = log_z_star
    suite.state_flow.model.table.data[:, 0] = log_flow
    return suite, fwd_log


def test_criterion_06_perfect_flow_fixtures():
    worst_loss = worst_dist = 0.0
    envs = [SequenceEnv(3, 2, synthetic_rewards(3, 2, seed=4)),
            random_graded_dag(np.random.default_rng(40))]
    for env in envs:
        enum = env.enumeration()
        suite, fwd_log = perfect_suite(env)
        trajs = sample_forward(env, suite.forward, 64, np.random.default_rng(41))
        for loss_fn in (tb_loss, db_loss, subtb_loss):
            tape = ad.Tape()
            worst_loss = max(worst_loss, float(loss_fn(tape, step_batch(trajs), suite).data))
        pt = exact.terminating_distribution(enum, fwd_log)
        gap = np.abs(pt - exact.reward_distribution(enum)).max()
        worst_dist = max(worst_dist, float(gap))
    report(6, worst_loss <= 1e-10 and worst_dist <= 1e-10,
           f"worst balance loss {worst_loss:.2e}, "
           f"worst terminating-distribution gap {worst_dist:.2e}")


# -- criteria 7-9: desk-scale training on the 16x16 grid -----------------------

GRID = HyperGrid(2, 16)
GRID_ENUM = GRID.enumeration()
P_STAR = exact.reward_distribution(GRID_ENUM)
EVAL_EVERY = 10
MAX_ITERS = 3000
SEEDS = (0, 1, 2, 3, 4)
_RUN_CACHE = {}


def desk_config(strategy):
    return TrainerConfig(strategy=strategy, batch_size=64, lam=0.99,
                         tabular=True, lr_policy=0.04, lr_value=0.3,
                         lr_logz=0.02, guide_eps=1e-5, zeta=0.01)


def desk_run(strategy, seed, iters=MAX_ITERS, stop_below=0.10):
    """Train on the 16x16 grid; returns (first-hit dict, series, kls, secs)."""
    key = (strategy, seed, iters, stop_below)
    if key in _RUN_CACHE:
        return _RUN_CACHE[key]
    trainer = Trainer(GRID, desk_config(strategy), np.random.default_rng([seed, 0]))
    rng = np.random.default_rng([seed, 1])
    hits, series, kls = {}, [], []
    t0 = time.perf_counter()
    for it in range(iters):
        stats = trainer.step(rng)
        if "kl" in stats and stats.get("accepted"):
            kls.append(stats["kl"])
        if it % EVAL_EVERY == 0 or it == iters - 1:
            fwd = exact.forward_log_table(GRID_ENUM, trainer.suite.forward)
            d_tv = exact.total_variation(
                exact.terminating_distribution(GRID_ENUM, fwd), P_STAR)
            series.append(d_tv)
            for thr in (0.15, 0.10):
                if d_tv < thr and thr not in hits:
                    hits[thr] = it
            if stop_below is not None and stop_below in hits:
                break
    out = (hits, series, kls, time.perf_counter() - t0)
    _RUN_CACHE[key] = out
    return out


def first_hits(strategy, threshold, stop_below):
    out = []
    for seed in SEEDS:
        hits, _, _, secs = desk_run(strategy, seed, stop_below=stop_below)
        assert secs < 600.0, f"{strategy} seed {seed} took {secs:.0f}s"
        out.append(hits.get(threshold, np.inf))
    return np.asarray(out, dtype=np.float64)


def test_criterion_07_grid_convergence_and_ordering():
    hit10 = first_hits("RL-U", 0.10, stop_below=0.10)
    med10 = float(np.median(hit10))
    adv_hits = first_hits("RL-U", 0.15, stop_below=0.10)
    balance_hits = first_hits("TB-U", 0.15, stop_below=0.15)
    med_adv = float(np.median(adv_hits))
    med_bal = float(np.median(balance_hits))
    ok = np.isfinite(med10) and med10 < MAX_ITERS and med_adv <= med_bal
    report(7, ok,
           f"advantage learner median hit of 0.10 at iter {med10:.0f}/3000; "
           f"median hit of 0.15: {med_adv:.0f} vs balance learner {med_bal:.0f}")


def test_criterion_08_trust_region_contract():
    hits, series, kls, _ = desk_run("RL-T", 0, iters=800, stop_below=None)
    assert kls, "no accepted trust-region steps"
    worst_kl = float(np.max(kls))
    kl_ok = worst_kl <= 0.01 + 1e-8
    # Soft stability property: compared against the advantage learner's
    # largest between-eval rise; reported either way, gated on KL only.
    rises = float(np.diff(series).max())
    base = max(float(np.diff(desk_run("RL-U", s, stop_below=0.10)[1]).max())
               for s in SEEDS)
    soft = rises <= 3.0 * base
    report(8, kl_ok,
           f"{len(kls)} accepted steps, max step KL {worst_kl:.5f} <= 0.01; "
           f"soft stability {'holds' if soft else 'not met'} "
           f"(max rise {rises:.4f} vs 3x baseline {3 * base:.4f})")


def test_criterion_09_guided_coupling_speedup():
    guided = first_hits("RL-G", 0.15, stop_below=0.15)
    plain = first_hits("RL-U", 0.15, stop_below=0.10)
    med_g = float(np.median(guided))
    med_p = float(np.median(plain))
    report(9, med_g <= med_p,
           f"median iterations to 0.15: guided {med_g:.0f} vs unguided {med_p:.0f}")


# -- criterion 10: every composite loss differentiates correctly ---------------


def test_criterion_10_composite_loss_gradients():
    rng = np.random.default_rng(777)
    rewards22 = synthetic_rewards(2, 2, seed=9)
    grid = HyperGrid(2, 3)
    seqenv = SequenceEnv(2, 2, rewards22)
    guide_cache = {}
    failures = 0
    worst = 0.0
    for trial in range(500):
        kind = ("tb", "db", "subtb", "guided", "surrogate")[trial % 5]
        env = seqenv if kind in ("subtb", "guided") or trial % 2 else grid
        mlp = trial % 10 == 7
        suite = random_suite(env, rng, 0.5, log_z=float(rng.normal()), tabular=not mlp,
                             hidden=(4,), learned_backward=bool(trial % 3),
                             need_flow=kind in ("db", "subtb"))
        trajs = sample_forward(env, suite.forward, 4, rng)
        sb = step_batch(trajs)
        adv = rng.normal(0, 1, sb.n_steps)

        def make_loss(tape):
            if kind == "tb":
                return tb_loss(tape, sb, suite)
            if kind == "db":
                return db_loss(tape, sb, suite)
            if kind == "subtb":
                return subtb_loss(tape, sb, suite, weight_base=0.8)
            if kind == "guided":
                if env not in guide_cache:
                    guide_cache[env] = TableGuide.random(env, np.random.default_rng(5))
                return guided_tb_loss(tape, sb, suite, guide_cache[env])
            return surrogate_loss(tape, suite.forward, sb.states, sb.slots,
                                  adv, sb.n_traj)

        params = suite.all_params()
        tape = ad.Tape()
        loss = make_loss(tape)
        ad.zero_grads(params)
        tape.backward(loss)
        got = ad.flat_grad(params)

        x0 = ad.flatten(params)

        def scalar(vec):
            ad.assign_flat(params, vec)
            value = float(make_loss(ad.Tape()).data)
            return value

        want = finite_difference_grad(scalar, x0)
        ad.assign_flat(params, x0)
        if np.allclose(got, want, rtol=1e-5, atol=1e-8):
            scale = np.maximum(np.abs(want), 1.0)
            worst = max(worst, float((np.abs(got - want) / scale).max()))
        else:
            failures += 1
    report(10, failures == 0,
           f"500 random loss instances, {failures} gradient mismatches, "
           f"worst relative gap {worst:.2e}")
