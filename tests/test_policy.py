"""Policy wrappers: masked distributions, score vectors, checkpoints."""

from pathlib import Path

import numpy as np
import pytest

from gflow import autodiff as ad
from gflow import training
from gflow.envs import HyperGrid, SequenceEnv, random_dag, synthetic_rewards
from gflow.errors import ShapeError
from gflow.objectives import step_batch
from gflow.policy import (
    BackwardPolicy,
    ForwardPolicy,
    LogZ,
    PolicySuite,
    ScalarEstimator,
    UniformBackward,
    load_checkpoint,
    make_suite,
    save_checkpoint,
    score_matrix,
)
from gflow.sampling import sample_forward
from gflow.training import DAMPING, conjugate_gradient, trpo_step
from oracles import dense_table, random_suite, random_table, synthetic_env


def mlp_forward(env, rng, hidden=(8,)):
    return ForwardPolicy(env, ad.Mlp((env.encoding_dim, *hidden, env.n_action_slots), rng))


def test_uniform_backward_four_parents():
    env = HyperGrid(4, 3)
    ub = UniformBackward(env)
    lp = ub.log_probs_numpy(np.array([(1, 1, 1, 1)]))
    np.testing.assert_allclose(lp[0], np.log(0.25))
    p = ub.probs_numpy(np.array([(1, 1, 0, 1)]))
    np.testing.assert_allclose(p[0], [1 / 3, 1 / 3, 0.0, 1 / 3])


def test_uniform_backward_step_log_probs():
    env = HyperGrid(2, 3)
    ub = UniformBackward(env)
    out = ub.step_log_probs(ad.Tape(), np.array([(1, 1), (1, 0)]), [0, 0])
    np.testing.assert_allclose(out.data, [np.log(0.5), 0.0])
    assert ub.params() == []


def test_zero_logit_tabular_is_uniform():
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(0)
    suite = make_suite(env, rng, tabular=True)
    states = env.enumeration().states
    p = suite.forward.probs_numpy(states)
    masks = suite.forward.masks(states)
    np.testing.assert_allclose(p, masks / masks.sum(axis=1, keepdims=True))


def test_log_prob_matrix_normalized():
    env = SequenceEnv(2, 3, np.arange(1.0, 10.0))
    rng = np.random.default_rng(1)
    pol = mlp_forward(env, rng)
    states = env.enumeration().states
    lp = pol.log_probs_numpy(states)
    masks = pol.masks(states)
    total = np.exp(lp[masks])
    sums = np.zeros(len(states))
    np.add.at(sums, np.nonzero(masks)[0], total)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    assert np.all(lp[~masks] == -np.inf)
    np.testing.assert_allclose(pol.probs_numpy(states), np.where(masks, np.exp(lp), 0.0))


def test_taped_matrix_matches_numpy():
    env = HyperGrid(2, 4)
    rng = np.random.default_rng(2)
    pol = mlp_forward(env, rng)
    states = np.array([(0, 0), (1, 2), (3, 3)])
    taped = pol.log_prob_matrix(ad.Tape(), states)
    np.testing.assert_allclose(taped.data, pol.log_probs_numpy(states))

    tab = random_suite(env, rng, 0.3, tabular=True)
    taped = tab.forward.log_prob_matrix(ad.Tape(), states)
    np.testing.assert_allclose(taped.data, tab.forward.log_probs_numpy(states))


def test_step_log_probs_pick_chosen_slots():
    env = HyperGrid(2, 4)
    rng = np.random.default_rng(3)
    pol = mlp_forward(env, rng)
    states = np.array([(0, 0), (1, 2), (3, 1)])
    slots = np.array([0, 2, 1])
    got = pol.step_log_probs(ad.Tape(), states, slots)
    want = pol.log_probs_numpy(states)[np.arange(3), slots]
    np.testing.assert_allclose(got.data, want)


def test_backward_policy_masks_parent_slots():
    env = SequenceEnv(3, 2, np.ones(8))
    rng = np.random.default_rng(4)
    pol = BackwardPolicy(env, ad.Mlp((env.encoding_dim, 8, env.n_backward_slots), rng))
    lp = pol.log_probs_numpy(np.array([(0, -1, 1)]))
    assert lp[0, 1] == -np.inf
    assert np.isfinite(lp[0, [0, 2]]).all()


def policy_rows(suite, enum):
    """(policy, states, masks): the forward policy over every state with the
    enumeration's masks, and the learned backward policy over every state
    but the root with the masks left to the policy, as the exact tables
    pass them."""
    keep = np.arange(enum.n) != enum.root_index
    return [(suite.forward, enum.states, enum.action_masks()),
            (suite.backward, enum.states[keep], None)]


@pytest.mark.parametrize("tabular", [True, False], ids=["tabular", "mlp-64-64"])
def test_blocked_evaluation_matches_one_taped_pass(tabular):
    # 15 625 states make several row blocks, the last one short.  For the
    # (64, 64) Mlp, OpenBLAS's small-matrix kernel (AVX-512) rounds the last
    # logit column of a 512-row block unlike one pass, but that column, the
    # stop slot, is admitted only where it is the only admitted slot, so its
    # log-probability is exactly 0 either way.
    env = synthetic_env(6, 4, 0)
    enum = env.enumeration()
    suite = random_suite(env, np.random.default_rng(30), 1.0, tabular=tabular,
                         hidden=(64, 64), learned_backward=True)
    for pol, states, masks in policy_rows(suite, enum):
        step = ad.BLOCK // pol.model.widest
        assert len(states) > step and len(states) % step
        taped = pol.log_prob_matrix(ad.Tape(), states, masks).data
        assert pol.log_probs_numpy(states, masks).tobytes() == taped.tobytes()


def test_blocked_evaluation_of_a_layer_wider_than_a_block():
    # A block is one row.  numpy hands a one-row product to BLAS as a
    # matrix-vector product, which rounds unlike the matrix product of one
    # pass over every row, so each row is checked bit for bit against a
    # taped pass over that row alone, and against one taped pass to 1e-12.
    env = HyperGrid(2, 4)
    enum = env.enumeration()
    suite = make_suite(env, np.random.default_rng(31), hidden=(ad.BLOCK + 1,),
                       learned_backward=True)
    for pol, states, masks in policy_rows(suite, enum):
        assert pol.model.widest > ad.BLOCK
        blocked = pol.log_probs_numpy(states, masks)
        rows = [pol.log_prob_matrix(ad.Tape(), states[i:i + 1],
                                    None if masks is None else masks[i:i + 1]).data
                for i in range(len(states))]
        assert blocked.tobytes() == np.concatenate(rows).tobytes()
        taped = pol.log_prob_matrix(ad.Tape(), states, masks).data
        assert np.array_equal(np.isinf(blocked), np.isinf(taped))
        np.testing.assert_allclose(blocked, taped, rtol=0.0, atol=1e-12)


def test_scalar_estimator_paths_agree():
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(5)
    est = ScalarEstimator(env, ad.Mlp((env.encoding_dim, 8, 1), rng))
    states = np.array([(0, 0), (2, 1), (1, 1)])
    tape = ad.Tape()
    taped = est.values(tape, states)
    assert taped.data.shape == (3,)
    np.testing.assert_allclose(taped.data, est.values(None, states).data)
    tape.backward(ad.sum(tape, taped))
    assert any(p.grad is not None for p in est.params())


def test_scalar_estimator_rejects_wide_tabular():
    env = HyperGrid(2, 3)
    with pytest.raises(ShapeError):
        ScalarEstimator(env, ad.Tabular(env.enumeration().n, 2))


def test_tabular_row_count_checked():
    env = HyperGrid(2, 3)
    with pytest.raises(ShapeError):
        ForwardPolicy(env, ad.Tabular(4, env.n_action_slots))


def test_logz():
    z = LogZ()
    assert z.item() == 0.0
    assert len(z.params()) == 1
    z.value.data[0] = -0.25
    assert z.item() == -0.25


def tape_score_row(pol, state, slot):
    """d log pi(slot | state) / d theta from one taped backward pass; for a
    tabular policy over its dense table, 0 off the valid slots."""
    for p in pol.params():
        p.grad = None
    tape = ad.Tape()
    tape.backward(pol.step_log_probs(tape, state[None], np.array([slot])))
    if pol.tabular:
        return dense_table(pol.model, pol.model.table.grad).ravel()
    return ad.flat_grad(pol.params())


def dense_scores(pol, states, slots):
    """Dense M x P score matrix built per sample: the oracle for score_matrix."""
    masks = pol.masks(states)
    x = pol._model_inputs(states)
    model = pol.model
    logits, *cache = model.forward_cached(x)
    d = -ad.masked_softmax(logits, masks)
    d[np.arange(len(states)), slots] += 1.0
    m = len(states)
    if isinstance(model, ad.Tabular):
        g = np.zeros((m, model.index.mask.size))
        cols = x[:, None] * model.n_cols + np.arange(model.n_cols)[None, :]
        np.put_along_axis(g, cols, d, axis=1)
        return g
    inputs, pre = cache
    blocks = [None] * len(model.weights)
    delta = d
    for layer in range(len(model.weights) - 1, -1, -1):
        blocks[layer] = (np.einsum("mi,mo->mio", inputs[layer], delta).reshape(m, -1), delta)
        if layer > 0:
            delta = delta @ model.weights[layer].data.T
            delta = np.where(pre[layer - 1] > 0, delta, model.slope * delta)
    return np.concatenate([g for block in blocks for g in block], axis=1)


def assert_rel(got, want, rel=1e-10):
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= rel * scale


def operator_columns(pol, scores):
    """Positions of a score operator's columns: every parameter in
    flatten() order, or the entries of the table rows it covers in the
    dense table."""
    if scores.rows is None:
        return np.arange(ad.flatten(pol.params()).size)
    n_cols = pol.model.n_cols
    return (scores.rows[:, None] * n_cols + np.arange(n_cols)).ravel()


def test_score_matrix_matches_per_row_tape():
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(6)
    index = env.enumeration().action_index
    for pol in (mlp_forward(env, rng), ForwardPolicy(env, random_table(9, 3, rng, 0.5, index))):
        states = np.array([(0, 0), (1, 1), (2, 1), (0, 2), (1, 1)])
        slots = np.array([0, 2, 1, 0, 1])
        scores = score_matrix(pol, states, slots)
        cols = operator_columns(pol, scores)
        if pol.tabular:
            np.testing.assert_array_equal(
                scores.rows, np.unique(env.enumeration().positions(states[:4])))
        assert scores.shape == (len(states), len(cols))
        for i in range(len(states)):
            want = tape_score_row(pol, states[i], slots[i])
            row = np.zeros_like(want)
            row[cols] = scores.T @ np.eye(len(states))[i]
            np.testing.assert_allclose(row, want, rtol=1e-10, atol=1e-12)


SCORE_ENVS = [HyperGrid(2, 3)] + [random_dag(np.random.default_rng(seed)) for seed in range(5)]


@pytest.mark.parametrize("tabular", [True, False], ids=["tabular", "mlp"])
@pytest.mark.parametrize("env", SCORE_ENVS, ids=["grid"] + [f"dag{s}" for s in range(5)])
def test_score_operator_matches_dense_fisher(env, tabular):
    rng = np.random.default_rng(16)
    enum = env.enumeration()
    suite = random_suite(env, rng, 0.5, tabular=tabular, hidden=(8, 8))
    pol = suite.forward
    idx = rng.integers(enum.n, size=10)
    idx = np.concatenate([idx, idx[:4]])  # repeated states share table rows
    states = enum.states[idx]
    masks = pol.masks(states)
    slots = np.array([rng.choice(np.flatnonzero(row)) for row in masks])
    dense = dense_scores(pol, states, slots)
    for i, (s, a) in enumerate(zip(states, slots)):
        assert_rel(dense[i], tape_score_row(pol, s, a))

    scores = score_matrix(pol, states, slots, masks)
    cols = operator_columns(pol, scores)
    dropped = np.ones(dense.shape[1], dtype=bool)
    dropped[cols] = False
    assert not dense[:, dropped].any()
    dense = dense[:, cols]
    m, n_params = dense.shape
    assert scores.shape == (m, n_params) and scores.T.shape == (n_params, m)
    v = rng.normal(size=n_params)
    u = rng.normal(size=m)
    assert_rel(scores @ v, dense @ v)
    assert_rel(scores.T @ u, dense.T @ u)
    assert_rel(scores.T @ (scores @ v) / m + DAMPING * v,
               dense.T @ (dense @ v) / m + DAMPING * v)


@pytest.mark.parametrize("tabular", [True, False], ids=["tabular", "mlp"])
def test_trpo_direction_matches_dense_fisher(monkeypatch, tabular):
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(17)
    suite = random_suite(env, rng, 0.5, tabular=tabular, hidden=(8, 8), need_value_f=True)
    batch = sample_forward(env, suite.forward, 16, rng)
    sb = step_batch(batch)
    dense = dense_scores(suite.forward, sb.states, sb.slots)
    operators, solves = [], []

    def recording_score_matrix(*args):
        operators.append(score_matrix(*args))
        return operators[-1]

    def recording_cg(matvec, b):
        x = conjugate_gradient(matvec, b)
        solves.append((b, x))
        return x

    monkeypatch.setattr(training, "score_matrix", recording_score_matrix)
    monkeypatch.setattr(training, "conjugate_gradient", recording_cg)
    trpo_step(suite, sb, {name: ad.Adam(params, 0.01)
                          for name, params in suite.param_groups().items()})
    (g, x), = solves
    dense = dense[:, operator_columns(suite.forward, operators[0])]
    m = dense.shape[0]
    assert_rel(x, conjugate_gradient(lambda v: dense.T @ (dense @ v) / m + DAMPING * v, g))


def test_suite_param_groups_by_need():
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(7)
    plain = make_suite(env, rng)
    assert set(plain.param_groups()) == {"policy_f", "log_z"}
    full = make_suite(env, rng, learned_backward=True, need_value_f=True,
                      need_value_b=True, need_flow=True)
    assert set(full.param_groups()) == set(PolicySuite.GROUPS)


@pytest.mark.parametrize("env", [HyperGrid(2, 3), SequenceEnv(2, 3, np.arange(1.0, 10.0)),
                                 SequenceEnv(3, 2, np.arange(1.0, 9.0))])
def test_tabular_suite_policy_supports_are_the_valid_slots(env):
    # A policy table holds one entry per valid slot, packed by the
    # enumeration's shared index; value tables one per state.
    enum = env.enumeration()
    suites = [make_suite(env, np.random.default_rng(8), tabular=True, learned_backward=True,
                         need_value_f=True, need_flow=True) for _ in range(2)]
    for suite in suites:
        for policy, index, masks in ((suite.forward, enum.action_index, enum.action_masks()),
                                     (suite.backward, enum.parent_index, enum.parent_masks())):
            assert policy.model.index is index
            assert policy.model.table.data.shape == (np.count_nonzero(masks),)
            np.testing.assert_array_equal(index.cells[masks], np.arange(index.size))
            assert np.all(index.cells[~masks] == index.size)
        for estimator in (suite.value_f, suite.state_flow):
            assert estimator.model.table.data.shape == (enum.n,)
    # A table packed by other slots than the policy's is refused.
    with pytest.raises(ShapeError):
        ForwardPolicy(env, ad.Tabular(enum.n, env.n_action_slots))


def test_suite_checkpoint_round_trip(tmp_path):
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(9)
    suite = make_suite(env, rng, learned_backward=True, need_value_f=True)
    path = tmp_path / "suite.params"
    suite.save(path, seed=17)
    before = {name: ad.flatten(ps) for name, ps in suite.param_groups().items()}
    for p in suite.all_params():
        p.data[...] = 0.0
    assert suite.load(path) == 17
    for name, params in suite.param_groups().items():
        np.testing.assert_array_equal(ad.flatten(params), before[name])


def test_suite_checkpoint_group_mismatch(tmp_path):
    env = HyperGrid(2, 3)
    rng = np.random.default_rng(10)
    small = make_suite(env, rng)
    path = tmp_path / "small.params"
    small.save(path)
    big = make_suite(env, rng, need_value_f=True)
    with pytest.raises(ShapeError):
        big.load(path)


def test_tabular_checkpoint_bytes_are_the_dense_tables(tmp_path):
    # A packed suite writes the bytes a writer of its dense tables, zero off
    # the valid slots, writes.
    env = SequenceEnv(3, 2, np.arange(1.0, 9.0))
    suite = random_suite(env, np.random.default_rng(12), 0.5, log_z=0.3, tabular=True,
                         learned_backward=True, need_value_f=True, need_flow=True)
    suite.save(tmp_path / "packed.params", seed=5)
    groups = suite._parts()
    vecs = [dense_table(part.model).ravel() if name != "log_z" else part.value.data
            for name, part in groups.items()]
    save_checkpoint(tmp_path / "dense.params", "suite:" + ",".join(groups),
                    [v.size for v in vecs], 5, np.concatenate(vecs))
    assert (tmp_path / "packed.params").read_bytes() == (tmp_path / "dense.params").read_bytes()


# DB-B on SequenceEnv(2, 3) after 6 iterations, as gflow wrote it when a
# policy table was a dense (state x slot) parameter.
DENSE_LAYOUT_PARAMS = Path(__file__).parent / "data" / "seq-2x3-DB-B-seed3.params"


def dense_layout_suite():
    env = SequenceEnv(2, 3, synthetic_rewards(2, 3, 1))
    return make_suite(env, np.random.default_rng(0), tabular=True, learned_backward=True,
                      need_flow=True)


def test_checkpoint_of_the_dense_layout_loads(tmp_path):
    suite = dense_layout_suite()
    assert suite.load(DENSE_LAYOUT_PARAMS) == 3
    assert suite.forward.model.table.data.any() and suite.backward.model.table.data.any()
    suite.save(tmp_path / "again.params", seed=3)
    assert (tmp_path / "again.params").read_bytes() == DENSE_LAYOUT_PARAMS.read_bytes()


@pytest.mark.parametrize("group", [0, 1], ids=["forward", "backward"])
def test_checkpoint_with_a_value_off_the_valid_slots_is_refused(tmp_path, group):
    suite = dense_layout_suite()
    kind, dims, seed, vec = load_checkpoint(DENSE_LAYOUT_PARAMS)
    policy = (suite.forward, suite.backward)[group]
    off = np.flatnonzero(~policy.model.index.mask)[-1]
    vec[sum(dims[:group]) + off] = 1e-300
    save_checkpoint(tmp_path / "bad.params", kind, dims, seed, vec)
    before = ad.flatten(suite.all_params()).tobytes()
    with pytest.raises(ShapeError, match="off its table's mask"):
        suite.load(tmp_path / "bad.params")
    assert ad.flatten(suite.all_params()).tobytes() == before


def test_raw_checkpoint_round_trip(tmp_path):
    path = tmp_path / "raw.params"
    vec = np.array([1.0, -2.5, 3.25])
    save_checkpoint(path, "mlp:test", [3], 42, vec)
    kind, dims, seed, loaded = load_checkpoint(path)
    assert kind == "mlp:test"
    assert dims == [3]
    assert seed == 42
    np.testing.assert_array_equal(loaded, vec)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.params"
    path.write_bytes(b"XXXXnot a checkpoint")
    with pytest.raises(ShapeError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_and_padded_files(tmp_path):
    env = HyperGrid(2, 3)
    suite = make_suite(env, np.random.default_rng(11), need_value_f=True)
    path = tmp_path / "suite.params"
    suite.save(path, seed=3)
    data = path.read_bytes()
    assert data[12:40] == b"suite:policy_f,log_z,value_f"
    # Header: magic 0-4, version 4-8, kind length 8-12, the 28-byte kind
    # "suite:policy_f,log_z,value_f" 12-40, dim count 40-44, three dims 44-68,
    # seed 68-76, body size 76-84; the body follows.  Cut inside each field.
    for cut in (2, 6, 10, 20, 42, 50, 70, 80, len(data) - 9, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ShapeError):
            load_checkpoint(path)
    path.write_bytes(data + b"\0")
    with pytest.raises(ShapeError, match="trailing"):
        load_checkpoint(path)
    # Well-formed files whose dims do not split the body into the groups:
    # a dims list one short, and a body one float longer than the dims.
    path.write_bytes(data)
    kind, dims, _, vec = load_checkpoint(path)
    before = ad.flatten(suite.all_params())
    for bad_dims, bad_vec in ((dims[:-1], vec[:sum(dims[:-1])]),
                              (dims, np.append(vec, 1.0))):
        save_checkpoint(path, kind, bad_dims, 3, bad_vec)
        with pytest.raises(ShapeError, match="do not split"):
            suite.load(path)
        assert ad.flatten(suite.all_params()).tobytes() == before.tobytes()
