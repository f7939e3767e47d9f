"""Gradient checks for the tape engine against central finite differences."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gflow import autodiff as ad
from gflow.envs import SequenceEnv
from gflow.errors import ContractError, MaskError, NumericFault, ShapeError
from oracles import random_table

REL_TOL = 1e-5
FD_STEP = 1e-5


def fd_grad(f, x0, step=FD_STEP):
    """Independent central-difference oracle over a flat vector."""
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


def assert_close(got, want, rel=REL_TOL):
    scale = max(1.0, float(np.abs(want).max()) if np.asarray(want).size else 1.0)
    np.testing.assert_allclose(got, want, rtol=rel, atol=rel * scale)


def tape_grad_of(build, x0, shape):
    """Tape gradient of a scalar-valued builder over one input tensor."""
    t = ad.Tensor(np.asarray(x0).reshape(shape), requires_grad=True)
    tape = ad.Tape()
    loss = build(tape, t)
    tape.backward(loss)
    return t.grad.ravel()


def check_op(build, shape, rng):
    x0 = rng.normal(0.0, 1.0, size=int(np.prod(shape)))

    def f(x):
        t = ad.Tensor(x.reshape(shape))
        tape = ad.Tape()
        return float(build(tape, t).data)

    assert_close(tape_grad_of(build, x0, shape), fd_grad(f, x0))


# -- oracle: the layer-by-layer taped MLP ---------------------------------------
# A taped Mlp.forward is one record backed by the model's own reverse pass.
# It used to record one matmul, one add and one leaky_relu per layer, each
# gradient going through the tape's first write (g + 0.0) and accumulation;
# those ops are kept here as the reference it must match bit for bit.


def _as_tensor(x):
    return x if isinstance(x, ad.Tensor) else ad.Tensor(x)


def matmul(tape, a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out = ad.Tensor(a.data @ b.data)
    if tape is None:
        return out

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return tape.record(out, (a, b), bw)


def leaky_relu(tape, a, slope=0.01):
    a = _as_tensor(a)
    pos = a.data > 0
    out = ad.Tensor(np.where(pos, a.data, slope * a.data))
    if tape is None:
        return out

    def bw(g):
        return (np.where(pos, g, slope * g),)

    return tape.record(out, (a,), bw)


def layered_forward(net, tape, x):
    """Mlp output built from matmul, add and leaky_relu records per layer."""
    h = _as_tensor(x)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = ad.add(tape, matmul(tape, h, w), b)
        if i < last:
            h = leaky_relu(tape, h, net.slope)
    return h


def scatter_gather(tape, a, idx, shape):
    """Row gather from the flat `a` read as a dense table of `shape`, whose
    backward scatters into a fresh zeros table by np.add.at."""
    idx = np.asarray(idx, dtype=np.intp)
    out = ad.Tensor(a.data.reshape(shape)[idx])

    def bw(g):
        acc = np.zeros(shape)
        np.add.at(acc, idx, g)
        return (acc.ravel(),)

    return tape.record(out, (a,), bw)


def policy_loss(tape, outs, masks, cols, weights):
    """Sum over evaluations of a weighted masked log-softmax pick, as in the
    policy surrogates."""
    terms = [ad.sum(tape, ad.mul(tape, ad.pick(tape, ad.log_softmax_masked(tape, o, m), c),
                                 ad.Tensor(w)))
             for o, m, c, w in zip(outs, masks, cols, weights)]
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(tape, loss, term)
    return loss


def taped_grads(params, forward, inputs, masks, cols, weights):
    """Bytes of the output and of every parameter gradient of policy_loss."""
    ad.zero_grads(params)
    tape = ad.Tape()
    outs = [forward(tape, x) for x in inputs]
    tape.backward(policy_loss(tape, outs, masks, cols, weights))
    return [o.data.tobytes() for o in outs] + [p.grad.tobytes() for p in params]


def loss_inputs(rng, sizes, n_out):
    """Masks, chosen columns and weights for evaluations of `sizes` rows."""
    masks = [rng.random((m, n_out)) < 0.7 for m in sizes]
    for mk in masks:
        mk[:, 0] = True
    cols = [np.array([rng.choice(np.flatnonzero(row)) for row in mk]) for mk in masks]
    return masks, cols, [rng.normal(size=m) for m in sizes]


@pytest.mark.parametrize("n_evals", [1, 2], ids=["once", "twice"])
@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)], ids=["depth1", "depth2", "depth3"])
def test_one_record_mlp_matches_layered_oracle(hidden, m, n_evals):
    # Twice: one network evaluated on two inputs on one tape, as db_loss
    # evaluates the state flow at both ends of each edge.
    rng = np.random.default_rng(30 + len(hidden) + m)
    net = ad.Mlp((4, *hidden, 3), rng)
    for b in net.biases:
        b.data[:] = rng.normal(size=b.data.shape)
    inputs = [rng.normal(size=(m, 4)) for _ in range(n_evals)]
    masks, cols, weights = loss_inputs(rng, [m] * n_evals, 3)
    params = net.params()
    got = taped_grads(params, net.forward, inputs, masks, cols, weights)
    want = taped_grads(params, lambda tape, x: layered_forward(net, tape, x),
                       inputs, masks, cols, weights)
    assert got == want


def test_tabular_forward_matches_scatter_gather_oracle():
    rng = np.random.default_rng(40)
    table = random_table(6, 4, rng, 0.5)
    inputs = [np.array([3, 1, 3, 3, 0]), np.array([1, 5, 1])]  # repeated rows
    masks, cols, weights = loss_inputs(rng, [len(idx) for idx in inputs], 4)
    params = table.params()
    got = taped_grads(params, table.forward, inputs, masks, cols, weights)
    want = taped_grads(params, lambda tape, idx: scatter_gather(tape, table.table, idx, (6, 4)),
                       inputs, masks, cols, weights)
    assert got == want


def test_taped_model_forward_is_one_record():
    rng = np.random.default_rng(41)
    for model, x in ((ad.Mlp((4, 6, 5, 3), rng), rng.normal(size=(7, 4))),
                     (ad.Tabular(6, 3), np.array([0, 2, 2]))):
        tape = ad.Tape()
        out = model.forward(tape, x)
        assert len(tape._records) == 1
        rec_out, rec_inputs, _ = tape._records[0]
        assert rec_out is out
        assert list(rec_inputs) == model.params()


def signed_zero_net(hidden, rng):
    """An Mlp whose pre-activations hit +0.0, -0.0 and NaN on the rows of
    signed_zero_rows, at every layer.

    Unit 1 has zero weights, so its pre-activation is +0.0 on every row.
    Unit 0 has tiny negative weights and bias -0.0: on the row of tiny
    positive inputs (and the non-negative tiny activations the other
    weights then give it) each fused product underflows to -0.0."""
    net = ad.Mlp((4, *hidden, 3), rng)
    for w, b in zip(net.weights, net.biases):
        np.abs(w.data, out=w.data)
        w.data[:, 0] = -1e-200
        w.data[:, 1] = 0.0
        b.data[0] = -0.0
    return net


def signed_zero_rows(rng):
    x = rng.normal(size=(8, 4))
    x[1] = 1e-200
    x[2] = 0.0
    x[3, 1] = np.nan
    return x


def test_leaky_max_is_leaky_where_bit_for_bit():
    h = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  1e-310, -1e-310, 2.5, -2.5, np.finfo(float).max, -np.finfo(float).max])
    slope = ad.Mlp.slope
    want = np.where(h > 0, h, slope * h)
    assert np.maximum(h, slope * h).tobytes() == want.tobytes()


@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)], ids=["depth1", "depth2", "depth3"])
def test_untaped_forward_matches_layered_oracle(hidden):
    rng = np.random.default_rng(50 + len(hidden))
    net = signed_zero_net(hidden, rng)
    x = signed_zero_rows(rng)
    x_before = x.copy()
    want = layered_forward(net, None, x).data
    _, _, pre = net.forward_cached(x)
    for p in pre:
        zero = p == 0
        assert (zero & ~np.signbit(p)).any() and (zero & np.signbit(p)).any()
        assert np.isnan(p).any()
    for got in (net.forward(None, x).data, net.forward_numpy(x)):
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()
    assert x.tobytes() == x_before.tobytes()


@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)], ids=["depth1", "depth2", "depth3"])
def test_forward_cached_keeps_inputs_and_pre_activations(hidden):
    rng = np.random.default_rng(60 + len(hidden))
    net = signed_zero_net(hidden, rng)
    x = signed_zero_rows(rng)
    out, inputs, pre = net.forward_cached(x)
    # Oracle: each layer's input and pre-activation built from scratch.
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        assert inputs[i].tobytes() == h.tobytes()
        z = h @ w.data + b.data
        if i < len(hidden):
            assert pre[i].tobytes() == z.tobytes()
            h = np.where(z > 0, z, net.slope * z)
        else:
            assert out.tobytes() == z.tobytes()
    assert len(pre) == len(hidden)


def test_untaped_forward_holds_two_layer_arrays():
    # The seq-mlp shape: every SequenceEnv(6, 4) state through (64, 64) hidden layers.
    rng = np.random.default_rng(70)
    net = ad.Mlp((30, 64, 64, 25), rng)
    x = rng.normal(size=(15625, 30))
    net.forward_numpy(x[:10])  # warm-up
    layer = x.shape[0] * 64 * 8
    tracemalloc.start()
    try:
        net.forward_numpy(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * layer + layer // 8


def test_tape_adopts_the_scatter_table_without_a_copy():
    # The forward table of tabular SequenceEnv(6, 4): 15 625 states x 25 slots.
    rng = np.random.default_rng(80)
    table = random_table(15625, 25, rng, 0.5)
    idx = rng.integers(0, 15625, size=384)
    w = ad.Tensor(rng.normal(size=(384, 25)))
    tape = ad.Tape()
    loss = ad.sum(tape, ad.mul(tape, table.forward(tape, idx), w))
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = table.table.data.nbytes
    assert peak <= nbytes + nbytes // 8
    want = np.zeros((15625, 25))
    np.add.at(want, idx, w.data)
    assert table.table.grad.tobytes() == want.tobytes()


def test_packed_gather_backward_is_the_dense_scatter_on_the_mask():
    # The forward table of tabular SequenceEnv(6, 4), packed to its 79 096
    # valid slots: the bincount of a 400-row gather's gradient is, byte for
    # byte, np.add.at into the dense table read on the mask, whatever the
    # gradient holds off it.
    mask = sequence_action_masks()
    rng = np.random.default_rng(82)
    table = random_table(15625, 25, rng, 0.5, ad.SlotIndex(mask))
    for _ in range(20):
        idx = rng.integers(0, 15625, size=400)
        g = rng.normal(size=(400, 25)) * 10.0 ** rng.integers(-8, 8, size=(400, 1))
        g[rng.random(g.shape) < 0.1] = -0.0
        tape = ad.Tape()
        ad.zero_grads(table.params())
        tape.backward(ad.sum(tape, ad.mul(tape, table.forward(tape, idx), ad.Tensor(g))))
        want = np.zeros((15625, 25))
        np.add.at(want, idx, g)
        assert table.table.grad.tobytes() == want[mask].tobytes()


def test_adopted_gradient_is_not_shared_with_other_inputs():
    # add's backward hands the adopted table on as it is; the inputs that
    # receive it must get copies of their own.
    rng = np.random.default_rng(81)
    a = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    tape = ad.Tape()
    s = ad.add(tape, a, b)
    loss = ad.sum(tape, ad.gather(tape, s, np.array([0, 3, 3])))
    tape.backward(loss)
    for x, y in ((a, b), (a, s), (b, s)):
        assert not np.shares_memory(x.grad, y.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, s.grad)


def test_square_gradient_is_two_theta():
    t = ad.Tensor(np.array([3.0, -1.5]), requires_grad=True)
    tape = ad.Tape()
    loss = ad.sum(tape, ad.square(tape, t))
    tape.backward(loss)
    np.testing.assert_allclose(t.grad, [6.0, -3.0])
    assert loss.data == pytest.approx(9.0 + 2.25)


def test_elementwise_ops_match_finite_differences():
    rng = np.random.default_rng(0)
    w = ad.Tensor(rng.normal(size=(3, 4)))  # fixed cofactor
    check_op(lambda tp, t: ad.sum(tp, ad.mul(tp, t, w)), (3, 4), rng)
    check_op(lambda tp, t: ad.sum(tp, ad.add(tp, t, w)), (3, 4), rng)
    check_op(lambda tp, t: ad.sum(tp, ad.sub(tp, w, t)), (3, 4), rng)
    check_op(lambda tp, t: ad.sum(tp, ad.scale(tp, t, -2.5)), (3, 4), rng)
    check_op(lambda tp, t: ad.sum(tp, ad.square(tp, t)), (3, 4), rng)
    check_op(lambda tp, t: ad.mean(tp, ad.square(tp, t)), (5,), rng)


def test_leaky_relu_slope_both_sides():
    t = ad.Tensor(np.array([2.0, -2.0]), requires_grad=True)
    tape = ad.Tape()
    out = leaky_relu(tape, t, slope=0.01)
    np.testing.assert_allclose(out.data, [2.0, -0.02])
    loss = ad.sum(tape, out)
    tape.backward(loss)
    np.testing.assert_allclose(t.grad, [1.0, 0.01])


def test_broadcasting_gradients_reduce_correctly():
    rng = np.random.default_rng(2)
    b = ad.Tensor(rng.normal(size=(1, 4)))
    check_op(lambda tp, t: ad.sum(tp, ad.add(tp, t, b)), (3, 4), rng)
    # gradient of the broadcast side sums over the expanded axis
    a = ad.Tensor(rng.normal(size=(3, 4)))
    t = ad.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    tape = ad.Tape()
    loss = ad.sum(tape, ad.mul(tape, a, t))
    tape.backward(loss)
    np.testing.assert_allclose(t.grad, a.data.sum(axis=0, keepdims=True))


def test_matmul_matches_finite_differences():
    rng = np.random.default_rng(3)
    b = ad.Tensor(rng.normal(size=(4, 2)))
    check_op(lambda tp, t: ad.sum(tp, ad.square(tp, matmul(tp, t, b))), (3, 4), rng)
    with pytest.raises(ShapeError):
        matmul(ad.Tape(), ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


def test_log_softmax_symmetric_pair():
    # offsets (0.5, -0.5): probabilities e / (e + 1) and 1 / (e + 1)
    tape = ad.Tape()
    out = ad.log_softmax_masked(
        tape, ad.Tensor(np.array([[0.5, -0.5]])), np.ones((1, 2), dtype=bool))
    probs = np.exp(out.data[0])
    np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(probs[0], np.e / (np.e + 1.0), rtol=1e-12)


def test_log_softmax_masked_excludes_entries():
    mask = np.array([[True, False, True]])
    tape = ad.Tape()
    out = ad.log_softmax_masked(tape, ad.Tensor(np.array([[1.0, 5.0, 1.0]])), mask)
    assert out.data[0, 1] == -np.inf
    np.testing.assert_allclose(np.exp(out.data[0, [0, 2]]), [0.5, 0.5], rtol=1e-12)


def test_log_softmax_masked_gradient():
    rng = np.random.default_rng(5)
    mask = np.array([[True, True, False, True], [True, False, True, True]])
    cols = np.array([1, 2])  # a valid slot per row
    w = ad.Tensor(np.array([0.7, -1.3]))

    def build(tp, t):
        ls = ad.log_softmax_masked(tp, t, mask)
        return ad.sum(tp, ad.mul(tp, ad.pick(tp, ls, cols), w))

    x0 = rng.normal(size=8)

    def f(x):
        tape = ad.Tape()
        return float(build(tape, ad.Tensor(x.reshape(2, 4))).data)

    assert_close(tape_grad_of(build, x0, (2, 4)), fd_grad(f, x0))


def test_log_softmax_masked_rejects_empty_row():
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(MaskError):
        ad.log_softmax_masked(ad.Tape(), ad.Tensor(np.zeros((2, 2))), mask)


def test_gather_accumulates_repeated_rows():
    t = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    tape = ad.Tape()
    out = ad.gather(tape, t, np.array([0, 0, 1]))
    loss = ad.sum(tape, out)
    tape.backward(loss)
    np.testing.assert_allclose(t.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_pick_selects_and_scatters():
    t = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    tape = ad.Tape()
    out = ad.pick(tape, t, np.array([1, 0]))
    np.testing.assert_allclose(out.data, [2.0, 3.0])
    loss = ad.sum(tape, ad.square(tape, out))
    tape.backward(loss)
    np.testing.assert_allclose(t.grad, [[0.0, 4.0], [6.0, 0.0]])


def test_segment_sum_values_and_gradient():
    t = ad.Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
    tape = ad.Tape()
    out = ad.segment_sum(tape, t, np.array([0, 1, 0, 2]), 4)
    np.testing.assert_allclose(out.data, [4.0, 2.0, 4.0, 0.0])
    loss = ad.sum(tape, ad.mul(tape, out, ad.Tensor(np.array([1.0, 10.0, 100.0, 5.0]))))
    tape.backward(loss)
    np.testing.assert_allclose(t.grad, [1.0, 10.0, 1.0, 100.0])


def test_tape_is_single_use():
    t = ad.Tensor(np.array([1.0]), requires_grad=True)
    tape = ad.Tape()
    loss = ad.sum(tape, ad.square(tape, t))
    tape.backward(loss)
    with pytest.raises(ContractError):
        tape.backward(loss)


def test_backward_needs_scalar_root():
    t = ad.Tensor(np.ones(3), requires_grad=True)
    tape = ad.Tape()
    out = ad.square(tape, t)
    with pytest.raises(ContractError):
        tape.backward(out)


def _eager_cases():
    """Arguments per op; the differentiable ones are Tensors."""
    rng = np.random.default_rng(11)
    a = ad.Tensor(rng.normal(size=(3, 4)))
    b = rng.normal(size=(3, 4))
    mask = rng.random((3, 4)) < 0.6
    mask[:, 0] = True
    flat = ad.Tensor(rng.normal(size=5))
    return {
        "matmul": (a, ad.Tensor(rng.normal(size=(4, 2)))),
        "add": (a, ad.Tensor(b[0])),
        "sub": (a, ad.Tensor(b)),
        "mul": (a, ad.Tensor(b)),
        "scale": (a, -1.5),
        "square": (a,),
        "leaky_relu": (a, 0.2),
        "log_softmax_masked": (a, mask),
        "gather": (a, [2, 0, 2]),
        "pick": (a, [3, 0, 1]),
        "segment_sum": (flat, [0, 2, 2, 1, 0], 4),
        "sum": (a,),
        "mean": (a,),
    }


# Every primitive op: the module functions whose first parameter is the tape,
# and the layer ops of the taped-MLP oracle above.
OPS = {name: fn for name, fn in vars(ad).items()
       if inspect.isfunction(fn) and fn.__module__ == ad.__name__
       and next(iter(inspect.signature(fn).parameters), None) == "tape"}
OPS.update(matmul=matmul, leaky_relu=leaky_relu)


@pytest.mark.parametrize("name", sorted(OPS))
def test_eager_op_matches_taped_and_records_nothing(name):
    op, args = OPS[name], _eager_cases()[name]
    unused = ad.Tape()
    eager = op(None, *args)
    tape = ad.Tape()
    taped = op(tape, *args)
    assert np.array_equal(eager.data, taped.data)
    assert unused._records == []
    assert not eager._taped
    # Taped, the op adds one record: its output and its Tensor arguments.
    [(out, inputs, _)] = tape._records
    assert out is taped
    tensors = [x for x in args if isinstance(x, ad.Tensor)]
    assert len(inputs) == len(tensors)
    assert all(i is t for i, t in zip(inputs, tensors))


def test_eager_log_softmax_masked_in_row_blocks_matches_single_pass():
    # Larger than one block.  Both ops are one pass over the whole input:
    # policies evaluate their rows in blocks themselves
    # (policy.log_prob_matrix), so the eager op keeps no block loop.  The two
    # must agree bit for bit, non-finite logits included.
    rng = np.random.default_rng(12)
    mask = sequence_action_masks()[:4000]
    logits = rng.normal(size=mask.shape) * 10.0
    logits[:, 3] = -np.inf
    logits[5, 7] = np.inf
    assert logits.size > ad.BLOCK
    with np.errstate(invalid="ignore"):
        eager = ad.log_softmax_masked(None, logits, mask).data
        taped = ad.log_softmax_masked(ad.Tape(), logits, mask).data
    assert eager.tobytes() == taped.tobytes()


def test_eager_log_softmax_masked_rejects_empty_row():
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(MaskError):
        ad.log_softmax_masked(None, np.zeros((2, 2)), mask)


class TestMlp:
    def test_forward_variants_agree(self):
        rng = np.random.default_rng(6)
        net = ad.Mlp((5, 8, 3), rng)
        x = rng.normal(size=(7, 5))
        tape = ad.Tape()
        taped = net.forward(tape, ad.Tensor(x))
        plain = net.forward_numpy(x)
        cached, _, _ = net.forward_cached(x)
        np.testing.assert_allclose(taped.data, plain)
        np.testing.assert_allclose(cached, plain)

    def test_init_statistics(self):
        rng = np.random.default_rng(7)
        net = ad.Mlp((30, 20, 4), rng)
        w0 = net.weights[0].data
        bound = np.sqrt(6.0 / (30 + 20))
        assert np.abs(w0).max() <= bound
        assert np.abs(w0).max() > 0.5 * bound  # actually spreads over the range
        for b in net.biases:
            assert not b.data.any()

    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        net = ad.Mlp((4, 6, 2), rng)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(5, 2))
        params = net.params()
        flat0 = ad.flatten(params)

        def f(vec):
            ad.assign_flat(params, vec)
            out = net.forward_numpy(x)
            ad.assign_flat(params, flat0)
            return float((out * w).sum())

        tape = ad.Tape()
        loss = ad.sum(tape, ad.mul(tape, net.forward(tape, ad.Tensor(x)), ad.Tensor(w)))
        ad.zero_grads(params)
        tape.backward(loss)
        assert_close(ad.flat_grad(params), fd_grad(f, flat0))

    def test_jvp_and_vjp_match_tape(self):
        rng = np.random.default_rng(9)
        net = ad.Mlp((3, 5, 5, 4), rng)
        x = rng.normal(size=(6, 3))
        _, inputs, pre = net.forward_cached(x)
        params = net.params()
        # grads[i, k] = d out[i, k] / d theta, one taped backward each.
        grads = np.empty((6, 4, ad.flatten(params).size))
        for i in range(6):
            for k in range(4):
                tape = ad.Tape()
                out = net.forward(tape, ad.Tensor(x[i:i + 1]))
                ad.zero_grads(params)
                tape.backward(ad.pick(tape, out, np.array([k])))
                grads[i, k] = ad.flat_grad(params)
        v = rng.normal(size=ad.flatten(params).size)
        g_out = rng.normal(size=(6, 4))
        assert_close(net.jvp(inputs, pre, v), grads @ v, rel=1e-10)
        assert_close(net.vjp(inputs, pre, g_out), np.einsum("ik,ikp->p", g_out, grads),
                     rel=1e-10)


class TestTabular:
    def test_rows_and_gradient(self):
        table = ad.Tabular(4, 3)
        table.table.data[:] = np.arange(12.0)
        tape = ad.Tape()
        rows = table.forward(tape, np.array([2, 0, 2]))
        np.testing.assert_allclose(rows.data[0], [6.0, 7.0, 8.0])
        loss = ad.sum(tape, rows)
        ad.zero_grads(table.params())
        tape.backward(loss)
        grad = table.table.grad.reshape(4, 3)
        np.testing.assert_allclose(grad[2], [2.0, 2.0, 2.0])
        np.testing.assert_allclose(grad[1], 0.0)

    def test_jvp_gathers_and_vjp_accumulates_rows(self):
        table = ad.Tabular(3, 2)
        idx = np.array([1, 1, 0])
        v = np.arange(6.0)
        _, cells = table.forward_cached(idx)
        np.testing.assert_array_equal(table.jvp(cells, v), [[2, 3], [2, 3], [0, 1]])
        g_out = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        got = table.vjp(cells, g_out)
        np.testing.assert_array_equal(got, [5, 6, 4, 6, 0, 0])
        tape = ad.Tape()
        loss = ad.sum(tape, ad.mul(tape, table.forward(tape, idx), ad.Tensor(g_out)))
        ad.zero_grads(table.params())
        tape.backward(loss)
        np.testing.assert_array_equal(got, ad.flat_grad(table.params()))


def test_masked_tabular_packs_its_admitted_entries():
    mask = np.array([[True, False, True], [False, False, True]])
    index = ad.SlotIndex(mask)
    assert ad.Tabular(2, 3).table.data.shape == (6,)
    table = ad.Tabular(2, 3, index)
    assert table.table.data.shape == (3,)
    np.testing.assert_array_equal(index.cells, [[0, 3, 1], [3, 3, 2]])
    np.testing.assert_array_equal(index.starts, [0, 2])
    table.table.data[:] = [1.0, 2.0, 3.0]
    rows = table.forward(None, np.array([1, 0])).data
    np.testing.assert_array_equal(rows[mask[[1, 0]]], [3.0, 1.0, 2.0])
    logp = table.log_softmax()
    np.testing.assert_array_equal(logp[~mask], -np.inf)
    np.testing.assert_allclose(logp[mask], [1.0 - np.logaddexp(1.0, 2.0),
                                            2.0 - np.logaddexp(1.0, 2.0), 0.0], rtol=1e-15)
    with pytest.raises(ShapeError):
        ad.Tabular(3, 2, index)
    with pytest.raises(MaskError):
        ad.Tabular(2, 3, ad.SlotIndex(mask & [[True], [False]])).log_softmax()


class TestAdam:
    def test_zero_gradient_is_identity_from_fresh_state(self):
        t = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = ad.Adam([t], lr=0.1)
        before = t.data.copy()
        t.grad = np.zeros(2)
        opt.step()
        np.testing.assert_allclose(t.data, before)

    def test_first_step_matches_closed_form(self):
        # With bias correction the first step is -lr * g / (|g| + eps).
        g = np.array([0.3, -2.0])
        t = ad.Tensor(np.zeros(2), requires_grad=True)
        opt = ad.Adam([t], lr=0.05)
        t.grad = g.copy()
        opt.step()
        expected = -0.05 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(t.data, expected, rtol=1e-12)

    def test_non_finite_gradient_raises(self):
        for bad in (np.nan, np.inf, -np.inf):
            t = ad.Tensor(np.zeros(3), requires_grad=True)
            opt = ad.Adam([t], lr=0.1)
            t.grad = np.array([1.0, bad, -2.0])
            with pytest.raises(NumericFault):
                opt.step()

    def test_non_finite_gradient_in_a_later_block_changes_nothing(self):
        class Blocked(ad.Adam):
            block = 2

        t = ad.Tensor(np.arange(5.0), requires_grad=True)
        opt = Blocked([t], lr=0.1)
        t.grad = np.array([1.0, 1.0, 1.0, 1.0, np.inf])
        with pytest.raises(NumericFault):
            opt.step()
        np.testing.assert_array_equal(t.data, np.arange(5.0))
        assert not opt.m[0].any() and not opt.v[0].any() and opt.t == 0

    def test_huge_finite_gradient_does_not_raise(self):
        t = ad.Tensor(np.zeros(3), requires_grad=True)
        opt = ad.Adam([t], lr=0.1)
        t.grad = np.array([1e308, -1e308, np.finfo(float).max])
        with np.errstate(over="ignore"):  # g * g overflows into v
            opt.step()
        assert np.all(np.isfinite(t.data))

    @staticmethod
    def allocating_step(opt, params, ms, vs, t):
        """The textbook update with fresh temporaries, as Adam.step was written
        before it updated in place."""
        bc1 = 1.0 - opt.beta1 ** t
        bc2 = 1.0 - opt.beta2 ** t
        for i, p in enumerate(params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            ms[i] = opt.beta1 * ms[i] + (1.0 - opt.beta1) * g
            vs[i] = opt.beta2 * vs[i] + (1.0 - opt.beta2) * g * g
            m_hat = ms[i] / bc1
            v_hat = vs[i] / bc2
            p.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)

    @pytest.mark.parametrize("block", [ad.Adam.block, 3])
    def test_in_place_step_is_bit_identical_to_allocating_loop(self, block):
        class Blocked(ad.Adam):
            pass

        Blocked.block = block  # 3: one-row blocks, and a short last block
        rng = np.random.default_rng(20)
        shapes = [(7, 5), (5,), (1,), (3, 4), ()]
        init = [np.asarray(rng.normal(size=s) * 10.0 ** rng.integers(-3, 3, size=s))
                for s in shapes]
        init[1][:2] = -0.0
        live = [ad.Tensor(a.copy(), requires_grad=True) for a in init]
        ref = [ad.Tensor(a.copy(), requires_grad=True) for a in init]
        opt = Blocked(live, lr=0.03)
        ms = [np.zeros_like(a) for a in init]
        vs = [np.zeros_like(a) for a in init]
        for t in range(1, 7):
            for k, (a, b) in enumerate(zip(live, ref)):
                # Param 2 never has a gradient; param 3 skips odd steps.
                if k == 2 or (k == 3 and t % 2):
                    a.grad = b.grad = None
                    continue
                g = np.asarray(rng.normal(size=a.data.shape) * 10.0 ** rng.integers(-6, 4))
                if g.ndim:
                    g[..., 0] = -0.0
                a.grad, b.grad = g.copy(), g.copy()
            opt.step()
            self.allocating_step(opt, ref, ms, vs, t)
            for a, b, m, v, m_live, v_live in zip(live, ref, ms, vs, opt.m, opt.v):
                assert a.data.tobytes() == b.data.tobytes()
                assert m_live.tobytes() == m.tobytes()
                assert v_live.tobytes() == v.tobytes()

    def test_step_allocates_no_parameter_sized_array(self):
        self.assert_step_allocates_no_parameter_sized_array(mask=None)

    def test_supported_step_allocates_no_parameter_sized_array(self):
        self.assert_step_allocates_no_parameter_sized_array(mask=sequence_action_masks())

    @staticmethod
    def assert_step_allocates_no_parameter_sized_array(mask):
        # The forward table of tabular SequenceEnv(6, 4): 15 625 states x 25
        # slots, whole or packed to its 79 096 valid slots.
        index = None if mask is None else ad.SlotIndex(mask)
        table = random_table(15625, 25, np.random.default_rng(21), 0.5, index)
        p = table.table
        assert p.data.size == (15625 * 25 if mask is None else 79096)
        opt = ad.Adam([p], lr=1e-3)
        p.grad = np.random.default_rng(22).normal(size=p.data.shape)
        opt.step()  # warm-up
        nbytes = p.data.nbytes
        for grad in (p.grad, None):
            p.grad = grad
            tracemalloc.start()
            try:
                opt.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= nbytes


def sequence_action_masks():
    """Valid forward slots of tabular SequenceEnv(6, 4), 15 625 x 25."""
    return SequenceEnv(6, 4, np.ones(4 ** 6)).enumeration().action_masks()


# Entries of parameters and gradients: signed zeros, and magnitudes from
# 1e-6 to 1e3.
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e3, 1e3, allow_nan=False).filter(lambda x: abs(x) > 1e-6))


@st.composite
def adam_cases(draw, dense=True):
    """(initial table, mask, Adam block).  With `dense`, half the cases are
    parameters of shape (), (k,) or (r, c) whose mask is None (every entry
    admitted); the rest are tables with at least one entry off the mask."""
    block = draw(st.sampled_from([1, 2, 3, ad.Adam.block]))
    if dense and draw(st.booleans()):
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=6))
        return draw(hnp.arrays(np.float64, shape, elements=ENTRIES)), None, block
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 5)))
    mask = draw(hnp.arrays(bool, shape))
    mask.flat[draw(st.integers(0, mask.size - 1))] = False
    return draw(hnp.arrays(np.float64, shape, elements=ENTRIES)), mask, block


def gradient_on(draw, shape, mask):
    """A gradient that is zero, of either sign, off the mask, if any."""
    g = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
    if mask is not None:
        g[~mask] = np.where(g[~mask] > 0, 0.0, -0.0)
    return g


def packed(a, mask):
    """`a` itself, or its entries on the mask in row-major order."""
    return a if mask is None else a[mask]


def blocked_adam(init, mask, block):
    t = ad.Tensor(packed(init, mask).copy(), requires_grad=True)
    return t, type("Blocked", (ad.Adam,), {"block": block})([t], lr=0.03)


class TestPackedAdam:
    """Adam over a parameter packed to a table's admitted entries, against
    the textbook loop over the dense table."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(adam_cases(), st.data())
    def test_matches_dense_allocating_loop_bit_for_bit(self, case, data):
        init, mask, block = case
        live, opt = blocked_adam(init, mask, block)
        ref = ad.Tensor(init.copy(), requires_grad=True)
        ms, vs = [np.zeros_like(init)], [np.zeros_like(init)]
        kept = np.ones(init.shape, dtype=bool) if mask is None else mask
        for t in range(1, data.draw(st.integers(1, 5)) + 1):
            missing = data.draw(st.booleans())
            g = None if missing else gradient_on(data.draw, init.shape, mask)
            ref.grad = None if g is None else g.copy()
            live.grad = None if g is None else packed(g, mask).copy()
            opt.step()
            TestAdam.allocating_step(opt, [ref], ms, vs, t)
            assert live.data.tobytes() == packed(ref.data, mask).tobytes()
            assert opt.m[0].shape == opt.v[0].shape == (np.count_nonzero(kept),)
            assert opt.m[0].tobytes() == ms[0][kept].tobytes()
            assert opt.v[0].tobytes() == vs[0][kept].tobytes()
            # Off the mask, dense Adam keeps the entry and m = v = +0.0: a
            # fixed point, so packing loses nothing.
            assert ref.data[~kept].tobytes() == init[~kept].tobytes()
            assert not np.signbit(ms[0][~kept]).any() and not ms[0][~kept].any()
            assert not np.signbit(vs[0][~kept]).any() and not vs[0][~kept].any()

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(adam_cases(), st.data())
    def test_non_finite_gradient_raises_and_changes_nothing(self, case, data):
        init, mask, block = case
        if mask is not None:
            mask.flat[0] = True
        live, opt = blocked_adam(init, mask, block)
        live.grad = packed(gradient_on(data.draw, init.shape, mask), mask)
        opt.step()
        before = live.data.tobytes(), opt.m[0].tobytes(), opt.v[0].tobytes(), opt.t
        g = packed(gradient_on(data.draw, init.shape, mask), mask)
        g.flat[data.draw(st.integers(0, g.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        live.grad = g
        with pytest.raises(NumericFault):
            opt.step()
        assert (live.data.tobytes(), opt.m[0].tobytes(), opt.v[0].tobytes(), opt.t) == before


def test_flatten_assign_roundtrip():
    rng = np.random.default_rng(10)
    params = [ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True),
              ad.Tensor(rng.normal(size=4), requires_grad=True)]
    vec = ad.flatten(params)
    assert vec.size == 10
    ad.assign_flat(params, vec * 2.0)
    np.testing.assert_allclose(ad.flatten(params), vec * 2.0)
    with pytest.raises(ShapeError):
        ad.assign_flat(params, np.zeros(9))


def test_flat_grad_fills_missing_with_zeros():
    a = ad.Tensor(np.ones(2), requires_grad=True)
    b = ad.Tensor(np.ones(3), requires_grad=True)
    a.grad = np.array([1.0, 2.0])
    b.grad = None
    np.testing.assert_allclose(ad.flat_grad([a, b]), [1.0, 2.0, 0.0, 0.0, 0.0])


def test_first_gradient_write_matches_zeros_plus_add():
    signed = np.array([[-0.0, 0.0, -1.5], [2.0, -0.0, 3.0]])
    cases = [
        (np.zeros((2, 3)), signed),                  # same shape, -0.0 entries
        (np.zeros((2, 3)), np.array([-0.0, 1.0, -0.0])),  # broadcast row
        (np.zeros((2, 3)), np.float64(-0.0)),        # broadcast scalar
        (np.zeros(3), np.array([[-0.0, 2.0, -0.0]])[0]),
    ]
    for data, g in cases:
        want = np.zeros_like(data)
        want += g
        leaf = ad.Tensor(data, requires_grad=True)
        tape = ad.Tape()
        out = tape.record(ad.Tensor(np.zeros(1)), [leaf], lambda _, g=g: [g])
        tape.backward(out)
        assert leaf.grad.shape == want.shape
        assert leaf.grad.tobytes() == want.tobytes()
