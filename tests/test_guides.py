"""Guided backward kernels checked against brute-force conditionals."""

import numpy as np
import pytest

from gflow.envs import EMPTY, HyperGrid, SequenceEnv
from gflow.errors import ContractError
from gflow.guides import SCORE_FLOOR, HyperGridGuide, SequenceGuide, TableGuide
from gflow.objectives import step_batch
from gflow.policy import UniformBackward, make_suite
from gflow.sampling import ReplayBuffer, Trajectory, sample_backward
from oracles import enumerate_paths, grid_guide_log_table, log_conditional, random_suite
from test_envs import reward, root, rows, state_tuples


# -- oracles: the per-endpoint loops the batched guides replaced ---------------


def buffered(buffer):
    return [tuple(x) for x in buffer.state_rows().tolist()]


def position_of(enum):
    """State tuple -> enumeration position, by scanning the states."""
    return {s: i for i, s in enumerate(state_tuples(enum))}


def _extends(s, x):
    return all(c == EMPTY or c == xc for c, xc in zip(s, x))


def guided_score(buffer, s, x):
    """Replay-derived score of a partial sequence s under conditioning x.

    0 when s is incompatible with x; otherwise the mean reward of buffer
    entries extending s, or SCORE_FLOOR when none do.
    """
    if not _extends(s, x):
        return 0.0
    vals = [r for xp, r in zip(buffered(buffer), buffer.rewards()) if _extends(s, xp)]
    if not vals:
        return SCORE_FLOOR
    return float(np.mean(vals))


def oracle_scores(guide, x):
    """Scores over filled-position subsets of x, by superset sums."""
    d = guide.env.d
    size = 1 << d
    count = np.zeros(size)
    total = np.zeros(size)
    for xp, r in zip(buffered(guide.buffer), guide.buffer.rewards()):
        m = 0
        for i in range(d):
            if xp[i] == x[i]:
                m |= 1 << i
        count[m] += 1.0
        total[m] += r
    for b in range(d):
        bit = 1 << b
        idx = np.flatnonzero((np.arange(size) & bit) == 0)
        count[idx] += count[idx | bit]
        total[idx] += total[idx | bit]
    scores = np.full(size, SCORE_FLOOR)
    has = count > 0
    scores[has] = total[has] / count[has]
    return scores


def oracle_tables(guide, x):
    d = guide.env.d
    size = 1 << d
    scores = oracle_scores(guide, x)
    reach = np.zeros(size)
    reach[0] = 1.0
    cond = np.zeros((size, d))
    order = sorted(range(size), key=lambda m: bin(m).count("1"))
    for u in order:
        free = [j for j in range(d) if not u & (1 << j)]
        if free:
            child_scores = np.asarray([scores[u | (1 << j)] for j in free])
            probs = child_scores / child_scores.sum()
            for j, p in zip(free, probs):
                cond[u, j] = p
                reach[u | (1 << j)] += reach[u] * p
    return reach, cond


def oracle_sequence_edges(guide, traj):
    x = traj.x
    reach, cond = oracle_tables(guide, x)
    out = np.empty(traj.length - 1)
    for t in range(traj.length - 1):
        child = traj.states[t + 1]
        j = traj.bslots[t]
        u = 0
        for i in range(guide.env.d):
            if child[i] != EMPTY:
                if child[i] != x[i]:
                    raise ContractError("guided edge leaves the lattice under x")
                u |= 1 << i
        prev = u & ~(1 << j)
        out[t] = np.log(reach[prev] * cond[prev, j] / reach[u])
    return out


def oracle_kernel_given_x(guide, x):
    env = guide.env
    enum = env.enumeration()
    reach, cond = oracle_tables(guide, x)
    table = np.full((enum.n, env.n_backward_slots), -np.inf)
    for idx, s in enumerate(enum.states):
        u = 0
        ok = True
        for i in range(env.d):
            if s[i] != EMPTY:
                if s[i] != x[i]:
                    ok = False
                    break
                u |= 1 << i
        if not ok or u == 0:
            continue
        for j in range(env.d):
            if u & (1 << j):
                prev = u & ~(1 << j)
                with np.errstate(divide="ignore"):
                    table[idx, j] = np.log(reach[prev] * cond[prev, j] / reach[u])
    return table


def oracle_markov_edges(guide, traj):
    table = guide.backward_kernel()
    position = position_of(guide.enum)
    out = np.empty(traj.length - 1)
    for t in range(traj.length - 1):
        child = tuple(traj.states[t + 1].tolist())
        out[t] = table[position[child], traj.bslots[t]]
    return out


def grid_setup(seed=0, d=2, n=4):
    env = HyperGrid(d, n)
    suite = random_suite(env, np.random.default_rng(seed), 0.7, tabular=True)
    guide = HyperGridGuide(env)
    guide.refresh(suite.forward, None)
    return env, suite, guide


def floor_states(env):
    """Per-state mask of the enumerated states at the reward floor."""
    return np.asarray([reward(env, s) <= env.r0 for s in state_tuples(env.enumeration())])


def adjusted_forward_probs(env, forward, eps=1e-5):
    """Test-local recomputation of the exploration law P_f."""
    enum = env.enumeration()
    pf = forward.probs_numpy(enum.states, enum.action_masks())
    stop = env.d
    low = floor_states(env)
    denom = pf[:, :stop].sum(axis=1) + eps
    adj = pf.copy()
    adj[low, :stop] = pf[low, :stop] / denom[low, None]
    adj[low, stop] = eps / denom[low]
    return adj


# -- hyper-grid guide ----------------------------------------------------------


@pytest.mark.parametrize("d, n", [(2, 3), (2, 16), (3, 4)])
def test_grid_guide_floor_matches_per_state_rewards(d, n):
    env = HyperGrid(d, n)
    guide = HyperGridGuide(env)
    guide.refresh(make_suite(env, np.random.default_rng(0), tabular=True).forward, None)
    assert guide._low.dtype == bool
    assert np.array_equal(guide._low, floor_states(env))
    assert guide._low.any() and not guide._low.all()


def stop_probability(env, forward, states):
    """The guiding law P_f's stop probability at each state row, read from
    the adjusted_forward_probs oracle."""
    return adjusted_forward_probs(env, forward)[env.enumeration().positions(states), env.d]


def test_grid_guide_stop_probability_formula():
    env, suite, guide = grid_setup()
    enum = env.enumeration()
    pf = suite.forward.probs_numpy(enum.states, enum.action_masks())
    eps = guide.eps
    got = stop_probability(env, suite.forward, enum.states)
    for i, s in enumerate(state_tuples(enum)):
        non_stop = pf[i, :env.d].sum()
        if reward(env, s) <= env.r0:
            want = eps / (non_stop + eps)
        else:
            want = pf[i, env.d]
        assert got[i] == pytest.approx(want, rel=1e-12)


def test_grid_guide_low_reward_states_rarely_stop():
    env, suite, _ = grid_setup()
    # (1, 1) has base reward on the 4x4 grid; its stop probability collapses.
    assert reward(env, (1, 1)) == pytest.approx(0.01)
    assert stop_probability(env, suite.forward, rows(env, [(1, 1)]))[0] < 1e-4


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
def test_grid_guide_kernel_reverses_the_oracle_law(d, n):
    # reach(s') = sum over parents s of reach(s) P_f(s'|s), by a per-state
    # sweep in order of coordinate sum; the kernel is reach(s) P_f(s'|s) / reach(s').
    env, suite, guide = grid_setup(seed=5, d=d, n=n)
    enum = env.enumeration()
    adj = adjusted_forward_probs(env, suite.forward)
    position = position_of(enum)
    reach = np.zeros(enum.n)
    reach[position[root(env)]] = 1.0
    edges = []
    for s in sorted(position, key=sum):
        for k in range(d):
            if s[k] < n - 1:
                child = s[:k] + (s[k] + 1,) + s[k + 1:]
                reach[position[child]] += reach[position[s]] * adj[position[s], k]
                edges.append((s, k, child))
    table = guide.backward_kernel()
    for s, k, child in edges:
        want = reach[position[s]] * adj[position[s], k] / reach[position[child]]
        assert np.exp(table[position[child], k]) == pytest.approx(want, rel=1e-12)


def test_grid_guide_kernel_rows_normalized():
    env, _, guide = grid_setup()
    enum = env.enumeration()
    table = guide.backward_kernel()
    masks = enum.parent_masks()
    for i in range(enum.n):
        if i == enum.root_index:
            assert np.all(table[i] == -np.inf)
            continue
        row = np.exp(table[i][masks[i]])
        assert row.sum() == pytest.approx(1.0, abs=1e-10)


def test_grid_guide_conditional_matches_path_enumeration():
    env, suite, guide = grid_setup(seed=1)
    enum = env.enumeration()
    adj = adjusted_forward_probs(env, suite.forward)
    position = position_of(enum)

    def interior_weight(tr):
        return np.prod([adj[position[s], a]
                        for s, a in zip(map(tuple, tr.states[:-1].tolist()), tr.slots[:-1])])

    by_end = {}
    for tr in enumerate_paths(env):
        by_end.setdefault(tuple(tr.x.tolist()), []).append(interior_weight(tr))

    rng = np.random.default_rng(2)
    for x in [(3, 3), (2, 1), (0, 3)]:
        trajs = sample_backward(env, UniformBackward(env), rows(env, [x] * 4), rng)
        den = sum(by_end[x])
        for tr in trajs:
            num = interior_weight(tr)
            assert log_conditional(guide, step_batch([tr]))[0] == pytest.approx(
                np.log(num / den), abs=1e-10)


@pytest.mark.parametrize("d, n", [(2, 5), (3, 4)])
@pytest.mark.parametrize("tabular", [True, False], ids=["tabular", "mlp"])
def test_grid_guide_kernel_bytes_match_the_dense_path(d, n, tabular):
    # Criterion 9's pinned verdict depends on the kernel's last bit, so the
    # kernel is read from the dense log table of log_probs_numpy and no
    # other evaluation of the policy.
    env = HyperGrid(d, n)
    rng = np.random.default_rng(10 * d + n)
    suite = random_suite(env, rng, 0.7, tabular=tabular, hidden=(16, 16))
    guide = HyperGridGuide(env)
    for _ in range(2):
        guide.refresh(suite.forward, None)
        want = grid_guide_log_table(env, suite.forward, guide.eps, floor_states(env))
        assert guide.backward_kernel().tobytes() == want.tobytes()
        for p in suite.forward.params():
            p.data += rng.normal(0.0, 0.5, p.data.shape)


def test_grid_guide_requires_refresh():
    guide = HyperGridGuide(HyperGrid(2, 3))
    with pytest.raises(ContractError):
        guide.backward_kernel()


def test_grid_guide_tracks_policy_refresh():
    env, suite, guide = grid_setup(seed=3)
    before = guide.backward_kernel().copy()
    suite.forward.model.table.data += np.random.default_rng(4).normal(
        0, 1, suite.forward.model.table.data.shape)
    guide.refresh(suite.forward, None)
    assert not np.allclose(before, guide.backward_kernel())


# -- fixed-table guide ---------------------------------------------------------


def test_table_guide_random_rows_normalized():
    env = SequenceEnv(2, 3, np.arange(1.0, 10.0))
    enum = env.enumeration()
    guide = TableGuide.random(env, np.random.default_rng(5))
    table = guide.backward_kernel()
    masks = enum.parent_masks()
    for i in range(enum.n):
        if masks[i].any():
            assert np.exp(table[i][masks[i]]).sum() == pytest.approx(1.0, abs=1e-12)
        else:
            assert np.all(table[i] == -np.inf)


def test_table_guide_conditional_is_edge_sum():
    env = HyperGrid(2, 2)
    enum = env.enumeration()
    masks = enum.parent_masks()
    counts = np.maximum(masks.sum(axis=1, keepdims=True), 1)
    uniform = np.where(masks, -np.log(counts), -np.inf)
    guide = TableGuide(env, uniform)
    tr = sample_backward(env, UniformBackward(env), rows(env, [(1, 1)]),
                         np.random.default_rng(6))[0]
    lp = guide.edge_log_probs(step_batch([tr]))
    # First hop enters a single-parent state, second enters (1,1) which has two.
    np.testing.assert_allclose(lp, [0.0, np.log(0.5)])
    assert log_conditional(guide, step_batch([tr]))[0] == pytest.approx(np.log(0.5))


# -- sequence replay guide -----------------------------------------------------


def seq_setup(seed=7, d=3, n=2, entries=12):
    env = SequenceEnv(d, n, np.arange(1.0, n ** d + 1.0))
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(64)
    xs, rs = [], []
    for _ in range(entries):
        xs.append(rng.integers(0, n, d))
        rs.append(float(rng.uniform(0.5, 4.0)))
    buf.update(np.reshape(xs, (-1, d)), rs)
    return env, buf, SequenceGuide(env, buf)


def state_of_mask(x, mask, d):
    return tuple(x[i] if mask & (1 << i) else EMPTY for i in range(d))


def test_sequence_scores_match_brute_force():
    env, buf, guide = seq_setup()
    d = env.d
    for x in [(0, 1, 0), (1, 1, 1)]:
        scores = guide._scores(np.asarray([x]))[0]
        for mask in range(1 << d):
            s = state_of_mask(x, mask, d)
            want = guided_score(buf, s, x)
            assert scores[mask] == pytest.approx(want, rel=1e-12)


def test_sequence_guide_conditional_matches_score_ratios():
    env, buf, guide = seq_setup(seed=8)
    d = env.d
    x = (1, 0, 1)
    trajs = sample_backward(env, UniformBackward(env), rows(env, [x] * 6),
                            np.random.default_rng(9))
    for tr in trajs:
        want = 0.0
        mask = 0
        for t in range(tr.length - 1):
            j = tr.bslots[t]
            free = [k for k in range(d) if not mask & (1 << k)]
            num = guided_score(buf, state_of_mask(x, mask | (1 << j), d), x)
            den = sum(guided_score(buf, state_of_mask(x, mask | (1 << k), d), x)
                      for k in free)
            want += np.log(num / den)
            mask |= 1 << j
        assert log_conditional(guide, step_batch([tr]))[0] == pytest.approx(want, abs=1e-10)


def test_sequence_guide_walk_always_completes():
    env, _, guide = seq_setup(seed=10)
    for x in [(0, 0, 0), (1, 1, 0)]:
        reach, _ = guide._tables(np.asarray([x]))
        assert reach[0, -1] == pytest.approx(1.0, abs=1e-12)


def test_sequence_kernel_given_x_consistent():
    env, buf, guide = seq_setup(seed=11)
    enum = env.enumeration()
    x = (0, 1, 1)
    table = oracle_kernel_given_x(guide, x)
    position = position_of(enum)
    trajs = sample_backward(env, UniformBackward(env), rows(env, [x] * 4),
                            np.random.default_rng(12))
    for tr in trajs:
        lp = guide.edge_log_probs(step_batch([tr]))
        for t in range(tr.length - 1):
            child = tuple(tr.states[t + 1].tolist())
            assert table[position[child], tr.bslots[t]] == pytest.approx(lp[t])
    # Off-lattice rows are untouched; on-lattice rows normalize.
    assert np.all(table[position[(1, EMPTY, EMPTY)]] == -np.inf)
    for idx in range(enum.n):
        row = table[idx]
        if np.any(np.isfinite(row)):
            assert np.exp(row[np.isfinite(row)]).sum() == pytest.approx(1.0, abs=1e-10)


def test_sequence_guide_rejects_off_lattice_trajectory():
    # The interior states disagree with the claimed endpoint at position 0.
    env, _, guide = seq_setup(seed=13)
    bad = Trajectory(
        states=rows(env, [(EMPTY, EMPTY, EMPTY), (1, EMPTY, EMPTY), (1, 0, EMPTY),
                          (0, 0, 0)]),
        slots=np.array([2, 2, 4, 6]),
        bslots=np.array([0, 1, 2]), log_reward=0.0)
    with pytest.raises(ContractError):
        guide.edge_log_probs(step_batch([bad]))


def test_sequence_guide_refresh_invalidates_cache():
    env, buf, guide = seq_setup(seed=14, entries=6)
    x = (1, 1, 0)
    tr = sample_backward(env, UniformBackward(env), rows(env, [x]),
                         np.random.default_rng(15))[0]
    before = log_conditional(guide, step_batch([tr]))
    buf.update([(1, 1, 0)] * 30, [100.0] * 30)
    # Stale snapshot: the conditional ignores the new entries until refresh().
    assert log_conditional(guide, step_batch([tr])) == before
    guide.refresh(None, step_batch([tr, tr]))
    assert log_conditional(guide, step_batch([tr])) != before
    # refresh() also appends the batch's endpoints and rewards to the buffer.
    assert len(buf) == 6 + 30 + 2
    np.testing.assert_array_equal(buf.state_rows()[-2:], rows(env, [x, x]))
    np.testing.assert_array_equal(buf.rewards()[-2:], np.exp([tr.log_reward] * 2))


def test_guided_score():
    buf = ReplayBuffer(8)
    buf.update([(0, 1), (0, 0)], [1.0, 3.0])
    # Mean reward over entries agreeing on the filled positions.
    assert guided_score(buf, (0, EMPTY), (0, 1)) == pytest.approx(2.0)
    assert guided_score(buf, (EMPTY, 0), (0, 0)) == pytest.approx(3.0)
    assert guided_score(buf, (EMPTY, EMPTY), (0, 1)) == pytest.approx(2.0)
    # Incompatible with the conditioning state.
    assert guided_score(buf, (1, EMPTY), (0, 1)) == 0.0
    # Compatible but unseen: the floor keeps the score positive.
    assert guided_score(buf, (1, EMPTY), (1, 1)) == pytest.approx(1e-8)


# -- batched guides against the per-endpoint oracles ---------------------------


def random_buffer(env, rng, capacity, entries):
    buf = ReplayBuffer(capacity)
    for _ in range(entries):
        x = tuple(int(c) for c in rng.integers(0, env.n, env.d))
        buf.update([x], [float(rng.uniform(0.5, 4.0))])
    return buf


def endpoint_batch(env, buf, rng, size):
    """Endpoints with repeats: half drawn from the buffer, half uniformly."""
    seen = buffered(buf)
    xs = []
    for k in range(size):
        if seen and k % 2 == 0:
            xs.append(seen[int(rng.integers(len(seen)))])
        else:
            xs.append(tuple(int(c) for c in rng.integers(0, env.n, env.d)))
    xs += xs[:3]
    return sample_backward(env, UniformBackward(env), rows(env, xs), rng)


@pytest.mark.parametrize("d, n, capacity, entries", [
    (1, 3, 16, 5),      # single position
    (3, 2, 64, 12),
    (3, 3, 8, 0),       # empty buffer: every score is the floor
    (6, 4, 40, 100),    # buffer past capacity
    (8, 2, 32, 20),     # eight or more free positions: np.sum is pairwise
    (9, 2, 32, 20),
])
def test_batched_sequence_guide_matches_per_endpoint_oracles(d, n, capacity, entries):
    rng = np.random.default_rng(100 + d)
    env = SequenceEnv(d, n, rng.uniform(0.1, 3.0, n ** d))
    buf = random_buffer(env, rng, capacity, entries)
    guide = SequenceGuide(env, buf)
    trajs = endpoint_batch(env, buf, rng, 12)
    want = [oracle_sequence_edges(guide, tr) for tr in trajs]
    assert np.array_equal(guide.edge_log_probs(step_batch(trajs)), np.concatenate(want))
    assert np.array_equal(log_conditional(guide, step_batch(trajs)),
                          np.asarray([float(w.sum()) for w in want]))
    xs = np.asarray(sorted({tuple(tr.x.tolist()) for tr in trajs}))
    reach, cond = guide._tables(xs)
    for k, x in enumerate(xs):
        r, c = oracle_tables(guide, tuple(x))
        assert np.array_equal(reach[k], r) and np.array_equal(cond[k], c)


def test_batched_grid_guide_matches_per_trajectory_loop():
    env, _, guide = grid_setup(seed=5, n=6)
    rng = np.random.default_rng(16)
    xs = [tuple(int(c) for c in rng.integers(0, env.n, env.d)) for _ in range(10)]
    trajs = sample_backward(env, UniformBackward(env), rows(env, xs + [root(env)] + xs[:2]),
                            rng)
    want = [oracle_markov_edges(guide, tr) for tr in trajs]
    assert np.array_equal(guide.edge_log_probs(step_batch(trajs)), np.concatenate(want))
    assert np.array_equal(log_conditional(guide, step_batch(trajs)),
                          np.asarray([float(w.sum()) for w in want]))
    assert log_conditional(guide, step_batch(trajs))[len(xs)] == 0.0  # the root stops at once


def test_sequence_guide_rejects_off_lattice_trajectory_in_a_batch():
    env, buf, guide = seq_setup(seed=17)
    good = sample_backward(env, UniformBackward(env), rows(env, [(0, 1, 1), (1, 0, 0)]),
                           np.random.default_rng(18))
    bad = Trajectory(
        states=rows(env, [(EMPTY, EMPTY, EMPTY), (EMPTY, EMPTY, 1), (EMPTY, 1, 1),
                          (0, 1, 0)]),
        slots=np.array([5, 3, 0, 6]),
        bslots=np.array([2, 1, 0]), log_reward=0.0)
    guide.edge_log_probs(step_batch(good))
    with pytest.raises(ContractError):
        guide.edge_log_probs(step_batch(good[:1] + [bad] + good[1:]))
    with pytest.raises(ContractError):
        log_conditional(guide, step_batch([bad]))
