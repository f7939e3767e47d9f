"""Environment behavior: grid geometry and rewards, sequence slot algebra,
reward tables, explicit DAG validation, the flat enumeration index, and
the batched queries against per-state oracles."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from gflow.envs import (
    EMPTY,
    ENUMERATION_CAP,
    MIN_REWARD,
    Enumeration,
    ExplicitDag,
    HyperGrid,
    SequenceEnv,
    all_sequences,
    load_reward_table,
    random_dag,
    random_graded_dag,
    save_reward_table,
    synthetic_rewards,
)
from gflow.envs.sequence import SCORE_BLOCK
from gflow.errors import ConfigError, EnumerationLimit
from gflow.sampling import Trajectory
from oracles import synthetic_env

# -- per-state oracles ---------------------------------------------------------
# One state at a time, the way each environment defines its slots.  A state
# is the tuple of its row; an ExplicitDag row is (topological position,), and
# its oracles read the labelled child lists the env was built from.  The
# batched queries are held to these bit for bit.


def rows(env, states):
    """State tuples as an (M x width) row array."""
    return np.array(states, dtype=np.intp).reshape(len(states), env.width)


def root(env):
    return tuple(env.root.tolist())


def label_rows(env, *labels):
    """ExplicitDag rows of the given labels."""
    return rows(env, [(env._index[x],) for x in labels])


def _label(env, s):
    return env._order[s[0]]


def explicit_parents(env, lbl):
    """Parents of a labelled state from the child lists, in topological order."""
    ps = [p for p, cs in env._children.items() if lbl in cs]
    return sorted(ps, key=env._index.__getitem__)


def terminal_slot(env, s):
    """Forward slot of the hop to the sink, None where s cannot terminate."""
    if isinstance(env, HyperGrid):
        return env.d
    if isinstance(env, SequenceEnv):
        return env.d * env.n if all(c != EMPTY for c in s) else None
    lbl = _label(env, s)
    return len(env._children.get(lbl, ())) if lbl in env._rewards else None


def action_mask(env, s):
    """Boolean vector over the forward slots valid at s."""
    mask = np.zeros(env.n_action_slots, dtype=bool)
    if isinstance(env, HyperGrid):
        for i in range(env.d):
            mask[i] = s[i] < env.n - 1
    elif isinstance(env, SequenceEnv):
        for pos, c in enumerate(s):
            if c == EMPTY:
                mask[pos * env.n:(pos + 1) * env.n] = True
    else:
        mask[:len(env._children.get(_label(env, s), ()))] = True
    t = terminal_slot(env, s)
    if t is not None:
        mask[t] = True
    return mask


def child(env, s, slot):
    """State reached from s through a valid slot; None for the terminal hop."""
    if slot == terminal_slot(env, s):
        return None
    if isinstance(env, HyperGrid):
        return s[:slot] + (s[slot] + 1,) + s[slot + 1:]
    if isinstance(env, SequenceEnv):
        pos, sym = divmod(slot, env.n)
        return s[:pos] + (sym,) + s[pos + 1:]
    return (env._index[env._children[_label(env, s)][slot]],)


def backward_slot(env, s, fslot):
    """Backward slot at child(s, fslot) naming the edge from s."""
    if isinstance(env, HyperGrid):
        return fslot
    if isinstance(env, SequenceEnv):
        return fslot // env.n
    return explicit_parents(env, _label(env, child(env, s, fslot))).index(_label(env, s))


def parent_mask(env, s):
    """Boolean vector over the backward slots valid at s (s != root)."""
    if isinstance(env, HyperGrid):
        return np.array([c > 0 for c in s], dtype=bool)
    if isinstance(env, SequenceEnv):
        return np.array([c != EMPTY for c in s], dtype=bool)
    mask = np.zeros(env.n_backward_slots, dtype=bool)
    mask[:len(explicit_parents(env, _label(env, s)))] = True
    return mask


def parent(env, s, bslot):
    """State that s came from through a valid backward slot."""
    if isinstance(env, HyperGrid):
        return s[:bslot] + (s[bslot] - 1,) + s[bslot + 1:]
    if isinstance(env, SequenceEnv):
        return s[:bslot] + (EMPTY,) + s[bslot + 1:]
    return (env._index[explicit_parents(env, _label(env, s))[bslot]],)


def forward_slot(env, s, bslot):
    """Forward slot at parent(s, bslot) whose edge leads to s."""
    if isinstance(env, HyperGrid):
        return bslot
    if isinstance(env, SequenceEnv):
        return bslot * env.n + s[bslot]
    p = explicit_parents(env, _label(env, s))[bslot]
    return env._children[p].index(_label(env, s))


def reward(env, x):
    """R(x) of a terminal-capable state."""
    if isinstance(env, HyperGrid):
        t = [abs(c / (env.n - 1) - 0.5) for c in x]
        outer = all(0.25 < v <= 0.5 for v in t)
        inner = all(0.3 < v <= 0.4 for v in t)
        return env.r0 + env.r1 * float(outer) + env.r2 * float(inner)
    if isinstance(env, SequenceEnv):
        idx = 0
        for c in x:
            idx = idx * env.n + c
        return float(env.rewards_table[idx])
    return env._rewards[_label(env, x)]


def log_reward(env, x):
    """log R(x), -inf where x cannot terminate."""
    if terminal_slot(env, x) is None:
        return -np.inf
    return float(np.log(reward(env, x)))


def encode(env, s):
    """Float feature vector of s."""
    v = np.zeros(env.encoding_dim)
    if isinstance(env, HyperGrid):
        for i, c in enumerate(s):
            v[i * env.n + c] = 1.0
    elif isinstance(env, SequenceEnv):
        for pos, c in enumerate(s):
            v[pos * (env.n + 1) + int(c) + 1] = 1.0
    else:
        v[s[0]] = 1.0
    return v


def state_index(env, s):
    """The env's dense integer for s: a mixed-radix number, or the position."""
    if isinstance(env, HyperGrid):
        return sum(c * env.n ** i for i, c in enumerate(s))
    if isinstance(env, SequenceEnv):
        return sum((c + 1) * (env.n + 1) ** i for i, c in enumerate(s))
    return s[0]


def children(env, s):
    """(slot, child) pairs of s in slot order; the sink's child is None."""
    return [(int(a), child(env, s, int(a))) for a in np.flatnonzero(action_mask(env, s))]


def parents(env, s):
    """(backward slot, parent) pairs of s != root in slot order."""
    return [(int(b), parent(env, s, int(b))) for b in np.flatnonzero(parent_mask(env, s))]


def path(env, states, slots):
    """Trajectory record of a root-to-sink path given by state tuples and
    slots, with its backward slots and log reward from the oracles."""
    bslots = [backward_slot(env, s, a) for s, a in zip(states[:-1], slots[:-1])]
    return Trajectory(rows(env, states), np.array(slots, dtype=np.intp),
                      np.array(bslots, dtype=np.intp), log_reward(env, states[-1]))


def validate_trajectory(env, tr):
    """Check that a Trajectory is a root-to-sink path in the DAG whose
    backward slots name its interior edges."""
    states = [tuple(s) for s in np.asarray(tr.states).tolist()]
    slots = [int(a) for a in tr.slots]
    bslots = [int(b) for b in tr.bslots]
    if not states or states[0] != root(env):
        return False
    if len(slots) != len(states) or len(bslots) != len(states) - 1:
        return False
    for t, (s, a) in enumerate(zip(states, slots)):
        mask = action_mask(env, s)
        if a < 0 or a >= mask.size or not mask[a]:
            return False
        c = child(env, s, a)
        if t == len(states) - 1:
            if c is not None:
                return False
        elif c != states[t + 1] or bslots[t] != backward_slot(env, s, a):
            return False
    return True


def check_edge_inverses(env, states):
    """Forward and backward slot maps must invert each other on every edge."""
    for s in states:
        for slot, c in children(env, s):
            if c is None:
                continue
            b = backward_slot(env, s, slot)
            assert parent_mask(env, c)[b]
            assert parent(env, c, b) == s
            assert forward_slot(env, c, b) == slot
        if s != root(env):
            for b, p in parents(env, s):
                f = forward_slot(env, s, b)
                assert action_mask(env, p)[f]
                assert child(env, p, f) == s


def state_tuples(enum):
    return [tuple(s) for s in enum.states.tolist()]


def layer_of(enum):
    """Topological layer number of every enumerated state."""
    out = np.empty(enum.n, dtype=int)
    for k, idx in enumerate(enum.layers):
        out[idx] = k
    return out


def check_enumeration(enum):
    """Flat edge arrays, masks and cached tables must agree with the env."""
    env = enum.env
    states = state_tuples(enum)
    assert enum.n == env.n_states()
    assert states[enum.root_index] == root(env)
    assert len(set(states)) == enum.n
    np.testing.assert_array_equal(enum.positions(enum.states), np.arange(enum.n))
    assert np.all(np.diff(enum.edge_src) >= 0)
    # The exact layer sweeps rely on every edge reaching a strictly deeper layer.
    depth = layer_of(enum)
    assert np.all(depth[enum.edge_dst] > depth[enum.edge_src])
    edge_ptr = np.searchsorted(enum.edge_src, np.arange(enum.n + 1))
    tslots = enum.terminal_slots()
    for i, s in enumerate(states):
        lo, hi = edge_ptr[i], edge_ptr[i + 1]
        non_sink = [(a, c) for a, c in children(env, s) if c is not None]
        assert hi - lo == len(non_sink)
        for e, (a, c) in zip(range(lo, hi), non_sink):
            assert enum.edge_slot[e] == a
            assert states[enum.edge_dst[e]] == c
            assert enum.edge_bslot[e] == backward_slot(env, s, a)
        t = terminal_slot(env, s)
        assert enum.terminal[i] == (t is not None)
        assert tslots[i] == (-1 if t is None else t)
        assert enum.log_rewards[i] == log_reward(env, s)
    assert not enum.parent_masks()[enum.root_index].any()
    masks = enum.action_masks()
    parent_masks = enum.parent_masks()
    for i, s in enumerate(states):
        assert np.array_equal(masks[i], action_mask(env, s))
        if i != enum.root_index:
            assert np.array_equal(parent_masks[i], parent_mask(env, s))


# -- hyper-grid ----------------------------------------------------------------


def test_grid_reward_bands_n9():
    # n=9: x/8 is an exact binary fraction, so band membership is exact.
    # |x/8 - 0.5| = 0.375 for x in {1,7} (both bands), 0.5 for x in {0,8}
    # (outer band only), 0.25 or less otherwise.
    env = HyperGrid(2, 9)
    cells = [(1, 1), (7, 1), (0, 0), (8, 1), (2, 1), (4, 4)]
    got = np.exp(env.log_rewards(rows(env, cells)))
    np.testing.assert_allclose(got, [2.51, 2.51, 0.51, 0.51, 0.01, 0.01], rtol=1e-12)
    assert [reward(env, x) for x in cells] == pytest.approx(got.tolist(), rel=1e-12)


def test_grid_reward_bands_n16():
    # n=16 band membership under float evaluation of |x/15 - 0.5|:
    # outer (0.25, 0.5] holds for x in {0,1,2,3,12,13,14,15}; inner (0.3, 0.4]
    # holds for x in {2,12,13}.  x=3 and x=12 both sit on the real boundary
    # t=0.3, but fl(3/15) and fl(12/15) both round up, pushing t(3) just below
    # and t(12) just above 0.3.
    env = HyperGrid(1, 16)
    r = env.reward_rows(rows(env, [(x,) for x in range(16)]))
    assert r.tolist() == [reward(env, (x,)) for x in range(16)]
    outer = set(np.flatnonzero(r > 0.02).tolist())
    inner = set(np.flatnonzero(r > 1.0).tolist())
    assert outer == {0, 1, 2, 3, 12, 13, 14, 15}
    assert inner == {2, 12, 13}


def test_grid_partition_value():
    # 256 cells at 0.01, 8^2 = 64 all-outer cells adding 0.5, 3^2 = 9
    # all-inner cells adding 2: Z* = 2.56 + 32 + 18 = 52.56.
    env = HyperGrid(2, 16)
    assert env.enumeration().partition() == pytest.approx(52.56, rel=1e-12)


def test_grid_reward_takes_three_values():
    env = HyperGrid(2, 8)
    values = {round(r, 10) for r in env.reward_rows(env.enumeration().states).tolist()}
    assert values <= {0.01, 0.51, 2.51}
    assert 0.01 in values


def test_grid_structure():
    env = HyperGrid(2, 3)
    assert root(env) == (0, 0)
    assert env.width == 2
    assert env.graded is False
    assert env.n_action_slots == 3
    assert env.n_backward_slots == 2
    assert env.max_trajectory_len == 2 * 2 + 1
    kids, bslots = env.children(rows(env, [(0, 1), (0, 1)]), [0, 1])
    assert kids.tolist() == [[1, 1], [0, 2]]
    assert bslots.tolist() == [0, 1]
    assert env.terminal_slots(rows(env, [(0, 1)])).tolist() == [2]
    ups, fslots = env.parents(rows(env, [(1, 1), (1, 1)]), [0, 1])
    assert ups.tolist() == [[0, 1], [1, 0]]
    assert fslots.tolist() == [0, 1]


def test_grid_stop_always_available():
    env = HyperGrid(2, 3)
    states = env.enumeration().states
    masks = env.action_masks(states)
    assert np.all(env.terminal_slots(states) == 2)
    for s, mask in zip(states.tolist(), masks):
        assert mask[2]
        # Increment slots valid exactly below the boundary.
        assert mask[0] == (s[0] < 2)
        assert mask[1] == (s[1] < 2)


def test_grid_enumeration_layers():
    env = HyperGrid(2, 3)
    layers = env.enumerate_states()
    assert [len(layer) for layer in layers] == [1, 2, 3, 2, 1]
    assert sum(len(layer) for layer in layers) == env.n_states() == 9
    for k, layer in enumerate(layers):
        assert layer.dtype == np.intp and layer.shape[1] == 2
        assert np.all(layer.sum(axis=1) == k)
        # Lexicographic within a layer.
        assert layer.tolist() == sorted(layer.tolist())


def test_grid_encoding():
    env = HyperGrid(2, 3)
    cells = [(0, 0), (1, 2), (2, 1)]
    batch = env.encode_batch(rows(env, cells))
    assert batch.shape == (3, 6)
    assert np.flatnonzero(batch[1]).tolist() == [1, 5]
    assert np.array_equal(batch, np.stack([encode(env, s) for s in cells]))


def test_grid_edge_inverses():
    env = HyperGrid(3, 4)
    check_edge_inverses(env, state_tuples(env.enumeration()))


def test_grid_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        HyperGrid(0, 4)
    with pytest.raises(ConfigError):
        HyperGrid(2, 1)


@pytest.mark.parametrize("levels", [{"r0": -1.0}, {"r0": 0.0}, {"r1": -0.6}, {"r2": -3.0},
                                    {"r0": float("nan")}, {"r1": float("inf")},
                                    {"r0": 1e308, "r1": 1e308}])
def test_grid_rejects_reward_levels_that_are_not_positive_and_finite(levels):
    with pytest.raises(ConfigError, match="grid rewards r0, r0 \\+ r1 and r0 \\+ r1 \\+ r2"):
        HyperGrid(2, 8, **levels)


def test_enumeration_rejects_rewards_whose_total_overflows():
    # Each reward is finite, but the 256 of them total more than float64 holds.
    env = HyperGrid(2, 16, r0=1e307)
    with pytest.raises(ConfigError, match="256 terminal states total more than float64"):
        env.enumeration()


# -- sequences -----------------------------------------------------------------


def test_sequence_structure():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    assert root(env) == (EMPTY, EMPTY)
    assert env.graded is True
    assert env.n_action_slots == 5
    assert env.n_backward_slots == 2
    assert env.max_trajectory_len == 3
    # Slot pos*n+sym fills position pos with symbol sym.
    kids, bslots = env.children(rows(env, [(EMPTY, EMPTY), (EMPTY, EMPTY), (0, EMPTY)]),
                                [0, 3, 2])
    assert kids.tolist() == [[0, EMPTY], [EMPTY, 1], [0, 0]]
    assert bslots.tolist() == [0, 1, 1]
    assert env.terminal_slots(rows(env, [(EMPTY, 1), (0, 1)])).tolist() == [-1, 4]


def test_sequence_rewards_are_lexicographic():
    table = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    env = SequenceEnv(2, 3, table)
    got = env.log_rewards(rows(env, all_sequences(2, 3)))
    assert got.tolist() == np.log(table).tolist()
    assert [reward(env, seq) for seq in all_sequences(2, 3)] == table
    assert all_sequences(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_sequence_action_mask():
    env = SequenceEnv(2, 2, np.ones(4))
    masks = env.action_masks(rows(env, [(EMPTY, EMPTY), (1, EMPTY), (1, 0)]))
    assert masks.tolist() == [[True, True, True, True, False],
                              [False, False, True, True, False],
                              [False, False, False, False, True]]


def test_sequence_slot_algebra():
    env = SequenceEnv(3, 4, np.ones(64))
    s = (2, EMPTY, 1)
    # backward slot names the position, forward slot re-encodes its symbol.
    assert env.children(rows(env, [(2, EMPTY, EMPTY)]), [9])[1].tolist() == [2]
    ups, fslots = env.parents(rows(env, [s, s]), [0, 2])
    assert ups.tolist() == [[EMPTY, EMPTY, 1], [2, EMPTY, EMPTY]]
    assert fslots.tolist() == [0 * 4 + 2, 2 * 4 + 1]
    check_edge_inverses(env, state_tuples(env.enumeration()))


def test_sequence_enumeration_layers():
    env = SequenceEnv(2, 2, np.ones(4))
    layers = env.enumerate_states()
    assert [len(layer) for layer in layers] == [1, 4, 4]
    assert env.n_states() == 9
    # Layer t holds C(d, t) * n^t partially filled states.
    env = SequenceEnv(3, 2, np.ones(8))
    assert [len(layer) for layer in env.enumerate_states()] == [1, 6, 12, 8]


def test_sequence_encoding():
    env = SequenceEnv(2, 2, np.ones(4))
    v = env.encode_batch(rows(env, [(EMPTY, 1)]))
    assert v.shape == (1, 6)
    # Per-position one-hot over {empty, 0, .., n-1}.
    assert np.flatnonzero(v[0]).tolist() == [0, 5]
    enc = env.encode_batch(env.enumeration().states)
    assert enc.shape == (9, 6)
    assert len({tuple(row) for row in enc}) == 9


def test_sequence_reward_clamped_to_floor():
    env = SequenceEnv(1, 2, [0.0, 5.0])
    assert env.log_rewards(rows(env, [(0,), (1,)])).tolist() == [np.log(MIN_REWARD),
                                                                  np.log(5.0)]


def test_sequence_rejects_wrong_table_size():
    with pytest.raises(ConfigError):
        SequenceEnv(0, 3, np.ones(1))
    with pytest.raises(ConfigError):
        SequenceEnv(2, 3, np.ones(8))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sequence_rejects_non_finite_rewards(value):
    table = np.ones(9)
    table[5] = value
    with pytest.raises(ConfigError, match=r"reward of sequence \(1, 2\) is not finite"):
        SequenceEnv(2, 3, table)


# -- synthetic reward tables ---------------------------------------------------


def test_synthetic_rewards_deterministic():
    a = synthetic_rewards(3, 4, seed=7)
    b = synthetic_rewards(3, 4, seed=7)
    c = synthetic_rewards(3, 4, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_synthetic_rewards_rescaled_exactly():
    t = synthetic_rewards(3, 4, seed=7, r_min=1e-3, r_max=10.0)
    assert t.shape == (64,)
    assert t.max() == 10.0
    assert t.min() == 1e-3
    t = synthetic_rewards(4, 3, seed=11, r_min=0.5, r_max=2.0)
    assert t.max() == 2.0
    assert t.min() == 0.5


def test_reward_table_round_trip(tmp_path):
    path = tmp_path / "table.tsv"
    table = synthetic_rewards(2, 3, seed=0)
    save_reward_table(path, 2, 3, table)
    d, n, loaded = load_reward_table(path)
    assert (d, n) == (2, 3)
    # repr round-trips doubles exactly.
    assert np.array_equal(loaded, table)


def test_reward_table_load_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0,0\tnot-a-number\n")
    with pytest.raises(ConfigError):
        load_reward_table(bad)

    incomplete = tmp_path / "incomplete.tsv"
    incomplete.write_text("0,0\t1.0\n0,1\t2.0\n1,0\t3.0\n")
    with pytest.raises(ConfigError):
        load_reward_table(incomplete)

    empty = tmp_path / "empty.tsv"
    empty.write_text("\n")
    with pytest.raises(ConfigError):
        load_reward_table(empty)

    ragged = tmp_path / "ragged.tsv"
    ragged.write_text("0,0\t1.0\n0,1,1\t2.0\n")
    with pytest.raises(ConfigError):
        load_reward_table(ragged)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_reward_table_rejects_non_finite_lines(tmp_path, value):
    path = tmp_path / "table.tsv"
    path.write_text(f"0,0\t1.0\n0,1\t{value}\n1,0\t3.0\n1,1\t4.0\n")
    with pytest.raises(ConfigError, match=f"table.tsv:2: reward '{value}' is not finite"):
        load_reward_table(path)


def test_save_reward_table_rejects_wrong_size(tmp_path):
    with pytest.raises(ConfigError):
        save_reward_table(tmp_path / "t.tsv", 2, 2, np.ones(5))


# -- explicit DAGs -------------------------------------------------------------


def test_explicit_diamond():
    env = ExplicitDag({"r": ["a", "b"], "a": ["x"], "b": ["x"]}, {"x": 2.0})
    r, a, b, x = label_rows(env, "r", "a", "b", "x")
    assert env.width == 1
    assert env.root.tolist() == r.tolist()
    assert env.graded is True
    assert env.n_action_slots == 2
    assert env.n_backward_slots == 2
    assert env.terminal_slots(rows(env, [x])).tolist() == [0]
    kids, bslots = env.children(rows(env, [r, r]), [0, 1])
    assert kids.tolist() == [a.tolist(), b.tolist()]
    assert bslots.tolist() == [0, 0]
    ups, fslots = env.parents(rows(env, [x, x]), [0, 1])
    assert ups.tolist() == [a.tolist(), b.tolist()]
    assert fslots.tolist() == [0, 0]
    # An invalid slot names no state: its row has no enumeration position.
    enum = env.enumeration()
    with pytest.raises(IndexError):
        enum.positions(env.children(rows(env, [a]), [1])[0])
    with pytest.raises(IndexError):
        enum.positions(env.parents(rows(env, [a]), [1])[0])
    assert [len(layer) for layer in env.enumerate_states()] == [1, 2, 1]
    assert env.log_rewards(rows(env, [x])).tolist() == [np.log(2.0)]
    check_edge_inverses(env, state_tuples(enum))


def test_explicit_root_inference_and_override():
    children = {"r": ["a"], "a": []}
    env = ExplicitDag(children, {"a": 1.0})
    assert env.root.tolist() == [env._index["r"]]
    with pytest.raises(ConfigError):
        # Two parentless states and no explicit root.
        ExplicitDag({"r": ["x"], "q": ["x"]}, {"x": 1.0})
    # A given root must be the only parentless state: not one of two, not
    # absent from the graph, not a state with a parent.
    for children, root in (({"r": ["x"], "q": ["x"]}, "r"), ({"r": ["x"]}, "zz"),
                           ({"r": ["x"]}, "x")):
        with pytest.raises(ConfigError):
            ExplicitDag(children, {"x": 1.0}, root=root)


def test_explicit_rejects_duplicate_edges():
    with pytest.raises(ConfigError):
        ExplicitDag({"r": ["a", "a"]}, {"a": 1.0})


def test_explicit_rejects_cycles():
    with pytest.raises(ConfigError):
        ExplicitDag({"r": ["a"], "a": ["b"], "b": ["a"]}, {"a": 1.0}, root="r")


def test_explicit_rejects_dead_ends():
    with pytest.raises(ConfigError):
        # "b" has no children and no reward.
        ExplicitDag({"r": ["a", "b"], "a": []}, {"a": 1.0})


def test_explicit_clamps_rewards():
    env = ExplicitDag({"r": ["a"]}, {"a": 0.0})
    assert env.log_rewards(label_rows(env, "a")).tolist() == [np.log(MIN_REWARD)]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_explicit_rejects_non_finite_rewards(value):
    with pytest.raises(ConfigError, match="reward of state 'b' is not finite"):
        ExplicitDag({"r": ["a", "b"]}, {"a": 1.0, "b": value})


def test_explicit_skip_edges_not_graded():
    env = ExplicitDag({"r": ["a", "x"], "a": ["x"]}, {"x": 1.0})
    assert env.graded is False
    # Interior rewards also break gradedness.
    env = ExplicitDag({"r": ["a"], "a": ["x"]}, {"a": 1.0, "x": 1.0})
    assert env.graded is False


def test_random_graded_dag_is_graded():
    for seed in range(8):
        env = random_graded_dag(np.random.default_rng(seed))
        assert env.graded is True
        enum = env.enumeration()
        # Rewards sit exactly on the last layer.
        last = set(enum.layers[-1])
        assert {i for i in range(enum.n) if enum.terminal[i]} == last
        # Every edge advances exactly one layer.
        depth = layer_of(enum)
        assert np.all(depth[enum.edge_dst] == depth[enum.edge_src] + 1)
        check_edge_inverses(env, state_tuples(enum))
        check_enumeration(enum)


def test_random_dag_builds_consistently():
    for seed in range(8):
        env = random_dag(np.random.default_rng(seed))
        enum = env.enumeration()
        check_edge_inverses(env, state_tuples(enum))
        check_enumeration(enum)


# -- trajectory validation -----------------------------------------------------


def test_validate_trajectory():
    env = HyperGrid(2, 3)

    def traj(states, slots, bslots):
        return Trajectory(rows(env, states), np.array(slots), np.array(bslots), 0.0)

    good = [(0, 0), (1, 0), (1, 1)]
    assert validate_trajectory(env, traj(good, [0, 1, 2], [0, 1]))
    assert validate_trajectory(env, path(env, good, [0, 1, 2]))
    assert not validate_trajectory(env, traj(good, [0, 1], [0, 1]))
    assert not validate_trajectory(env, traj(good[:-1], [0, 1], [0]))
    # The last slot must be the terminal hop.
    assert not validate_trajectory(env, traj(good, [0, 1, 0], [0, 1]))
    # Wrong backward slot for an edge.
    assert not validate_trajectory(env, traj(good, [0, 1, 2], [1, 1]))
    assert not validate_trajectory(env, traj([(1, 0), (1, 1)], [1, 2], [1]))
    # Slot 0 at (2, 0) would leave the grid.
    assert not validate_trajectory(env, traj([(0, 0), (1, 0), (2, 0), (2, 1)],
                                             [0, 0, 0, 2], [0, 0, 0]))
    # Declared successor does not match the slot taken.
    assert not validate_trajectory(env, traj([(0, 0), (0, 1)], [0, 2], [0]))


# -- enumeration index ---------------------------------------------------------


def test_enumeration_grid():
    enum = HyperGrid(2, 3).enumeration()
    check_enumeration(enum)
    assert enum.terminal.all()
    assert np.all(enum.terminal_slots() == 2)
    assert enum.rewards() == pytest.approx(np.exp(enum.log_rewards))


def test_enumeration_sequence():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    enum = env.enumeration()
    check_enumeration(enum)
    assert enum.terminal.sum() == 4
    assert enum.partition() == pytest.approx(10.0)
    # Terminal slots only at complete sequences.
    for i, s in enumerate(state_tuples(enum)):
        complete = all(c != EMPTY for c in s)
        assert (enum.terminal_slots()[i] >= 0) == complete


def test_enumeration_memoized():
    env = HyperGrid(2, 3)
    assert env.enumeration() is env.enumeration()


def test_enumeration_cap():
    # 200**3 = 8 000 000 states, counted by n_states() without a state row;
    # their rows would take 192 MB.
    env = HyperGrid(3, 200)
    assert env.n_states() == 8_000_000 > ENUMERATION_CAP
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationLimit, match="8000000 states exceed"):
            env.enumeration()
        with pytest.raises(EnumerationLimit, match="8000000 states exceed"):
            Enumeration(env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_sink_parents_are_terminal_states():
    # The sink's parents are the terminal-capable states, each through its
    # terminal slot.
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    enum = env.enumeration()
    states = state_tuples(enum)
    pairs = [(enum.terminal_slots()[i], states[i]) for i in np.flatnonzero(enum.terminal)]
    assert len(pairs) == 4
    assert all(slot == 4 and child(env, x, slot) is None for slot, x in pairs)
    assert {x for _, x in pairs} == set(all_sequences(2, 2))


def test_dropped_env_and_enumeration_free_by_refcount():
    # The env memoizes its enumeration weakly, so the two form no cycle and
    # need no garbage-collector pass to be freed.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for env in (HyperGrid(2, 3), SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0]),
                    random_dag(np.random.default_rng(0))):
            enum = env.enumeration()
            assert env.enumeration() is enum
            ref = weakref.ref(enum)
            del env, enum
            assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# -- batched queries against the per-state oracles -----------------------------

BATCHED_ENVS = [
    pytest.param(lambda: HyperGrid(1, 5), id="grid-1x5"),
    pytest.param(lambda: HyperGrid(2, 16), id="grid-2x16"),
    pytest.param(lambda: HyperGrid(3, 4), id="grid-3x4"),
    pytest.param(lambda: synthetic_env(1, 2, 0), id="seq-1x2"),
    pytest.param(lambda: synthetic_env(3, 3, 1), id="seq-3x3"),
    pytest.param(lambda: synthetic_env(6, 4, 2), id="seq-6x4"),
    pytest.param(lambda: random_dag(np.random.default_rng(3)), id="dag-3"),
]


def assert_same_array(fast, slow, name):
    assert fast.dtype == slow.dtype, name
    assert fast.shape == slow.shape, name
    assert fast.tobytes() == slow.tobytes(), name


def per_state_tables(env, enum):
    """The enumeration's tables from the per-state oracles."""
    states = state_tuples(enum)
    position = {s: i for i, s in enumerate(states)}
    src, slot, dst, bslot = [], [], [], []
    tslots = np.full(enum.n, -1, dtype=np.intp)
    log_r = np.full(enum.n, -np.inf)
    for i, s in enumerate(states):
        for a, c in children(env, s):
            if c is None:
                tslots[i] = a
                log_r[i] = log_reward(env, s)
            else:
                src.append(i)
                slot.append(a)
                dst.append(position[c])
                bslot.append(backward_slot(env, s, a))
    parent_masks = np.stack([parent_mask(env, s) for s in states])
    parent_masks[enum.root_index] = False
    edges = [np.asarray(v, dtype=np.intp) for v in (src, slot, dst, bslot)]
    return {
        "edge_src": edges[0], "edge_slot": edges[1], "edge_dst": edges[2],
        "edge_bslot": edges[3], "terminal": tslots >= 0, "log_rewards": log_r,
        "terminal_slots": tslots,
        "action_masks": np.stack([action_mask(env, s) for s in states]),
        "parent_masks": parent_masks,
        "encodings": np.stack([encode(env, s) for s in states]),
    }


def check_tables_match_per_state_oracles(env):
    enum = env.enumeration()
    fast = {
        "edge_src": enum.edge_src, "edge_slot": enum.edge_slot, "edge_dst": enum.edge_dst,
        "edge_bslot": enum.edge_bslot, "terminal": enum.terminal,
        "log_rewards": enum.log_rewards, "terminal_slots": enum.terminal_slots(),
        "action_masks": enum.action_masks(), "parent_masks": enum.parent_masks(),
        "encodings": env.encode_batch(enum.states),
    }
    slow = per_state_tables(env, enum)
    assert fast.keys() == slow.keys()
    for name in slow:
        assert_same_array(fast[name], slow[name], name)


@pytest.mark.parametrize("make_env", BATCHED_ENVS)
def test_enumeration_tables_match_per_state_defaults(make_env):
    check_tables_match_per_state_oracles(make_env())


def check_batched_queries(env, rng):
    """Every batched query on random batches with repeats, and on a single
    state, against the per-state oracles."""
    enum = env.enumeration()
    states = enum.states
    picks = rng.integers(0, len(states), size=2 * len(states) + 3)
    per_state = {"action_masks": action_mask, "parent_masks": parent_mask,
                 "encode_batch": encode, "log_rewards": log_reward, "index": state_index,
                 "terminal_slots": lambda env, s: -1 if terminal_slot(env, s) is None
                 else terminal_slot(env, s)}
    dtypes = {"log_rewards": np.float64, "index": np.intp, "terminal_slots": np.intp}
    for batch in (states[picks], states[-1:]):
        tuples = [tuple(s) for s in batch.tolist()]
        for query, oracle in per_state.items():
            want = [oracle(env, s) for s in tuples]
            want = np.asarray(want, dtype=dtypes[query]) if query in dtypes else np.stack(want)
            assert_same_array(getattr(env, query)(batch), want, query)

    # Transitions over random (state, slot) pairs, repeats included.
    forward = enum.action_masks().copy()
    term = np.flatnonzero(enum.terminal)
    forward[term, enum.terminal_slots()[term]] = False
    backward = enum.parent_masks()
    for masks, query, step, slot_of in ((forward, "children", child, backward_slot),
                                        (backward, "parents", parent, forward_slot)):
        src, slot = np.nonzero(masks)
        if not len(src):
            continue
        pick = rng.integers(0, len(src), size=2 * len(src) + 3)
        batch, slots = states[src[pick]], slot[pick]
        pairs = list(zip([tuple(s) for s in batch.tolist()], slots.tolist()))
        got_rows, got_slots = getattr(env, query)(batch, slots)
        assert_same_array(got_rows, rows(env, [step(env, s, a) for s, a in pairs]), query)
        assert_same_array(got_slots, np.array([slot_of(env, s, a) for s, a in pairs],
                                              dtype=np.intp), query + " slots")


@pytest.mark.parametrize("make_env", BATCHED_ENVS)
def test_batched_queries_match_per_state_defaults_on_any_batch(make_env):
    check_batched_queries(make_env(), np.random.default_rng(0))


@pytest.mark.parametrize("make_dag", [random_dag, random_graded_dag])
def test_explicit_tables_match_the_child_lists(make_dag):
    # ExplicitDag answers every query from tables built once; the oracles
    # recompute each answer from the child lists it was built from.
    for seed in range(8):
        env = make_dag(np.random.default_rng(seed))
        check_tables_match_per_state_oracles(env)
        check_batched_queries(env, np.random.default_rng(seed))


def test_synthetic_rewards_score_in_blocks():
    # d=6, n=4 has 4096 sequences and 40 modes.  The peak stays within a few
    # table-sized arrays plus a few (block x modes) float arrays, far below
    # the distances from every sequence to every mode at once.
    d, n, n_modes = 6, 4, 40
    synthetic_rewards(2, 2, seed=0)  # first-call allocations of numpy itself
    tracemalloc.start()
    try:
        table = synthetic_rewards(d, n, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = SCORE_BLOCK * n_modes * 8
    assert peak <= 4 * table.nbytes + 6 * block
    assert peak < table.size * n_modes * 8 / 2
