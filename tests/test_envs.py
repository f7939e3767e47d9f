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
    SINK,
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

# -- per-state oracles ---------------------------------------------------------
# One state at a time, the way each environment defines its slots; the
# batched queries are held to these bit for bit.


def action_mask(env, s):
    """Boolean vector over the forward slots valid at s."""
    mask = np.zeros(env.n_action_slots, dtype=bool)
    if isinstance(env, HyperGrid):
        for i in range(env.d):
            mask[i] = s[i] < env.n - 1
        mask[env.d] = True
    elif isinstance(env, SequenceEnv):
        for pos, c in enumerate(s):
            if c == EMPTY:
                mask[pos * env.n:(pos + 1) * env.n] = True
        mask[env.d * env.n] = all(c != EMPTY for c in s)
    else:
        k = len(env._children.get(s, ()))
        mask[:k] = True
        if s in env._rewards:
            mask[k] = True
    return mask


def parent_mask(env, s):
    """Boolean vector over the backward slots valid at s (s != root)."""
    if isinstance(env, HyperGrid):
        return np.array([c > 0 for c in s], dtype=bool)
    if isinstance(env, SequenceEnv):
        return np.array([c != EMPTY for c in s], dtype=bool)
    mask = np.zeros(env.n_backward_slots, dtype=bool)
    mask[:len(explicit_parents(env, s))] = True
    return mask


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
        v[env._index[s]] = 1.0
    return v


def children(env, s):
    """(slot, child) pairs of s in slot order, the sink included."""
    return [(int(a), env.child(s, a)) for a in np.flatnonzero(action_mask(env, s))]


def parents(env, s):
    """(backward slot, parent) pairs of s != root in slot order."""
    return [(int(b), env.parent(s, b)) for b in np.flatnonzero(parent_mask(env, s))]


def explicit_parents(env, s):
    """Parents of s in an ExplicitDag from its child lists, in topological order."""
    ps = [p for p, cs in env._children.items() if s in cs]
    return sorted(ps, key=env._index.__getitem__)


def validate_trajectory(env, states, slots):
    """Check that a (states, slots) pair is a root-to-sink path in the DAG."""
    if not states or states[0] != env.root or states[-1] is not SINK:
        return False
    if len(slots) != len(states) - 1:
        return False
    for s, a, nxt in zip(states[:-1], slots, states[1:]):
        mask = action_mask(env, s)
        if a < 0 or a >= mask.size or not mask[a]:
            return False
        c = env.child(s, a)
        if c is not nxt and c != nxt:
            return False
    return True


def check_edge_inverses(env, states):
    """Forward and backward slot maps must invert each other on every edge."""
    for s in states:
        for slot, c in children(env, s):
            if c is SINK:
                continue
            b = env.backward_slot(s, slot)
            assert parent_mask(env, c)[b]
            assert env.parent(c, b) == s
            assert env.forward_slot(c, b) == slot
        if s != env.root:
            for b, p in parents(env, s):
                f = env.forward_slot(s, b)
                assert action_mask(env, p)[f]
                assert env.child(p, f) == s


def layer_of(enum):
    """Topological layer number of every enumerated state."""
    out = np.empty(enum.n, dtype=int)
    for k, idx in enumerate(enum.layers):
        out[idx] = k
    return out


def check_enumeration(enum):
    """Flat edge arrays, masks and cached tables must agree with the env."""
    env = enum.env
    assert enum.n == env.n_states()
    assert enum.states[enum.root_index] == env.root
    assert len(enum.index) == enum.n
    assert np.all(np.diff(enum.edge_src) >= 0)
    # The exact layer sweeps rely on every edge reaching a strictly deeper layer.
    depth = layer_of(enum)
    assert np.all(depth[enum.edge_dst] > depth[enum.edge_src])
    order = enum.dst_order()
    assert order is enum.dst_order()
    np.testing.assert_array_equal(order, sorted(range(len(order)),
                                                key=lambda e: enum.edge_dst[e]))
    edge_ptr = np.searchsorted(enum.edge_src, np.arange(enum.n + 1))
    tslots = enum.terminal_slots()
    for i, s in enumerate(enum.states):
        lo, hi = edge_ptr[i], edge_ptr[i + 1]
        non_sink = [(a, c) for a, c in children(env, s) if c is not SINK]
        assert hi - lo == len(non_sink)
        for e, (a, c) in zip(range(lo, hi), non_sink):
            assert enum.edge_slot[e] == a
            assert enum.states[enum.edge_dst[e]] == c
            assert enum.edge_bslot[e] == env.backward_slot(s, a)
        t = env.terminal_slot(s)
        assert enum.terminal[i] == (t is not None)
        assert tslots[i] == (-1 if t is None else t)
        if t is not None:
            assert enum.log_rewards[i] == pytest.approx(env.log_reward(s))
        else:
            assert enum.log_rewards[i] == -np.inf
    assert not enum.parent_masks()[enum.root_index].any()
    masks = enum.action_masks()
    parent_masks = enum.parent_masks()
    for i, s in enumerate(enum.states):
        assert np.array_equal(masks[i], action_mask(env, s))
        if i != enum.root_index:
            assert np.array_equal(parent_masks[i], parent_mask(env, s))


# -- hyper-grid ----------------------------------------------------------------


def test_grid_reward_bands_n9():
    # n=9: x/8 is an exact binary fraction, so band membership is exact.
    # |x/8 - 0.5| = 0.375 for x in {1,7} (both bands), 0.5 for x in {0,8}
    # (outer band only), 0.25 or less otherwise.
    env = HyperGrid(2, 9)
    assert env.reward((1, 1)) == pytest.approx(2.51)
    assert env.reward((7, 1)) == pytest.approx(2.51)
    assert env.reward((0, 0)) == pytest.approx(0.51)
    assert env.reward((8, 1)) == pytest.approx(0.51)
    assert env.reward((2, 1)) == pytest.approx(0.01)
    assert env.reward((4, 4)) == pytest.approx(0.01)


def test_grid_reward_bands_n16():
    # n=16 band membership under float evaluation of |x/15 - 0.5|:
    # outer (0.25, 0.5] holds for x in {0,1,2,3,12,13,14,15}; inner (0.3, 0.4]
    # holds for x in {2,12,13}.  x=3 and x=12 both sit on the real boundary
    # t=0.3, but fl(3/15) and fl(12/15) both round up, pushing t(3) just below
    # and t(12) just above 0.3.
    env = HyperGrid(1, 16)
    outer = {x for x in range(16) if env.reward((x,)) > 0.02}
    inner = {x for x in range(16) if env.reward((x,)) > 1.0}
    assert outer == {0, 1, 2, 3, 12, 13, 14, 15}
    assert inner == {2, 12, 13}


def test_grid_partition_value():
    # 256 cells at 0.01, 8^2 = 64 all-outer cells adding 0.5, 3^2 = 9
    # all-inner cells adding 2: Z* = 2.56 + 32 + 18 = 52.56.
    env = HyperGrid(2, 16)
    assert env.enumeration().partition() == pytest.approx(52.56, rel=1e-12)


def test_grid_reward_takes_three_values():
    env = HyperGrid(2, 8)
    values = {round(env.reward(s), 10) for s in env.enumeration().states}
    assert values <= {0.01, 0.51, 2.51}
    assert 0.01 in values


def test_grid_structure():
    env = HyperGrid(2, 3)
    assert env.root == (0, 0)
    assert env.graded is False
    assert env.n_action_slots == 3
    assert env.n_backward_slots == 2
    assert env.max_trajectory_len == 2 * 2 + 1
    assert env.child((0, 1), 0) == (1, 1)
    assert env.child((0, 1), 1) == (0, 2)
    assert env.child((0, 1), 2) is SINK
    assert env.parent((1, 1), 0) == (0, 1)
    assert env.parent((1, 1), 1) == (1, 0)


def test_grid_stop_always_available():
    env = HyperGrid(2, 3)
    masks = env.action_masks(env.enumeration().states)
    for s, mask in zip(env.enumeration().states, masks):
        assert mask[2]
        assert env.terminal_slot(s) == 2
        # Increment slots valid exactly below the boundary.
        assert mask[0] == (s[0] < 2)
        assert mask[1] == (s[1] < 2)


def test_grid_enumeration_layers():
    env = HyperGrid(2, 3)
    layers = env.enumerate_states()
    assert [len(layer) for layer in layers] == [1, 2, 3, 2, 1]
    assert sum(len(layer) for layer in layers) == env.n_states() == 9
    for k, layer in enumerate(layers):
        assert all(sum(s) == k for s in layer)


def test_grid_encoding():
    env = HyperGrid(2, 3)
    batch = env.encode_batch([(0, 0), (1, 2), (2, 1)])
    assert batch.shape == (3, 6)
    assert np.flatnonzero(batch[1]).tolist() == [1, 5]
    assert np.array_equal(batch, np.stack([encode(env, s) for s in [(0, 0), (1, 2), (2, 1)]]))


def test_grid_edge_inverses():
    env = HyperGrid(3, 4)
    check_edge_inverses(env, env.enumeration().states)


def test_grid_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        HyperGrid(0, 4)
    with pytest.raises(ConfigError):
        HyperGrid(2, 1)


# -- sequences -----------------------------------------------------------------


def test_sequence_structure():
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    assert env.root == (EMPTY, EMPTY)
    assert env.graded is True
    assert env.n_action_slots == 5
    assert env.n_backward_slots == 2
    assert env.max_trajectory_len == 3
    # Slot pos*n+sym fills position pos with symbol sym.
    assert env.child((EMPTY, EMPTY), 0) == (0, EMPTY)
    assert env.child((EMPTY, EMPTY), 3) == (EMPTY, 1)
    assert env.child((0, EMPTY), 2) == (0, 0)
    assert env.terminal_slot((EMPTY, 1)) is None
    assert env.terminal_slot((0, 1)) == 4
    assert env.child((0, 1), 4) is SINK


def test_sequence_rewards_are_lexicographic():
    table = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    env = SequenceEnv(2, 3, table)
    for seq, want in zip(all_sequences(2, 3), table):
        assert env.reward(seq) == want
    assert all_sequences(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_sequence_action_mask():
    env = SequenceEnv(2, 2, np.ones(4))
    masks = env.action_masks([(EMPTY, EMPTY), (1, EMPTY), (1, 0)])
    assert masks.tolist() == [[True, True, True, True, False],
                              [False, False, True, True, False],
                              [False, False, False, False, True]]


def test_sequence_slot_algebra():
    env = SequenceEnv(3, 4, np.ones(64))
    s = (2, EMPTY, 1)
    # backward slot names the position, forward slot re-encodes its symbol.
    assert env.backward_slot(s, 9) == 2
    assert env.forward_slot(s, 0) == 0 * 4 + 2
    assert env.forward_slot(s, 2) == 2 * 4 + 1
    check_edge_inverses(env, env.enumeration().states)


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
    v = env.encode_batch([(EMPTY, 1)])
    assert v.shape == (1, 6)
    # Per-position one-hot over {empty, 0, .., n-1}.
    assert np.flatnonzero(v[0]).tolist() == [0, 5]
    enc = env.enumeration().encodings()
    assert enc.shape == (9, 6)
    assert len({tuple(row) for row in enc}) == 9


def test_sequence_reward_clamped_to_floor():
    env = SequenceEnv(1, 2, [0.0, 5.0])
    assert env.reward((0,)) == MIN_REWARD
    assert env.reward((1,)) == 5.0


def test_sequence_rejects_wrong_table_size():
    with pytest.raises(ConfigError):
        SequenceEnv(0, 3, np.ones(1))
    with pytest.raises(ConfigError):
        SequenceEnv(2, 3, np.ones(8))


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


def test_save_reward_table_rejects_wrong_size(tmp_path):
    with pytest.raises(ConfigError):
        save_reward_table(tmp_path / "t.tsv", 2, 2, np.ones(5))


# -- explicit DAGs -------------------------------------------------------------


def test_explicit_diamond():
    env = ExplicitDag({"r": ["a", "b"], "a": ["x"], "b": ["x"]}, {"x": 2.0})
    assert env.root == "r"
    assert env.graded is True
    assert env.n_action_slots == 2
    assert env.n_backward_slots == 2
    assert env.terminal_slot("x") == 0
    assert env.child("x", 0) is SINK
    assert children(env, "r") == [(0, "a"), (1, "b")]
    assert parents(env, "x") == [(0, "a"), (1, "b")]
    # An invalid slot names no state.
    with pytest.raises(IndexError):
        env.child("a", 1)
    with pytest.raises(IndexError):
        env.parent("a", 1)
    assert [len(layer) for layer in env.enumerate_states()] == [1, 2, 1]
    assert env.reward("x") == 2.0
    check_edge_inverses(env, env.enumeration().states)


def test_explicit_root_inference_and_override():
    children = {"r": ["a"], "a": []}
    env = ExplicitDag(children, {"a": 1.0})
    assert env.root == "r"
    with pytest.raises(ConfigError):
        # Two parentless states and no explicit root.
        ExplicitDag({"r": ["x"], "q": ["x"]}, {"x": 1.0})


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
    assert env.reward("a") == MIN_REWARD


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
        check_edge_inverses(env, enum.states)
        check_enumeration(enum)


def test_random_dag_builds_consistently():
    for seed in range(8):
        env = random_dag(np.random.default_rng(seed))
        enum = env.enumeration()
        check_edge_inverses(env, enum.states)
        check_enumeration(enum)


# -- trajectory validation -----------------------------------------------------


def test_validate_trajectory():
    env = HyperGrid(2, 3)
    good = [(0, 0), (1, 0), (1, 1), SINK]
    assert validate_trajectory(env, good, [0, 1, 2])
    assert not validate_trajectory(env, good, [0, 1])
    assert not validate_trajectory(env, good[:-1], [0, 1])
    assert not validate_trajectory(env, [(1, 0), (1, 1), SINK], [1, 2])
    # Slot 0 at (2, 0) would leave the grid.
    assert not validate_trajectory(env, [(0, 0), (1, 0), (2, 0), (2, 1), SINK],
                                   [0, 0, 0, 2])
    # Declared successor does not match the slot taken.
    assert not validate_trajectory(env, [(0, 0), (0, 1), SINK], [0, 2])


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
    for i, s in enumerate(enum.states):
        complete = all(c != EMPTY for c in s)
        assert (enum.terminal_slots()[i] >= 0) == complete


def test_enumeration_memoized():
    env = HyperGrid(2, 3)
    assert env.enumeration() is env.enumeration()


def test_enumeration_cap():
    env = HyperGrid(2, 4)
    with pytest.raises(EnumerationLimit):
        env.enumerate_states(cap=15)
    with pytest.raises(EnumerationLimit):
        Enumeration(HyperGrid(2, 4), cap=15)
    assert ENUMERATION_CAP >= 16


def test_sink_parents_are_terminal_states():
    # The sink's parents are the terminal-capable states, each through its
    # terminal slot.
    env = SequenceEnv(2, 2, [1.0, 2.0, 3.0, 4.0])
    enum = env.enumeration()
    pairs = [(enum.terminal_slots()[i], enum.states[i]) for i in np.flatnonzero(enum.terminal)]
    assert len(pairs) == 4
    assert all(slot == 4 and env.child(x, slot) is SINK for slot, x in pairs)
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
    pytest.param(lambda: SequenceEnv.synthetic(1, 2, seed=0), id="seq-1x2"),
    pytest.param(lambda: SequenceEnv.synthetic(3, 3, seed=1), id="seq-3x3"),
    pytest.param(lambda: SequenceEnv.synthetic(6, 4, seed=2), id="seq-6x4"),
    pytest.param(lambda: random_dag(np.random.default_rng(3)), id="dag-3"),
]


def assert_same_array(fast, slow, name):
    assert fast.dtype == slow.dtype, name
    assert fast.shape == slow.shape, name
    assert fast.tobytes() == slow.tobytes(), name


def per_state_tables(env, enum):
    """The enumeration's tables from the per-state oracles."""
    src, slot, dst, bslot = [], [], [], []
    tslots = np.full(enum.n, -1, dtype=np.intp)
    log_r = np.full(enum.n, -np.inf)
    for i, s in enumerate(enum.states):
        for a, c in children(env, s):
            if c is SINK:
                tslots[i] = a
                log_r[i] = env.log_reward(s)
            else:
                src.append(i)
                slot.append(a)
                dst.append(enum.index[c])
                bslot.append(env.backward_slot(s, a))
    parent_masks = np.stack([parent_mask(env, s) for s in enum.states])
    parent_masks[enum.root_index] = False
    edges = [np.asarray(v, dtype=np.intp) for v in (src, slot, dst, bslot)]
    return {
        "edge_src": edges[0], "edge_slot": edges[1], "edge_dst": edges[2],
        "edge_bslot": edges[3], "terminal": tslots >= 0, "log_rewards": log_r,
        "terminal_slots": tslots,
        "action_masks": np.stack([action_mask(env, s) for s in enum.states]),
        "parent_masks": parent_masks,
        "encodings": np.stack([encode(env, s) for s in enum.states]),
    }


def check_tables_match_per_state_oracles(env):
    enum = env.enumeration()
    fast = {
        "edge_src": enum.edge_src, "edge_slot": enum.edge_slot, "edge_dst": enum.edge_dst,
        "edge_bslot": enum.edge_bslot, "terminal": enum.terminal,
        "log_rewards": enum.log_rewards, "terminal_slots": enum.terminal_slots(),
        "action_masks": enum.action_masks(), "parent_masks": enum.parent_masks(),
        "encodings": enum.encodings(),
    }
    slow = per_state_tables(env, enum)
    assert fast.keys() == slow.keys()
    for name in slow:
        assert_same_array(fast[name], slow[name], name)


@pytest.mark.parametrize("make_env", BATCHED_ENVS)
def test_enumeration_tables_match_per_state_defaults(make_env):
    check_tables_match_per_state_oracles(make_env())


@pytest.mark.parametrize("make_env", BATCHED_ENVS)
def test_batched_queries_match_per_state_defaults_on_any_batch(make_env):
    # Repeated states in any order, and a single state.
    env = make_env()
    states = env.enumeration().states
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(states), size=2 * len(states) + 3)
    oracles = {"action_masks": action_mask, "parent_masks": parent_mask,
               "encode_batch": encode}
    for batch in ([states[i] for i in picks], [states[-1]]):
        for query, oracle in oracles.items():
            assert_same_array(getattr(env, query)(batch),
                              np.stack([oracle(env, s) for s in batch]), query)


@pytest.mark.parametrize("make_dag", [random_dag, random_graded_dag])
def test_explicit_tables_match_the_child_lists(make_dag):
    # ExplicitDag answers every query from tables built once; here each
    # answer is recomputed from the child lists it was built from.
    for seed in range(8):
        env = make_dag(np.random.default_rng(seed))
        check_tables_match_per_state_oracles(env)
        for s in env.enumeration().states:
            cs = env._children.get(s, [])
            for a in np.flatnonzero(action_mask(env, s)):
                if a == len(cs):
                    assert env.child(s, a) is SINK
                    assert env.terminal_slot(s) == a
                    continue
                c = cs[a]
                assert env.child(s, a) == c
                assert env.backward_slot(s, a) == explicit_parents(env, c).index(s)
            if env.terminal_slot(s) is None:
                assert s not in env._rewards
            for b, p in enumerate(explicit_parents(env, s)):
                assert env.parent(s, b) == p
                assert env.forward_slot(s, b) == env._children[p].index(s)


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
