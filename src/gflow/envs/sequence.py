"""Fixed-length sequence environment with unordered slot filling.

A state row holds d symbols over {-1, 0..n-1}; -1 marks an empty slot.  Each
move fills one empty slot with one symbol, so the DAG is graded by fill
count and every trajectory has exactly d+1 edges (the last one the forced
hop to the sink from a complete sequence).

Rewards come from a dense table over the n^d complete sequences.  A synthetic
table generator places smooth bumps around randomly drawn mode sequences,
sharpens with an exponent and rescales into [r_min, r_max].
"""

from itertools import combinations, product
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from .base import DagEnv, MIN_REWARD

EMPTY = -1
SCORE_BLOCK = 256  # sequences scored at once by synthetic_rewards


def _check_size(d, n):
    """Raise ConfigError unless there is at least one position and two symbols."""
    if d < 1 or n < 2:
        raise ConfigError(f"need d >= 1 and n >= 2, got d={d}, n={n}")


class SequenceEnv(DagEnv):
    """Sequences of length d over n symbols, filled in any slot order.

    Forward slots: pos * n + sym fills position pos with symbol sym; the last
    slot (d * n) is the terminal hop, valid only at complete sequences.
    Backward slots: 0..d-1 name the position that was filled last.
    """

    def __init__(self, d, n, rewards):
        self.d = int(d)
        self.n = int(n)
        _check_size(self.d, self.n)
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        if rewards.size != self.n ** self.d:
            raise ConfigError(
                f"reward table has {rewards.size} entries, need n**d = {self.n ** self.d}")
        bad = np.flatnonzero(~np.isfinite(rewards))
        if len(bad):
            seq = tuple(int(c) for c in np.unravel_index(bad[0], (self.n,) * self.d))
            raise ConfigError(f"reward of sequence {seq} is not finite: {rewards[bad[0]]}")
        self.rewards_table = np.maximum(rewards, MIN_REWARD)
        self.width = self.d
        self.root = np.full(self.d, EMPTY, dtype=np.intp)
        self.graded = True
        self.n_action_slots = self.d * self.n + 1
        self.n_backward_slots = self.d
        self.encoding_dim = self.d * (self.n + 1)
        self.max_trajectory_len = self.d + 1
        self._terminal = self.d * self.n
        # index() reads each position as a base-(n+1) digit, EMPTY as 0; the
        # reward table reads complete sequences as base-n numbers, first
        # position most significant.
        self._radix = (self.n + 1) ** np.arange(self.d)
        self._place = self.n ** np.arange(self.d - 1, -1, -1)

    # -- structure -----------------------------------------------------------

    def action_masks(self, states):
        empty = states == EMPTY
        mask = np.empty((len(empty), self.n_action_slots), dtype=bool)
        mask[:, :self._terminal] = np.repeat(empty, self.n, axis=1)
        mask[:, self._terminal] = ~empty.any(axis=1)
        return mask

    def children(self, states, slots):
        pos, sym = np.divmod(np.asarray(slots, dtype=np.intp), self.n)
        rows = states.copy()
        rows[np.arange(len(rows)), pos] = sym
        return rows, pos

    def terminal_slots(self, states):
        return np.where((states != EMPTY).all(axis=1), self._terminal, -1)

    def parent_masks(self, states):
        return states != EMPTY

    def parents(self, states, bslots):
        bslots = np.asarray(bslots, dtype=np.intp)
        rows = states.copy()
        at = np.arange(len(rows)), bslots
        fslots = bslots * self.n + rows[at]
        rows[at] = EMPTY
        return rows, fslots

    # -- reward --------------------------------------------------------------

    def log_rewards(self, states):
        complete = (states != EMPTY).all(axis=1)
        log_r = np.full(len(states), -np.inf)
        log_r[complete] = np.log(self.rewards_table[states[complete] @ self._place])
        return log_r

    # -- features ------------------------------------------------------------

    def encode_batch(self, states):
        v = np.zeros((len(states), self.encoding_dim))
        v[np.arange(len(states))[:, None], states + np.arange(self.d) * (self.n + 1) + 1] = 1.0
        return v

    def index(self, states):
        return (states + 1) @ self._radix

    # -- enumeration ---------------------------------------------------------

    def n_states(self):
        return (self.n + 1) ** self.d

    def enumerate_states(self):
        """Layer t holds the sequences with t filled positions, by filled
        positions (lexicographic) and then by symbols (lexicographic)."""
        layers = []
        for t in range(self.d + 1):
            syms = np.indices((self.n,) * t, dtype=np.intp).reshape(t, self.n ** t).T
            blocks = []
            for filled in combinations(range(self.d), t):
                block = np.full((len(syms), self.d), EMPTY, dtype=np.intp)
                block[:, list(filled)] = syms
                blocks.append(block)
            layers.append(np.concatenate(blocks))
        return layers


def all_sequences(d, n):
    """Complete sequences in reward-table order (lexicographic)."""
    return [tuple(s) for s in product(range(n), repeat=d)]


def synthetic_rewards(d, n, seed, beta=3.0, r_min=1e-3, r_max=10.0, n_modes=None):
    """Seeded reward table over all n**d sequences.

    Draws mode sequences, scores every sequence by Gaussian bumps in Hamming
    distance around the modes, sharpens with exponent beta and affinely
    rescales so the table maximum is exactly r_max and the minimum r_min.
    Sequences are scored SCORE_BLOCK at a time, so the distances to the
    modes never exist for the whole table at once.  d and n are checked as
    SequenceEnv checks them.
    """
    _check_size(d, n)
    total = n ** d
    if n_modes is None:
        n_modes = int(np.clip(total // 100, 2, 60))
    rng = np.random.default_rng(seed)
    modes = rng.integers(0, n, size=(n_modes, d))
    amps = rng.uniform(0.5, 1.0, size=n_modes)
    widths = rng.uniform(0.5, 1.5, size=n_modes)
    place = n ** np.arange(d - 1, -1, -1)
    score = np.empty(total)
    for lo in range(0, total, SCORE_BLOCK):
        # Table rows lo.. as symbol arrays, and their Hamming distances to the modes.
        seqs = np.arange(lo, min(lo + SCORE_BLOCK, total))[:, None] // place % n
        dist = (seqs[:, None, :] != modes[None, :, :]).sum(axis=2)
        bumps = amps[None, :] * np.exp(-(dist ** 2) / (2.0 * widths[None, :] ** 2))
        score[lo:lo + len(seqs)] = bumps.sum(axis=1)
    with np.errstate(over="ignore", divide="ignore"):
        raw = score ** float(beta)
    if not np.isfinite(raw).all():
        raise ConfigError(f"beta = {beta} overflows float64 in the synthetic reward scores")
    lo, hi = raw.min(), raw.max()
    if hi - lo < 1e-300:
        return np.full(total, float(r_max))
    return r_min + (r_max - r_min) * (raw - lo) / (hi - lo)


def save_reward_table(path, d, n, rewards):
    """Write one line per sequence: comma-separated symbols, tab, reward."""
    rewards = np.asarray(rewards, dtype=np.float64).ravel()
    if rewards.size != n ** d:
        raise ConfigError(f"reward table has {rewards.size} entries, need {n ** d}")
    with open(path, "w") as fh:
        for seq, r in zip(all_sequences(d, n), rewards):
            fh.write(",".join(str(c) for c in seq) + "\t" + repr(float(r)) + "\n")


def load_reward_table(path):
    """Parse a reward-table file; returns (d, n, rewards) with rewards in
    lexicographic sequence order.  The table must be complete."""
    entries = {}
    d = None
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise ConfigError(f"{path}: cannot read reward table: {err.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: reward table is not UTF-8 text") from None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            sym_part, r_part = line.split("\t")
            seq = tuple(int(c) for c in sym_part.split(","))
            r = float(r_part)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad reward-table line {line!r}") from e
        if not np.isfinite(r):
            raise ConfigError(f"{path}:{lineno}: reward {r_part!r} is not finite")
        if d is None:
            d = len(seq)
        elif len(seq) != d:
            raise ConfigError(f"{path}:{lineno}: sequence length {len(seq)} != {d}")
        entries[seq] = r
    if not entries:
        raise ConfigError(f"{path}: empty reward table")
    n = max(max(seq) for seq in entries) + 1
    if len(entries) != n ** d:
        raise ConfigError(
            f"{path}: {len(entries)} rows do not cover all {n ** d} sequences "
            f"of length {d} over {n} symbols")
    rewards = np.empty(n ** d)
    for i, seq in enumerate(all_sequences(d, n)):
        if seq not in entries:
            raise ConfigError(f"{path}: missing sequence {seq}")
        rewards[i] = entries[seq]
    return d, n, rewards
