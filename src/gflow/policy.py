"""Policies, value estimators and flow scalars over DAG environments.

A forward policy maps a state to a masked distribution over action slots; a
backward policy does the same over backward (parent) slots.  Both are backed
either by an Mlp over state encodings or by a Tabular logit table over the
enumerated state index, packed to its valid slots.  The uniform backward
policy has no parameters.

The backward probability of the virtual terminal hop (x -> sink) is never
produced here; objectives substitute R(x)/Z for it by convention.
"""

import struct

import numpy as np

from . import autodiff as ad
from .envs import Enumeration
from .errors import ShapeError

CHECKPOINT_MAGIC = b"GFLW"
CHECKPOINT_VERSION = 1


class _StateModel:
    """An autodiff model read by state rows.

    The model is an Mlp fed the rows' encodings or a Tabular fed their
    enumeration positions; _outputs(tape, states) evaluates it, eagerly
    when tape is None.
    """

    def __init__(self, env, model):
        self.env = env
        self.model = model
        self.tabular = isinstance(model, ad.Tabular)
        if self.tabular:
            self._enum = env.enumeration()

    def params(self):
        return self.model.params()

    def _model_inputs(self, states):
        if self.tabular:
            return self._enum.positions(states)
        return self.env.encode_batch(states)

    def _outputs(self, tape, states):
        return self.model.forward(tape, self._model_inputs(states))


class _PolicyBase(_StateModel):
    """Shared mechanics for forward and backward policies.

    The model has one output per slot, `n_slots` of them; `env_masks` is
    the environment's batched query for the masks over those slots, and a
    tabular model must be packed by the same masks over every state (the
    Enumeration method `enum_masks`).
    """

    def __init__(self, env, model, env_masks, n_slots, enum_masks):
        super().__init__(env, model)
        if self.tabular and not np.array_equal(model.index.mask, enum_masks(self._enum)):
            raise ShapeError(f"tabular model is not packed by the valid slots of the env's "
                             f"{self._enum.n} states")
        self._env_masks = env_masks
        self.n_slots = n_slots

    def masks(self, states):
        return self._env_masks(states)

    def log_prob_matrix(self, tape, states, masks=None):
        """(M x slots) masked log-probabilities; untaped when tape is None.

        Untaped, more rows than one block are evaluated a block at a time,
        masks, model forward and log-softmax together, into one (M x slots)
        output.  A block holds max(1, ad.BLOCK // model.widest) rows, so a
        layer output holds about ad.BLOCK entries (one row, if wider),
        however many states an Mlp eval row passes.  Every step is row-wise,
        so a row's value does not depend on its block, except through BLAS:
        OpenBLAS picks a matrix product's kernel by the operands' sizes, so
        an Mlp block can round an output in the last bit unlike one pass.
        """
        step = max(1, ad.BLOCK // self.model.widest)
        if tape is not None or len(states) <= step:
            if masks is None:
                masks = self.masks(states)
            return ad.log_softmax_masked(tape, self._outputs(tape, states), masks)
        out = np.empty((len(states), self.n_slots))
        for lo in range(0, len(states), step):
            rows = slice(lo, lo + step)
            block = self.masks(states[rows]) if masks is None else masks[rows]
            out[rows] = ad.log_softmax_masked(None, self._outputs(None, states[rows]),
                                              block).data
        return ad.Tensor(out)

    def step_log_probs(self, tape, states, slots):
        """Taped log-probabilities of chosen slots, shape (M,)."""
        return ad.pick(tape, self.log_prob_matrix(tape, states), slots)

    def log_probs_numpy(self, states, masks=None):
        return self.log_prob_matrix(None, states, masks).data

    def probs_numpy(self, states, masks=None):
        return np.exp(self.log_probs_numpy(states, masks))


class ForwardPolicy(_PolicyBase):
    """Distribution over forward action slots, masked per state."""

    def __init__(self, env, model):
        super().__init__(env, model, env.action_masks, env.n_action_slots,
                         Enumeration.action_masks)


class BackwardPolicy(_PolicyBase):
    """Learned distribution over backward slots (which parent came before)."""

    def __init__(self, env, model):
        super().__init__(env, model, env.parent_masks, env.n_backward_slots,
                         Enumeration.parent_masks)


class UniformBackward:
    """Parameter-free backward policy, uniform over each state's parents."""

    def __init__(self, env):
        self.env = env

    def params(self):
        return []

    def masks(self, states):
        return self.env.parent_masks(states)

    def log_probs_numpy(self, states, masks=None):
        if masks is None:
            masks = self.masks(states)
        counts = masks.sum(axis=-1, keepdims=True)
        return np.where(masks, -np.log(counts), -np.inf)

    def probs_numpy(self, states, masks=None):
        return np.exp(self.log_probs_numpy(states, masks))

    def log_prob_matrix(self, tape, states, masks=None):
        return ad.Tensor(self.log_probs_numpy(states, masks))

    def step_log_probs(self, tape, states, slots):
        mat = self.log_probs_numpy(states)
        return ad.Tensor(mat[np.arange(len(states)), np.asarray(slots, dtype=np.intp)])


class ScalarEstimator(_StateModel):
    """State -> scalar map used for values (V~_F, V~_B) and log-flows log F(s).

    Boundary conventions live in the consumers: forward values treat the sink
    as exactly 0, backward values treat the root as exactly 0, and graded
    state flows pin terminal-layer states to log R(x).
    """

    def __init__(self, env, model):
        super().__init__(env, model)
        if self.tabular and model.n_cols != 1:
            raise ShapeError("tabular scalar estimator needs a single column")

    def values(self, tape, states):
        """Per-state scalar outputs, shape (M,); untaped when tape is None."""
        out = self._outputs(tape, states)
        return ad.pick(tape, out, np.zeros(len(states), dtype=np.intp))


class LogZ:
    """Learned scalar log Z, starting at 0."""

    def __init__(self):
        self.value = ad.Tensor(np.zeros(1), requires_grad=True)

    def params(self):
        return [self.value]

    def item(self):
        return float(self.value.data[0])


class PolicySuite:
    """Bundle of everything a training strategy touches.

    Components other than the forward policy and log Z are optional and
    depend on the strategy: learned backward policy, forward/backward value
    estimators, state-flow estimator.
    """

    # Parameter groups in checkpoint order, each with the TrainerConfig field
    # holding its learning rate.
    GROUPS = {"policy_f": "lr_policy", "policy_b": "lr_policy", "log_z": "lr_logz",
              "value_f": "lr_value", "value_b": "lr_value", "flow": "lr_value"}

    def __init__(self, env, forward, backward, log_z,
                 value_f=None, value_b=None, state_flow=None):
        self.env = env
        self.forward = forward
        self.backward = backward
        self.log_z = log_z
        self.value_f = value_f
        self.value_b = value_b
        self.state_flow = state_flow

    def _parts(self):
        """The components holding parameters, by group, in GROUPS order."""
        parts = {"policy_f": self.forward, "policy_b": self.backward, "log_z": self.log_z,
                 "value_f": self.value_f, "value_b": self.value_b, "flow": self.state_flow}
        return {name: parts[name] for name in self.GROUPS
                if parts[name] is not None and parts[name].params()}

    def param_groups(self):
        """Parameter lists of the groups this suite holds, in GROUPS order."""
        return {name: part.params() for name, part in self._parts().items()}

    def all_params(self):
        return [p for params in self.param_groups().values() for p in params]

    def save(self, path, seed=0):
        """Write the groups' parameters; a table dense, zero off its mask."""
        parts = self._parts()
        vecs = [_dense_table(part.model).ravel() if getattr(part, "tabular", False)
                else ad.flatten(part.params()) for part in parts.values()]
        save_checkpoint(path, "suite:" + ",".join(parts), [v.size for v in vecs], seed,
                        np.concatenate(vecs) if vecs else np.zeros(0))

    def load(self, path):
        """Read what save wrote; a table entry off the mask that is not 0
        raises ShapeError before any parameter changes."""
        kind, dims, seed, vec = load_checkpoint(path)
        names = kind.split(":", 1)[1].split(",") if ":" in kind else []
        parts = self._parts()
        if names != list(parts):
            raise ShapeError(f"checkpoint groups {names} do not match suite")
        if len(dims) != len(names) or sum(dims) != vec.size:
            raise ShapeError(f"checkpoint dims {dims} do not split its {vec.size} floats "
                             f"into groups {names}")
        offsets = np.cumsum([0] + dims)
        vecs = [_packed_table(part.model, vec[lo:hi], name) if getattr(part, "tabular", False)
                else vec[lo:hi]
                for (name, part), lo, hi in zip(parts.items(), offsets, offsets[1:])]
        for part, v in zip(parts.values(), vecs):
            ad.assign_flat(part.params(), v)
        return seed


class ScoreOperator:
    """The per-sample score matrix J (M x P) of a policy, never formed.

    Row i of J is d log pi(slot_i | state_i) / d theta, with columns in
    flatten() order over the model's parameters.  Each row is the chain rule
    through the per-row output gradient d_i = onehot(slot_i) - softmax_i, so
    `S @ v` = J v is one forward-mode pass of the model dotted with d, and
    `S.T @ u` = J^T u is one reverse pass with output gradient u_i d_i.
    Neither allocates anything of size M x P.

    `rows` is None when the columns cover every parameter.  For a tabular
    policy it holds the table rows the batch visits, ascending, and the
    columns are those rows' entries in row-major order; every other column
    of the full score matrix is zero.
    """

    def __init__(self, model, cache, d_out, rows=None, transposed=False):
        self._model = model
        self._cache = cache
        self._d = d_out
        self.rows = rows
        shape = (d_out.shape[0], sum(p.data.size for p in model.params()))
        self.shape = shape[::-1] if transposed else shape
        self._transposed = transposed

    @property
    def T(self):
        return ScoreOperator(self._model, self._cache, self._d, self.rows,
                             not self._transposed)

    def __matmul__(self, vec):
        if self._transposed:
            return self._model.vjp(*self._cache, vec[:, None] * self._d)
        return (self._d * self._model.jvp(*self._cache, vec)).sum(axis=1)


def score_matrix(policy, states, slots, masks=None):
    """Per-sample score vectors d log pi(slot | state) / d theta as a
    ScoreOperator.

    Used for the empirical Fisher product J^T (J v) / M of the trust-region
    step.  `masks` defaults to policy.masks(states).  An Mlp policy gets all
    P parameter columns.  A tabular policy gets only the K = rows x slots
    entries of the rows the batch visits (`.rows`), as a table of their
    own, so the solve never touches the rest of the table.  The model is
    evaluated once here; each product afterwards costs one pass over the
    batch and the columns, O(M x slots + K) for a tabular policy.
    """
    slots = np.asarray(slots, dtype=np.intp)
    if masks is None:
        masks = policy.masks(states)
    model = policy.model
    inputs = policy._model_inputs(states)
    rows = None
    if policy.tabular:
        rows, inputs = np.unique(inputs, return_inverse=True)
        model = ad.Tabular(len(rows), model.n_cols)
        model.table.data[...] = policy.model.forward_cached(rows)[0].ravel()
    logits, *cache = model.forward_cached(inputs)
    d = -ad.masked_softmax(logits, masks)
    d[np.arange(len(states)), slots] += 1.0
    return ScoreOperator(model, cache, d, rows)


def _dense_table(model):
    """A Tabular's (n_rows x n_cols) table, zero off its mask."""
    table = np.zeros(model.index.mask.shape)
    table[model.index.mask] = model.table.data
    return table


def _packed_table(model, vec, name):
    """A Tabular's parameter from the flat dense table `vec`."""
    mask = model.index.mask.ravel()
    if vec.size != mask.size or np.any(vec[~mask]):
        raise ShapeError(f"checkpoint group {name} is not a {mask.size}-entry table, zero "
                         "off its table's mask")
    return vec[mask]


def save_checkpoint(path, kind, dims, seed, vec):
    """Binary dump: magic, version, kind string, dims, seed, float64 LE data."""
    kind_b = kind.encode("utf-8")
    vec = np.asarray(vec, dtype="<f8").ravel()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(kind_b)))
        fh.write(kind_b)
        fh.write(struct.pack("<I", len(dims)))
        for d in dims:
            fh.write(struct.pack("<q", int(d)))
        fh.write(struct.pack("<q", int(seed)))
        fh.write(struct.pack("<q", vec.size))
        fh.write(vec.tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint.  A file that is not a checkpoint, is cut
    short, or has bytes past the declared body raises ShapeError."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(n):
        nonlocal pos
        if not 0 <= n <= len(data) - pos:
            raise ShapeError(f"{path}: checkpoint cut short or corrupt (needs {n} bytes "
                             f"at offset {pos}, file has {len(data)})")
        pos += n
        return data[pos - n:pos]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

    if take(4) != CHECKPOINT_MAGIC:
        raise ShapeError(f"{path}: not a checkpoint file")
    version = unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise ShapeError(f"{path}: unsupported checkpoint version {version}")
    kind = take(unpack("<I")).decode("utf-8", "replace")
    dims = [unpack("<q") for _ in range(unpack("<I"))]
    seed = unpack("<q")
    vec = np.frombuffer(take(unpack("<q") * 8), dtype="<f8").astype(np.float64)
    if pos != len(data):
        raise ShapeError(f"{path}: {len(data) - pos} trailing bytes after the checkpoint body")
    return kind, dims, seed, vec


def make_suite(env, rng, tabular=False, hidden=(64, 64), learned_backward=False,
               need_value_f=False, need_value_b=False, need_flow=False):
    """Construct a PolicySuite with freshly initialized models and log Z 0.

    Tabular suites index the enumerated state space directly (exact-gradient
    work) with zero tables, so every policy starts uniform, and a policy
    table is packed by its valid slots, the enumeration's shared index;
    Mlp suites draw their weights from `rng` and share the architecture
    `hidden` across components.
    """
    # Held for the whole construction: the env memoizes it only weakly.
    enum = env.enumeration() if tabular else None

    def model(n_out, index=None):
        # `index` names the Enumeration's SlotIndex of a policy's valid slots.
        if tabular:
            return ad.Tabular(enum.n, n_out, index and getattr(enum, index))
        return ad.Mlp((env.encoding_dim, *hidden, n_out), rng)

    forward = ForwardPolicy(env, model(env.n_action_slots, "action_index"))
    if learned_backward:
        backward = BackwardPolicy(env, model(env.n_backward_slots, "parent_index"))
    else:
        backward = UniformBackward(env)
    return PolicySuite(
        env, forward, backward, LogZ(),
        value_f=ScalarEstimator(env, model(1)) if need_value_f else None,
        value_b=ScalarEstimator(env, model(1)) if need_value_b else None,
        state_flow=ScalarEstimator(env, model(1)) if need_flow else None,
    )
