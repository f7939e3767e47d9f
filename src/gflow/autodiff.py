"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tape records every primitive operation applied to Tensors; backward() replays
the records in reverse and accumulates gradients into the participating
tensors.  All operations are batched, so a training step produces a tape with
tens of records rather than one per trajectory step.

The op set is deliberately small: elementwise arithmetic, masked
log-softmax, index gathers and picks, segment sums and reductions.  That is
enough to express every objective in this library as a handful of records.

The two models, Mlp and Tabular, share one protocol.  forward(tape, x)
evaluates the model; taped, it adds exactly one record whose inputs are the
model's params().  forward_cached(x) returns (output, *cache), and jvp(*cache,
v) and vjp(*cache, g) are the forward- and reverse-mode products over
per-sample outputs, which the trust-region step uses to apply the Fisher
without forming it.  A taped forward's backward is the reverse pass that vjp
flattens, so each model has one derivative.  `widest` is the number of
entries in one input row's widest layer output, which bounds a row's
activations.

A Tabular's parameter is one flat vector over the entries a SlotIndex
admits, so Adam has one update path: flat m and v per parameter, and one
check and one walk over blocks of entries.
"""

from functools import cached_property

import numpy as np

from .errors import ContractError, MaskError, NumericFault, ShapeError

NEG_INF = -np.inf
BLOCK = 1 << 15  # entries per cache-sized block of the blocked loops


class Tensor:
    """A float64 array with an optional gradient buffer.

    Parameters
    ----------
    data : array_like
        Converted to a float64 ndarray.
    requires_grad : bool
        Marks leaf parameters.  Gradients are accumulated into any tensor
        that either requires grad or was produced by a taped op.
    """

    __slots__ = ("data", "grad", "requires_grad", "_taped")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._taped = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tape:
    """Record of primitive ops, replayed in reverse by backward()."""

    def __init__(self):
        self._records = []
        self._spent = False

    def record(self, out, inputs, backward):
        out._taped = True
        self._records.append((out, inputs, backward))
        return out

    def backward(self, root):
        """Accumulate d(root)/d(tensor) into .grad of every participating tensor.

        `root` must be a scalar (shape () or (1,)).  A tape supports a single
        backward pass; build a fresh tape per loss evaluation.  The pass
        releases the records, so a spent tape holds no intermediates.
        """
        if root.data.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.data.shape}")
        if self._spent:
            raise ContractError("tape already consumed by a previous backward()")
        self._spent = True
        if root.grad is None:
            root.grad = np.zeros_like(root.data)
        root.grad += np.ones_like(root.data)
        records, self._records = self._records, []
        for out, inputs, fn in reversed(records):
            if out.grad is None:
                continue
            grads = fn(out.grad)
            for t, g in zip(inputs, grads):
                if g is None or not (t.requires_grad or t._taped):
                    continue
                owned = isinstance(g, _Owned)
                if owned:
                    g = g.array
                if t.grad is None:
                    # An owned gradient is kept as it is.  Otherwise zeros + g
                    # in one pass: adding +0.0 turns -0.0 into +0.0 and
                    # broadcasts g exactly as accumulating would.
                    t.grad = g if owned else np.add(g, 0.0, out=np.empty_like(t.data))
                else:
                    t.grad += g


class _Owned:
    """A gradient that a backward allocated for this one input, with the
    input's shape, starting from +0.0 (so holding no -0.0) and referenced
    nowhere else; the tape may adopt it as a first gradient without a copy."""

    __slots__ = ("array",)

    def __init__(self, array):
        self.array = array


# ---------------------------------------------------------------------------
# Primitive ops.  Each takes the tape first and returns a new Tensor.  With
# tape=None an op evaluates eagerly: it records nothing and builds no
# backward closure, so untaped model evaluations share the taped code path.
# ---------------------------------------------------------------------------

def add(tape, a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)
    if tape is None:
        return out

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return tape.record(out, (a, b), bw)


def sub(tape, a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)
    if tape is None:
        return out

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return tape.record(out, (a, b), bw)


def mul(tape, a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)
    if tape is None:
        return out

    def bw(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return tape.record(out, (a, b), bw)


def scale(tape, a, c):
    a = _as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c)
    if tape is None:
        return out

    def bw(g):
        return (g * c,)

    return tape.record(out, (a,), bw)


def square(tape, a):
    a = _as_tensor(a)
    out = Tensor(a.data * a.data)
    if tape is None:
        return out

    def bw(g):
        return (2.0 * g * a.data,)

    return tape.record(out, (a,), bw)


def _masked_exp(logits, mask):
    """Row max m, shifted exponentials w and row sums s of a masked softmax."""
    z = np.where(mask, logits, NEG_INF)
    m = z.max(axis=-1, keepdims=True)
    w = np.exp(z - m)
    return m, w, w.sum(axis=-1, keepdims=True)


def masked_softmax(logits, mask):
    """Probabilities of log_softmax_masked as a plain array; masked entries are 0."""
    _, w, s = _masked_exp(logits, mask)
    return w / s


def log_softmax_masked(tape, logits, mask):
    """Masked log-softmax along the last axis.

    `mask` is a boolean ndarray of the same shape; excluded entries receive
    -inf in the output and contribute nothing to the normalizer.  A row with
    no admitted entry raises MaskError.
    """
    logits = _as_tensor(logits)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.data.shape:
        raise ShapeError(f"mask shape {mask.shape} != logits shape {logits.data.shape}")
    if not mask.any(axis=-1).all():
        raise MaskError("log_softmax_masked: a row masks out every entry")
    x = logits.data
    m, w, s = _masked_exp(x, mask)
    out = Tensor(np.where(mask, x - (m + np.log(s)), NEG_INF))
    if tape is None:
        return out
    p = w / s

    def bw(g):
        g = np.where(mask, g, 0.0)
        return (g - p * g.sum(axis=-1, keepdims=True),)

    return tape.record(out, (logits,), bw)


def _scatter(shape, idx, g):
    """Zeros of `shape` with g added at `idx`; repeated indices accumulate."""
    acc = np.zeros(shape)
    np.add.at(acc, idx, g)
    return acc


def gather(tape, a, idx):
    """Select rows (or scalars, for 1-D input) along axis 0; repeats allowed."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(a.data[idx])
    if tape is None:
        return out

    def bw(g):
        return (_Owned(_scatter(a.data.shape, idx, g)),)

    return tape.record(out, (a,), bw)


def pick(tape, a, cols):
    """Row-wise gather: out[m] = a[m, cols[m]] for a 2-D input."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"pick expects a 2-D input, got shape {a.data.shape}")
    cols = np.asarray(cols, dtype=np.intp)
    rows = np.arange(a.data.shape[0])
    out = Tensor(a.data[rows, cols])
    if tape is None:
        return out

    def bw(g):
        return (_Owned(_scatter(a.data.shape, (rows, cols), g)),)

    return tape.record(out, (a,), bw)


def segment_sum(tape, a, segments, num_segments):
    """Sum a 1-D tensor into `num_segments` buckets given per-entry segment ids."""
    a = _as_tensor(a)
    segments = np.asarray(segments, dtype=np.intp)
    out = Tensor(np.bincount(segments, weights=a.data, minlength=num_segments))
    if tape is None:
        return out

    def bw(g):
        return (g[segments],)

    return tape.record(out, (a,), bw)


def sum(tape, a):
    a = _as_tensor(a)
    out = Tensor(a.data.sum())
    if tape is None:
        return out

    def bw(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return tape.record(out, (a,), bw)


def mean(tape, a):
    a = _as_tensor(a)
    n = a.data.size
    out = Tensor(a.data.mean())
    if tape is None:
        return out

    def bw(g):
        return (np.broadcast_to(g / n, a.data.shape).copy(),)

    return tape.record(out, (a,), bw)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def glorot_uniform(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Mlp:
    """Fully connected network, leaky-ReLU hidden activations, linear output.

    Follows the model protocol of this module: a taped forward() is one
    record over params() whose backward is the reverse pass of vjp().

    Parameters
    ----------
    dims : sequence of int
        Layer widths including input and output, e.g. (32, 64, 64, 3).
    rng : numpy.random.Generator
        Source for the uniform +-sqrt(6/(fan_in+fan_out)) weight init.
        Biases start at zero.
    """

    slope = 0.01  # negative-side slope of the hidden activation

    def __init__(self, dims, rng):
        if len(dims) < 2:
            raise ShapeError("Mlp needs at least input and output dims")
        self.dims = tuple(int(d) for d in dims)
        self.widest = max(self.dims[1:])  # entries per row of the widest layer output
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            self.weights.append(Tensor(glorot_uniform(rng, fan_in, fan_out), requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    def params(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def forward(self, tape, x):
        """Network output as a Tensor: one tape record over params(), or
        eager, keeping no activations, when tape is None."""
        if tape is None:
            return Tensor(self._layers(x))
        out, inputs, pre = self.forward_cached(x)
        return tape.record(Tensor(out), self.params(),
                           lambda g: self._param_grads(inputs, pre, g))

    def forward_numpy(self, x):
        return self.forward(None, x).data

    def forward_cached(self, x):
        """Forward pass keeping per-layer inputs and pre-activations.

        Returns (output, layer_inputs, pre_activations); consumed by jvp
        and vjp.
        """
        inputs, pre = [], []
        return self._layers(x, inputs, pre), inputs, pre

    def _layers(self, x, inputs=None, pre=None):
        # Activations are kept only when lists are passed in, so a plain
        # forward frees each layer's output once the next one exists and
        # applies bias and activation in place.  For 0 < slope < 1,
        # max(h, slope * h) is where(h > 0, h, slope * h) bit for bit,
        # signed zeros and NaN included.  Diverged weights overflow here
        # without a warning: the samplers raise NumericFault on the
        # non-finite probabilities that follow.
        h = _as_tensor(x).data
        last = len(self.weights) - 1
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (w, b) in enumerate(zip(self.weights, self.biases)):
                if inputs is not None:
                    inputs.append(h)
                h = h @ w.data
                h += b.data
                if i < last:
                    if pre is not None:
                        pre.append(h)
                    h = np.maximum(h, self.slope * h, out=None if pre is not None else h)
        return h

    def jvp(self, inputs, pre, v):
        """Output tangents (M x out) along the flat parameter direction `v`.

        One forward-mode pass through the activations kept by
        forward_cached(); `v` follows flatten() order over params().
        """
        t = None
        offset = 0
        last = len(self.weights) - 1
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            n_w = w.data.size
            dw = v[offset:offset + n_w].reshape(w.data.shape)
            db = v[offset + n_w:offset + n_w + b.data.size]
            offset += n_w + b.data.size
            dz = inputs[layer] @ dw + db
            if t is not None:
                dz += t @ w.data
            t = np.where(pre[layer] > 0, dz, self.slope * dz) if layer < last else dz
        return t

    def vjp(self, inputs, pre, g_out):
        """Flat gradient of sum(g_out * output) over params(), flatten() order;
        `g_out` is the (M x out) gradient at the network output."""
        return np.concatenate([g.ravel() for g in self._param_grads(inputs, pre, g_out)])

    def _param_grads(self, inputs, pre, g_out):
        """Gradients of sum(g_out * output), one per params() entry: one
        reverse pass through the activations kept by forward_cached()."""
        delta = np.asarray(g_out, dtype=np.float64)
        grads = []
        for layer in range(len(self.weights) - 1, -1, -1):
            grads += (delta.sum(axis=0), inputs[layer].T @ delta)
            if layer > 0:
                delta = delta @ self.weights[layer].data.T
                delta = np.where(pre[layer - 1] > 0, delta, self.slope * delta)
        return grads[::-1]


class SlotIndex:
    """The `size` True entries of a boolean (rows x cols) mask, numbered in
    row-major order: `cells[r, c]` is the number of entry (r, c), or `size`
    off the mask, and `starts[r]` row r's first; both are built on first
    use."""

    def __init__(self, mask):
        self.mask = np.asarray(mask, dtype=bool)
        self.size = int(np.count_nonzero(self.mask))

    @cached_property
    def cells(self):
        cells = np.full(self.mask.shape, self.size)
        cells[self.mask] = np.arange(self.size)
        return cells

    @cached_property
    def starts(self):
        counts = np.count_nonzero(self.mask, axis=1)
        return np.cumsum(counts) - counts


class Tabular:
    """A table of logits or values indexed by enumerated row.

    Used for exact-gradient work on small state spaces: row r holds the
    parameters attached to state r.  The parameter is one flat vector over
    the entries `index` (a SlotIndex, such as a policy's valid slots)
    admits, or over every entry.  Follows the model protocol of this module
    with the row indices as input: a taped forward() is one gather record
    whose backward is the np.bincount of vjp().  Rows come back dense
    (M x n_cols); an entry off the mask reads another entry, which
    log_softmax_masked ignores, and gets no gradient.
    """

    def __init__(self, n_rows, n_cols, index=None):
        shape = (int(n_rows), int(n_cols))
        self.index = SlotIndex(np.ones(shape, dtype=bool)) if index is None else index
        if self.index.mask.shape != shape:
            raise ShapeError(f"index shape {self.index.mask.shape} != table shape {shape}")
        self.table = Tensor(np.zeros(self.index.size), requires_grad=True)

    @property
    def n_cols(self):
        return self.index.mask.shape[1]

    @property
    def widest(self):
        """Entries per row of the output, as Mlp.widest."""
        return self.n_cols

    def params(self):
        return [self.table]

    def forward(self, tape, idx):
        """Rows `idx` of the table (repeats allowed); untaped when tape is None."""
        out, cells = self.forward_cached(idx)
        out = Tensor(out)
        if tape is None:
            return out
        return tape.record(out, [self.table], lambda g: (_Owned(self.vjp(cells, g)),))

    def forward_cached(self, idx):
        """(rows, cells): rows `idx` and the parameter entry each of their
        entries reads (mode="clip": the last, off the mask), all that jvp
        and vjp need."""
        cells = self.index.cells[np.asarray(idx, dtype=np.intp)]
        return self.table.data.take(cells, mode="clip"), cells

    def jvp(self, cells, v):
        """Output tangents (M x n_cols) along the flat parameter direction `v`."""
        return v.take(cells, mode="clip")

    def vjp(self, cells, g_out):
        """Flat gradient of sum(g_out * forward(idx)), summed in row order as
        np.add.at would; entries off the mask fall into a dropped last bin."""
        return np.bincount(cells.ravel(), np.ravel(g_out), minlength=self.index.size + 1)[:-1]

    def log_softmax(self):
        """log_softmax_masked of the whole table, as a dense table, computed
        over the packed entries by a segment max and sum per row, so its
        temporaries are parameter-sized.  A row sums in another order than
        log_softmax_masked's, so the last bits can differ.  A row with no
        admitted entry raises MaskError."""
        x = self.table.data
        starts = self.index.starts
        counts = np.diff(starts, append=x.size)
        if not counts.all():
            raise MaskError("log_softmax: a row masks out every entry")
        m = np.maximum.reduceat(x, starts)
        z = x - np.repeat(m, counts)
        np.exp(z, out=z)
        m += np.log(np.add.reduceat(z, starts))
        np.subtract(x, np.repeat(m, counts), out=z)
        out = np.full(self.index.mask.shape, NEG_INF)
        out[self.index.mask] = z
        return out


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------

def flatten(params):
    """Concatenate parameter tensors into one flat float64 vector."""
    if not params:
        return np.zeros(0)
    return np.concatenate([p.data.ravel() for p in params])


def assign_flat(params, vec):
    """Write a flat vector back into parameter tensors, in flatten() order."""
    vec = np.asarray(vec, dtype=np.float64)
    offset = 0
    for p in params:
        n = p.data.size
        if offset + n > vec.size:
            raise ShapeError("assign_flat: vector shorter than parameter count")
        p.data[...] = vec[offset:offset + n].reshape(p.data.shape)
        offset += n
    if offset != vec.size:
        raise ShapeError(f"assign_flat: vector has {vec.size} entries, params need {offset}")


def flat_grad(params):
    """Flat gradient vector in flatten() order; missing grads read as zero."""
    parts = []
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        parts.append(g.ravel())
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def zero_grads(params):
    for p in params:
        p.grad = None


class Adam:
    """Adam optimizer with bias correction (Kingma & Ba, arXiv 1412.6980).

    Each parameter keeps flat m and v vectors in flatten() order.  Before
    any state changes, every gradient is checked: a NaN or infinity raises
    NumericFault, so a diverged loss stops a run instead of silently
    corrupting parameters.  A missing gradient reads as zero.

    The update walks `block` entries at a time, through block-sized scratch
    vectors and in the same operation order as the textbook expressions, so
    no step allocates a parameter-sized array and a block's operands stay
    in cache.  Adam is elementwise, so the result does not depend on the
    block size.  Parameters must be C-contiguous, as every model here makes
    them.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    block = BLOCK

    def __init__(self, params, lr):
        self.params = list(params)
        if not all(p.data.flags.c_contiguous for p in self.params):
            raise ContractError("Adam needs C-contiguous parameters")
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros(p.data.size) for p in self.params]
        self.v = [np.zeros_like(m) for m in self.m]
        self._scratch = None  # sized on the first step, so setup stays cheap

    def step(self):
        """Update every parameter from its .grad; a missing grad reads as zero."""
        if self._scratch is None:
            size = max((min(p.data.size, self.block) for p in self.params), default=0)
            self._scratch = tuple(np.empty(size) for _ in range(2))
        a, b = self._scratch
        for p in self.params:  # the finiteness check, a block at a time
            g = np.empty(0) if p.grad is None else p.grad.reshape(-1)
            for lo in range(0, g.size, self.block):
                part = g[lo:lo + self.block]
                if not np.isfinite(part, out=a.view(bool)[:part.size]).all():
                    raise NumericFault("non-finite gradient in Adam step")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            flat = p.data.reshape(-1)  # a view: parameters are C-contiguous
            g = None if p.grad is None else p.grad.reshape(-1)
            for lo in range(0, m.size, self.block):
                n = min(self.block, m.size - lo)
                g_blk = 0.0 if g is None else g[lo:lo + n]
                flat[lo:lo + n] -= self._step(g_blk, m[lo:lo + n], v[lo:lo + n], a[:n], b[:n],
                                              bc1, bc2)

    def _step(self, g, m, v, a, b, bc1, bc2):
        """Update one block of m and v in place and return the parameter
        step, held in scratch a; b is scratch too."""
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=a)
        # v = beta2 * v + (1 - beta2) * g * g
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=a)
        a *= g
        v += a
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        return a
