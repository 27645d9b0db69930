"""Dense tensor arithmetic with reverse-mode differentiation.

A ``Tensor`` wraps a row-major numpy array (f32 or f64). Differentiable
operations record onto the active ``Tape`` (define-by-run, rebuilt every
forward pass); ``backward`` replays the tape in reverse and accumulates
gradients onto every ``Parameter`` that was touched. A ``Parameter`` is a
tensor, so modules hand their weights straight to ops. Tensors are values,
except parameters, which Adam updates in place between passes; a tape and
its parameters follow a single-writer contract. A parameter's values and
gradient are views of its slice of a ``ParameterBuffer``: a model keeps all
of its parameters in one, so gradient zeroing and Adam run as a few array
ops over contiguous runs of parameters.
"""

import contextlib
import copy
import functools
import math

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, UsageError

DEFAULT_DTYPE = np.float32
_SUPPORTED_DTYPES = (np.float32, np.float64)
LN_EPS = 1e-5  # added to the layer-norm variance
INIT_STD = 0.02  # std of the truncated-normal weight draws
FD_STEP = 1e-5  # central-difference step of finite_difference
# elements per pass of the chunked weight draws, GELU forward and Adam
# update: 512 KB of float64, so a chunk and its temporaries stay in L2
_CHUNK = 1 << 16

# Enabled by the test suite and by `swinvos gradcheck`; verifies that every
# op keeps finite inputs finite. Off by default to keep big reads cheap.
_FINITE_CHECKS = False


def set_finite_checks(enabled):
    """Toggle per-op NaN/Inf detection. Returns the previous setting."""
    global _FINITE_CHECKS
    previous = _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)
    return previous


def _checked(data):
    if _FINITE_CHECKS and not np.all(np.isfinite(data)):
        raise NumericError("operation produced a non-finite value")
    return data


class Tensor:
    """Dense array value; the universal carrier of the package.

    A tensor is never written after it is made, except a ``Parameter``,
    whose array Adam updates in place between passes.
    """

    __slots__ = ("data", "watched")

    def __init__(self, data, dtype=None):
        if dtype is None and not (isinstance(data, (np.ndarray, np.generic))
                                  and data.dtype in _SUPPORTED_DTYPES):
            dtype = DEFAULT_DTYPE
        self.data = np.asarray(data, dtype)
        self.watched = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(value):
    if isinstance(value, Tensor):
        return value
    # keep python scalars exact; binary ops narrow them to the partner dtype
    return Tensor(value, dtype=np.float64 if isinstance(value, (int, float)) else None)


class Parameter(Tensor):
    """A trainable tensor: a view of its slice of a ``ParameterBuffer``.

    Always watched: every op on it under a tape is recorded, and the tape
    counts it as touched. ``data`` views the buffer's values, which
    ``adam_step`` updates in place. ``grad`` is None until the parameter
    first gets a gradient, then a view of the buffer's gradients; assigning
    it writes into that slice. Made inside a ``flat_parameters`` block, the
    parameter joins the block's buffer when the block closes; otherwise it
    is the one slice of a buffer of its own.
    """

    __slots__ = ("_grad", "step_count", "name", "buffer", "index", "start")

    def __init__(self, data, fill=None):
        """``fill(out)``, when given, writes the initial values into the
        parameter's slice, and ``data`` gives only the shape and dtype."""
        super().__init__(data)
        self.watched = True
        self._grad = None
        self.step_count = 0
        self.name = ""
        if fill is None:
            fill = functools.partial(np.copyto, src=self.data)
        if _OPEN_BLOCKS:
            _OPEN_BLOCKS[-1].add(self, fill)
        else:
            buffer = ParameterBuffer()
            buffer.add(self, fill)
            buffer.build()

    @property
    def grad(self):
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = self.slot("grads")
        self._grad[...] = value

    def slot(self, name):
        """The parameter's slice of the buffer's array ``name`` (``values``,
        ``grads``, ``adam_m`` or ``adam_v``), in the parameter's shape."""
        return self.buffer.array(name)[self.start:self.start + self.data.size].reshape(self.shape)

    def _repoint(self):
        self.data = self.slot("values")
        if self._grad is not None:
            self._grad = self.slot("grads")

    def __deepcopy__(self, memo):
        """The same slice of a copy of the buffer, so the copied parameters
        share one buffer as the originals do."""
        new = copy.copy(self)
        new.buffer = copy.deepcopy(self.buffer, memo)
        new._repoint()
        return new


_ALIGN = 16  # elements from one slice start to the next: 64 bytes of float32
_OPEN_BLOCKS = []  # the buffer of each open flat_parameters block, innermost last
_ZERO = np.zeros(1, DEFAULT_DTYPE)  # with zero strides, an array of any shape in no memory


def _aligned_zeros(n, dtype):
    """``n`` zeros of ``dtype`` from a 64-byte boundary; the pages stay
    unmapped until written, so an unwritten buffer costs no memory."""
    raw = np.zeros(n + _ALIGN, dtype)
    skip = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[skip:skip + n]


class ParameterBuffer:
    """The values of ``count`` parameters in one contiguous array, with
    parallel arrays for their gradients and two Adam moments (``grads``,
    ``adam_m``, ``adam_v``), each zero-filled when first used: a model built
    for inference never pays for them.

    A parameter occupies ``[start, start + size)`` of each array, and its
    ``index`` is its place in the layout. Every start is a multiple of 16
    elements (64 bytes of float32), and the gaps between slices stay zero:
    Adam moves a zero-gradient element by zero, so an update may span them.
    The buffer holds no reference to its parameters, so a model and its
    buffer are freed as soon as the model is dropped.
    """

    def __init__(self):
        self.count = self.size = 0
        self._pending = []
        self.values = self.grads = self.adam_m = self.adam_v = None

    def add(self, param, fill):
        """Give ``param`` the next slice; ``fill(out)`` sets it in ``build``."""
        param.buffer, param.index, param.start = self, self.count, self.size
        self.count += 1
        self.size += -(-param.data.size // _ALIGN) * _ALIGN
        self._pending.append((param, fill))

    def build(self):
        """Allocate the values, run each fill on its slice in the order of
        ``add``, and make every parameter a view of its slice."""
        self.values = _aligned_zeros(self.size, np.result_type(*(p.dtype for p, _ in self._pending)))
        for p, fill in self._pending:
            p._repoint()
            fill(p.data)
        self._pending = None

    def array(self, name):
        """The flat array ``name``, made of zeros on first use."""
        arr = getattr(self, name)
        if arr is None:
            arr = _aligned_zeros(self.size, self.values.dtype)
            setattr(self, name, arr)
        return arr

    def astype(self, dtype):
        """Replace every array by a ``dtype`` copy; the parameters must then
        re-point their views."""
        for name in ("values", "grads", "adam_m", "adam_v"):
            arr = getattr(self, name)
            if arr is not None:
                out = _aligned_zeros(arr.size, dtype)
                out[...] = arr
                setattr(self, name, out)

    def __deepcopy__(self, memo):
        new = copy.copy(self)
        new.astype(self.values.dtype)
        return new


@contextlib.contextmanager
def flat_parameters():
    """Gather the parameters made inside the block into one
    ``ParameterBuffer``, which the block yields. The buffer is built when
    the block closes: slices in creation order, filled in the same order,
    so weight draws keep their order and land straight in the buffer."""
    buffer = ParameterBuffer()
    _OPEN_BLOCKS.append(buffer)
    try:
        yield buffer
    finally:
        _OPEN_BLOCKS.pop()
    buffer.build()


class _Node:
    __slots__ = ("out_ref", "inputs", "backward_fn", "grad")

    def __init__(self, out_ref, inputs, backward_fn):
        self.out_ref = out_ref
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.grad = None


_TAPE_STACK = []


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Append-only record of one forward pass; reversal order is valid for backprop."""

    def __init__(self):
        self.nodes = []
        self.parameters = []
        self._param_ids = set()
        self._node_by_out = {}

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def _record(self, out, inputs, backward_fn):
        for t in inputs:
            if isinstance(t, Parameter) and id(t) not in self._param_ids:
                self._param_ids.add(id(t))
                self.parameters.append(t)
        node = _Node(out, inputs, backward_fn)
        self.nodes.append(node)
        self._node_by_out[id(out)] = node
        return node


def recording(inputs):
    """True when an op on ``inputs`` will be recorded: a tape is active and
    an input is watched. A fused op can then skip keeping what only its
    backward reads."""
    return _active_tape() is not None and any(t.watched for t in inputs)


def record_op(out_data, inputs, backward_fn):
    """Wrap ``out_data`` and record the op if any input is watched.

    ``backward_fn`` maps the output gradient to one gradient (or None) per
    input. Fused ops outside this module record themselves through it.
    """
    out = Tensor(_checked(out_data))
    if recording(inputs):
        out.watched = True
        _active_tape()._record(out, inputs, backward_fn)
    return out


def backward(loss, tape):
    """Reverse-traverse ``tape`` from scalar ``loss``; populate Parameter grads.

    The gradients of the touched parameters are zero-filled first, one fill
    per run of them that lies side by side in a buffer, so repeated
    backward calls do not leak accumulation across passes. A
    non-parameter node's gradient is summed out of place on its second
    contribution, which allocates a buffer of its own, and in place into that
    buffer from the third on: a first contribution may be an array that
    another node still holds (``add`` hands one array to both inputs).
    """
    if loss.shape != ():
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    for run in _runs(tape.parameters):
        start, stop = _span(run)
        run[0].buffer.array("grads")[start:stop] = 0
        for p in run:
            if p.grad is None:
                p._grad = p.slot("grads")
    seed = tape._node_by_out.get(id(loss))
    if seed is None:
        raise UsageError("loss tensor was not recorded on this tape")
    seed.grad = np.ones((), dtype=loss.dtype)
    owned = set()  # ids of the nodes whose grad is a buffer summed here
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        grads = node.backward_fn(node.grad)
        for t, g in zip(node.inputs, grads):
            if g is None or not t.watched:
                continue
            if isinstance(t, Parameter):
                t._grad += g
            else:
                producer = tape._node_by_out.get(id(t))
                if producer is None:
                    continue
                if producer.grad is None:
                    producer.grad = g
                elif id(producer) in owned:
                    producer.grad += g
                else:
                    producer.grad = producer.grad + g
                    owned.add(id(producer))
        node.grad = None


# ---------------------------------------------------------------------------
# helpers

def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary_operands(a, b):
    a = as_tensor(a)
    b = as_tensor(b)
    if a.dtype != b.dtype:
        # Promote plain python/int constants silently; mixing f32/f64 tensors
        # is almost always a bug, so only widen zero-ndim constants.
        if a.ndim == 0 and not a.watched:
            a = Tensor(a.data.astype(b.dtype))
        elif b.ndim == 0 and not b.watched:
            b = Tensor(b.data.astype(a.dtype))
        else:
            raise DimensionError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    return a, b


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b):
    a, b = _binary_operands(a, b)
    out = a.data + b.data

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.watched else None,
                _unbroadcast(g, b.shape) if b.watched else None)

    return record_op(out, (a, b), bwd)


def sub(a, b):
    a, b = _binary_operands(a, b)
    out = a.data - b.data

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.watched else None,
                _unbroadcast(-g, b.shape) if b.watched else None)

    return record_op(out, (a, b), bwd)


def mul(a, b):
    a, b = _binary_operands(a, b)
    out = a.data * b.data

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape) if a.watched else None,
                _unbroadcast(g * a.data, b.shape) if b.watched else None)

    return record_op(out, (a, b), bwd)


def div(a, b):
    a, b = _binary_operands(a, b)
    out = a.data / b.data

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.watched else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.watched else None
        return ga, gb

    return record_op(out, (a, b), bwd)


def maximum(a, b):
    """Elementwise max; at ties the gradient routes to the first operand."""
    a, b = _binary_operands(a, b)
    out = np.maximum(a.data, b.data)

    def bwd(g):
        first = a.data >= b.data
        ga = _unbroadcast(g * first, a.shape) if a.watched else None
        gb = _unbroadcast(g * ~first, b.shape) if b.watched else None
        return ga, gb

    return record_op(out, (a, b), bwd)


def log(a):
    return record_op(np.log(a.data), (a,), lambda g: (g / a.data,))


def clamp(a, lo, hi):
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)
    return record_op(out, (a,), lambda g: (g * inside,))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a):
    """Tanh-approximation GELU, applied elementwise.

    The forward runs over a flat view in ``_CHUNK``-sized pieces, with one
    temporary for the tanh argument; the operations and their order are
    those of the formula. The tanh argument is kept at full size only when
    the op is recorded, because the backward reads it.
    """
    x = a.data
    keep = recording((a,))
    out = np.empty(x.shape, x.dtype)
    t = np.empty(x.shape if keep else min(x.size, _CHUNK), x.dtype)
    xf, of, tf = x.reshape(-1), out.reshape(-1), t.reshape(-1)
    for start in range(0, x.size, _CHUNK):
        xc = xf[start:start + _CHUNK]
        oc = of[start:start + _CHUNK]
        tc = tf[start:start + xc.size] if keep else tf[:xc.size]
        np.multiply(xc, xc, out=tc)
        tc *= xc
        tc *= 0.044715
        tc += xc
        tc *= _GELU_C
        np.tanh(tc, out=tc)
        np.multiply(xc, 0.5, out=oc)
        oc *= 1.0 + tc

    def bwd(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        return (g * d,)

    return record_op(out, (a,), bwd)


# ---------------------------------------------------------------------------
# structural ops

def reshape(a, shape):
    out = a.data.reshape(shape)
    return record_op(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes):
    out = a.data.transpose(axes)
    return record_op(out, (a,), lambda g: (g.transpose(tuple(np.argsort(axes))),))


def concat(tensors, axis):
    """Join along ``axis``; a single tensor passes through uncopied and unrecorded."""
    if len(tensors) == 1:
        return tensors[0]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        pieces = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.watched:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, stop)
                pieces.append(np.ascontiguousarray(g[tuple(idx)]))
            else:
                pieces.append(None)
        return pieces

    return record_op(out, tuple(tensors), bwd)


def getitem(a, key):
    """Basic indexing or an index-array tuple of distinct positions; gradient fills zeros."""
    out = a.data[key]

    def bwd(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[key] = g
        return (full,)

    return record_op(np.ascontiguousarray(out), (a,), bwd)


def pad(a, widths):
    """Zero-pad; ``widths`` is a (before, after) pair per axis."""
    out = np.pad(a.data, widths)
    slices = tuple(slice(b, b + n) for (b, _), n in zip(widths, a.shape))
    return record_op(out, (a,), lambda g: (np.ascontiguousarray(g[slices]),))


def _gather_rows(src, rows, fill=0):
    out = src[rows]
    out[rows < 0] = fill
    return out


def gather_rows(a, rows, inverse, shape, fill=None):
    """One-to-one row gather: output row i is row ``rows[i]`` of ``a``.

    Rows are the [..., C] vectors of ``a`` in row-major order. A -1 in
    ``rows`` takes ``fill`` (a [C] tensor; zero when None). ``inverse``
    maps each row of ``a`` to its output row (-1 if it has none), so the
    backward is the inverse gather, with no scatter-add; ``fill`` receives
    the sum of the gradients of its rows. Returns the rows as ``shape``.
    """
    c = a.shape[-1]
    out = _gather_rows(a.data.reshape(-1, c), rows, 0 if fill is None else fill.data)

    def bwd(g):
        g2 = g.reshape(-1, c)
        ga = _gather_rows(g2, inverse).reshape(a.shape)
        if fill is None:
            return (ga,)
        return ga, g2[rows < 0].sum(axis=0)

    inputs = (a,) if fill is None else (a, fill)
    return record_op(out.reshape(shape), inputs, bwd)


def unstack(a):
    """Split ``a`` along axis 0 into views that keep its memory layout, one
    tape node each; the gradient of piece i fills row i of zeros."""

    def piece(i):
        def bwd(g):
            full = np.zeros(a.shape, dtype=g.dtype)
            full[i] = g
            return (full,)
        return record_op(a.data[i], (a,), bwd)

    return [piece(i) for i in range(a.shape[0])]


def take(a, indices):
    """Gather rows (axis 0) with an integer index array of any shape.

    The gradient scatter-adds back to the gathered rows; rows never
    selected receive zero gradient (straight-through on the gather).
    """
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= a.shape[0]):
        raise DimensionError(f"take indices out of range for {a.shape[0]} rows")
    out = np.take(a.data, indices, axis=0)

    def bwd(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        np.add.at(full, indices, g)
        return (full,)

    return record_op(out, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions

def tsum(a, axis=None):
    """Sum over every axis, or over ``axis``, which is kept with extent 1."""
    out = a.data.sum(axis=axis, keepdims=axis is not None)

    def bwd(g):
        return (np.broadcast_to(g, a.shape).astype(g.dtype, copy=True),)

    return record_op(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra

def array_matmul(a, b):
    """``np.matmul(a, b)`` on arrays of rank >= 2, with the same bytes.

    A product with inner extent 1 is the broadcast product ``a * b``
    instead: BLAS runs a K=1 GEMM at several times the cost per output of
    K=2. The ``+= 0.0`` turns -0 into +0, as the GEMM's sum from +0 does.
    """
    if a.shape[-1] != 1:
        return np.matmul(a, b)
    out = a * b
    out += 0.0
    return out


def matmul(a, b, bias=None):
    """Batched matrix product; leading extents must match or broadcast from 1.

    A 2-D right operand with a left operand of rank 3 or more (a ``Linear``
    on a token grid) is folded: the left operand's leading axes become rows
    of one ``[rows, K] @ [K, N]`` GEMM, whose result is reshaped back. numpy
    would otherwise run one small GEMM per leading index. The backward folds
    the same way, so the weight gradient is one GEMM as well. The forward
    product is ``array_matmul``, so a unit inner extent (a one-channel key
    map) is a broadcast product.

    ``bias`` (a tensor over the last output axis, optional) is added in
    place into the product, so an affine map is one op and one tape node.
    """
    a, b = _binary_operands(a, b)
    if bias is not None and bias.dtype != a.dtype:
        raise DimensionError(f"dtype mismatch: {a.dtype} vs bias {bias.dtype}")
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    folded = b.ndim == 2 and a.ndim > 2
    if folded:
        k, n = b.shape
        rows = math.prod(a.shape[:-1])
        out = array_matmul(a.data.reshape(rows, k), b.data).reshape(a.shape[:-1] + (n,))
    else:
        try:
            out = array_matmul(a.data, b.data)
        except ValueError as err:
            raise DimensionError(
                f"matmul batch extents differ: {a.shape} @ {b.shape}") from err
    if bias is not None:
        out += bias.data

    def bwd(g):
        ga = gb = gbias = None
        if folded:
            g2 = g.reshape(rows, n)
            if a.watched:
                ga = np.matmul(g2, b.data.T).reshape(a.shape)
            if b.watched:
                gb = np.matmul(a.data.reshape(rows, k).T, g2)
        else:
            if a.watched:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
            if b.watched:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        if bias is None:
            return ga, gb
        if bias.watched:
            gbias = _unbroadcast(g, bias.shape)
        return ga, gb, gbias

    inputs = (a, b) if bias is None else (a, b, bias)
    return record_op(out, inputs, bwd)


def softmax(a, axis):
    """Exp-normalize along ``axis`` with max subtraction for stability."""
    if a.shape[axis] == 0:
        raise DimensionError(f"softmax along empty axis {axis} of shape {a.shape}")
    out = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return record_op(out, (a,), bwd)


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    dim = x.shape[-1]
    if gamma.shape != (dim,) or beta.shape != (dim,):
        raise DimensionError(
            f"layer_norm affine extents {gamma.shape}/{beta.shape} do not match last axis {dim}")
    # np.mean and np.var's bytes, with x - mu computed once
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= dim
    d = x.data - mu
    var = np.add.reduce(d * d, axis=-1, keepdims=True)
    var /= dim
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = d
    xhat *= inv
    out = xhat * gamma.data + beta.data

    def bwd(g):
        gx = ggamma = gbeta = None
        reduce_axes = tuple(range(g.ndim - 1))
        if gamma.watched:
            ggamma = (g * xhat).sum(axis=reduce_axes)
        if beta.watched:
            gbeta = g.sum(axis=reduce_axes)
        if x.watched:
            gy = g * gamma.data
            gx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                        - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
        return gx, ggamma, gbeta

    return record_op(out, (x, gamma, beta), bwd)


def _columns(x):
    """[C, H, W] -> [9*C, H*(W+2)] columns of the zero-padded input, rows in
    (c, dy, dx) order: tap (dy, dx) is the window at offset dy*(W+2)+dx of
    one flat padded buffer per channel, so column y*(W+2)+x is pixel (y, x)
    and the last 2 columns of each row, which wrap across the padding, are junk."""
    c, h, w = x.shape
    buf = np.zeros((c, (h + 2) * (w + 2) + 2), dtype=x.dtype)
    buf[:, :-2].reshape(c, h + 2, w + 2)[:, 1:-1, 1:-1] = x
    s0, s1 = buf.strides
    taps = np.lib.stride_tricks.as_strided(buf, (c, 3, 3, h * (w + 2)), (s0, (w + 2) * s1, s1, s1))
    return taps.reshape(c * 9, h * (w + 2))


def conv2d(x, w, b):
    """3x3 cross-correlation, stride 1, zero padding 1 (the decoder shape).

    x: [C_in, H, W]; w: [C_out, C_in, 3, 3]; b: [C_out]. One GEMM,
    ``[C_out, 9*C_in] @ [9*C_in, H*(W+2)]`` on ``_columns``, with the bias
    added in place; the junk columns are cropped. The backward rebuilds the
    columns: ``gw = g @ col^T`` with ``g`` zero-extended to W+2 columns, and
    ``gx`` is the forward GEMM on ``g`` with the kernel flipped, channels swapped.
    """
    if x.ndim != 3 or w.ndim != 4 or w.shape[2:] != (3, 3):
        raise DimensionError(f"conv2d expects [C,H,W] x and [Co,Ci,3,3] kernel, got {x.shape}, {w.shape}")
    cin, h, wd = x.shape
    cout = w.shape[0]
    if w.shape[1] != cin:
        raise DimensionError(f"conv2d channel mismatch: input {cin} vs kernel {w.shape[1]}")
    out = (w.data.reshape(cout, cin * 9) @ _columns(x.data)).reshape(cout, h, wd + 2)
    out += b.data[:, None, None]

    def bwd(g):
        gx = gw = gb = None
        if b.watched:
            gb = g.reshape(cout, -1).sum(axis=1)
        if w.watched:
            gext = np.concatenate([g, np.zeros((cout, h, 2), dtype=g.dtype)], axis=2)
            gw = (gext.reshape(cout, -1) @ _columns(x.data).T).reshape(w.shape)
        if x.watched:
            flipped = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * 9)
            gx = np.ascontiguousarray((flipped @ _columns(g)).reshape(cin, h, wd + 2)[:, :, :wd])
        return gx, gw, gb

    return record_op(np.ascontiguousarray(out[:, :, :wd]), (x, w, b), bwd)


@functools.lru_cache(maxsize=16)
def _interp_matrix(n_src, n_dst, dtype):
    """Dense 1-D bilinear interpolation matrix, align-corners=false; cached, read-only."""
    m = np.zeros((n_dst, n_src), dtype)
    scale = n_src / n_dst
    for i in range(n_dst):
        src = (i + 0.5) * scale - 0.5
        lo = math.floor(src)
        frac = src - lo
        lo_c = min(max(lo, 0), n_src - 1)
        hi_c = min(max(lo + 1, 0), n_src - 1)
        m[i, lo_c] += 1.0 - frac
        m[i, hi_c] += frac
    m.flags.writeable = False
    return m


def bilinear_upsample(x, target):
    """Bilinear resize of [C, H, W] to [C, H', W'], align-corners=false."""
    if x.ndim != 3:
        raise DimensionError(f"bilinear_upsample expects [C,H,W], got {x.shape}")
    th, tw = target
    if th <= 0 or tw <= 0:
        raise DimensionError(f"bilinear_upsample target must be positive, got {target}")
    _, h, w = x.shape
    if th < h or tw < w:
        raise DimensionError(f"bilinear_upsample cannot shrink {x.shape[1:]} to {target}")
    mr = _interp_matrix(h, th, x.dtype.type)  # [H', H]
    mc = _interp_matrix(w, tw, x.dtype.type)  # [W', W]
    # rows first: [C,H,W] -> [C,H',W], then columns: -> [C,H',W']
    y = matmul(Tensor(mr), x)
    y = matmul(y, Tensor(mc.T))
    return y


# ---------------------------------------------------------------------------
# optimizer

def _runs(params):
    """``params`` grouped into runs: parameters of consecutive indices in one
    buffer that share a step count, each run in index order."""
    by_buffer = {}
    for p in params:
        by_buffer.setdefault(id(p.buffer), []).append(p)
    runs = []
    for group in by_buffer.values():
        group.sort(key=lambda p: p.index)
        runs.append(group[:1])
        for prev, p in zip(group, group[1:]):
            if p.index == prev.index + 1 and p.step_count == prev.step_count:
                runs[-1].append(p)
            else:
                runs.append([p])
    return runs


def _span(run):
    """(start, stop) of a run in its buffer's arrays."""
    return run[0].start, run[-1].start + run[-1].data.size


def adam_step(params, lr):
    """Bias-corrected Adam update over ``params`` (gradients must be populated).

    Each run of parameters that lie side by side in a buffer and share a
    step count is updated as slices of the value, gradient and moment
    arrays, ``_CHUNK`` elements at a time so that a chunk's arrays stay in
    cache, by in-place array ops in the order of the per-parameter formula.
    The arithmetic is elementwise, so the bytes are those of updating each
    parameter alone. Parameters outside ``params`` keep their moments and
    step counts.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if not 0 < lr < math.inf:
        raise ConfigError(f"learning rate must be finite and positive, got {lr}")
    for p in params:
        if p.grad is None:
            raise UsageError(f"parameter {p.name or '<unnamed>'} has no gradient")
    for run in _runs(params):
        buffer = run[0].buffer
        start, stop = _span(run)
        t = run[0].step_count + 1
        for p in run:
            p.step_count = t
        arrays = (buffer.values, buffer.grads, buffer.array("adam_m"), buffer.array("adam_v"))
        scratch = np.empty((2, min(_CHUNK, stop - start)), buffer.values.dtype)
        for lo in range(start, stop, _CHUNK):
            x, g, m, v = (a[lo:min(lo + _CHUNK, stop)] for a in arrays)
            tmp, step = scratch[:, :x.size]
            m *= beta1
            m += np.multiply(g, 1 - beta1, out=tmp)
            v *= beta2
            np.multiply(g, g, out=tmp)
            tmp *= 1 - beta2
            v += tmp
            np.divide(v, 1 - beta2 ** t, out=tmp)  # vhat
            np.sqrt(tmp, out=tmp)
            tmp += eps
            np.divide(m, 1 - beta1 ** t, out=step)  # mhat
            step *= lr
            step /= tmp
            x -= step


# ---------------------------------------------------------------------------
# initialization and module plumbing

def trunc_normal(rng, out):
    """Fill ``out`` (float32, C-contiguous) with zero-mean normal draws
    truncated to +-2 std, resampling rejected draws; returns ``out``.

    Values are drawn in float64, ``_CHUNK`` at a time, checked and cast
    into ``out`` while in cache; then only the rejected positions are
    redrawn, in ascending index order, until none is left. The draws,
    their order and the generator state afterwards are those of one
    ``rng.normal`` over the whole shape followed by boolean-mask redraw
    rounds, so the bytes are too.
    """
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, _CHUNK))
    bound = 2 * INIT_STD
    rejected = [np.empty(0, np.intp)]
    for start in range(0, flat.size, _CHUNK):
        z = buf[:flat.size - start]
        rng.standard_normal(out=z)
        z *= INIT_STD
        z += 0.0  # loc + scale * z, as rng.normal forms it (-0.0 becomes 0.0)
        flat[start:start + z.size] = z
        rejected.append(start + np.flatnonzero(np.abs(z) > bound))
    idx = np.concatenate(rejected)
    while idx.size:
        redraw = rng.normal(0.0, INIT_STD, size=idx.size)
        flat[idx] = redraw
        idx = idx[np.abs(redraw) > bound]
    return out


def init_weight(rng, shape):
    """A weight parameter of ``shape``, drawn by ``trunc_normal`` straight
    into its slice; with ``rng`` None it stays zero, for a caller that sets
    every value (a checkpoint load) and so need not pay for the draws."""
    placeholder = np.ndarray(shape, DEFAULT_DTYPE, _ZERO, strides=(0,) * len(shape))
    if rng is None:
        return Parameter(placeholder, lambda out: None)
    return Parameter(placeholder, lambda out: trunc_normal(rng, out))


class Module:
    """Minimal parameter container; children discovered by attribute scan."""

    def named_parameters(self, prefix=""):
        out = []
        for key, val in vars(self).items():
            name = f"{prefix}{key}" if prefix else key
            out.extend(_collect(name, val))
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def astype(self, dtype):
        """Cast the buffers of the parameters to ``dtype`` in place (float64
        for gradchecks); returns self. The parameters stay views of their
        buffers, so a module casts only whole buffers: a model, not a part."""
        params = self.parameters()
        buffers = {id(p.buffer): p.buffer for p in params}.values()
        if sum(b.count for b in buffers) != len(params):
            raise UsageError("astype casts whole parameter buffers: cast the model, not a part")
        for buffer in buffers:
            buffer.astype(dtype)
        for p in params:
            p._repoint()
        return self


def _collect(name, val):
    if isinstance(val, Parameter):
        return [(name, val)]
    if isinstance(val, Module):
        return val.named_parameters(prefix=name + ".")
    if isinstance(val, (list, tuple)):
        out = []
        for i, item in enumerate(val):
            out.extend(_collect(f"{name}.{i}", item))
        return out
    return []


class Linear(Module):
    """Affine map on the last axis: y = x W + b.

    One ``matmul`` op: the bias is added in place into the GEMM output.
    """

    def __init__(self, in_dim, out_dim, rng, bias=True):
        self.weight = init_weight(rng, (in_dim, out_dim))
        self.bias = Parameter(np.zeros(out_dim, dtype=DEFAULT_DTYPE)) if bias else None

    def __call__(self, x):
        return matmul(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim):
        self.gamma = Parameter(np.ones(dim, dtype=DEFAULT_DTYPE))
        self.beta = Parameter(np.zeros(dim, dtype=DEFAULT_DTYPE))

    def __call__(self, x):
        return layer_norm(x, self.gamma, self.beta)


class Conv3x3(Module):
    def __init__(self, in_ch, out_ch, rng):
        self.weight = init_weight(rng, (out_ch, in_ch, 3, 3))
        self.bias = Parameter(np.zeros(out_ch, dtype=DEFAULT_DTYPE))

    def __call__(self, x):
        return conv2d(x, self.weight, self.bias)


# ---------------------------------------------------------------------------
# finite-difference checking

def finite_difference(fn, arrays):
    """Central-difference gradients of scalar ``fn(*arrays)`` w.r.t. each array."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = fn(*arrays)
            flat[i] = orig - FD_STEP
            lo = fn(*arrays)
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * FD_STEP)
        grads.append(g)
    return grads


def gradcheck(fn, arrays):
    """Compare taped gradients of ``fn`` against central differences (f64).

    ``fn`` maps Tensors to a scalar Tensor. Returns the worst relative
    error, for the caller to hold against its tolerance; inf when an error
    is not finite (a NaN gradient would otherwise lose every comparison).
    Relative error is |analytic - numeric| / max(1, |numeric|) per element.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    params = [Parameter(a) for a in arrays]
    with Tape() as tape:
        loss = fn(*params)
    backward(loss, tape)
    analytic = [p.grad for p in params]

    def scalar_fn(*arrs):
        value = fn(*[Tensor(a) for a in arrs])
        return float(value.data)

    numeric = finite_difference(scalar_fn, [p.data for p in params])
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.abs(n))
        rel = np.abs(a - n) / denom
        if not np.isfinite(rel).all():
            return math.inf
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
    return worst
