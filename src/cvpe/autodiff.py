"""Reverse-mode automatic differentiation over float64 numpy arrays.

A small tape-based engine: every operation records its inputs and a backward
closure, and ``Tensor.backward()`` walks the graph in reverse topological
order accumulating gradients. All arithmetic is performed in 64-bit floats so
that central finite differences can be used as a correctness oracle for every
op (see ``train.grad_check``).

Only the operations the forecasting stack actually needs are implemented:
elementwise ``add``/``sub``/``mul``/``power``, batched ``matmul`` with
broadcasting leading dimensions, the reductions ``tsum``/``tmean``, the shape
moves ``reshape``/``swapaxes``, ``gelu`` and a numerically stable ``softmax``.

Three fused ops each record a single tape node with a closed-form backward,
so the model's hot layers keep one saved output and one gradient per call
instead of one per elementary step:

* ``affine(x, w, b)``: ``x @ w + b``; the weight gradient is one GEMM over
  the flattened rows and the bias gradient a row sum.
* ``layer_norm(x, gain, bias, eps)``: normalisation over the last axis; the
  node saves only the normalised input and ``1/sqrt(var + eps)``.
* ``attention(q, k, v, heads)``: head split, scaled scores, max-shifted
  softmax, the weighted sum of values and the head merge; the backward reuses
  the saved probabilities.

Attention stores its scores in a ``(n_k, ..., heads, n_q)`` buffer, key axis
first, because the model's key axes are short (4 routers, 5 patches, 8 to 32
variates, 16 prototypes): a numpy max, sum or dot over a last axis that
short runs a slow inner loop per row, while the same reduction over an outer
axis is a few passes of elementwise work over contiguous rows (numpy 2.4 on
a 2-vCPU x86-64 machine: the max of a (64, 32, 4, 5, 5) score array over its
last axis took 3.3 ms, over an outer axis 0.08 ms). The batched matmul
writes the scores through ``out=`` into a transposed view of that buffer, so
the softmax and its backward reduce over axis 0, and every product is
written into a head-split view of a fresh ``(..., n, d)`` array, which
merges the heads without a copy. When keys and values are 2-D, as the shared
prototype bank of the reprogramming layer, the query rows are flattened
first: the batched products become one GEMM per head over all R rows, and
the key and value gradients are GEMMs over those rows, with no per-row
gradient to reduce.

``gelu`` is computed in the logistic form ``x / (1 + exp(-2u))`` with
``u = sqrt(2/pi) * (x + 0.044715 x^3)``, equal to the tanh form
``0.5 x (1 + tanh(u))`` but without its cancellation on the negative tail.
Cubes and squares are written as products (``x * x * x``): numpy sends a float
power such as ``x**3`` down a general ``pow`` path that is about fifty times
slower on the model's activations, while the products differ from it by at
most one unit in the last place. The forward runs its eight elementwise
passes block by block (512 KiB each), so a block stays in cache from the
first pass to the last: on a (64, 5, 32, 64) activation that took 15 to 20%
off a call, with the same bits.

Importing this module pins two of glibc's malloc thresholds for the whole
process: ``M_MMAP_THRESHOLD`` at glibc's maximum (32 MiB on 64-bit) and
``M_TRIM_THRESHOLD`` at 1 GiB. Left at their defaults, every block above
128 KiB, which is most activations, gradients and temporaries of a step, is
mapped with ``mmap`` and unmapped on ``free``, and glibc raises that
threshold only after the process once frees a large mapped block. Whether a
process ever does depends on what it happened to allocate before: a fresh
training process at ``synthetic_ab`` shapes (batch 32, 8 variates) took
1,000 to 3,000 minor page faults and 26 to 30 ms per step, against 0 faults
and 18 to 24 ms once the thresholds were pinned. Both are needed: with the
mmap threshold alone ``free`` still trims the top of the heap back to the
kernel, and the trim threshold alone freezes the mmap threshold at 128 KiB;
either faulted more per step than the defaults (1,500 and 4,900 against
960 in one such process). They are set at import, before the model
allocates anything, so every process that loads the model (the CLI, the
benchmark, and the ``--jobs`` workers, which inherit the settings or import
the package themselves) allocates the same way. Allocation addresses never enter a computation, so results are
unchanged. On other platforms, or a libc without ``mallopt``, nothing is set.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import sys
from typing import Sequence

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "parameter",
    "no_grad",
    "add",
    "sub",
    "mul",
    "matmul",
    "power",
    "gelu",
    "softmax",
    "tsum",
    "tmean",
    "reshape",
    "swapaxes",
    "affine",
    "layer_norm",
    "attention",
    "NumericError",
]

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds() -> None:
    """Keep freed activation blocks in the heap (see the module docstring)."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc's largest mmap threshold is 4 MiB per byte of a long; the trim
    # threshold is set only once that succeeded, since either alone faults
    # more than the defaults
    if mallopt(_M_MMAP_THRESHOLD, 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)):
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_pin_malloc_thresholds()

_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "cvpe_grad_enabled", default=True
)


class NumericError(ArithmeticError):
    """A non-finite value appeared; ``stage`` names where."""

    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        msg = f"non-finite value in stage '{stage}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (used for evaluation)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __array__(self, dtype=None):
        return self.data if dtype is None else self.data.astype(dtype)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def swapaxes(self, a: int, b: int):
        return swapaxes(self, a, b)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    # -- backprop ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is None:
                continue
            if node.grad is None:
                continue
            node._backward(node.grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS; graphs can be thousands of nodes deep.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def as_tensor(x) -> Tensor:
    """Wrap ``x`` as a constant Tensor (no-op when already a Tensor)."""
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name: str) -> Tensor:
    """A named learnable leaf."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # The first gradient is copied, never stored as is: ``g`` may be a
    # read-only broadcast view, or the same array handed to another input
    # (``add``), and later gradients are added into ``t.grad`` in place.
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    tracked = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=tracked)
    if tracked:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise arithmetic --------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a scalar exponent."""
    a = as_tensor(a)
    exponent = float(exponent)
    out_data = a.data**exponent

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * exponent * a.data ** (exponent - 1.0))

    return _make(out_data, (a,), backward)


# -- matmul ------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Batched matrix product; leading dimensions broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul operands need ndim >= 2, got {a.ndim} and {b.ndim}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if b.ndim == 2:
                # Every leading axis of ``a`` is a batch axis summed into the
                # weight: one GEMM over the flattened rows, instead of a
                # batch of outer products reduced afterwards.
                k, n = b.data.shape
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
            _accumulate(b, gb)

    return _make(out_data, (a, b), backward)


# -- nonlinearities ----------------------------------------------------------


_GELU_C = np.sqrt(2.0 / np.pi)
# elements per block of the forward: 512 KiB, which stays in a core's cache
# through the eight passes (see ``gelu``)
_GELU_BLOCK = 1 << 16


def gelu(a) -> Tensor:
    """Smooth GELU, ``x * sigmoid(2u)`` in the logistic form (see the module
    docstring)."""
    a = as_tensor(a)
    x = a.data
    # den = 1 + exp(-2u); it overflows to inf below x of about -21, where the
    # quotient is -0.0 and the true value underflows anyway
    den = np.empty(x.shape)
    # without a tape no backward reads den, so the quotient overwrites it:
    # one activation-sized buffer fewer at the widest layer of an inference
    taped = _GRAD_ENABLED.get() and a.requires_grad
    out_data = np.empty(x.shape) if taped else den
    # the eight passes run block by block over the flattened array, so each
    # block stays in cache between them; the arithmetic is elementwise, so
    # the bits are those of eight whole-array passes
    xf, df, of = x.reshape(-1), den.reshape(-1), out_data.reshape(-1)
    for lo in range(0, xf.size, _GELU_BLOCK):
        xb, db = xf[lo : lo + _GELU_BLOCK], df[lo : lo + _GELU_BLOCK]
        np.multiply(xb, xb, out=db)
        db *= xb
        db *= 0.044715
        db += xb
        db *= -2.0 * _GELU_C
        with np.errstate(over="ignore"):
            np.exp(db, out=db)
        db += 1.0
        np.divide(xb, db, out=of[lo : lo + _GELU_BLOCK])

    def backward(g):
        if a.requires_grad:
            # d/dx x*s(2u) = s * (1 + 2 x u' (1 - s)) for s = 1/den; 1 - s
            # loses digits only where s is near 1, where its term is small
            s = 1.0 / den
            da = x * x
            da *= 3 * 0.044715
            da += 1.0
            da *= 2.0 * _GELU_C
            da *= x
            da *= 1.0 - s
            da += 1.0
            da *= s
            da *= g
            _accumulate(a, da)

    return _make(out_data, (a,), backward)


def softmax(a) -> Tensor:
    """Row softmax over the last axis, computed with max-shift stabilisation."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            _accumulate(a, (g - dot) * out_data)

    return _make(out_data, (a,), backward)


# -- reductions ---------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _expand_reduced(g, a.data.shape, axis, keepdims))

    return _make(np.asarray(out_data), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.size // np.asarray(out_data).size

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _expand_reduced(g, a.data.shape, axis, keepdims) / count)

    return _make(np.asarray(out_data), (a,), backward)


# -- shape moves ---------------------------------------------------------------


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = as_tensor(a)
    out_data = np.swapaxes(a.data, axis1, axis2)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.swapaxes(g, axis1, axis2))

    return _make(out_data, (a,), backward)


# -- fused nodes -----------------------------------------------------------------


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` as one node: ``w`` is (k, n), ``b`` is (n,), ``x`` is
    (..., k); every leading axis of ``x`` is a batch axis."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2 or b.shape != w.shape[-1:] or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"affine needs (..., k) @ (k, n) + (n,), got {x.shape}, {w.shape}, {b.shape}")
    out_data = x.data @ w.data
    out_data += b.data

    def backward(g):
        k, n = w.data.shape
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        rows = g.reshape(-1, n)
        if w.requires_grad:
            _accumulate(w, x.data.reshape(-1, k).T @ rows)
        if b.requires_grad:
            _accumulate(b, rows.sum(axis=0))

    return _make(out_data, (x, w, b), backward)


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then scale by
    ``gain`` and shift by ``bias`` (both of the last axis' length)."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    var += eps
    rstd = 1.0 / np.sqrt(var)
    xhat *= rstd
    out_data = xhat * gain.data
    out_data += bias.data

    def backward(g):
        d = xhat.shape[-1]
        rows = g.reshape(-1, d)
        if gain.requires_grad:
            _accumulate(gain, np.einsum("ij,ij->j", rows, xhat.reshape(-1, d)))
        if bias.requires_grad:
            _accumulate(bias, rows.sum(axis=0))
        if x.requires_grad:
            # rstd * (gx - mean(gx) - xhat * mean(gx * xhat)), gx = g * gain
            gx = g * gain.data
            dot = np.einsum("...i,...i->...", gx, xhat)[..., None]
            dot /= d
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= xhat * dot
            gx *= rstd
            _accumulate(x, gx)

    return _make(out_data, (x, gain, bias), backward)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, d) -> (..., heads, n, d // heads) view, contiguous feature slices.

    On a fresh contiguous buffer the view is writable, so a product written
    into it with ``out=`` lands with its heads already merged.
    """
    *lead, n, d = a.shape
    return np.swapaxes(a.reshape(*lead, n, heads, d // heads), -3, -2)


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over the last two axes.

    ``q`` is (..., n_q, d), ``k`` and ``v`` are (..., n_k, d); heads are
    contiguous slices of the feature axis and leading axes broadcast.  The
    output is (..., n_q, d) with the heads merged back; no projections.
    Scores are stored with the key axis first, and 2-D keys and values see
    every query row at once (see the module docstring).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if min(q.ndim, k.ndim, v.ndim) < 2:
        raise ValueError(f"attention operands need ndim >= 2, got {q.ndim}, {k.ndim}, {v.ndim}")
    d = q.shape[-1]
    if k.shape[-1] != d or v.shape[-1] != d or k.shape[-2] != v.shape[-2] or d % heads:
        raise ValueError(f"attention cannot split {q.shape}, {k.shape}, {v.shape} into {heads} heads")
    if k.ndim == 2 and v.ndim == 2:
        # keys and values shared by every query row: the rows are flattened,
        # so each head's products are one GEMM
        qd, lead, out_shape = q.data.reshape(-1, d), (), q.shape
    else:
        qd, lead = q.data, np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
        out_shape = (*lead, *q.shape[-2:])
    n_q, n_k = qd.shape[-2], k.shape[-2]
    scale = 1.0 / np.sqrt(d // heads)
    qh, kh, vh = (_split_heads(a, heads) for a in (qd, k.data, v.data))
    # the (n_k, *lead, heads, n_q) score buffer: the softmax reduces over its
    # outer axis, and the products read and write it through this view
    probs = np.empty((n_k, *lead, heads, n_q))
    rows = np.moveaxis(probs, 0, -1)
    np.matmul(qh, np.swapaxes(kh, -1, -2), out=rows)
    probs *= scale
    probs -= probs.max(axis=0)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0)
    out_data = np.empty((*lead, n_q, d))
    np.matmul(rows, vh, out=_split_heads(out_data, heads))

    def backward(g):
        gh = _split_heads(g.reshape(*lead, n_q, d), heads)
        if v.requires_grad:
            gv = np.empty((*lead, n_k, d))
            np.matmul(np.swapaxes(rows, -1, -2), gh, out=_split_heads(gv, heads))
            _accumulate(v, _unbroadcast(gv, v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        # softmax backward in place: gs <- p * (gs - sum_j gs * p)
        gs = np.empty_like(probs)
        gs_rows = np.moveaxis(gs, 0, -1)
        np.matmul(gh, np.swapaxes(vh, -1, -2), out=gs_rows)
        gs -= np.einsum("j...,j...->...", gs, probs)
        gs *= probs
        if q.requires_grad:
            gq = np.empty((*lead, n_q, d))
            np.matmul(gs_rows, kh, out=_split_heads(gq, heads))
            gq = _unbroadcast(gq.reshape(out_shape), q.shape)
            gq *= scale
            _accumulate(q, gq)
        if k.requires_grad:
            gk = np.empty((*lead, n_k, d))
            np.matmul(np.swapaxes(gs_rows, -1, -2), qh, out=_split_heads(gk, heads))
            gk = _unbroadcast(gk, k.shape)
            gk *= scale
            _accumulate(k, gk)

    return _make(out_data.reshape(out_shape), (q, k, v), backward)


def check_finite(t: Tensor | np.ndarray, stage: str) -> None:
    """Raise :class:`NumericError` naming ``stage`` if ``t`` has NaN/Inf."""
    data = t.data if isinstance(t, Tensor) else np.asarray(t)
    if not np.isfinite(data).all():
        raise NumericError(stage)
