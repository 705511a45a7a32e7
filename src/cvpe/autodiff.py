"""Reverse-mode automatic differentiation over float64 numpy arrays.

A small tape-based engine: every operation records its inputs and a backward
closure, and ``Tensor.backward()`` walks the graph in reverse topological
order accumulating gradients, consuming the graph as it goes (below). All
arithmetic is performed in 64-bit floats so that central finite differences
can be used as a correctness oracle for every op (see ``train.grad_check``).

Only the operations the program calls are implemented. The model uses the
elementwise ``add`` and ``mul``, ``matmul`` against a 2-D weight, the
whole-array mean ``tmean`` (the loss), the shape moves ``reshape``/``swapaxes``
and the fused nodes below. The whole-array sum ``tsum``, ``gelu``, ``softmax``
and ``power`` stay because the benchmark in ``perfbench/`` times or checks
them; the model calls none of them (``mlp`` runs the GELU itself, and
``attention`` has its own softmax).

Four fused ops each record a single tape node with a closed-form backward,
so the model's hot layers keep one saved output and one gradient per call
instead of one per elementary step:

* ``affine(x, w, b)``: ``x @ w + b``.
* ``mlp(x, w1, b1, w2, b2)``: the feed-forward ``gelu(x @ w1 + b1) @ w2 +
  b2``, run in cache-sized row blocks (below).
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

numpy's batched ``matmul`` wants its second operand C-contiguous: handed a
transposed view, it runs each of its thousands of tiny products far slower.
The score product takes the head-split keys as ``(..., heads, hd, n_k)`` and
the score gradient takes the values the same way, so where keys and values
are batched the forward copies the keys, and the backward the values, once
into a C-contiguous array of that shape first. The copies are locals, not
saved on the tape. On a 2-vCPU x86-64 machine (numpy 2.4, OpenBLAS 0.3.31),
the backbone's score product at a wide evaluation (batch 64, 32 variates:
8,192 products of (5, 4) @ (4, 5)) took 1.5 ms on the view against 0.47 ms
on the copy plus 0.22 ms to copy. The products' bits are the same. The
2-D shared keys keep the view: there each head is one GEMM, which BLAS
reads transposed at no cost, and the copy measured slower (1.0 against
0.54 ms). The other products (probabilities by values, and the query, key
and value gradients) measured no faster with copied operands.

The softmax makes one pass fewer over the scores than a textbook one. The
``1/sqrt(hd)`` scale multiplies the smaller of ``q`` and ``k`` before the
score product (the router table in the collect hop, the collected routers
in the dispatch hop, the prototype keys in reprogramming), and the gradient
of the other operand takes it in the backward; at the model's head size 4
the scale is 1/2, a power of two, so the scores keep their bits. The sums
are inverted once per row and the probabilities multiplied by the
reciprocal instead of divided, which changes last bits: the forecasts of
the wide evaluation differ from those of a division by at most 3.2e-16 of
the largest, well inside the README's relative 1e-10.

Without a tape, attention runs in row blocks (below). The backward needs
the whole probabilities, but an untaped call needs each score only until
the weighted sum, so it runs the forward kernel ``_attend`` over blocks of
the output's first axis, and each block writes its slice of one output
array, as ``mlp`` does with its hidden activation. Against 2-D shared keys
a block is a run of query rows; otherwise it is a slice of the first
broadcast axis, and an operand that broadcasts on that axis (the collect
hop's ``(P, c, d)`` router table) enters every block whole. The taped call
runs the same kernel once over the whole input. At
``configs/etth1_smoke.json``'s model with a 512-step context and 64
windows (62 patches), the backbone's whole score buffer is 55 MB and the
reprogramming layer's 28 MB; with the blocks the ``tracemalloc`` peak of a
no-grad forecast was 37.5 MB, against 92.5 MB for whole score buffers. At
the wide evaluation no batched score buffer reaches 1 MiB and
only the prototype attention runs in blocks, three of about 1,700 rows per
half batch.

Every dense layer is a BLAS GEMM over a 2-D ``(rows, features)`` matrix.
``affine`` and ``matmul`` flatten every leading axis of the input into rows
once (which copies a non-contiguous view, such as the router block's swapped
axes): the forward is a GEMM, the input and weight gradients are a GEMM
each over those rows, and the bias gradient is ``ones @ rows``, a GEMV.
Given a 4-D input, numpy instead runs one small GEMM per leading index (numpy
2.4 and OpenBLAS 0.3.31 on a 2-vCPU x86-64 machine, at training shapes: 42 us
for a (32, 8, 5, 16) input against 21.5 us for its (1280, 16) rows, and 46 us
for their column sum against 10 us for the GEMV).
``layer_norm`` reduces over a last axis of only 16 features, which numpy does
row by row, so it runs through BLAS as well: ``rows @ (I - 1/d)`` centres
every row in a GEMM (the centring matrix is cached per ``d``), the variance
is an ``einsum`` row dot, the gain and bias gradients are GEMVs, and the input
gradient is centred by a GEMM whose matrix has the gain folded into its
rows. On the same machine at (32, 8, 5, 16) the forward took 147 us and
the backward 170 us, against 271 and 307 us with numpy's reductions, and
outputs and gradients agree with the reductions to about 1e-14. Without a
tape no backward reads the normalised rows, so the gain and bias are
applied in place over them, which keeps 2.4 MB out of the no-grad cvpe
forecast's 25.0 MB ``tracemalloc`` peak at an ETT-like context of 512
(above).

Row blocks. Four loops cut an array's rows into blocks: ``_gemm``,
``mlp``, untaped ``attention`` and, over windows, the no-grad forecaster's
split into two threads (``train.model_forecast_fn``). One function,
``_row_blocks(n, most, tile)``, decides where the three in this module cut:
it returns the fewest blocks that cover ``n`` rows with at most ``most``
rows each, ``most`` first rounded down to whole tiles and at least one
tile, and block ``i`` of ``count`` starts at row ``tile * (i * tiles //
count)``. So every block starts on a tile, and no two blocks differ by more
than one tile: none is a short remainder. The tile is ``ROW_TILE``, 8 rows,
except for untaped attention's batched blocks, which cut a broadcast axis
one index at a time. There are two budgets, each measured for its own
reason:

* ``_SMALL_GEMM``, an M*N*K of 1e6, for ``_gemm`` (the dense forward and
  input gradient and both centring products of ``layer_norm``) and for
  ``mlp``, whose blocks keep both of their GEMMs within it. OpenBLAS
  0.3.31 on x86-64 hands a GEMM up to that size to its small-matrix kernel,
  and a larger one to its general kernel, which at the model's narrow
  shapes runs at half the speed: on the same machine (960, 16) @ (16, 64)
  took 41 us and (1024, 16) @ (16, 64) 62 us, and (5120, 16) @ (16, 16) ran
  at 25.5 GFLOP/s against 52.5 at 2,048 rows (45-55 GFLOP/s below the
  limit, 25-34 above it). Half of the benchmark's wide evaluation batch is
  5,120 rows, so unblocked, every product of the model would cross the
  limit there. The
  weight gradients contract over the rows and stay whole. An ``mlp`` block
  at width 16 and hidden 64 is at most 976 rows, whose hidden-size slice
  (488 KiB) stays in a core's cache through the GELU passes.
* ``_ATTENTION_BLOCK``, 1 MiB of scores, for untaped ``attention``: it
  bounds the no-grad forward's working memory (above).

The bits: a BLAS GEMM tiles its rows from the first, and a row's last bit
can depend on the tile it falls in, so a block that starts on a tile keeps
every row in the tile it had in the whole product. A row block of a GEMM
with 8 or more output columns then gives the whole product's bits at any
length above one row (a 1-row block is a GEMV): a probe found 0 of 150
lengths that differed at k and n of 16, 32 and 64. Short blocks are a
hazard of their own: on one AVX-512 machine, shared-key score blocks of up
to about 190 rows against 32 prototypes ran in another OpenBLAS kernel than
the whole product, and an even split gives no block much under half its
budget, which is 1,024 rows there. Below 8 output columns the argument
fails: at 4, 135 to 150 of 150 lengths differed, because OpenBLAS rounds
such a GEMM differently on either side of ``_SMALL_GEMM``. No bundled
config or benchmark workload has a product that narrow above the limit
(the only horizon below 8 is ``configs/gradcheck_tiny.json``'s 4, whose
products stay far below it); such a head can differ from the whole GEMM in
the last bit, within the README's relative 1e-10. The forecaster's first
part is a whole number of ``ROW_TILE`` windows for the same reason:
splitting at ``len // 2`` changes the last bit of ETTh1-shaped forecasts
(7 channels x 31 patches a window) at most sizes. With these blocks the
forecasts of the benchmark's wide evaluation and of ETT-like shapes (7
channels, contexts 96 to 512, batches of 1 to 80 windows, whole or split
over two threads) keep the bits of whole products.

``gelu`` is computed in the logistic form ``x / (1 + exp(-2u))`` with
``u = sqrt(2/pi) * (x + 0.044715 x^3)``, equal to the tanh form
``0.5 x (1 + tanh(u))`` but without its cancellation on the negative tail.
Cubes and squares are written as products (``x * x * x``): numpy sends a float
power such as ``x**3`` down a general ``pow`` path that is about fifty times
slower on the model's activations, while the products differ from it by at
most one unit in the last place. ``mlp`` runs the GELU's eight forward
passes and its backward's ten over one row block at a time (below);
``gelu`` runs the same forward and derivative once over the whole array,
and since the arithmetic is elementwise the bits are the same.

The feed-forward is the model's widest layer: its hidden size is four times
the block's width, so at the benchmark's wide no-grad evaluation (batch 64,
32 variates) the hidden activation is a (10240, 64) array of 5.2 MB, and a
chain ``affine -> gelu -> affine`` would hold two of them at once. ``mlp``
walks the input in row blocks (at most 976 rows at width 16 and hidden 64):
per block it runs the first GEMM into a block buffer, adds the bias, runs
the GELU passes and writes the second GEMM into that block's rows of the
output; the second bias is added once at the end. Without a tape two block
buffers of the longest block's rows serve every block and no hidden-size
array is allocated: the ``tracemalloc`` peak of the cvpe block's no-grad
forward at those shapes was 8.3 MB, against 14.6 MB through the chain. With
a tape the pre-activation, the GELU's ``den`` and the activation are written
into full arrays for the backward, which computes the second layer's
gradients as whole GEMMs, then per block ``g @ w2.T`` and the GELU
derivative applied to it in place, and then the first layer's gradients, the
input gradient in ``_gemm``'s blocks. At the model's shapes (hidden 32 and
64) the blocked GEMMs give the bits of whole ones, so the node equals the
chain bit for bit; at hidden sizes of 512 and more OpenBLAS may round a
block of rows differently from the whole matrix in the last digits.

``_accumulate`` copies a first gradient, because the array may be the
upstream gradient itself, or a view of it, that another input receives as
well (``add`` hands one array to both inputs; ``reshape`` and ``swapaxes``
pass views), and later gradients are added into it in place.
The fused nodes' input gradients are fresh arrays that nothing else holds,
so ``_hand_over`` gives an intermediate tensor (one with a backward) its
first such gradient as is; leaf and parameter gradients still go through
``_accumulate``. A cvpe training step at ``synthetic_ab`` shapes (batch 32)
hands 17 first gradients (2.3 MB) over without a copy.

A walk consumes its graph. Each node drops its backward closure, and with it
the arrays the closure saved (a dense layer's input rows, the MLP's
pre-activation, ``den`` and activation, attention's probabilities, layer
norm's ``xhat``), and its parents as soon as it has propagated, and the walk
pops each node off its order as it goes, so a node nothing else holds is
freed at once. Every ``.grad`` stays readable on the tensors a caller still
holds, and a caller that keeps the loss, as the train loop does until its
next step, keeps a scalar rather than the last step's tape. A second walk
through a consumed node raises ``RuntimeError`` before any gradient moves.
The arithmetic is that of a walk that keeps its graph. For a cvpe training
step at ``synthetic_ab`` shapes (batch 32) the forward's tape holds 9.5 MB
(``tracemalloc``), about 5 MB of it saved by closures (``mlp`` 3.0,
``attention`` 1.2, ``layer_norm`` 0.7, dense input rows 0.4). While the
loss is held after the walk, 0.07 MB stays allocated (the leaf gradients
and cached vectors of ones), and the walk's own peak is 11.1 MB above the
pre-forward level.

Importing this module pins two of glibc's malloc thresholds for the whole
process: ``M_MMAP_THRESHOLD`` at glibc's maximum (32 MiB on 64-bit) and
``M_TRIM_THRESHOLD`` at 1 GiB. Left at their defaults, every block above 128
KiB, which is most activations, gradients and temporaries of a step, is
mapped with ``mmap`` and unmapped on ``free``, and glibc raises that
threshold only after the process once frees a large mapped block. Whether a
process ever does depends on what it happened to allocate before: a fresh
training process at ``synthetic_ab`` shapes (batch 32, 8 variates) took 0
minor page faults and 18 to 24 ms per step with the thresholds pinned,
against 1,000 to 3,000 faults and 26 to 30 ms at the defaults. Both are
needed: with the mmap threshold alone ``free`` still trims the top of the
heap back to the kernel, and the trim threshold alone freezes the mmap
threshold at 128 KiB; either faulted more per step than the defaults (1,500
and 4,900 against 960 in one such process). They are set at import, before
the model allocates anything, so every process that loads the model (the
CLI, the benchmark, and the ``--jobs`` workers, which inherit the settings
or import the package themselves) allocates the same way. Allocation
addresses never enter a computation, so results are unchanged. On other
platforms, or a libc without ``mallopt``, nothing is set.

Importing this module also runs numpy's OpenBLAS on one thread: it finds the
OpenBLAS mapped into the process and calls its ``set_num_threads`` (the
``scipy_openblas_..64_`` name of numpy 2 wheels, else the plain names). The
flattened GEMMs cross OpenBLAS's threading threshold, and a second thread
touches about 6 MB more packing buffer: the benchmark's wide no-grad
evaluation peaked at 81.8 MB on two threads against 75.5 MB on one, while
training speed on two threads stayed within run-to-run noise of one. The
``--jobs`` workers, forked after the import, inherit the setting, so two
workers do not compete with each other's BLAS threads for the same cores.
When no OpenBLAS or no such symbol is found, nothing is set.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
import sys
from typing import Sequence

import numpy as np

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

# numpy 2 wheels bundle OpenBLAS with a ``scipy_`` prefix and a ``64_``
# suffix; a system OpenBLAS uses one of the plain names
_OPENBLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            # the last field is the mapped file's path, when there is one
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1])


def _pin_blas_threads() -> None:
    """Run numpy's OpenBLAS on one thread (see the module docstring)."""
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = (ctypes.c_int,)
                setter.restype = None
                setter(1)
                break


_pin_blas_threads()

_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "cvpe_grad_enabled", default=True
)


class NumericError(ArithmeticError):
    """A non-finite value appeared; the message names the stage."""


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

    def __mul__(self, other):
        return mul(self, other)

    # -- backprop ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf,
        consuming the graph: each node drops its backward closure and its
        parents once it has propagated (see the module docstring).

        Raises ``RuntimeError``, before any gradient moves, when the graph
        holds a node that an earlier walk consumed."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        order = _topo_order(self)
        if any(node._backward is _CONSUMED for node in order):
            raise RuntimeError("backward() through a graph that an earlier backward() consumed")
        self.grad = np.ones_like(self.data)
        # popped in reverse topological order, so a node's last reference from
        # the walk goes as soon as it and every node that feeds on it are done
        while order:
            node = order.pop()
            step = node._backward
            if step is None:
                continue
            node._backward, node._parents = _CONSUMED, ()
            if node.grad is not None:
                step(node.grad)


# the backward of a node whose walk is done: ``Tensor.backward`` refuses a
# graph that holds one
_CONSUMED = object()


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
    # The first gradient is copied, never stored as is: ``g`` may be the
    # upstream array, or a view of it, that another input receives as well
    # (``add``), and later gradients are added into ``t.grad`` in place.
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _hand_over(t: Tensor, g: np.ndarray) -> None:
    """Accumulate ``g``, a fresh array that the calling node made and keeps no
    reference to: an intermediate's first gradient takes it as is.

    No copy is needed there, because nothing else holds ``g`` and no caller
    outside the tape reads an intermediate's gradient before the walk ends.
    Leaf and parameter gradients still go through ``_accumulate``."""
    if t.grad is None and t._backward is not None:
        t.grad = g
    else:
        _accumulate(t, g)


def _taped(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a tape node: outside ``no_grad``,
    with an input that needs a gradient."""
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    tracked = _taped(parents)
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
    """``a @ b`` for a (..., k) ``a`` and a (k, n) weight ``b``: a dense
    layer, with ``a``'s rows flattened into one GEMM (see ``_dense``)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul needs (..., k) @ (k, n), got {a.shape} and {b.shape}")
    return _dense(a, b, None)


# -- nonlinearities ----------------------------------------------------------


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_block(x: np.ndarray, den: np.ndarray, out: np.ndarray) -> None:
    """GELU of the block ``x`` into ``out``, leaving ``den = 1 + exp(-2u)`` in
    ``den``; ``out`` may be ``den``.

    ``den`` overflows to inf below x of about -21, where the quotient is -0.0
    and the true value underflows anyway."""
    np.multiply(x, x, out=den)
    den *= x
    den *= 0.044715
    den += x
    den *= -2.0 * _GELU_C
    with np.errstate(over="ignore"):
        np.exp(den, out=den)
    den += 1.0
    np.divide(x, den, out=out)


def _gelu_grad_block(
    x: np.ndarray, den: np.ndarray, out: np.ndarray, s: np.ndarray, t: np.ndarray
) -> None:
    """The GELU derivative at the block ``x`` into ``out``, from the forward's
    ``den``; ``s`` and ``t`` are scratch blocks of the same size.

    d/dx x*s(2u) = s * (1 + 2 x u' (1 - s)) for s = 1/den; 1 - s loses digits
    only where s is near 1, where its term is small."""
    np.divide(1.0, den, out=s)
    np.multiply(x, x, out=out)
    out *= 3 * 0.044715
    out += 1.0
    out *= 2.0 * _GELU_C
    out *= x
    np.subtract(1.0, s, out=t)
    out *= t
    out += 1.0
    out *= s


def gelu(a) -> Tensor:
    """Smooth GELU, ``x * sigmoid(2u)`` in the logistic form (see the module
    docstring), in whole-array passes."""
    a = as_tensor(a)
    x = a.data
    den, out_data = np.empty(x.shape), np.empty(x.shape)
    _gelu_block(x, den, out_data)

    def backward(g):
        if a.requires_grad:
            da = np.empty(x.shape)
            _gelu_grad_block(x, den, da, np.empty(x.shape), np.empty(x.shape))
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


def tsum(a) -> Tensor:
    """The sum of every element, as a 0-d tensor."""
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.full(a.shape, g))

    return _make(np.asarray(a.data.sum()), (a,), backward)


def tmean(a) -> Tensor:
    """The mean of every element, as a 0-d tensor."""
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, np.full(a.shape, g) / a.data.size)

    return _make(np.asarray(a.data.mean()), (a,), backward)


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


@functools.lru_cache(maxsize=64)
def _ones(m: int) -> np.ndarray:
    """A read-only vector of ``m`` ones: ``_ones(m) @ rows`` sums the rows as
    one GEMV."""
    ones = np.ones(m)
    ones.flags.writeable = False
    return ones


@functools.lru_cache(maxsize=16)
def _centring(d: int) -> np.ndarray:
    """The read-only ``I - 1/d``: ``rows @ _centring(d)`` subtracts each row's
    mean as one GEMM."""
    centring = np.eye(d) - 1.0 / d
    centring.flags.writeable = False
    return centring


# OpenBLAS runs a GEMM with M*N*K up to this in its small-matrix kernel, which
# at the model's shapes is about twice as fast as the general one (see the
# module docstring)
_SMALL_GEMM = 1_000_000


# rows of a BLAS row tile: every row block starts on a whole number of them
# (see the module docstring)
ROW_TILE = 8


def _row_blocks(n: int, most: int, tile: int = ROW_TILE) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of the fewest blocks that cover ``n`` rows with at
    most ``most`` rows each, ``most`` first rounded down to whole tiles and
    at least one tile.  Every block starts on a tile, and no two differ by
    more than one tile (see the module docstring)."""
    tiles = -(-n // tile)
    count = -(-tiles // max(1, most // tile))
    bounds = [tile * (i * tiles // count) for i in range(count)] + [n]
    return list(zip(bounds, bounds[1:]))


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-D ``a`` and ``b``, in row blocks within
    ``_SMALL_GEMM`` when the whole product would exceed it."""
    (m, k), n = a.shape, b.shape[1]
    if m * k * n <= _SMALL_GEMM:
        return a @ b
    out = np.empty((m, n))
    for lo, hi in _row_blocks(m, _SMALL_GEMM // (k * n)):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


def _dense(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """``x @ w`` (plus ``b``) for a 2-D ``w`` as a GEMM over ``x``'s rows.

    ``x`` is flattened once to (rows, k), which copies a non-contiguous view;
    the backward reuses those rows for the weight gradient, and the input
    gradient is a GEMM on the gradient rows.  The forward and input-gradient
    GEMMs run in row blocks (``_gemm``); the weight gradient contracts over
    the rows and stays whole."""
    k, n = w.shape
    rows = x.data.reshape(-1, k)
    out_data = _gemm(rows, w.data)
    if b is not None:
        out_data += b.data

    def backward(g):
        g_rows = g.reshape(-1, n)
        if x.requires_grad:
            _hand_over(x, _gemm(g_rows, w.data.T).reshape(x.shape))
        if w.requires_grad:
            _accumulate(w, rows.T @ g_rows)
        if b is not None and b.requires_grad:
            _accumulate(b, _ones(len(g_rows)) @ g_rows)

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_data.reshape(*x.shape[:-1], n), parents, backward)


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` as one node: ``w`` is (k, n), ``b`` is (n,), ``x`` is
    (..., k); every leading axis of ``x`` is a batch axis."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2 or b.shape != w.shape[-1:] or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"affine needs (..., k) @ (k, n) + (n,), got {x.shape}, {w.shape}, {b.shape}")
    return _dense(x, w, b)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """The feed-forward ``gelu(x @ w1 + b1) @ w2 + b2`` as one node: ``w1`` is
    (k, hidden), ``w2`` is (hidden, n), ``x`` is (..., k).

    The rows of ``x`` run in row blocks that keep both GEMMs within
    ``_SMALL_GEMM``: each block's first GEMM, bias, GELU passes and second
    GEMM run while its hidden-size slice is still in cache. Without a tape
    two block buffers serve every block, so no hidden-size array is
    allocated; with one, the pre-activation, the GELU's ``den`` and the
    activation are written into full arrays that the backward keeps (see
    the module docstring)."""
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    if (
        w1.ndim != 2 or w2.ndim != 2 or b1.shape != w1.shape[-1:] or b2.shape != w2.shape[-1:]
        or w2.shape[0] != w1.shape[1] or x.ndim < 1 or x.shape[-1] != w1.shape[0]
    ):
        raise ValueError(
            f"mlp needs (..., k) @ (k, h) + (h,) then @ (h, n) + (n,), got "
            f"{x.shape}, {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}"
        )
    parents = (x, w1, b1, w2, b2)
    (k, hidden), n = w1.shape, w2.shape[1]
    rows = x.data.reshape(-1, k)
    m = len(rows)
    blocks = _row_blocks(m, _SMALL_GEMM // (max(k, n) * hidden))
    longest = max((hi - lo for lo, hi in blocks), default=0)
    taped = _taped(parents)
    if taped:
        pre, den, act = np.empty((m, hidden)), np.empty((m, hidden)), np.empty((m, hidden))
    else:
        # no backward reads den, so the activation overwrites it
        pre, den = np.empty((longest, hidden)), np.empty((longest, hidden))
        act = den
    out_data = np.empty((m, n))
    for lo, hi in blocks:
        # a taped block is its slice of the full arrays, an untaped one the
        # head of the block buffers
        at = slice(lo, hi) if taped else slice(0, hi - lo)
        np.matmul(rows[lo:hi], w1.data, out=pre[at])
        pre[at] += b1.data
        _gelu_block(pre[at], den[at], act[at])
        np.matmul(act[at], w2.data, out=out_data[lo:hi])
    out_data += b2.data

    def backward(g):
        g_rows = g.reshape(-1, n)
        ones = _ones(m)
        if b2.requires_grad:
            _accumulate(b2, ones @ g_rows)
        if w2.requires_grad:
            _accumulate(w2, act.T @ g_rows)
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        # per block, the activation gradient's GEMM, then the GELU derivative
        # multiplies it in place
        g_pre = np.empty((m, hidden))
        d, s, t = (np.empty((longest, hidden)) for _ in range(3))
        for lo, hi in blocks:
            at = slice(0, hi - lo)
            np.matmul(g_rows[lo:hi], w2.data.T, out=g_pre[lo:hi])
            _gelu_grad_block(pre[lo:hi], den[lo:hi], d[at], s[at], t[at])
            g_pre[lo:hi] *= d[at]
        if b1.requires_grad:
            _accumulate(b1, ones @ g_pre)
        if w1.requires_grad:
            _accumulate(w1, rows.T @ g_pre)
        if x.requires_grad:
            _hand_over(x, _gemm(g_pre, w1.data.T).reshape(x.shape))

    return _make(out_data.reshape(*x.shape[:-1], n), parents, backward)


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then scale by
    ``gain`` and shift by ``bias`` (both of the last axis' length)."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    centring = _centring(d)
    xhat = _gemm(x.data.reshape(-1, d), centring)
    var = np.einsum("ij,ij->i", xhat, xhat)
    var /= d
    var += eps
    rstd = 1.0 / np.sqrt(var)
    xhat *= rstd[:, None]
    parents = (x, gain, bias)
    if _taped(parents):
        out_data = xhat * gain.data
    else:
        # no backward reads xhat, so the output overwrites it
        out_data = xhat
        out_data *= gain.data
    out_data += bias.data

    def backward(g):
        g_rows = g.reshape(-1, d)
        ones = _ones(len(g_rows))
        if bias.requires_grad:
            _accumulate(bias, ones @ g_rows)
        if not (gain.requires_grad or x.requires_grad):
            return
        g_xhat = g_rows * xhat
        if gain.requires_grad:
            _accumulate(gain, ones @ g_xhat)
        if x.requires_grad:
            # rstd * (gx - mean(gx) - xhat * mean(gx * xhat)) for gx = g * gain:
            # the gain scales the rows of the centring matrix, so gx is never
            # formed, and mean(gx * xhat) is a GEMV against the gain
            dot = g_xhat @ gain.data
            dot *= rstd
            dot /= d
            gx = _gemm(g_rows, gain.data[:, None] * centring)
            gx *= rstd[:, None]
            gx -= xhat * dot[:, None]
            _hand_over(x, gx.reshape(x.shape))

    return _make(out_data.reshape(x.shape), parents, backward)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, d) -> (..., heads, n, d // heads) view, contiguous feature slices.

    On a fresh contiguous buffer the view is writable, so a product written
    into it with ``out=`` lands with its heads already merged.
    """
    *lead, n, d = a.shape
    return np.swapaxes(a.reshape(*lead, n, heads, d // heads), -3, -2)


def _transposed(a: np.ndarray, shared: bool) -> np.ndarray:
    """The head-split (..., heads, n, hd) operand as the right factor
    (..., heads, hd, n) of a batched product: a C-contiguous copy when the
    product is batched, because numpy's batched matmul is slow on a
    transposed view; the view itself when ``shared`` keys make each head one
    GEMM, which takes it as it is (see the module docstring)."""
    at = np.swapaxes(a, -1, -2)
    return at if shared else np.ascontiguousarray(at)


# bytes of one block's score buffer in untaped ``attention``: about 1 MiB,
# which bounds the no-grad forward's working memory (see the module docstring)
_ATTENTION_BLOCK = 1 << 20


def _attend(q, k, v, heads: int, scale: float, scale_q: bool, shared: bool, out: np.ndarray):
    """The attention forward over one block: ``scale`` multiplies ``q`` when
    ``scale_q``, else ``k``; the scores, their max-shifted softmax over the
    keys and the weighted sum of values, written into the head-split ``out``
    (..., heads, n_q, hd).  Returns the (n_k, ..., heads, n_q) probabilities,
    their (..., heads, n_q, n_k) view and the head-split operands the
    backward reads."""
    if scale_q:
        q = q * scale
    else:
        k = k * scale
    qh, kh, vh = (_split_heads(a, heads) for a in (q, k, v))
    # the score buffer: the softmax reduces over its outer axis, and the
    # products read and write it through this view
    probs = np.empty((k.shape[-2], *out.shape[:-1]))
    rows = np.moveaxis(probs, 0, -1)
    np.matmul(qh, _transposed(kh, shared), out=rows)
    probs -= probs.max(axis=0)
    np.exp(probs, out=probs)
    probs *= 1.0 / probs.sum(axis=0)
    np.matmul(rows, vh, out=out)
    return probs, rows, qh, kh, vh


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over the last two axes.

    ``q`` is (..., n_q, d), ``k`` and ``v`` are (..., n_k, d); heads are
    contiguous slices of the feature axis and leading axes broadcast.  The
    output is (..., n_q, d) with the heads merged back; no projections.
    Scores are stored with the key axis first, batched keys and values are
    read through contiguous transposed copies, and 2-D keys and values see
    every query row at once.  Without a tape the forward runs in blocks whose
    score buffer stays within ``_ATTENTION_BLOCK`` bytes (see the module
    docstring).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if min(q.ndim, k.ndim, v.ndim) < 2:
        raise ValueError(f"attention operands need ndim >= 2, got {q.ndim}, {k.ndim}, {v.ndim}")
    d = q.shape[-1]
    if k.shape[-1] != d or v.shape[-1] != d or k.shape[-2] != v.shape[-2] or d % heads:
        raise ValueError(f"attention cannot split {q.shape}, {k.shape}, {v.shape} into {heads} heads")
    shared = k.ndim == 2 and v.ndim == 2
    if shared:
        # keys and values shared by every query row: the rows are flattened,
        # so each head's products are one GEMM
        qd, lead, out_shape = q.data.reshape(-1, d), (), q.shape
    else:
        qd, lead = q.data, np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
        out_shape = (*lead, *q.shape[-2:])
    n_q, n_k = qd.shape[-2], k.shape[-2]
    # the 1/sqrt(hd) scale multiplies the smaller of q and k before the score
    # product, not the scores after it; the gradient of the other operand
    # takes it in the backward
    scale = 1.0 / np.sqrt(d // heads)
    scale_q = qd.size <= k.data.size
    out_data = np.empty((*lead, n_q, d))
    parents = (q, k, v)
    if not _taped(parents):
        # row blocks of the output's first axis: query rows against shared
        # keys, else slices of the first broadcast axis, which an operand
        # that broadcasts on it enters whole
        operands = (qd, k.data, v.data)
        cut = (True, False, False) if shared else [a.ndim == out_data.ndim and len(a) > 1 for a in operands]
        unit = n_k * heads * math.prod(out_data.shape[1:-1]) * 8  # score bytes per index
        for lo, hi in _row_blocks(len(out_data), _ATTENTION_BLOCK // max(1, unit), ROW_TILE if shared else 1):
            qb, kb, vb = (a[lo:hi] if c else a for a, c in zip(operands, cut))
            _attend(qb, kb, vb, heads, scale, scale_q, shared, _split_heads(out_data[lo:hi], heads))
        return Tensor(out_data.reshape(out_shape))
    probs, rows, qh, kh, vh = _attend(
        qd, k.data, v.data, heads, scale, scale_q, shared, _split_heads(out_data, heads)
    )

    def backward(g):
        gh = _split_heads(g.reshape(*lead, n_q, d), heads)
        if v.requires_grad:
            gv = np.empty((*lead, n_k, d))
            np.matmul(np.swapaxes(rows, -1, -2), gh, out=_split_heads(gv, heads))
            _hand_over(v, _unbroadcast(gv, v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        # softmax backward in place: gs <- p * (gs - sum_j gs * p)
        gs = np.empty_like(probs)
        gs_rows = np.moveaxis(gs, 0, -1)
        np.matmul(gh, _transposed(vh, shared), out=gs_rows)
        gs -= np.einsum("j...,j...->...", gs, probs)
        gs *= probs
        if q.requires_grad:
            gq = np.empty((*lead, n_q, d))
            np.matmul(gs_rows, kh, out=_split_heads(gq, heads))
            gq = _unbroadcast(gq.reshape(out_shape), q.shape)
            if scale_q:
                gq *= scale
            _hand_over(q, gq)
        if k.requires_grad:
            gk = np.empty((*lead, n_k, d))
            np.matmul(np.swapaxes(gs_rows, -1, -2), qh, out=_split_heads(gk, heads))
            gk = _unbroadcast(gk, k.shape)
            if not scale_q:
                gk *= scale
            _hand_over(k, gk)

    return _make(out_data.reshape(out_shape), parents, backward)


def check_finite(t: Tensor | np.ndarray, stage: str) -> None:
    """Raise :class:`NumericError` naming ``stage`` if ``t`` has NaN/Inf."""
    data = t.data if isinstance(t, Tensor) else np.asarray(t)
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite value in stage '{stage}'")
