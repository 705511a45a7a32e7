"""Reverse-mode engine checks: values against numpy, gradients against
central finite differences, and the bookkeeping around both."""

import tracemalloc

import numpy as np
import pytest

from cvpe import autodiff
from cvpe.autodiff import (
    NumericError,
    Tensor,
    _unbroadcast,
    add,
    affine,
    as_tensor,
    attention,
    check_finite,
    gelu,
    layer_norm,
    matmul,
    mlp,
    mul,
    no_grad,
    parameter,
    power,
    reshape,
    softmax,
    swapaxes,
    tmean,
    tsum,
)
from oracles import gelu_oracle, layer_norm_oracle, mha_oracle


def fd_grad(fn, x, step=1e-6):
    """Central-difference gradient of scalar fn at x, elementwise."""
    x = np.array(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * step)
    return g


def ad_grad(build, x):
    """Gradient of a scalar tensor expression evaluated at x."""
    t = parameter(np.array(x, dtype=float), "x")
    loss = build(t)
    loss.backward()
    return t.grad.copy()


WEIGHT = np.arange(12, dtype=float).reshape(3, 4) / 7.0
MLP_PARAMS = (
    np.linspace(-1.0, 1.0, 20).reshape(4, 5),
    np.linspace(-0.5, 0.5, 5),
    np.linspace(1.0, -1.0, 15).reshape(5, 3),
    np.linspace(0.2, -0.2, 3),
)

CASES = [
    ("add", lambda t: tsum(add(t, 2.0) * 3.0)),
    ("mul", lambda t: tsum(mul(t, t))),
    ("power", lambda t: tsum(power(add(t * t, 1.0), 1.5))),
    ("gelu", lambda t: tsum(gelu(t))),
    ("mlp", lambda t: tsum(mul(mlp(t, *MLP_PARAMS), as_tensor(WEIGHT[:, :3])))),
    ("softmax", lambda t: tsum(mul(softmax(t), as_tensor(WEIGHT)))),
    ("mean", lambda t: tmean(mul(t, t))),
]


@pytest.mark.parametrize("name,build", CASES, ids=[c[0] for c in CASES])
def test_op_gradients_match_finite_differences(name, build):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    x = rng.normal(0.0, 1.0, (3, 4))
    got = ad_grad(build, x)

    def scalar(v):
        return float(np.asarray(build(as_tensor(v))))

    want = fd_grad(scalar, x)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def test_gelu_without_a_tape_returns_the_same_bits():
    x = parameter(np.linspace(-30.0, 30.0, 2001), "x")
    taped = gelu(x).data
    with no_grad():
        untaped = gelu(x).data
    np.testing.assert_array_equal(untaped, taped)


def _gelu_unblocked(x):
    den = x * x
    den *= x
    den *= 0.044715
    den += x
    den *= -2.0 * np.sqrt(2.0 / np.pi)
    with np.errstate(over="ignore"):
        np.exp(den, out=den)
    den += 1.0
    return x / den


@pytest.mark.parametrize("transposed", [False, True])
def test_gelu_in_blocks_returns_the_unblocked_bits(transposed):
    # two full blocks and a partial one, with and without a tape; the
    # transposed input is not contiguous
    rows = 2 * autodiff._GELU_BLOCK // 16 + 37
    x = np.random.default_rng(7).normal(scale=4.0, size=(rows, 16))
    if transposed:
        x = x.T
    want = _gelu_unblocked(x)
    np.testing.assert_array_equal(gelu(parameter(x, "x")).data, want)
    with no_grad():
        np.testing.assert_array_equal(gelu(as_tensor(x)).data, want)


def _gelu_grad_unblocked(x, g):
    s = 1.0 / (1.0 + np.exp(-2.0 * np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))
    da = x * x
    da *= 3 * 0.044715
    da += 1.0
    da *= 2.0 * np.sqrt(2.0 / np.pi)
    da *= x
    da *= 1.0 - s
    da += 1.0
    da *= s
    da *= g
    return da


@pytest.mark.parametrize("transposed", [False, True])
def test_gelu_backward_in_blocks_returns_the_unblocked_bits(transposed):
    rows = 2 * autodiff._GELU_BLOCK // 16 + 37
    rng = np.random.default_rng(8)
    x0 = rng.normal(scale=4.0, size=(rows, 16))
    g = rng.normal(size=(16, rows) if transposed else (rows, 16))
    if transposed:
        x0 = x0.T
    x = parameter(x0, "x")
    gelu(x)._backward(g)
    with np.errstate(over="ignore"):
        want = _gelu_grad_unblocked(x0, g)
    np.testing.assert_array_equal(x.grad, want)


def test_gelu_matches_the_scalar_oracle():
    # the sweep covers the negative tail, where the result falls through the
    # subnormal range (x near -21.2 to -21.5) and relative precision ends:
    # the absolute tolerance is the smallest normal float
    x = np.linspace(-30.0, 30.0, 2001)
    got = np.asarray(gelu(as_tensor(x.reshape(1, -1)))).reshape(-1)
    want = np.array([gelu_oracle(float(v)) for v in x])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=np.finfo(float).tiny)
    assert gelu_oracle(-7.2) < 0.0 and got[np.argmin(np.abs(x + 7.2))] < 0.0


def test_forward_values_match_numpy():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4))
    s = np.asarray(softmax(as_tensor(x)))
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(3), rtol=1e-13)


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))

    a = parameter(a0.copy(), "a")
    b = parameter(b0.copy(), "b")
    prod = matmul(a, b)
    loss = tsum(mul(prod, prod))
    loss.backward()

    ga = fd_grad(lambda v: ((v @ b0) ** 2).sum(), a0)
    gb = fd_grad(lambda v: ((a0 @ v) ** 2).sum(), b0)
    np.testing.assert_allclose(a.grad, ga, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(b.grad, gb, rtol=1e-6, atol=1e-8)


def test_batched_matmul_accumulates_over_leading_axes():
    rng = np.random.default_rng(8)
    a0 = rng.normal(size=(5, 3, 4))
    b0 = rng.normal(size=(4, 2))
    b = parameter(b0.copy(), "b")
    loss = tsum(matmul(as_tensor(a0), b))
    loss.backward()
    want = fd_grad(lambda v: (a0 @ v).sum(), b0)
    np.testing.assert_allclose(b.grad, want, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize(
    "b_shape", [(2, 4, 3), (2, 2, 4, 3), (6, 3)], ids=["3d", "4d", "2d-mismatched"]
)
def test_matmul_takes_only_a_matching_2d_right_operand(b_shape):
    with pytest.raises(ValueError):
        matmul(np.ones((2, 5, 4)), np.ones(b_shape))


@pytest.mark.parametrize("shape", [(1,), (3, 4), (2, 3, 5)])
def test_reduction_gradients_equal_the_broadcast_upstream_gradient(shape):
    # a whole-array sum hands back the upstream scalar broadcast to the
    # input's shape, a mean the same divided by the element count
    x0 = np.random.default_rng(14).normal(size=shape)
    g = np.asarray(2.5)
    x = parameter(x0.copy(), "x")
    tsum(x)._backward(g)
    np.testing.assert_array_equal(x.grad, np.broadcast_to(g, shape).copy())
    x = parameter(x0.copy(), "x")
    tmean(x)._backward(g)
    np.testing.assert_array_equal(x.grad, np.broadcast_to(g, shape).copy() / x0.size)
    assert tsum(x).shape == tmean(x).shape == ()


def _contiguous(shape, seed):
    return parameter(np.random.default_rng(seed).normal(size=shape), "x")


def _swapped_view(shape, seed):
    # the (.., m, k) operand as a non-contiguous view of a (.., k, m) leaf
    src = parameter(np.random.default_rng(seed).normal(size=shape[:-2] + shape[:-3:-1]), "x")
    return swapaxes(src, -1, -2)


@pytest.mark.parametrize(
    "a_shape,make_a",
    [
        ((5, 3, 4), _contiguous),
        ((2, 3, 5, 4), _swapped_view),
        ((2, 1, 3, 5, 4), _contiguous),
    ],
    ids=["3d", "4d-swapaxes-view", "5d"],
)
def test_weight_gradient_of_2d_operand_sums_every_leading_axis(a_shape, make_a):
    rng = np.random.default_rng(len(a_shape))
    b0 = rng.normal(size=(4, 2))
    a = make_a(a_shape, seed=len(a_shape))
    a0 = a.data.copy()
    if make_a is _swapped_view:
        assert not a.data.flags.c_contiguous
    b = parameter(b0.copy(), "b")
    prod = matmul(a, b)
    tsum(mul(prod, prod)).backward()

    g = 2.0 * (a0 @ b0)
    old = _unbroadcast(np.swapaxes(a0, -1, -2) @ g, b0.shape)
    np.testing.assert_allclose(b.grad, old, rtol=1e-12)
    want = fd_grad(lambda v: ((a0 @ v) ** 2).sum(), b0)
    np.testing.assert_allclose(b.grad, want, rtol=1e-6, atol=1e-8)


def test_broadcast_add_unbroadcasts_gradient():
    a = parameter(np.zeros((3, 4)), "a")
    b = parameter(np.zeros(4), "b")
    coeff = np.arange(12.0).reshape(3, 4)
    loss = tsum(mul(add(a, b), coeff))
    loss.backward()
    np.testing.assert_allclose(a.grad, coeff)
    np.testing.assert_allclose(b.grad, coeff.sum(axis=0))


def test_shape_ops_round_trip_gradients():
    x0 = np.random.default_rng(9).normal(size=(2, 3, 4))
    x = parameter(x0.copy(), "x")
    y = swapaxes(reshape(x, (6, 4)), 0, 1)
    loss = tsum(mul(y, y))
    loss.backward()
    np.testing.assert_allclose(x.grad, 2 * x0, rtol=1e-12)


def test_reused_node_accumulates_both_paths():
    x = parameter(np.array([1.5]), "x")
    y = mul(x, x)
    loss = add(tsum(y), tsum(mul(y, 2.0)))
    loss.backward()
    np.testing.assert_allclose(x.grad, [3 * 2 * 1.5])


def test_gradients_of_two_add_inputs_do_not_alias():
    # add hands the same upstream array to both inputs
    a = parameter(np.zeros(3), "a")
    b = parameter(np.zeros(3), "b")
    loss = add(tsum(add(a, b)), tsum(a * 3.0))
    loss.backward()
    np.testing.assert_array_equal(a.grad, np.full(3, 4.0))
    np.testing.assert_array_equal(b.grad, np.ones(3))
    assert not np.shares_memory(a.grad, b.grad)


def test_add_of_a_node_to_itself_leaves_the_upstream_gradient_intact():
    x0 = np.array([0.5, -1.0, 2.0])
    coeff = np.array([1.0, 2.0, 3.0])
    x = parameter(x0.copy(), "x")
    y = add(x, x)
    loss = add(tsum(mul(y, coeff)), tsum(mul(y, y)))
    loss.backward()
    np.testing.assert_allclose(y.grad, coeff + 4.0 * x0, rtol=1e-15)
    np.testing.assert_allclose(x.grad, 2.0 * (coeff + 4.0 * x0), rtol=1e-15)


def test_no_grad_blocks_tape():
    x = parameter(np.ones(3), "x")
    with no_grad():
        y = tsum(mul(x, x))
    assert not y.requires_grad
    loss = tsum(mul(x, x))
    loss.backward()
    assert x.grad is not None


def test_second_walk_raises_and_moves_no_gradient():
    # a walk consumes its graph: gradients stay readable, and walking it
    # again, or a new graph built on one of its nodes, raises before any
    # gradient moves
    x = parameter(np.ones(1), "x")
    y = mul(x, 3.0)
    loss = tsum(mul(y, 1.0))
    loss.backward()
    np.testing.assert_array_equal(x.grad, [3.0])
    np.testing.assert_array_equal(y.grad, [1.0])
    assert (loss._parents, y._parents) == ((), ())
    for root in (loss, tsum(mul(y, 2.0))):
        with pytest.raises(RuntimeError, match="consumed"):
            root.backward()
        np.testing.assert_array_equal(x.grad, [3.0])


def test_backward_requires_scalar_root():
    x = parameter(np.ones((2, 2)), "x")
    y = mul(x, 2.0)
    with pytest.raises(ValueError):
        y.backward()


def test_non_finite_values_raise_with_stage_name():
    with pytest.raises(NumericError) as err:
        check_finite(np.array([1.0, np.inf]), "demo stage")
    assert "demo stage" in str(err.value)


# -- fused nodes ----------------------------------------------------------------


def _fd_check(build, inputs, rtol=1e-6, atol=1e-8):
    """Gradients of ``sum(build(*tensors) * coeff)`` for every input against
    central differences of the same op evaluated without the tape."""
    leaves = {name: parameter(v.copy(), name) for name, v in inputs.items()}
    out = build(**leaves)
    coeff = np.random.default_rng(99).normal(size=out.shape)
    tsum(mul(out, coeff)).backward()
    for name, v in inputs.items():
        def scalar(arr, name=name):
            args = {n: as_tensor(arr if n == name else x) for n, x in inputs.items()}
            return float((np.asarray(build(**args)) * coeff).sum())

        want = fd_grad(scalar, v)
        np.testing.assert_allclose(leaves[name].grad, want, rtol=rtol, atol=atol, err_msg=name)


def test_affine_is_one_node_equal_to_matmul_plus_bias():
    rng = np.random.default_rng(20)
    x0, w0, b0 = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    x, w, b = parameter(x0, "x"), parameter(w0, "w"), parameter(b0, "b")
    out = affine(x, w, b)
    np.testing.assert_array_equal(out.data, x0 @ w0 + b0)
    assert out._parents == (x, w, b)
    _fd_check(lambda x, w, b: affine(x, w, b), {"x": x0, "w": w0, "b": b0})


def test_affine_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        affine(np.ones((2, 3)), np.ones((4, 5)), np.ones(5))
    with pytest.raises(ValueError):
        affine(np.ones((2, 4)), np.ones((4, 5)), np.ones(4))


def test_layer_norm_matches_the_row_oracle():
    rng = np.random.default_rng(21)
    x0 = rng.normal(2.0, 3.0, size=(3, 4, 6))
    gain, bias = rng.normal(size=6), rng.normal(size=6)
    got = np.asarray(layer_norm(as_tensor(x0), as_tensor(gain), as_tensor(bias), 1e-5))
    for idx in np.ndindex(x0.shape[:-1]):
        want = layer_norm_oracle(x0[idx], gain, bias, 1e-5)
        np.testing.assert_allclose(got[idx], want, rtol=1e-12, atol=1e-13)


def test_layer_norm_gradients_match_finite_differences():
    rng = np.random.default_rng(22)
    inputs = {
        "x": rng.normal(0.5, 2.0, size=(2, 3, 5)),
        "gain": rng.normal(size=5),
        "bias": rng.normal(size=5),
    }
    _fd_check(lambda x, gain, bias: layer_norm(x, gain, bias, 1e-5), inputs)


# leaf shape and the view of it the op sees; "router-view" is the (B, P, N, d)
# swapaxes view of (B, N, P, d) embeddings that the router block normalises
_ROW_LAYOUTS = {
    "one-row": ((1, 4), lambda t: t),
    "2d": ((5, 4), lambda t: t),
    "3d": ((2, 3, 4), lambda t: t),
    "router-view": ((2, 3, 5, 4), lambda t: swapaxes(t, -3, -2)),
}
_DENSE_OPS = {
    "affine": lambda x, w, b: affine(x, w, b),
    "matmul": lambda x, w, b=None: matmul(x, w),
    "layer_norm": lambda x, w, b: layer_norm(x, w, b, 1e-5),
}


def _row_sum(rows):
    """Sum of a sequence of rows, one at a time."""
    total = np.zeros_like(rows[0])
    for row in rows:
        total = total + row
    return total


@pytest.mark.parametrize("layout", list(_ROW_LAYOUTS))
@pytest.mark.parametrize("op", list(_DENSE_OPS))
def test_dense_ops_on_every_row_layout_match_the_oracles(op, layout):
    # affine, matmul and layer_norm flatten their input to (rows, features):
    # one row, 2-D and 3-D inputs and a non-contiguous view all give the row
    # oracles' values, finite-difference gradients and row-sum parameter
    # gradients
    shape, view = _ROW_LAYOUTS[layout]
    rng = np.random.default_rng(25)
    x0 = rng.normal(0.5, 2.0, size=shape)
    w0 = rng.normal(size=(4, 3) if op != "layer_norm" else 4)
    b0 = rng.normal(size=w0.shape[-1])
    xv = np.asarray(view(as_tensor(x0)))
    assert layout != "router-view" or not xv.flags.c_contiguous
    rows = xv.reshape(-1, 4)

    got = _DENSE_OPS[op](view(as_tensor(x0)), as_tensor(w0), as_tensor(b0)).data
    assert got.shape == xv.shape[:-1] + b0.shape
    if op == "layer_norm":
        want = np.array([layer_norm_oracle(r, w0, b0, 1e-5) for r in rows])
    else:
        want = np.array([[sum(r[i] * w0[i, j] for i in range(4)) for j in range(3)] for r in rows])
        want += b0 if op == "affine" else 0.0
    np.testing.assert_allclose(got.reshape(want.shape), want, rtol=1e-12, atol=1e-13)

    inputs = {"x": x0, "w": w0} if op == "matmul" else {"x": x0, "w": w0, "b": b0}
    _fd_check(lambda x, **params: _DENSE_OPS[op](view(x), **params), inputs)
    if op == "matmul":
        return

    leaves = {name: parameter(v.copy(), name) for name, v in inputs.items()}
    out = _DENSE_OPS[op](view(leaves["x"]), leaves["w"], leaves["b"])
    coeff = np.random.default_rng(99).normal(size=out.shape)
    tsum(mul(out, coeff)).backward()
    coeff = coeff.reshape(-1, b0.size)
    np.testing.assert_allclose(leaves["b"].grad, _row_sum(coeff), rtol=1e-12, atol=1e-14)
    if op == "layer_norm":
        xhat = [np.array(layer_norm_oracle(r, np.ones(4), np.zeros(4), 1e-5)) for r in rows]
        gain_rows = [c * h for c, h in zip(coeff, xhat)]
        np.testing.assert_allclose(leaves["w"].grad, _row_sum(gain_rows), rtol=1e-12, atol=1e-14)


def _attention_cases():
    rng = np.random.default_rng(23)
    return {
        # the backbone's self-attention: every operand batched alike
        "same-lead": (rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 5, 4)), 2),
        "one-head": (rng.normal(size=(3, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), 1),
        # router table (P, c, d) against (B, P, N, d) keys and values
        "router-table": (rng.normal(size=(3, 2, 4)), rng.normal(size=(2, 3, 5, 4)), None, 2),
        # (B, N, P, d) queries against a (prototypes, d) bank
        "prototype-keys": (rng.normal(size=(2, 2, 3, 6)), rng.normal(size=(4, 6)), rng.normal(size=(4, 6)), 3),
    }


def _attention_oracle(q, k, v, heads):
    """``mha_oracle`` (identity output map) at every broadcast leading index."""
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    d = q.shape[-1]
    out = np.empty((*lead, q.shape[-2], d))
    for idx in np.ndindex(lead):
        def at(a):
            return np.broadcast_to(a, (*lead, *a.shape[-2:]))[idx]

        out[idx] = mha_oracle(at(q), at(k), at(v), heads, np.eye(d), np.zeros(d))
    return out


@pytest.mark.parametrize("case", list(_attention_cases()))
def test_attention_matches_the_multi_head_oracle(case):
    q, k, v, heads = _attention_cases()[case]
    v = k if v is None else v
    got = np.asarray(attention(q, k, v, heads))
    np.testing.assert_allclose(got, _attention_oracle(q, k, v, heads), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("case", list(_attention_cases()))
def test_attention_gradients_match_finite_differences(case):
    q, k, v, heads = _attention_cases()[case]
    if v is None:
        # keys and values are one tensor, as in the router collect hop
        _fd_check(lambda q, kv: attention(q, kv, kv, heads), {"q": q, "kv": k})
    else:
        _fd_check(lambda q, k, v: attention(q, k, v, heads), {"q": q, "k": k, "v": v})


def test_attention_rejects_unsplittable_features():
    with pytest.raises(ValueError):
        attention(np.ones((2, 6)), np.ones((3, 6)), np.ones((3, 6)), 4)
    with pytest.raises(ValueError):
        attention(np.ones((2, 6)), np.ones((3, 6)), np.ones((4, 6)), 2)


@pytest.mark.parametrize("hop", ["collect", "dispatch"])
def test_attention_on_swapped_axes_views_as_the_router_hops_pass_them(hop):
    # cvpe_forward hands both hops the (B, P, N, d) swapaxes view of the
    # (B, N, P, d) embeddings: keys and values when the (P, c, d) router
    # table collects, queries when the variates read the (B, P, c, d)
    # collected routers back
    rng = np.random.default_rng(24)
    x0 = rng.normal(size=(2, 5, 3, 4))
    other0 = rng.normal(size=(3, 2, 4) if hop == "collect" else (2, 3, 2, 4))

    def build(x, other):
        by_pos = swapaxes(x, -3, -2)
        assert not by_pos.data.flags.c_contiguous
        if hop == "collect":
            return attention(other, by_pos, by_pos, 2)
        return attention(by_pos, other, other, 2)

    by_pos0 = np.swapaxes(x0, -3, -2)
    if hop == "collect":
        want = _attention_oracle(other0, by_pos0, by_pos0, 2)
    else:
        want = _attention_oracle(by_pos0, other0, other0, 2)
    got = build(as_tensor(x0), as_tensor(other0)).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
    _fd_check(build, {"x": x0, "other": other0})


@pytest.mark.parametrize("shared", [False, True], ids=["batched-keys", "shared-keys"])
def test_attention_shifts_scores_near_800_before_the_exponential(shared):
    # |q.k| / sqrt(hd) near 800 with O(1) differences between keys: exp of
    # the raw scores overflows (above 709.8) or underflows to 0 in every row
    rng = np.random.default_rng(25)
    heads, d = 2, 4
    sign = np.array([[1.0], [-1.0], [1.0]])  # per query row
    q = sign * 24.0 + rng.normal(0.0, 0.02, size=(2, 3, d))
    k = 24.0 + rng.normal(0.0, 0.02, size=(5, d) if shared else (2, 5, d))
    v = rng.normal(size=k.shape)
    hd = d // heads
    raw = np.einsum("...qf,...kf->...qk", q[..., :hd], k[..., :hd]) / np.sqrt(hd)
    assert raw.max() > 780 and raw.min() < -780
    got = attention(q, k, v, heads).data
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, _attention_oracle(q, k, v, heads), rtol=1e-9, atol=1e-12)
    _fd_check(lambda q, k, v: attention(q, k, v, heads), {"q": q, "k": k, "v": v}, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize(
    "k_shape,v_shape", [((5, 4), (2, 5, 4)), ((1, 5, 4), (1, 5, 4))], ids=["2d-key-3d-value", "unit-lead-key"]
)
def test_attention_with_keys_or_values_of_three_axes_matches_the_oracle(k_shape, v_shape):
    # only 2-D keys with 2-D values have their query rows flattened
    rng = np.random.default_rng(26)
    inputs = {"q": rng.normal(size=(2, 3, 4)), "k": rng.normal(size=k_shape), "v": rng.normal(size=v_shape)}
    got = attention(inputs["q"], inputs["k"], inputs["v"], 2).data
    np.testing.assert_allclose(got, _attention_oracle(*inputs.values(), 2), rtol=1e-12, atol=1e-13)
    _fd_check(lambda q, k, v: attention(q, k, v, 2), inputs)


@pytest.mark.parametrize("shape", [(2, 3, 4), (5, 4)], ids=["batched", "shared"])
def test_attention_of_one_tensor_with_itself_sums_its_three_gradients(shape):
    # q, k and v are one leaf: the node stores its first gradient and adds
    # the other two into it
    x0 = np.random.default_rng(27).normal(size=shape)
    _fd_check(lambda x: attention(x, x, x, 2), {"x": x0})


@pytest.mark.parametrize("case", list(_attention_cases()))
def test_attention_leaves_inputs_output_and_upstream_gradient_unmodified(case):
    q0, k0, v0, heads = _attention_cases()[case]
    v0 = k0 if v0 is None else v0
    q, k, v = parameter(q0, "q"), parameter(k0, "k"), parameter(v0, "v")
    out = attention(q, k, v, heads)
    out0 = out.data.copy()
    g = np.random.default_rng(28).normal(size=out.shape)
    g0 = g.copy()
    out._backward(g)
    first = [t.grad.copy() for t in (q, k, v)]
    # a second walk over the same node sees the same saved probabilities
    out._backward(g)
    for t, want in zip((q, k, v), first):
        np.testing.assert_allclose(t.grad, 2 * want, rtol=1e-14, atol=0)
    for t, t0 in zip((q, k, v, out), (q0, k0, v0, out0)):
        np.testing.assert_array_equal(t.data, t0)
    np.testing.assert_array_equal(g, g0)


def _every_other(a):
    """``a``'s values as a view that steps over every other feature."""
    wide = np.zeros((*a.shape[:-1], 2 * a.shape[-1]))
    wide[..., ::2] = a
    return wide[..., ::2]


def _call_site_views(layout):
    """(q, k, v, heads) at one call site of ``attention``, as strided views;
    ``k is v`` where the call site passes one tensor for both."""
    rng = np.random.default_rng(29)
    x = rng.normal(size=(3, 6, 5, 8))  # (B, N, P, d)
    by_pos = np.swapaxes(x, -3, -2)
    if layout == "router-collect":
        # the (P, c, d) router table, broadcast over the batch, collects from
        # the swapped (B, P, N, d) embeddings
        return _every_other(rng.normal(size=(5, 4, 8))), by_pos, by_pos, 4
    if layout == "router-dispatch":
        collected = _every_other(rng.normal(size=(3, 5, 4, 8)))
        return by_pos, collected, collected, 4
    if layout == "backbone-same-lead":
        return tuple(_every_other(rng.normal(size=(3, 6, 5, 8))) for _ in range(3)) + (4,)
    # the 2-D prototype bank: (M, d) keys and values stored column by column
    bank = (np.asfortranarray(rng.normal(size=(7, 8))) for _ in range(2))
    return (_every_other(x), *bank, 4)


@pytest.mark.parametrize(
    "layout", ["router-collect", "router-dispatch", "backbone-same-lead", "prototype-bank"]
)
def test_attention_bits_do_not_depend_on_operand_strides(layout):
    # the batched products copy their keys and values into a contiguous
    # layout, so the bits must be those of C-contiguous operands
    q0, k0, v0, heads = _call_site_views(layout)
    assert not all(a.flags.c_contiguous for a in (q0, k0, v0))
    g = np.random.default_rng(30).normal(size=np.broadcast_shapes(q0.shape[:-2], k0.shape[:-2]) + q0.shape[-2:])
    runs = []
    for make in (lambda a: a, np.ascontiguousarray):
        q, k = Tensor(make(q0), requires_grad=True), Tensor(make(k0), requires_grad=True)
        v = k if v0 is k0 else Tensor(make(v0), requires_grad=True)
        out = attention(q, k, v, heads)
        out._backward(g)
        runs.append([out.data, q.grad, k.grad, v.grad])
    for strided, contiguous in zip(*runs):
        np.testing.assert_array_equal(strided, contiguous)


def _mlp_chain(x, w1, b1, w2, b2):
    return affine(gelu(affine(x, w1, b1)), w2, b2)


# leaf shape and the view of it the feed-forward node sees, at the model's
# width 16 and hidden size 64: a block is _GELU_BLOCK // 64 rows
_MLP_BLOCK_ROWS = autodiff._GELU_BLOCK // 64
_MLP_LAYOUTS = {
    "one-row": ((1, 16), lambda t: t),
    "one-block": ((_MLP_BLOCK_ROWS, 16), lambda t: t),
    "ragged": ((2 * _MLP_BLOCK_ROWS + 37, 16), lambda t: t),
    "router-view": ((6, 7, 5, 16), lambda t: swapaxes(t, -3, -2)),
}


def _mlp_leaves(shape, seed=30):
    rng = np.random.default_rng(seed)
    return [
        parameter(rng.normal(0.0, 2.0, size=shape), "x"),
        parameter(rng.uniform(-0.25, 0.25, size=(16, 64)), "w1"),
        parameter(rng.uniform(-0.25, 0.25, size=64), "b1"),
        parameter(rng.uniform(-0.125, 0.125, size=(64, 16)), "w2"),
        parameter(rng.uniform(-0.125, 0.125, size=16), "b2"),
    ]


@pytest.mark.parametrize("layout", list(_MLP_LAYOUTS))
def test_mlp_equals_the_affine_gelu_affine_chain_bit_for_bit(layout):
    # one node, whose blocked forward and backward give the chain's output
    # and all five gradients, with and without a tape
    shape, view = _MLP_LAYOUTS[layout]
    results = {}
    for name, fn in (("chain", _mlp_chain), ("fused", mlp)):
        leaves = _mlp_leaves(shape)
        x, *params = leaves
        with no_grad():
            untaped = fn(view(x), *params).data
        out = fn(view(x), *params)
        if name == "fused":
            # read before the walk, which drops them
            assert out._parents[1:] == tuple(params)
        g = np.random.default_rng(31).normal(size=out.shape)
        tsum(mul(out, g)).backward()
        results[name] = [untaped, out.data] + [t.grad for t in leaves]
    for got, want in zip(results["fused"], results["chain"]):
        np.testing.assert_array_equal(got, want)


def test_mlp_gradients_of_every_input_match_finite_differences():
    rng = np.random.default_rng(32)
    inputs = {
        "x": rng.normal(size=(2, 3, 4)),
        "w1": rng.normal(size=(4, 6)),
        "b1": rng.normal(size=6),
        "w2": rng.normal(size=(6, 5)),
        "b2": rng.normal(size=5),
    }
    _fd_check(lambda x, w1, b1, w2, b2: mlp(x, w1, b1, w2, b2), inputs)


def test_mlp_rejects_mismatched_shapes():
    x, w1, b1, w2, b2 = np.ones((2, 4)), np.ones((4, 6)), np.ones(6), np.ones((6, 5)), np.ones(5)
    for args in (
        (np.ones((2, 3)), w1, b1, w2, b2),
        (x, w1, np.ones(5), w2, b2),
        (x, w1, b1, np.ones((5, 5)), b2),
        (x, w1, b1, w2, np.ones(6)),
    ):
        with pytest.raises(ValueError):
            mlp(*args)


def test_mlp_without_a_tape_allocates_no_hidden_size_array():
    # the cvpe block's feed-forward at the wide inference shapes: (64, 5, 32)
    # rows of width 16, hidden 64; one hidden-size array is 5.2 MB
    from cvpe.layers import Mlp, rng_from

    layer = Mlp.init(16, 64, rng_from(0, 1), "m")
    x = np.random.default_rng(33).normal(size=(64, 5, 32, 16))
    hidden_bytes = x.size // 16 * 64 * x.itemsize
    tracemalloc.start()
    try:
        with no_grad():
            out = layer.apply(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    assert peak < hidden_bytes, f"peak {peak / 1e6:.2f} MB, one hidden-size array {hidden_bytes / 1e6:.2f} MB"


def test_fused_nodes_hand_over_fresh_gradients_to_intermediates():
    # an intermediate fed back by four fused nodes takes the first gradient
    # as is and adds the other three into it, and shares no gradient memory
    # with the leaf it came from
    rng = np.random.default_rng(34)
    x0 = rng.normal(size=(3, 2, 4))
    w, b = rng.normal(size=(4, 4)), rng.normal(size=4)
    ops = [
        lambda y: affine(y, w, b),
        lambda y: layer_norm(y, w[0], b, 1e-5),
        lambda y: attention(y, y, y, 2),
        lambda y: mlp(y, *MLP_PARAMS[:2], MLP_PARAMS[2][:, :2], MLP_PARAMS[3][:2]),
    ]
    coeffs = [rng.normal(size=(2, 3, n)) for n in (4, 4, 4, 2)]

    def loss_of(x, terms):
        y = swapaxes(x, 0, 1)
        total = tsum(mul(ops[terms[0]](y), coeffs[terms[0]]))
        for i in terms[1:]:
            total = add(total, tsum(mul(ops[i](y), coeffs[i])))
        return y, total

    want = np.zeros_like(x0)
    for i in range(len(ops)):
        x = parameter(x0, "x")
        loss_of(x, [i])[1].backward()
        want += x.grad
    x = parameter(x0, "x")
    y, loss = loss_of(x, list(range(len(ops))))
    loss.backward()
    np.testing.assert_allclose(x.grad, want, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(y.grad, np.swapaxes(want, 0, 1), rtol=1e-13, atol=1e-14)
    assert y.grad.flags.writeable
    assert not np.shares_memory(x.grad, y.grad)


@pytest.mark.parametrize("op", ["affine", "layer_norm", "attention", "mlp"])
def test_fused_node_gives_an_intermediate_its_gradient_without_accumulate(op, monkeypatch):
    # the first gradient of an intermediate skips _accumulate's copy; leaf
    # and parameter gradients still go through it
    rng = np.random.default_rng(35)
    x = parameter(rng.normal(size=(3, 2, 4)), "x")
    w, b = parameter(rng.normal(size=(4, 4)), "w"), parameter(rng.normal(size=4), "b")
    build = {
        "affine": lambda y: affine(y, w, b),
        "layer_norm": lambda y: layer_norm(y, b, b, 1e-5),
        "attention": lambda y: attention(y, y, y, 2),
        "mlp": lambda y: mlp(y, w, b, w, b),
    }[op]
    y = swapaxes(x, 0, 1)
    loss = tsum(mul(build(y), rng.normal(size=(2, 3, 4))))
    seen = []
    real = autodiff._accumulate

    def recording(t, g):
        seen.append(t)
        real(t, g)

    monkeypatch.setattr(autodiff, "_accumulate", recording)
    loss.backward()
    # attention hands over its value gradient and adds the query and key
    # gradients of the same tensor into it
    assert sum(t is y for t in seen) == (2 if op == "attention" else 0)
    assert any(t is x for t in seen)
    assert op == "attention" or any(t is b for t in seen)
