"""Reverse-mode engine checks: values against numpy, gradients against
central finite differences, and the bookkeeping around both."""

import numpy as np
import pytest

from cvpe.autodiff import (
    NumericError,
    _unbroadcast,
    add,
    as_tensor,
    check_finite,
    div,
    exp,
    gelu,
    matmul,
    mul,
    no_grad,
    parameter,
    power,
    reshape,
    softmax,
    sub,
    swapaxes,
    tanh,
    tmean,
    transpose,
    tsum,
)
from oracles import gelu_oracle


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

CASES = [
    ("add", lambda t: tsum(add(t, 2.0) * 3.0)),
    ("sub", lambda t: tsum(sub(2.0, t) * sub(t, 0.5))),
    ("mul", lambda t: tsum(mul(t, t))),
    ("div", lambda t: tsum(div(1.0, add(t * t, 1.0)))),
    ("power", lambda t: tsum(power(add(t * t, 1.0), 1.5))),
    ("exp", lambda t: tsum(exp(t * 0.3))),
    ("tanh", lambda t: tsum(tanh(t))),
    ("gelu", lambda t: tsum(gelu(t))),
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


def test_gelu_matches_the_scalar_oracle():
    x = np.array([0.0, 1e-3, -1e-3, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0, 10.0, -10.0, 30.0, -30.0])
    got = np.asarray(gelu(as_tensor(x.reshape(1, -1)))).reshape(-1)
    want = np.array([gelu_oracle(float(v)) for v in x])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_forward_values_match_numpy():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4))
    np.testing.assert_allclose(np.asarray(exp(as_tensor(x))), np.exp(x), rtol=1e-15)
    np.testing.assert_allclose(np.asarray(tanh(as_tensor(x))), np.tanh(x), rtol=1e-15)
    s = np.asarray(softmax(as_tensor(x)))
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(3), rtol=1e-13)
    np.testing.assert_allclose(
        np.asarray(tmean(as_tensor(x), axis=0)), x.mean(axis=0), rtol=1e-15
    )


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


def test_router_table_broadcast_against_batched_keys():
    # a (P, c, d) router table against (B, P, N, d) keys, as in the CVPE block
    rng = np.random.default_rng(11)
    table0 = rng.normal(size=(3, 2, 4))
    keys0 = rng.normal(size=(2, 3, 5, 4))
    coeff = rng.normal(size=(2, 3, 2, 5))
    table = parameter(table0.copy(), "table")
    keys = parameter(keys0.copy(), "keys")
    tsum(mul(matmul(table, swapaxes(keys, -1, -2)), coeff)).backward()

    kt = np.swapaxes(keys0, -1, -2)
    np.testing.assert_allclose(
        table.grad, _unbroadcast(coeff @ np.swapaxes(kt, -1, -2), table0.shape), rtol=1e-12
    )
    np.testing.assert_allclose(
        keys.grad, np.swapaxes(np.swapaxes(table0, -1, -2) @ coeff, -1, -2), rtol=1e-12
    )
    want_table = fd_grad(lambda v: ((v @ kt) * coeff).sum(), table0)
    want_keys = fd_grad(lambda v: ((table0 @ np.swapaxes(v, -1, -2)) * coeff).sum(), keys0)
    np.testing.assert_allclose(table.grad, want_table, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(keys.grad, want_keys, rtol=1e-6, atol=1e-8)


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
    y = transpose(swapaxes(reshape(x, (6, 4)), 0, 1), (1, 0))
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


@pytest.mark.parametrize("reduced_first", [True, False])
def test_read_only_broadcast_gradient_is_copied_before_accumulating(reduced_first):
    # tsum over an axis hands back a read-only broadcast view
    x0 = np.random.default_rng(12).normal(size=(3, 4))
    w = np.arange(4.0)
    x = parameter(x0.copy(), "x")
    terms = [tsum(mul(tsum(x, axis=0), w)), tsum(mul(x, x))]
    if not reduced_first:
        terms.reverse()
    add(*terms).backward()
    np.testing.assert_allclose(x.grad, w + 2.0 * x0, rtol=1e-15)
    assert x.grad.flags.writeable


def test_no_grad_blocks_tape():
    x = parameter(np.ones(3), "x")
    with no_grad():
        y = tsum(mul(x, x))
    assert not y.requires_grad
    loss = tsum(mul(x, x))
    loss.backward()
    assert x.grad is not None


def test_backward_requires_scalar_root():
    x = parameter(np.ones((2, 2)), "x")
    y = mul(x, 2.0)
    with pytest.raises(ValueError):
        y.backward()


def test_non_finite_values_raise_with_stage_name():
    with pytest.raises(NumericError) as err:
        check_finite(np.array([1.0, np.inf]), "demo stage")
    assert "demo stage" in str(err.value)


def test_mean_with_axis_and_keepdims():
    x0 = np.random.default_rng(10).normal(size=(3, 5))
    x = parameter(x0.copy(), "x")
    m = tmean(x, axis=-1, keepdims=True)
    assert m.shape == (3, 1)
    loss = tsum(mul(m, m))
    loss.backward()
    want = fd_grad(lambda v: ((v.mean(axis=-1, keepdims=True)) ** 2).sum(), x0)
    np.testing.assert_allclose(x.grad, want, rtol=1e-6, atol=1e-9)
