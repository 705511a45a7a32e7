"""Router attention and the cross-variate embedding block."""

import numpy as np
import pytest
from conftest import PassThrough, identity_block, zero_mlp

from cvpe.autodiff import NumericError, as_tensor, parameter
from cvpe.embedding import (
    AttentionConfig,
    CvpeParams,
    RouterBank,
    ScoreCounter,
    add_positional,
    cvpe_forward,
    multi_head_attention,
    router_attention,
)
from cvpe.layers import Affine, parameters_of
from oracles import mha_oracle, router_block_oracle


def identity_out(dim, name):
    """An output projection that passes its input through unchanged."""
    return Affine(parameter(np.eye(dim), f"{name}.w"), parameter(np.zeros(dim), f"{name}.b"))


def arr(t):
    return np.asarray(t)


def random_params(n_positions, dim, n_routers, seed):
    return CvpeParams.init(n_positions, dim, n_routers, np.random.default_rng(seed))


def oracle_kwargs(params):
    return dict(
        positional=arr(params.positional),
        routers=arr(params.routers.table),
        collect_w=arr(params.collect_out.w),
        collect_b=arr(params.collect_out.b),
        dispatch_w=arr(params.dispatch_out.w),
        dispatch_b=arr(params.dispatch_out.b),
        mlp_w1=arr(params.mlp.fc1.w),
        mlp_b1=arr(params.mlp.fc1.b),
        mlp_w2=arr(params.mlp.fc2.w),
        mlp_b2=arr(params.mlp.fc2.b),
        ln1_gain=arr(params.ln1.gain),
        ln1_bias=arr(params.ln1.bias),
        ln2_gain=arr(params.ln2.gain),
        ln2_bias=arr(params.ln2.bias),
    )


class TestMultiHeadAttention:
    def test_matches_loop_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            heads = int(rng.choice([1, 2, 4]))
            d = heads * int(rng.integers(1, 5))
            nq = int(rng.integers(1, 6))
            nk = int(rng.integers(1, 6))
            q = rng.normal(size=(nq, d))
            k = rng.normal(size=(nk, d))
            v = rng.normal(size=(nk, d))
            out = Affine.init(d, d, rng, f"o{trial}")
            got = multi_head_attention(q, k, v, AttentionConfig(heads), out)
            want = mha_oracle(q, k, v, heads, arr(out.w), arr(out.b))
            np.testing.assert_allclose(arr(got), want, atol=1e-12)

    def test_batched_leading_axes_match_per_slice_oracle(self):
        rng = np.random.default_rng(1)
        heads, d = 2, 6
        q = rng.normal(size=(3, 4, d))
        k = rng.normal(size=(3, 5, d))
        v = rng.normal(size=(3, 5, d))
        out = Affine.init(d, d, rng, "o")
        got = arr(multi_head_attention(q, k, v, AttentionConfig(heads), out))
        for b in range(3):
            want = mha_oracle(q[b], k[b], v[b], heads, arr(out.w), arr(out.b))
            np.testing.assert_allclose(got[b], want, atol=1e-12)

    def test_broadcast_query_bank_into_batched_keys(self):
        rng = np.random.default_rng(2)
        d = 4
        q = rng.normal(size=(2, d))
        k = rng.normal(size=(5, 3, d))
        v = rng.normal(size=(5, 3, d))
        out = identity_out(d, "o")
        got = arr(multi_head_attention(q, k, v, AttentionConfig(2), out))
        assert got.shape == (5, 2, d)
        for b in range(5):
            want = mha_oracle(q, k[b], v[b], 2, np.eye(d), np.zeros(d))
            np.testing.assert_allclose(got[b], want, atol=1e-12)

    def test_single_head_identity_projection_is_convex_in_values(self):
        rng = np.random.default_rng(3)
        d = 5
        q = rng.normal(size=(7, d))
        k = rng.normal(size=(4, d))
        v = rng.normal(size=(4, d))
        got = arr(
            multi_head_attention(q, k, v, AttentionConfig(1), identity_out(d, "o"))
        )
        lo = v.min(axis=0) - 1e-12
        hi = v.max(axis=0) + 1e-12
        assert np.all(got >= lo) and np.all(got <= hi)

    def test_uniform_weights_when_scores_are_flat(self):
        d = 4
        q = np.zeros((3, d))
        k = np.random.default_rng(4).normal(size=(6, d))
        v = np.random.default_rng(5).normal(size=(6, d))
        got = arr(multi_head_attention(q, k, v, AttentionConfig(1), identity_out(d, "o")))
        np.testing.assert_allclose(got, np.broadcast_to(v.mean(axis=0), (3, d)), atol=1e-12)

    def test_counter_tallies_query_key_pairs_per_head(self):
        rng = np.random.default_rng(6)
        counter = ScoreCounter()
        q = rng.normal(size=(3, 4))
        kv = rng.normal(size=(5, 4))
        multi_head_attention(q, kv, kv, AttentionConfig(2), identity_out(4, "o"), counter)
        assert counter.count == 2 * 3 * 5

    @pytest.mark.parametrize(
        "q_shape,kv_shape",
        [((3, 2, 4), (2, 3, 5, 4)), ((2, 5, 3, 4), (6, 4)), ((2, 3, 4), (2, 5, 4))],
        ids=["router-table", "prototype-keys", "same-lead"],
    )
    def test_counter_equals_the_size_of_the_score_array(self, q_shape, kv_shape):
        # the count the unfused path took from its materialised scores
        rng = np.random.default_rng(7)
        heads, d = 2, q_shape[-1]
        q, kv = rng.normal(size=q_shape), rng.normal(size=kv_shape)

        def split(a):
            return np.swapaxes(a.reshape(*a.shape[:-1], heads, d // heads), -3, -2)

        scores = split(q) @ np.swapaxes(split(kv), -1, -2)
        counter = ScoreCounter()
        multi_head_attention(q, kv, kv, AttentionConfig(heads), identity_out(d, "o"), counter)
        assert counter.count == scores.size

    def test_shape_errors(self):
        rng = np.random.default_rng(7)
        out = identity_out(4, "o")
        with pytest.raises(ValueError):
            multi_head_attention(
                rng.normal(size=(2, 4)), rng.normal(size=(2, 6)), rng.normal(size=(2, 6)),
                AttentionConfig(2), out,
            )
        with pytest.raises(ValueError):
            multi_head_attention(
                rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), rng.normal(size=(2, 4)),
                AttentionConfig(2), out,
            )
        with pytest.raises(ValueError):
            multi_head_attention(
                rng.normal(size=(2, 5)), rng.normal(size=(2, 5)), rng.normal(size=(2, 5)),
                AttentionConfig(2), identity_out(5, "o"),
            )
        with pytest.raises(ValueError):
            AttentionConfig(0)

    def test_a_rejected_call_counts_no_scores(self):
        # queries and keys agree; the values' leading axis broadcasts with neither
        rng = np.random.default_rng(8)
        counter = ScoreCounter()
        with pytest.raises(ValueError):
            multi_head_attention(
                rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 4)), rng.normal(size=(3, 5, 4)),
                AttentionConfig(2), identity_out(4, "o"), counter,
            )
        assert counter.count == 0


class TestRouterBlock:
    def test_zero_routers_give_uniform_mix_analytic_case(self):
        # hand-buildable configuration: one position, one router slot sitting
        # at the origin, identity projections, pass-through norms, zero MLP.
        # collect then averages the variates; dispatch hands that mean back.
        d, n = 2, 3
        params = CvpeParams(
            positional=parameter(np.zeros((1, d)), "p"),
            routers=RouterBank(parameter(np.zeros((1, 1, d)), "r")),
            collect_out=identity_out(d, "c"),
            dispatch_out=identity_out(d, "d"),
            mlp=zero_mlp(d, 4, "m"),
            ln1=PassThrough(),
            ln2=PassThrough(),
        )
        x = np.random.default_rng(8).normal(size=(n, 1, d))
        got = arr(cvpe_forward(x, params, AttentionConfig(1)))
        want = x + x.mean(axis=0, keepdims=True)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            heads = int(rng.choice([1, 2]))
            d = heads * int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, 4))
            c = int(rng.integers(1, 4))
            params = random_params(p, d, c, seed=trial)
            x = rng.normal(size=(n, p, d))
            got = arr(cvpe_forward(x, params, AttentionConfig(heads)))
            want = router_block_oracle(x, heads=heads, **oracle_kwargs(params))
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_batched_input_matches_unbatched_slices(self):
        rng = np.random.default_rng(10)
        params = random_params(3, 4, 2, seed=11)
        x = rng.normal(size=(5, 2, 3, 4))
        got = arr(cvpe_forward(x, params, AttentionConfig(2)))
        for b in range(5):
            single = arr(cvpe_forward(x[b], params, AttentionConfig(2)))
            np.testing.assert_allclose(got[b], single, atol=1e-12)

    def test_variate_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        params = random_params(4, 6, 3, seed=13)
        x = rng.normal(size=(5, 4, 6))
        perm = np.array([3, 0, 4, 1, 2])
        base = arr(cvpe_forward(x, params, AttentionConfig(2)))
        permuted = arr(cvpe_forward(x[perm], params, AttentionConfig(2)))
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_output_preserves_shape(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            p = int(rng.integers(1, 5))
            d = 2 * int(rng.integers(1, 4))
            params = random_params(p, d, int(rng.integers(1, 4)), seed=int(rng.integers(1000)))
            x = rng.normal(size=(n, p, d))
            assert arr(cvpe_forward(x, params, AttentionConfig(2))).shape == (n, p, d)

    def test_information_flows_between_variates(self):
        rng = np.random.default_rng(15)
        params = random_params(2, 4, 2, seed=16)
        x = rng.normal(size=(3, 2, 4))
        bumped = x.copy()
        bumped[0, 1, :] += 1.0
        base = arr(cvpe_forward(x, params, AttentionConfig(2)))
        moved = arr(cvpe_forward(bumped, params, AttentionConfig(2)))
        # the other variates' embeddings at the bumped position shift too
        assert np.max(np.abs(moved[1, 1] - base[1, 1])) > 1e-8
        assert np.max(np.abs(moved[2, 1] - base[2, 1])) > 1e-8

    def test_patch_positions_stay_independent(self):
        rng = np.random.default_rng(17)
        params = random_params(3, 4, 2, seed=18)
        x = rng.normal(size=(2, 3, 4))
        bumped = x.copy()
        bumped[:, 0, :] += 0.5
        base = arr(cvpe_forward(x, params, AttentionConfig(2)))
        moved = arr(cvpe_forward(bumped, params, AttentionConfig(2)))
        np.testing.assert_allclose(moved[:, 1:], base[:, 1:], atol=1e-12)

    def test_score_count_scales_linearly_in_variates(self):
        params = random_params(5, 4, 3, seed=19)
        cfg = AttentionConfig(2)
        counts = {}
        for n in (2, 8):
            counter = ScoreCounter()
            x = np.random.default_rng(n).normal(size=(n, 5, 4))
            router_attention(as_tensor(x), params, cfg, counter)
            # collect and dispatch each score heads * routers * variates
            # pairs at every position
            assert counter.count == 2 * 5 * 2 * 3 * n
            counts[n] = counter.count
        assert counts[8] == 4 * counts[2]

    def test_identity_configuration_is_exact(self):
        rng = np.random.default_rng(20)
        params = identity_block(4, 6, 3)
        x = rng.normal(size=(5, 4, 6))
        got = arr(cvpe_forward(x, params, AttentionConfig(2)))
        np.testing.assert_array_equal(got, x)

    def test_shape_validation(self):
        params = random_params(3, 4, 2, seed=21)
        cfg = AttentionConfig(2)
        with pytest.raises(ValueError):
            router_attention(as_tensor(np.zeros((2, 5, 4))), params, cfg)
        with pytest.raises(ValueError):
            router_attention(as_tensor(np.zeros((2, 3, 6))), params, cfg)
        with pytest.raises(ValueError):
            add_positional(np.zeros((2, 4, 4)), params.positional)

    def test_non_finite_input_is_named(self):
        params = random_params(2, 4, 2, seed=22)
        x = np.zeros((2, 2, 4))
        x[0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="cross-variate input"):
            router_attention(as_tensor(x), params, AttentionConfig(2))

    def test_parameter_list_covers_every_learnable(self):
        params = random_params(3, 4, 2, seed=23)
        names = [p.name for p in parameters_of(params)]
        assert len(names) == len(set(names))
        assert len(names) == 14
        assert any("positional" in n for n in names)
        assert any("routers" in n for n in names)

    def test_router_bank_needs_a_slot(self):
        with pytest.raises(ValueError):
            RouterBank.init(2, 0, 4, np.random.default_rng(0), "r")
