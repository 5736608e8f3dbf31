"""The single-node attention and depthwise-conv kernels against the compositions they replace."""

import numpy as np
import pytest

from avmoe.errors import DimensionError
from avmoe.nn import attend, causal_mask, depthwise3
from avmoe.tensor import Tensor, concat, matmul, narrow, softmax_rows

from helpers import check_grad

TOL = 1e-10


def reference_attend(q, k, v, heads, scale, mask=None):
    """Per-head narrow, matmul, softmax and concat: the path ``attend`` replaces."""
    d = q.shape[1] // heads
    outs = []
    for h in range(heads):
        qh, kh, vh = (narrow(t, 1, h * d, d) for t in (q, k, v))
        scores = matmul(qh, kh.T) * scale
        if mask is not None:
            scores = scores + Tensor(mask)
        outs.append(matmul(softmax_rows(scores), vh))
    return concat(outs, axis=1)


def reference_depthwise3(x, kernel, bias):
    """Zero pad, concat and three shifted narrows: the path ``depthwise3`` replaces."""
    length, dim = x.shape
    pad = Tensor(np.zeros((1, dim)))
    padded = concat([pad, x, pad], axis=0)
    taps = [narrow(kernel, 0, t, 1).reshape(dim) for t in range(3)]
    y = narrow(padded, 0, 0, length) * taps[0]
    y = y + narrow(padded, 0, 1, length) * taps[1]
    y = y + narrow(padded, 0, 2, length) * taps[2]
    return y + bias


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def assert_same_loss_and_grads(kernel, reference, params, out_shape, seed):
    """Both paths give the same weighted-sum loss and the same parameter gradients."""
    weights = Tensor(np.random.default_rng(seed).normal(size=out_shape))
    results = []
    for build in (kernel, reference):
        for p in params:
            p.grad = None
        loss = (build() * weights).sum()
        loss.backward()
        results.append((loss.item(), [p.grad.copy() for p in params]))
    (loss_k, grads_k), (loss_r, grads_r) = results
    assert abs(loss_k - loss_r) <= TOL * abs(loss_r)
    for got, want in zip(grads_k, grads_r):
        assert relative_gap(got, want) <= TOL


def qkv(rng, t_q, t_k, dim):
    return (
        Tensor(rng.normal(size=(t_q, dim)), requires_grad=True),
        Tensor(rng.normal(size=(t_k, dim)), requires_grad=True),
        Tensor(rng.normal(size=(t_k, dim)), requires_grad=True),
    )


# (T_q, T_k, width, heads, causal): self-attention with and without the causal
# mask, and cross-attention with T_q != T_k.
ATTENTION_CASES = [
    (7, 7, 8, 2, False),
    (6, 6, 8, 4, True),
    (5, 9, 12, 3, False),
    (9, 4, 8, 1, False),
]


class TestAttend:
    @pytest.mark.parametrize("t_q,t_k,dim,heads,causal", ATTENTION_CASES)
    def test_matches_per_head_composition(self, t_q, t_k, dim, heads, causal):
        q, k, v = qkv(np.random.default_rng(t_q * 10 + t_k), t_q, t_k, dim)
        scale = 1.0 / np.sqrt(dim // heads)
        mask = causal_mask(t_q) if causal else None
        assert_same_loss_and_grads(
            lambda: attend(q, k, v, heads, scale, mask),
            lambda: reference_attend(q, k, v, heads, scale, mask),
            [q, k, v],
            (t_q, dim),
            seed=heads,
        )

    @pytest.mark.parametrize("t_q,t_k,dim,heads,causal", ATTENTION_CASES)
    def test_gradient_matches_finite_differences(self, t_q, t_k, dim, heads, causal):
        rng = np.random.default_rng(100 + t_q)
        q, k, v = qkv(rng, t_q, t_k, dim)
        weights = Tensor(rng.normal(size=(t_q, dim)))
        mask = causal_mask(t_q) if causal else None
        check_grad(lambda: (attend(q, k, v, heads, 0.5, mask) * weights).sum(), [q, k, v])

    def test_causal_mask_hides_the_future(self):
        q, k, v = qkv(np.random.default_rng(1), 5, 5, 4)
        full = attend(q, k, v, 2, 0.5, causal_mask(5)).data
        v.data[3:] = 0.0  # later values must not reach earlier rows
        k.data[3:] = 7.0
        np.testing.assert_array_equal(attend(q, k, v, 2, 0.5, causal_mask(5)).data[:3], full[:3])

    def test_shape_errors(self):
        q, k, v = qkv(np.random.default_rng(2), 3, 4, 6)
        with pytest.raises(DimensionError):
            attend(q, k, v, 4, 1.0)  # 6 columns do not split into 4 heads
        with pytest.raises(DimensionError):
            attend(q, k, Tensor(np.zeros((3, 6))), 2, 1.0)


class TestDepthwise3:
    @pytest.mark.parametrize("length", [1, 2, 9])
    def test_matches_padded_composition(self, length):
        rng = np.random.default_rng(length)
        x = Tensor(rng.normal(size=(length, 5)), requires_grad=True)
        kernel = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        bias = Tensor(rng.normal(size=5), requires_grad=True)
        assert_same_loss_and_grads(
            lambda: depthwise3(x, kernel, bias),
            lambda: reference_depthwise3(x, kernel, bias),
            [x, kernel, bias],
            (length, 5),
            seed=length + 1,
        )

    def test_forward_is_bit_identical_to_the_composition(self):
        rng = np.random.default_rng(3)
        x, kernel, bias = (Tensor(rng.normal(size=s)) for s in ((11, 4), (3, 4), (4,)))
        np.testing.assert_array_equal(
            depthwise3(x, kernel, bias).data, reference_depthwise3(x, kernel, bias).data
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        kernel = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=3), requires_grad=True)
        weights = Tensor(rng.normal(size=(6, 3)))
        check_grad(lambda: (depthwise3(x, kernel, bias) * weights).sum(), [x, kernel, bias])

    def test_shape_errors(self):
        x = Tensor(np.zeros((4, 3)))
        with pytest.raises(DimensionError):
            depthwise3(x, Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            depthwise3(x, Tensor(np.zeros((3, 3))), Tensor(np.zeros(4)))
