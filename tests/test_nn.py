"""The single-node attention, cgMLP and FFN kernels against the compositions they
replace, and the packed (segmented) forms against one call per segment."""

import numpy as np
import pytest

from avmoe.errors import DimensionError
from avmoe.nn import (
    ConvGatedMLP,
    FeedForward,
    Segments,
    _merge_heads,
    _split_heads,
    attend,
    causal_mask,
    depthwise3_forward,
)
from avmoe.tensor import Tensor, _record, affine, concat, matmul, softmax_rows, tsum

from helpers import (
    check_grad, narrow, reference_ffn, reshape, retained_bytes, silu,
)

TOL = 1e-10



def reference_attend(q, k, v, heads, scale, mask=None):
    """Per-head narrow, matmul, softmax and concat: the path ``attend`` replaces.

    ``Q K^T`` is the sum over d_h of the broadcast product of (T_q, 1, d_h) and
    (1, T_k, d_h) views.
    """
    d = q.shape[1] // heads
    outs = []
    for h in range(heads):
        qh, kh, vh = (narrow(t, 1, h * d, d) for t in (q, k, v))
        pairs = reshape(qh, (q.shape[0], 1, d)) * reshape(kh, (1, k.shape[0], d))
        scores = tsum(pairs, axis=2) * scale
        if mask is not None:
            scores = scores + Tensor(mask)
        outs.append(matmul(softmax_rows(scores), vh))
    return concat(outs, axis=1)


def whole(q, k):
    """Query and key rows as one sequence each."""
    return Segments([q.shape[0]]), Segments([k.shape[0]])


def reference_depthwise3(x, kernel, bias):
    """Zero pad, concat and three shifted narrows: the path ``depthwise3`` replaces."""
    length, dim = x.shape
    pad = Tensor(np.zeros((1, dim)))
    padded = concat([pad, x, pad], axis=0)
    taps = [reshape(narrow(kernel, 0, t, 1), (dim,)) for t in range(3)]
    y = narrow(padded, 0, 0, length) * taps[0]
    y = y + narrow(padded, 0, 1, length) * taps[1]
    y = y + narrow(padded, 0, 2, length) * taps[2]
    return y + bias


def depthwise3_node(x, kernel, bias, segments):
    """The depthwise conv as the graph node it was before the cgMLP node took it in."""
    taps = kernel.data

    def backward(g):
        gprev, gnext = segments.shift(g)
        dx = gnext * taps[0] + g * taps[1] + gprev * taps[2]
        dk = np.stack([(x.data * gs).sum(axis=0) for gs in (gnext, g, gprev)])
        return dx, dk, g.sum(axis=0)

    return _record(depthwise3_forward(x.data, taps, bias.data, segments), (x, kernel, bias),
                   backward)


def conv_per_segment(seg):
    """A ``conv`` for ``cgmlp_of_nodes`` that runs ``depthwise3_node`` once per
    sequence of ``seg`` and concatenates the results."""
    def conv(v, kernel, bias):
        return concat([depthwise3_node(narrow(v, 0, start, n), kernel, bias, Segments([n]))
                       for start, n in zip(seg.starts.tolist(), seg.lengths.tolist())])

    return conv


def cgmlp_of_nodes(mlp, x, conv):
    """``mlp`` on ``x`` from the affine, silu, two narrows, conv, product and affine
    nodes that its one node replaced; ``conv(v, kernel, bias)`` is the depthwise conv."""
    u = silu(affine(x, mlp.up.weight, mlp.up.bias))
    d = mlp.dim
    gated = narrow(u, 1, 0, d) * conv(narrow(u, 1, d, d), mlp.kernel, mlp.kernel_bias)
    return affine(gated, mlp.down.weight, mlp.down.bias)


def cgmlp_and_input(seed: int, rows: int, dim: int = 5) -> tuple[ConvGatedMLP, Tensor]:
    """A cgMLP with random biases (zero at init) and an input that gives it a gradient."""
    rng = np.random.default_rng(seed)
    mlp = ConvGatedMLP(rng, dim)
    for bias in (mlp.up.bias, mlp.kernel_bias, mlp.down.bias):
        bias.data = rng.normal(size=bias.shape)
    return mlp, Tensor(rng.normal(size=(rows, dim)), requires_grad=True)


# A packed batch of three sequences of different lengths, so that attention
# would pad and the conv meets two inner sequence ends.
PADDED = Segments([3, 7, 5])


def attend_keeping_pads(q, k, v, heads, scale, mask, qs, ks):
    """The attend node over padded segments as it was when it kept the padded
    Q, K and V for its backward."""
    qh = _split_heads(qs.pad(q.data), heads)
    kh = _split_heads(ks.pad(k.data), heads)
    vh = _split_heads(ks.pad(v.data), heads)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale
    if mask is not None:
        scores = scores + mask
    scores = scores + ks.key_mask()[:, None, None, :]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = _split_heads(qs.pad(g), heads)
        dprobs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) * scale
        dq = np.matmul(dscores, kh)
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), qh)
        dv = np.matmul(probs.transpose(0, 1, 3, 2), gh)
        return qs.unpad(_merge_heads(dq)), ks.unpad(_merge_heads(dk)), ks.unpad(_merge_heads(dv))

    return _record(qs.unpad(_merge_heads(np.matmul(probs, vh))), (q, k, v), backward)


def attention_without_segments(q, k, v, heads, scale, mask):
    """All heads of one sequence on a batch of one with no ``Segments``, as the
    cached decode step computed it before it passed segments."""
    qh, kh, vh = (_split_heads(a[None], heads) for a in (q, k, v))
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return _merge_heads(np.matmul(e / e.sum(axis=-1, keepdims=True), vh))[0]


def shifted_copies(x: np.ndarray, seg: Segments) -> tuple[np.ndarray, np.ndarray]:
    """The rows before and after each row of ``x``, zero across sequence ends."""
    prev, nxt = np.zeros_like(x), np.zeros_like(x)
    for start, n in zip(seg.starts.tolist(), seg.lengths.tolist()):
        prev[start + 1 : start + n] = x[start : start + n - 1]
        nxt[start : start + n - 1] = x[start + 1 : start + n]
    return prev, nxt


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def assert_same_loss_and_grads(kernel, reference, params, out_shape, seed):
    """Both paths give the same weighted-sum loss and the same parameter gradients."""
    weights = Tensor(np.random.default_rng(seed).normal(size=out_shape))
    results = []
    for build in (kernel, reference):
        for p in params:
            p.grad = None
        loss = tsum(build() * weights)
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
            lambda: attend(q, k, v, heads, scale, mask, *whole(q, k)),
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
        check_grad(
            lambda: tsum(attend(q, k, v, heads, 0.5, mask, *whole(q, k)) * weights), [q, k, v]
        )

    def test_causal_mask_hides_the_future(self):
        q, k, v = qkv(np.random.default_rng(1), 5, 5, 4)
        full = attend(q, k, v, 2, 0.5, causal_mask(5), *whole(q, k)).data
        v.data[3:] = 0.0  # later values must not reach earlier rows
        k.data[3:] = 7.0
        out = attend(q, k, v, 2, 0.5, causal_mask(5), *whole(q, k)).data
        np.testing.assert_array_equal(out[:3], full[:3])

    def test_shape_errors(self):
        q, k, v = qkv(np.random.default_rng(2), 3, 4, 6)
        with pytest.raises(DimensionError):
            attend(q, k, v, 4, 1.0, None, *whole(q, k))  # 6 columns do not split into 4 heads
        with pytest.raises(DimensionError):
            attend(q, k, Tensor(np.zeros((3, 6))), 2, 1.0, None, *whole(q, k))


class TestDepthwise3:
    """The depthwise conv, inside the cgMLP node since that node took it in, against
    the zero-pad, concat and narrow composition."""

    @pytest.mark.parametrize("length", [1, 2, 9])
    def test_matches_padded_composition(self, length):
        mlp, x = cgmlp_and_input(length, length)
        assert_same_loss_and_grads(
            lambda: mlp(x, Segments([length])),
            lambda: cgmlp_of_nodes(mlp, x, reference_depthwise3),
            [x] + mlp.parameters(),
            (length, 5),
            seed=length + 1,
        )

    def test_forward_is_bit_identical_to_the_composition(self):
        mlp, x = cgmlp_and_input(3, 11, dim=4)
        np.testing.assert_array_equal(
            mlp(x, Segments([11])).data, cgmlp_of_nodes(mlp, x, reference_depthwise3).data
        )

    def test_gradient_matches_finite_differences(self):
        mlp, x = cgmlp_and_input(4, PADDED.total, dim=3)
        weights = Tensor(np.random.default_rng(5).normal(size=(PADDED.total, 3)))
        check_grad(lambda: tsum(mlp(x, PADDED) * weights), [x] + mlp.parameters())


class TestConvGatedMLP:
    # The padded batch, equal lengths, and sequences of one row, whose conv
    # sees zeros on both sides.
    @pytest.mark.parametrize("lengths", [PADDED.lengths.tolist(), [4, 4], [1, 6, 1]])
    def test_node_is_bit_identical_to_the_nodes_it_replaced(self, lengths):
        seg = Segments(lengths)
        mlp, x = cgmlp_and_input(12, seg.total)
        params = [x] + mlp.parameters()
        weights = Tensor(np.random.default_rng(13).normal(size=(seg.total, 5)))
        conv = lambda v, kernel, bias: depthwise3_node(v, kernel, bias, seg)  # noqa: E731
        results = []
        for build in (lambda: mlp(x, seg), lambda: cgmlp_of_nodes(mlp, x, conv)):
            for p in params:
                p.grad = None
            out = build()
            tsum(out * weights).backward()
            results.append((out.data, [p.grad for p in params]))
        (out_k, grads_k), (out_r, grads_r) = results
        np.testing.assert_array_equal(out_k, out_r)
        for got, want in zip(grads_k, grads_r):
            np.testing.assert_array_equal(got, want)


def ffn_and_input(seed: int) -> tuple[FeedForward, Tensor]:
    """An FFN with random biases (zero at init) and an input that gives it a gradient."""
    rng = np.random.default_rng(seed)
    ffn = FeedForward(rng, 4, 6)
    for bias in (ffn.lin1.bias, ffn.lin2.bias):
        bias.data = rng.normal(size=bias.shape)
    return ffn, Tensor(rng.normal(size=(7, 4)), requires_grad=True)


class TestFeedForward:
    def test_node_is_bit_identical_to_the_composition(self):
        ffn, x = ffn_and_input(6)
        params = [x] + ffn.parameters()
        weights = Tensor(np.random.default_rng(7).normal(size=(7, 4)))
        results = []
        for build in (ffn, lambda t: reference_ffn(ffn, t)):
            for p in params:
                p.grad = None
            out = build(x)
            tsum(out * weights).backward()
            results.append((out.data, [p.grad for p in params]))
        (out_k, grads_k), (out_r, grads_r) = results
        np.testing.assert_array_equal(out_k, out_r)
        for got, want in zip(grads_k, grads_r):
            np.testing.assert_array_equal(got, want)

    def test_gradient_matches_finite_differences(self):
        ffn, x = ffn_and_input(9)
        weights = Tensor(np.random.default_rng(10).normal(size=(7, 4)))
        check_grad(lambda: tsum(ffn(x) * weights), [x] + ffn.parameters())


def split_rows(a: np.ndarray, seg: Segments) -> list[np.ndarray]:
    return [a[start : start + length] for start, length in zip(seg.starts, seg.lengths)]


def leaf(a: np.ndarray) -> Tensor:
    return Tensor(a.copy(), requires_grad=True)


class TestSegments:
    def test_layout(self):
        seg = Segments([2, 3, 1])
        assert (seg.count, seg.total, seg.longest, seg.padded) == (3, 6, 3, True)
        np.testing.assert_array_equal(seg.starts, [0, 2, 5])
        np.testing.assert_array_equal(seg.index, [0, 0, 1, 1, 1, 2])
        np.testing.assert_array_equal(seg.positions, [0, 1, 0, 1, 2, 0])
        rows = np.arange(12.0).reshape(6, 2)
        padded = seg.pad(rows)
        assert padded.shape == (3, 3, 2)
        np.testing.assert_array_equal(padded[0, 2], [0.0, 0.0])
        np.testing.assert_array_equal(padded[1], rows[2:5])
        np.testing.assert_array_equal(seg.unpad(padded), rows)
        np.testing.assert_array_equal(seg.key_mask() == 0.0, [[1, 1, 0], [1, 1, 1], [1, 0, 0]])

    @pytest.mark.parametrize("lengths", [[], [2, 0], [[1, 2]]])
    def test_bad_lengths_rejected(self, lengths):
        with pytest.raises(DimensionError):
            Segments(lengths)


# (query lengths, key lengths, width, heads, causal): self-attention with and
# without the causal mask, cross-attention, and equal lengths (no padding).
SEGMENTED_ATTENTION_CASES = [
    ([3, 7, 5], None, 8, 2, False),
    ([4, 1, 6], None, 8, 4, True),
    ([2, 5, 3], [6, 4, 7], 12, 3, False),
    ([4, 4], None, 8, 2, True),
]


class TestSegmentedAttend:
    @pytest.mark.parametrize("q_lengths,k_lengths,dim,heads,causal", SEGMENTED_ATTENTION_CASES)
    def test_matches_one_call_per_segment(self, q_lengths, k_lengths, dim, heads, causal):
        qs = Segments(q_lengths)
        ks = Segments(k_lengths) if k_lengths else qs
        rng = np.random.default_rng(sum(q_lengths) * dim)
        arrays = [rng.normal(size=(n, dim)) for n in (qs.total, ks.total, ks.total)]
        weights = rng.normal(size=(qs.total, dim))
        scale = 1.0 / np.sqrt(dim // heads)

        q, k, v = (leaf(a) for a in arrays)
        mask = causal_mask(qs.longest) if causal else None
        out = attend(q, k, v, heads, scale, mask, qs, ks)
        tsum(out * Tensor(weights)).backward()

        outs, grads = [], [[], [], []]
        for qb, kb, vb, wb in zip(
            split_rows(arrays[0], qs), split_rows(arrays[1], ks), split_rows(arrays[2], ks),
            split_rows(weights, qs),
        ):
            parts = [leaf(a) for a in (qb, kb, vb)]
            mask_b = causal_mask(qb.shape[0]) if causal else None
            out_b = attend(*parts, heads, scale, mask_b, *whole(*parts[:2]))
            tsum(out_b * Tensor(wb)).backward()
            outs.append(out_b.data)
            for acc, t in zip(grads, parts):
                acc.append(t.grad)
        assert relative_gap(out.data, np.concatenate(outs)) <= 1e-12
        for t, parts in zip((q, k, v), grads):
            assert relative_gap(t.grad, np.concatenate(parts)) <= 1e-12

    @pytest.mark.parametrize("t_q,t_k,causal", [(1, 4, False), (1, 48, False), (6, 6, True)])
    def test_no_segments_is_bit_identical_to_one_segment(self, t_q, t_k, causal):
        # One segment on each side, as the cached decode step and the array
        # encoder of one utterance pass them, pads and unpads nothing: ``attend``
        # equals attention computed with no segments at all, to the bit.
        rng = np.random.default_rng(t_q * t_k)
        q, k, v = (rng.normal(size=(n, 8)) for n in (t_q, t_k, t_k))
        mask = causal_mask(t_q) if causal else None
        out = attention_without_segments(q, k, v, 2, 0.5, mask)
        node = attend(Tensor(q), Tensor(k), Tensor(v), 2, 0.5, mask, Segments([t_q]), Segments([t_k]))
        np.testing.assert_array_equal(out, node.data)

    @pytest.mark.parametrize("q_lengths,k_lengths,causal", [
        ([3, 5, 2], None, True),
        ([4, 2], [3, 6], False),
    ])
    def test_backward_is_bit_identical_to_keeping_the_pads(self, q_lengths, k_lengths, causal):
        qs = Segments(q_lengths)
        ks = Segments(k_lengths) if k_lengths else qs
        rng = np.random.default_rng(sum(q_lengths))
        arrays = [rng.normal(size=(n, 8)) for n in (qs.total, ks.total, ks.total)]
        weights = Tensor(rng.normal(size=(qs.total, 8)))
        mask = causal_mask(qs.longest) if causal else None
        results = []
        for node in (attend, attend_keeping_pads):
            q, k, v = (leaf(a) for a in arrays)
            out = node(q, k, v, 2, 0.5, mask, qs, ks)
            tsum(out * weights).backward()
            results.append((out.data, q.grad, k.grad, v.grad))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_node_over_padded_segments_keeps_no_padded_copies(self):
        qs, heads, dim = Segments([30, 50, 20]), 4, 32
        q, k, v = qkv(np.random.default_rng(6), qs.total, qs.total, dim)
        probs = qs.count * heads * qs.longest**2 * 8
        # The padded copies of Q, K and V would add 112.5 KiB, the key mask 1,200 bytes.
        retained = retained_bytes(lambda: attend(q, k, v, heads, 0.5, None, qs, qs))
        assert retained <= probs

    def test_segments_must_fit_the_rows(self):
        q, k, v = qkv(np.random.default_rng(5), 5, 5, 4)
        with pytest.raises(DimensionError):
            attend(q, k, v, 2, 0.5, None, Segments([2, 2]), Segments([2, 3]))
        with pytest.raises(DimensionError):
            attend(q, k, v, 2, 0.5, None, Segments([5]), Segments([2, 3]))


class TestSegmentedDepthwise3:
    """The cgMLP node's depthwise conv over packed sequences against one conv per sequence."""

    @pytest.mark.parametrize("lengths", [[1, 4, 2], [3, 3], [5]])
    def test_matches_one_call_per_segment(self, lengths):
        seg = Segments(lengths)
        mlp, x = cgmlp_and_input(len(lengths), seg.total)
        weights = Tensor(np.random.default_rng(len(lengths)).normal(size=(seg.total, 5)))
        per_segment = conv_per_segment(seg)
        results = []
        for build in (lambda t: mlp(t, seg), lambda t: cgmlp_of_nodes(mlp, t, per_segment)):
            xt = leaf(x.data)
            for p in mlp.parameters():
                p.grad = None
            out = build(xt)
            tsum(out * weights).backward()
            results.append((out.data, xt.grad, [p.grad for p in mlp.parameters()]))
        (out, dx, grads), (out_r, dx_r, grads_r) = results
        # The conv's output and input gradient are the same sums in the same
        # order, and the other layers see the same rows; the conv's parameter
        # gradients sum the rows in one pass instead of per segment.
        np.testing.assert_array_equal(out, out_r)
        np.testing.assert_array_equal(dx, dx_r)
        for name, got, want in zip(("up W", "up b", "kernel", "kernel bias", "down W", "down b"),
                                   grads, grads_r):
            if name.startswith("kernel"):
                assert relative_gap(got, want) <= 1e-12
            else:
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lengths", [[1, 4, 2], [3, 3]])
    def test_kernel_gradient_is_bit_identical_to_the_shifted_copy_formula(self, lengths):
        seg = Segments(lengths)
        mlp, x = cgmlp_and_input(10 + len(lengths), seg.total)
        g = np.random.default_rng(len(lengths)).normal(size=(seg.total, 5))
        tsum(mlp(x, seg) * Tensor(g)).backward()
        _pre, _s, u, _conv, _gated = mlp.forward(x.data, seg)[1]
        gate, conv_in = u[:, : mlp.dim], u[:, mlp.dim :]
        dconv = (g @ mlp.down.weight.data.T) * gate  # the gradient at the conv's output
        prev, nxt = shifted_copies(conv_in, seg)
        # sum_t dconv[t] prev[t], ...
        want = np.stack([(dconv * p).sum(axis=0) for p in (prev, conv_in, nxt)])
        np.testing.assert_array_equal(mlp.kernel.grad, want)

    def test_node_keeps_nothing_but_its_output(self):
        seg = Segments([200, 1, 311])
        mlp, x = cgmlp_and_input(11, seg.total, dim=64)
        # The conv keeps only its output, which the gate's product needs anyway.
        # The node keeps pre, s and u (2 widths each), conv and gated: 8 widths a
        # row. Shifted copies of the conv's input would add 2 x 256 KiB.
        kept = 8 * seg.total * 64 * 8
        assert retained_bytes(lambda: mlp(x, seg)) <= kept

    def test_segments_must_cover_the_rows(self):
        mlp = ConvGatedMLP(np.random.default_rng(0), 3)
        with pytest.raises(DimensionError):
            mlp(Tensor(np.zeros((4, 3))), Segments([2, 3]))
