"""Tensor engine: op semantics, gradients vs finite differences, graph rules."""

import numpy as np
import pytest

from avmoe.errors import ConfigError, DataError, DimensionError, GraphError
from avmoe.tensor import (
    Tensor,
    affine,
    concat,
    gather_rows,
    layer_norm,
    log_softmax_rows,
    matmul,
    narrow,
    no_grad,
    relu,
    silu,
    softmax_rows,
    take_along_cols,
)

from helpers import check_grad, numeric_grad, rel_error


class TestMatmul:
    def test_identity(self):
        b = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        worst = check_grad(lambda: (matmul(a, b) * matmul(a, b)).sum(), [a, b], tol=1e-6)
        assert worst < 1e-6


class TestSoftmax:
    def test_uniform_on_zero_row(self):
        out = softmax_rows(Tensor(np.zeros((1, 8))))
        np.testing.assert_allclose(out.data, 0.125, atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(Tensor([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6))
        base = softmax_rows(Tensor(x)).data
        shifted = softmax_rows(Tensor(x + 123.456)).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_rows_sum_to_one_entries_in_unit_interval(self):
        for seed in range(20):
            x = np.random.default_rng(seed).normal(scale=5.0, size=(5, 9))
            y = softmax_rows(Tensor(x)).data
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
            assert (y > 0).all() and (y < 1).all()

    def test_stable_for_huge_logits(self):
        y = softmax_rows(Tensor([[1000.0, 0.0, -1e30]]))
        assert np.isfinite(y.data).all()


class TestLayerNorm:
    def test_constant_vector_goes_to_zero(self):
        out = layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_row(self):
        out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_width_one_rejected(self):
        with pytest.raises(ConfigError):
            layer_norm(Tensor([[1.0]]), Tensor(np.ones(1)), Tensor(np.zeros(1)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
        b = Tensor(rng.uniform(-0.5, 0.5, 5), requires_grad=True)
        weights = Tensor(rng.normal(size=(3, 5)))
        check_grad(lambda: (layer_norm(x, g, b) * weights).sum(), [x, g, b], tol=1e-5)


class TestBackwardRules:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w.sum().backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_quadratic_gives_w(self):
        w = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
        ((w * w).sum() * 0.5).backward()
        np.testing.assert_allclose(w.grad, w.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError, match="scalar"):
            (w * 2.0).backward()

    def test_detached_loss_rejected(self):
        with pytest.raises(GraphError, match="detached"):
            Tensor(np.ones(()) * 2.0).sum().backward()

    def test_repeated_backward_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        loss = w.sum()
        loss.backward()
        with pytest.raises(GraphError, match="already"):
            loss.backward()

    def test_fanout_accumulates(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        (x * 3.0 + x * 2.0).backward()
        np.testing.assert_allclose(x.grad, 5.0)

    def test_diamond_equals_sum_of_path_gradients(self):
        # u = 2x, v = 3x, y = u*v = 6x^2 -> dy/dx = 12x via two paths.
        x = Tensor(np.array(1.7), requires_grad=True)
        u = x * 2.0
        v = x * 3.0
        (u * v).backward()
        np.testing.assert_allclose(x.grad, 12.0 * 1.7, atol=1e-12)

    def test_no_grad_suppresses_recording(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (w * 2.0).sum()
        assert not out.requires_grad


class TestPointwiseGradients:
    """Analytic gradients match central differences across 20 seeds."""

    @pytest.mark.parametrize(
        "op",
        ["add", "sub", "mul", "div", "silu", "relu", "softmax", "log_softmax"],
    )
    def test_op_gradcheck(self, op):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
            y = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
            weights = Tensor(rng.normal(size=(3, 4)))

            if op == "add":
                build = lambda: ((x + y) * weights).sum()
            elif op == "sub":
                build = lambda: ((x - y) * weights).sum()
            elif op == "mul":
                build = lambda: (x * y * weights).sum()
            elif op == "div":
                y.data = np.abs(y.data) + 0.5  # bounded away from zero
                build = lambda: ((x / y) * weights).sum()
            elif op == "silu":
                build = lambda: (silu(x) * weights).sum()
            elif op == "relu":
                x.data = x.data + np.sign(x.data) * 0.01  # keep clear of the kink
                build = lambda: (relu(x) * weights).sum()
            elif op == "softmax":
                build = lambda: (softmax_rows(x) * weights).sum()
            else:
                build = lambda: (log_softmax_rows(x) * weights).sum()

            check_grad(build, [x, y] if op in ("add", "sub", "mul", "div") else [x])

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 3)))
        check_grad(lambda: ((x + b) * weights).sum(), [x, b])

    def test_affine_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        scale = Tensor(rng.normal(size=(5, 4)))
        check_grad(lambda: (affine(x, w, b) * scale).sum(), [x, w, b], tol=1e-5)


class TestShapeOps:
    def test_concat_narrow_roundtrip(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        joined = concat([a, b], axis=0)
        np.testing.assert_array_equal(narrow(joined, 0, 0, 2).data, a.data)
        np.testing.assert_array_equal(narrow(joined, 0, 2, 3).data, b.data)
        weights = Tensor(rng.normal(size=(5, 4)))
        check_grad(lambda: (concat([a, b], axis=0) * weights).sum(), [a, b])

    def test_narrow_out_of_bounds(self):
        with pytest.raises(DimensionError):
            narrow(Tensor(np.zeros((3, 2))), 0, 2, 2)

    def test_gather_rows_with_repeats(self):
        table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = gather_rows(table, [1, 1, 3])
        np.testing.assert_array_equal(out.data, [[2.0, 3.0], [2.0, 3.0], [6.0, 7.0]])
        out.sum().backward()
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_gather_rows_bounds(self):
        with pytest.raises(DataError):
            gather_rows(Tensor(np.zeros((3, 2))), [0, 3])

    def test_take_along_cols(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        idx = np.array([[0, 4], [2, 2], [1, 3]])
        out = take_along_cols(a, idx)
        expected = np.take_along_axis(a.data, idx, axis=1)
        np.testing.assert_array_equal(out.data, expected)
        weights = Tensor(rng.normal(size=(3, 2)))
        check_grad(lambda: (take_along_cols(a, idx) * weights).sum(), [a])

    def test_transpose_reshape_gradients(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 3)))
        check_grad(lambda: (a.T * weights).sum(), [a])
        weights2 = Tensor(rng.normal(size=12))
        check_grad(lambda: (a.reshape(12) * weights2).sum(), [a])


class TestNumericGuards:
    def test_sigmoid_finite_at_extremes(self):
        # silu(x) = x * sigmoid(x); the sigmoid must saturate, not overflow.
        x = Tensor(np.array([-1000.0, 1000.0]), requires_grad=True)
        out = silu(x)
        np.testing.assert_array_equal(out.data, [-0.0, 1000.0])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])
