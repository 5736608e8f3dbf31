"""Tensor engine: op semantics, gradients vs finite differences, graph rules, and its op set."""

import ast
import inspect
import weakref

import numpy as np
import pytest

from avmoe import tensor
from avmoe.errors import ConfigError, DataError, DimensionError, GraphError
from avmoe.tensor import (
    Tensor,
    _record,
    affine,
    concat,
    gather_rows,
    layer_norm,
    matmul,
    mul,
    no_grad,
    softmax_rows,
    tsum,
)

from helpers import (
    check_grad, div, log_softmax_rows, numeric_grad, rel_error, retained_bytes,
    silu,
)



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
        worst = check_grad(lambda: tsum(matmul(a, b) * matmul(a, b)), [a, b], tol=1e-6)
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
        check_grad(lambda: tsum(layer_norm(x, g, b) * weights), [x, g, b], tol=1e-5)

    def test_node_keeps_only_its_row_statistics(self):
        rows, dim = 512, 64
        x = Tensor(np.random.default_rng(9).normal(size=(rows, dim)), requires_grad=True)
        gain, bias = Tensor(np.ones(dim), requires_grad=True), Tensor(np.zeros(dim))
        # mean and inv, (rows, 1) each; the normalized rows would be 256 KiB.
        assert retained_bytes(lambda: layer_norm(x, gain, bias)) <= 2 * rows * 8


def layer_norm_keeping_xhat(a, gain, bias, eps=1e-5):
    """The layer_norm node as it was when it kept the normalized rows for its backward."""
    dim = a.shape[-1]
    mean = np.add.reduce(a.data, axis=-1, keepdims=True)
    mean /= dim
    xhat = a.data - mean
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= dim
    var += eps
    inv = 1.0 / np.sqrt(var)
    xhat *= inv

    def backward(g):
        dxhat = g * gain.data
        da = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return da, (g * xhat).reshape(-1, dim).sum(axis=0), g.reshape(-1, dim).sum(axis=0)

    return _record(xhat * gain.data + bias.data, (a, gain, bias), backward)


def old_layer_norm(x, gain, bias, g, eps=1e-5):
    """The two-pass statistics (``mean``, then ``var``) and the backward, in plain numpy."""
    dim = x.shape[-1]
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    dxhat = g * gain
    da = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    dgain = (g * xhat).reshape(-1, dim).sum(axis=0)
    return xhat * gain + bias, da, dgain, g.reshape(-1, dim).sum(axis=0)


LAYER_NORM_SHAPES = [(1, 64), (35, 64), (3, 5, 64)]


def layer_norm_case(shape):
    """Input, gain, bias and output gradient, with a large offset and constant rows."""
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(scale=3.0, size=shape)
    rows = x.reshape(-1, 64)
    rows[0] = 1e8 + rng.normal(size=64)  # a large offset
    if rows.shape[0] > 2:
        rows[1] = 1e8  # constant rows: variance 0
        rows[2] = -2.5
    return x, rng.normal(size=64), rng.normal(size=64), rng.normal(size=shape)


@pytest.mark.parametrize("shape", LAYER_NORM_SHAPES)
def test_layer_norm_is_bit_identical_to_mean_and_var(shape):
    x, gain, bias, g = layer_norm_case(shape)
    a, tg, tb = (Tensor(v, requires_grad=True) for v in (x, gain, bias))
    out = layer_norm(a, tg, tb)
    tsum(out * Tensor(g)).backward()
    expected = old_layer_norm(x, gain, bias, g)
    for got, want in zip((out.data, a.grad, tg.grad, tb.grad), expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", LAYER_NORM_SHAPES)
def test_layer_norm_backward_is_bit_identical_to_keeping_xhat(shape):
    x, gain, bias, g = layer_norm_case(shape)
    grads = []
    for node in (layer_norm, layer_norm_keeping_xhat):
        params = [Tensor(v, requires_grad=True) for v in (x, gain, bias)]
        tsum(node(*params) * Tensor(g)).backward()
        grads.append([p.grad for p in params])
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want)


class TestBackwardRules:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tsum(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_quadratic_gives_w(self):
        w = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
        (tsum(w * w) * 0.5).backward()
        np.testing.assert_allclose(w.grad, w.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError, match="scalar"):
            (w * 2.0).backward()

    def test_detached_loss_rejected(self):
        with pytest.raises(GraphError, match="detached"):
            tsum(Tensor(np.ones(()) * 2.0)).backward()

    def test_repeated_backward_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        loss = tsum(w)
        loss.backward()
        with pytest.raises(GraphError, match="already"):
            loss.backward()

    def test_second_loss_through_a_walked_subgraph_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        shared = w * 2.0
        first, second = tsum(shared), tsum(shared * w)
        first.backward()
        with pytest.raises(GraphError, match="already ran through this node"):
            second.backward()
        # Refused before any gradient moved: second's product would reach w first.
        np.testing.assert_array_equal(w.grad, 2.0)

    def test_pass_stopped_by_an_exception_leaks_no_interior_grad(self):
        # A closure that raises stops the walk with a partial gradient on h,
        # which that pass had not reached; a later pass from h must not add it.
        w = Tensor(np.array([0.5, 1.5]), requires_grad=True)
        h = w * 2.0

        def fail(g):
            raise FloatingPointError("stopped")

        stopper = _record(h.data.copy(), (h,), fail)
        with pytest.raises(FloatingPointError):
            (tsum(h * 3.0) + tsum(stopper)).backward()
        assert h.grad is not None
        w.grad = None
        tsum(h * h).backward()
        np.testing.assert_array_equal(w.grad, 8.0 * w.data)

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
            out = tsum(w * 2.0)
        assert not out.requires_grad


class TestWhatTheGraphKeeps:
    """A node keeps the arrays its backward reads and no operand Tensor, so an op's
    output lives only while the forward code, or a backward that reads it, holds it."""

    def test_an_output_that_only_add_reads_goes_when_the_forward_drops_it(self):
        w = Tensor(np.ones((4, 3)), requires_grad=True)
        h = w * 2.0
        output = weakref.ref(h.data)
        loss = tsum(h + w)
        del h
        assert output() is None  # add's backward reads only the shapes
        loss.backward()
        np.testing.assert_array_equal(w.grad, 3.0)

    @pytest.mark.parametrize("weight_needs_grad", [True, False])
    def test_an_output_that_affine_reads_lives_until_backward(self, weight_needs_grad):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        h = x * 2.0
        output = weakref.ref(h.data)
        weight = Tensor(np.ones((3, 2)), requires_grad=weight_needs_grad)
        loss = tsum(affine(h, weight, Tensor(np.zeros(2))))
        del h
        # Only the weight's gradient reads the affine's input.
        assert (output() is not None) == weight_needs_grad
        loss.backward()
        assert output() is None  # the walked node let it go
        np.testing.assert_array_equal(x.grad, 4.0)
        if weight_needs_grad:
            np.testing.assert_array_equal(weight.grad, 8.0)


class TestPointwiseGradients:
    """Analytic gradients match central differences across 20 seeds; ``div``, ``silu``
    and ``log_softmax`` are the graph nodes of ``helpers`` that reference compositions use."""

    @pytest.mark.parametrize(
        "op",
        ["add", "mul", "div", "silu", "softmax", "log_softmax"],
    )
    def test_op_gradcheck(self, op):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
            y = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
            weights = Tensor(rng.normal(size=(3, 4)))

            if op == "add":
                build = lambda: tsum((x + y) * weights)
            elif op == "mul":
                build = lambda: tsum(x * y * weights)
            elif op == "div":
                y.data = np.abs(y.data) + 0.5  # bounded away from zero
                build = lambda: tsum(div(x, y) * weights)
            elif op == "silu":
                build = lambda: tsum(silu(x) * weights)
            elif op == "softmax":
                build = lambda: tsum(softmax_rows(x) * weights)
            else:
                build = lambda: tsum(log_softmax_rows(x) * weights)

            check_grad(build, [x, y] if op in ("add", "mul", "div") else [x])

    @pytest.mark.parametrize("op", [mul, matmul, affine], ids=["mul", "matmul", "affine"])
    def test_operand_that_needs_no_gradient_gets_none(self, op):
        # Operand shapes of a (2, 3) output; each operand in turn is the one
        # that needs a gradient, and every other one is a constant.
        shapes = {mul: [(2, 3), ()], matmul: [(2, 4), (4, 3)], affine: [(2, 4), (4, 3), (3,)]}[op]
        for needed in range(len(shapes)):
            operands = [Tensor(np.full(shape, 2.0), requires_grad=i == needed)
                        for i, shape in enumerate(shapes)]
            grads = op(*operands)._backward(np.ones((2, 3)))
            assert [g is None for g in grads] == [i != needed for i in range(len(shapes))]
            assert grads[needed].shape == shapes[needed]

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 3)))
        check_grad(lambda: tsum((x + b) * weights), [x, b])

    def test_affine_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        scale = Tensor(rng.normal(size=(5, 4)))
        check_grad(lambda: tsum(affine(x, w, b) * scale), [x, w, b], tol=1e-5)


class TestShapeOps:
    def test_concat_narrow_roundtrip(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        joined = concat([a, b], axis=0)
        np.testing.assert_array_equal(joined.data[:2], a.data)
        np.testing.assert_array_equal(joined.data[2:], b.data)
        weights = Tensor(rng.normal(size=(5, 4)))
        check_grad(lambda: tsum(concat([a, b], axis=0) * weights), [a, b])

    def test_gather_rows_with_repeats(self):
        table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = gather_rows(table, [1, 1, 3])
        np.testing.assert_array_equal(out.data, [[2.0, 3.0], [2.0, 3.0], [6.0, 7.0]])
        tsum(out).backward()
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_gather_rows_bounds(self):
        with pytest.raises(DataError):
            gather_rows(Tensor(np.zeros((3, 2))), [0, 3])


class TestNumericGuards:
    def test_sigmoid_finite_at_extremes(self):
        # silu(x) = x * sigmoid(x); the sigmoid must saturate, not overflow.
        x = Tensor(np.array([-1000.0, 1000.0]), requires_grad=True)
        out = silu(x)
        np.testing.assert_array_equal(out.data, [-0.0, 1000.0])
        tsum(out).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_engine_op_set_is_pinned():
    # The module-level functions of the engine that record a graph node. A change
    # that adds or removes an engine op updates this set.
    tree = ast.parse(inspect.getsource(tensor))
    ops = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "_record" for call in ast.walk(node))
    }
    assert ops == {"add", "mul", "matmul", "affine", "tsum", "softmax_rows", "layer_norm",
                   "concat", "gather_rows"}
