"""Adam update semantics."""

import numpy as np
import pytest

from avmoe.errors import DimensionError
from avmoe.optim import Adam
from avmoe.tensor import Tensor

from helpers import ADAM_CONSTANTS, expression_adam_step


def one_param_adam(values, lr: float, **hyper) -> tuple[Tensor, Adam]:
    p = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
    return p, Adam([("p", p)], lr=lr, **{**ADAM_CONSTANTS, **hyper})


def test_zero_gradient_leaves_params_unchanged():
    p, opt = one_param_adam([1.0, -2.0, 3.0], lr=0.1)
    p.grad = np.zeros(3)
    opt.step(1, 1.0)
    np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])


def test_first_step_moves_by_about_lr():
    # Bias correction makes m_hat/sqrt(v_hat) = g/|g|, so |delta| ~ lr.
    lr = 0.05
    for g in (0.3, -1.7, 42.0):
        p, opt = one_param_adam([1.0], lr=lr)
        p.grad = np.array([g])
        opt.step(1, 1.0)
        delta = p.data[0] - 1.0
        assert np.sign(delta) == -np.sign(g)
        np.testing.assert_allclose(abs(delta), lr, rtol=1e-6)


def test_two_runs_reproduce_identical_state():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=(2, 3)) for _ in range(2)]

    def run():
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        opt = Adam([("p", p)], lr=0.01, **ADAM_CONSTANTS)
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step(t, 1.0)
        return p.data.copy(), opt.m["p"].copy(), opt.v["p"].copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_handed_over_moments_of_another_shape_are_rejected():
    p = Tensor(np.zeros(3), requires_grad=True)
    for m_shape, v_shape in [((2,), (3,)), ((3,), (3, 1)), ((1, 3), (1, 3))]:
        with pytest.raises(DimensionError, match="moments of p"):
            Adam([("p", p)], lr=0.1, **ADAM_CONSTANTS,
                 moments=({"p": np.zeros(m_shape)}, {"p": np.zeros(v_shape)}))


def test_none_grad_skipped_and_moments_untouched():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    opt = Adam([("p", p), ("q", q)], lr=0.1, **ADAM_CONSTANTS)
    p.grad = np.ones(3)
    opt.step(1, 1.0)
    np.testing.assert_array_equal(q.data, np.ones(3))
    np.testing.assert_array_equal(opt.m["q"], np.zeros(3))


def test_matches_reference_formula_over_steps():
    # Independent recomputation of the textbook update rule.
    rng = np.random.default_rng(1)
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    p, opt = one_param_adam([0.5, -0.25], lr=lr, beta1=b1, beta2=b2, eps=eps)
    ref_p, ref_m, ref_v = p.data.copy(), np.zeros(2), np.zeros(2)
    for t in range(1, 6):
        g = rng.normal(size=2)
        p.grad = g
        opt.step(t, 1.0)
        ref_m = b1 * ref_m + (1 - b1) * g
        ref_v = b2 * ref_v + (1 - b2) * g * g
        ref_p = ref_p - lr * (ref_m / (1 - b1**t)) / (np.sqrt(ref_v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(p.data, ref_p, atol=1e-15)


def test_in_place_update_is_bit_identical_to_the_expression():
    rng = np.random.default_rng(3)
    # Small weights, so that a change in how the update rounds shows in the weights.
    shapes = {"w": (16, 24), "b": (24,), "s": (), "e": (2, 1, 3)}
    params = [(name, Tensor(0.01 * rng.normal(size=shape), requires_grad=True))
              for name, shape in shapes.items()]
    opt = Adam(params, lr=1e-2, beta1=0.8, beta2=0.99, eps=1e-6)
    ref = {name: (p.data.copy(), np.zeros(p.data.shape), np.zeros(p.data.shape))
           for name, p in params}
    for t in range(1, 7):
        warm = min(1.0, t / 4)  # the warm-up factor ``_train_batch`` passes
        for name, p in params:
            g = rng.normal(size=p.data.shape)
            if t == 2:
                g = np.zeros_like(g)
            elif t == 3:
                g = np.full_like(g, -0.0)
            elif g.ndim:
                g.flat[::2] = 0.0
                g.flat[1::3] = -0.0
            p.grad = g
            ref_p, ref_m, ref_v = ref[name]
            expression_adam_step(ref_p, g, ref_m, ref_v, t, 1e-2 * warm, 0.8, 0.99, 1e-6)
        opt.step(t, warm)
        for name, p in params:
            ref_p, ref_m, ref_v = ref[name]
            assert p.data.tobytes() == ref_p.tobytes(), (t, name)
            assert opt.m[name].tobytes() == ref_m.tobytes(), (t, name)
            assert opt.v[name].tobytes() == ref_v.tobytes(), (t, name)


def test_default_hyperparameters_are_bit_identical_to_the_expression():
    rng = np.random.default_rng(4)
    p, opt = one_param_adam(rng.normal(size=(3, 2)), lr=3e-3)
    ref = [p.data.copy(), np.zeros((3, 2)), np.zeros((3, 2))]
    for t in range(1, 5):
        g = rng.normal(size=(3, 2))
        g[0] = -0.0
        p.grad = g
        opt.step(t, 1.0)
        expression_adam_step(ref[0], g, *ref[1:], t, 3e-3, 0.9, 0.999, 1e-8)
        for a, b in zip((p.data, opt.m["p"], opt.v["p"]), ref):
            assert a.tobytes() == b.tobytes()
