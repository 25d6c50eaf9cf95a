import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchlm import tensor as T
from patchlm.errors import DimensionError, NumericError


def t64(arr, grad=True):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def fd_check(make_loss, params, tol=1e-6, **kw):
    report = T.grad_check(make_loss, params, tol=tol, **kw)
    assert report.passed, f"{report.worst_param}: rel err {report.max_rel_err:.3g}"
    return report


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(T.matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_hand_value():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.item() == 11.0


def test_matmul_grad_linearity():
    a = t64([[2.0, -1.0], [0.5, 3.0]])
    b = t64([[1.0], [1.0]], grad=False)
    T.tsum(T.matmul(a, b)).backward()
    assert np.array_equal(a.grad, np.ones((2, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_rmsnorm_ones_and_zeros():
    scale = T.Tensor(np.ones(4))
    y = T.rmsnorm(T.Tensor(np.ones(4)), scale, eps=0.0)
    assert np.allclose(y.data, np.ones(4))
    z = T.rmsnorm(T.Tensor(np.zeros(4)), scale)
    assert np.array_equal(z.data, np.zeros(4))


def test_rmsnorm_hand_value():
    y = T.rmsnorm(T.Tensor([3.0, 4.0]), T.Tensor(np.ones(2)), eps=0.0)
    expect = np.array([3.0, 4.0]) / np.sqrt(12.5)
    assert np.allclose(y.data, expect, atol=1e-6)
    assert np.allclose(y.data, [0.84852814, 1.13137085], atol=1e-6)


def test_grad_check_quadratic():
    x = t64([1.0, 2.0])
    report = fd_check(lambda: T.tsum(T.mul(x, x)), [("x", x)], tol=1e-8)
    x.grad = None
    T.tsum(T.mul(x, x)).backward()
    assert np.allclose(x.grad, [2.0, 4.0])
    assert report.n_checked == 2


@pytest.mark.parametrize("op", [T.tanh, T.silu, T.texp])
def test_unary_op_gradients(op):
    rng = np.random.default_rng(3)
    x = t64(rng.normal(size=(3, 5)) * 0.7)
    fd_check(lambda: T.tsum(op(x)), [("x", x)])


def test_log_softmax_matches_softmax_log():
    rng = np.random.default_rng(6)
    x = t64(rng.normal(size=(3, 7)))
    ls = T.log_softmax(x)
    e = np.exp(x.data)
    assert np.allclose(ls.data, np.log(e / e.sum(axis=-1, keepdims=True)), atol=1e-12)
    fd_check(lambda: T.tsum(T.mul(T.log_softmax(x), x)), [("x", x)])


def test_maximum_right_derivative_at_tie():
    x = t64([0.0, 1.0, -1.0])
    zero = T.Tensor(np.zeros(3))
    T.tsum(T.maximum(x, zero)).backward()
    # at the tie the gradient follows the first argument
    assert np.array_equal(x.grad, [1.0, 1.0, 0.0])


def test_gather_scatter_roundtrip_grads():
    rng = np.random.default_rng(7)
    table = t64(rng.normal(size=(6, 3)))
    ids = np.array([1, 1, 4])
    fd_check(lambda: T.tsum(T.mul(T.gather_rows(table, ids), T.gather_rows(table, ids))),
             [("table", table)])
    src = t64(rng.normal(size=(2, 3)))
    out = T.scatter_rows(5, np.array([3, 0]), src)
    assert out.shape == (5, 3)
    assert np.array_equal(out.data[3], src.data[0])
    fd_check(lambda: T.tsum(T.mul(T.scatter_rows(5, np.array([3, 0]), src),
                                  T.scatter_rows(5, np.array([3, 0]), src))), [("src", src)])


def test_gather_values():
    x = t64([[1.0, 2.0], [3.0, 4.0]])
    out = T.gather_values(x, np.array([1, 0]))
    assert np.array_equal(out.data, [2.0, 3.0])
    fd_check(lambda: T.tsum(T.mul(T.gather_values(x, np.array([1, 0])),
                                  T.gather_values(x, np.array([1, 0])))), [("x", x)])


def test_shape_ops_gradients():
    rng = np.random.default_rng(9)
    x = t64(rng.normal(size=(2, 3, 4)))

    def loss():
        y = T.transpose(x, (1, 0, 2))
        y = T.reshape(y, (3, 8))
        y = T.concat([y, y], axis=1)
        y = T.index(y, (slice(0, 2), slice(1, 9)))
        y = T.index(y, (np.array([0, 0, 1, 1]),))
        return T.tsum(T.mul(y, y))

    fd_check(loss, [("x", x)])


def test_reductions_and_mean():
    rng = np.random.default_rng(11)
    x = t64(rng.normal(size=(4, 5)))
    fd_check(lambda: T.tsum(T.mul(T.tmean(x, axis=1, keepdims=True),
                                  T.tmean(x, axis=1, keepdims=True))), [("x", x)])
    assert np.allclose(T.tmean(x).data, x.data.mean())


def test_forward_deterministic_bit_identical():
    rng = np.random.default_rng(12)
    arr = rng.normal(size=(16, 16)).astype(np.float32)
    w = rng.normal(size=(16, 16)).astype(np.float32)

    def run():
        return T.matmul(T.silu(T.Tensor(arr)), T.Tensor(w)).data

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_backward_twice_accumulates_exactly_double():
    x = t64([1.0, -2.0, 3.0])
    y = T.tsum(T.mul(x, x))
    y.backward()
    once = x.grad.copy()
    y.backward()
    assert np.array_equal(x.grad, 2.0 * once)


def test_no_grad_builds_no_graph():
    x = t64([1.0, 2.0])
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._rules == ()


def test_grad_check_rejects_float32():
    x = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(NumericError):
        T.grad_check(lambda: T.tsum(x), [("x", x)])


def test_grad_check_rejects_nonfinite_objective():
    x = t64([1.0])
    with pytest.raises(NumericError):
        T.grad_check(lambda: T.mul_const(x, np.inf), [("x", x)])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(2, 6))
@example(79332, 2, 2)   # a row with rms 0.044: FD truncation error 3.4e-5 at h=1e-5
def test_random_composite_graphs_match_fd(seed, m, n):
    rng = np.random.default_rng(seed)
    a = t64(rng.normal(size=(m, n)) * 0.5)
    b = t64(rng.normal(size=(n, m)) * 0.5)
    scale = t64(rng.normal(size=m) * 0.2 + 1.0)

    def loss():
        h = T.matmul(a, b)
        h = T.rmsnorm(h, scale)
        h = T.silu(h)
        return T.tmean(T.mul(h, h))

    fd_check(loss, [("a", a), ("b", b), ("scale", scale)], tol=1e-5, h=1e-6)
