import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

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


def rmsnorm_parent_formula(x, scale, eps):
    """The rmsnorm forward before its mean lost the np.mean wrapper."""
    r = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x * r * scale


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 2, 16, 64, 65, 1000])
def test_rmsnorm_mean_and_output_bytes_equal_np_mean(dtype, width):
    """1e-20 squares to a subnormal in float32 (and to 0 in some rows)."""
    rng = np.random.default_rng(width)
    for row_scale in (1e-20, 1e-3, 1.0, 1e3):
        x = (rng.normal(size=(7, width)) * row_scale).astype(dtype)
        want = np.mean(x * x, axis=-1, keepdims=True)
        got = T._mean_square(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), row_scale
        scale = rng.normal(size=width).astype(dtype)
        y = T.rmsnorm(T.Tensor(x), T.Tensor(scale), 1e-6).data
        assert y.tobytes() == rmsnorm_parent_formula(x, scale, 1e-6).tobytes(), row_scale


def test_grad_check_quadratic():
    x = t64([1.0, 2.0])
    report = fd_check(lambda: T.tsum(T.mul(x, x)), [("x", x)], tol=1e-8)
    x.grad = None
    T.tsum(T.mul(x, x)).backward()
    assert np.allclose(x.grad, [2.0, 4.0])
    assert report.n_checked == 2


_MLP_W = [T.Tensor(np.random.default_rng(4).normal(size=shape) * 0.5)
          for shape in ((5, 6), (5, 6), (6, 5))]


def swiglu(x):
    """x -> swiglu_mlp(x, w1, w2, w3) with fixed constant weights."""
    return T.swiglu_mlp(x, *_MLP_W)


@pytest.mark.parametrize("op", [T.tanh, swiglu, T.texp])
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
        y = T.gather_rows(y, np.array([0, 2, 0, 1, 1]))   # duplicate rows accumulate
        return T.tsum(T.mul(y, y))

    fd_check(loss, [("x", x)])


def test_reductions_and_mean():
    rng = np.random.default_rng(11)
    x = t64(rng.normal(size=(4, 5)))
    def row_mean():
        return T.mul_const(T.tsum(x, axis=1, keepdims=True), 1.0 / 5)

    fd_check(lambda: T.tsum(T.mul(row_mean(), row_mean())), [("x", x)])
    assert row_mean().shape == (4, 1)
    assert np.allclose(T.mul_const(T.tsum(x), 1.0 / 20).data, x.data.mean())


def test_forward_deterministic_bit_identical():
    rng = np.random.default_rng(12)
    arr = rng.normal(size=(16, 16)).astype(np.float32)
    w = rng.normal(size=(16, 16)).astype(np.float32)

    def run():
        return T.swiglu_mlp(T.Tensor(arr), T.Tensor(w), T.Tensor(w.T), T.Tensor(w)).data

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


@pytest.mark.parametrize("wrong", ["shape", "dtype"])
def test_backward_rejects_a_gradient_unlike_its_parent(wrong):
    x = T.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)

    def bad_rule(g):
        if wrong == "shape":
            return np.ones((3, 2), dtype=np.float32)
        return np.ones((2, 3), dtype=np.float64)

    node = T._make(x.data * 2.0, [(x, bad_rule)])
    with pytest.raises(DimensionError, match="bad_rule"):
        T.tsum(node).backward()
    assert x.grad is None


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
@example(267327, 6, 6)  # an entry of 3.6e-5 with FD round-off 3e-10 (rel 8.8e-6)
@example(2303209017, 6, 6)  # an entry of 4.5e-6 with FD round-off 1e-10 (rel 2.4e-5)
def test_random_composite_graphs_match_fd(seed, m, n):
    rng = np.random.default_rng(seed)
    a = t64(rng.normal(size=(m, n)) * 0.5)
    b = t64(rng.normal(size=(n, m)) * 0.5)
    scale = t64(rng.normal(size=m) * 0.2 + 1.0)
    w1, w2 = (t64(rng.normal(size=(m, n)) * 0.5, grad=False) for _ in range(2))
    w3 = t64(rng.normal(size=(n, m)) * 0.5, grad=False)

    def loss():
        h = T.matmul(a, b)
        h = T.rmsnorm(h, scale)
        h = T.swiglu_mlp(h, w1, w2, w3)
        return T.mul_const(T.tsum(T.mul(h, h)), 1.0 / (m * m))

    # Rounding f(x +- h) puts an absolute error of about k * eps * |f| / h on a
    # central difference; the draws that failed at a floor of 1e-6 had k near 4.
    # Entries below the floor are held to an absolute error of tol * floor.
    h, tol = 1e-6, 1e-5
    floor = max(1e-6, 16 * np.finfo(np.float64).eps * abs(float(loss().data)) / (h * tol))
    fd_check(loss, [("a", a), ("b", b), ("scale", scale)], tol=tol, h=h, rel_floor=floor)


class _LibcWithoutMallopt:
    def __init__(self):
        self.looked_up = []

    def __getattr__(self, name):
        self.looked_up.append(name)
        raise AttributeError(name)


def test_keep_freed_pages_mapped_is_a_no_op_without_mallopt(monkeypatch):
    libc = _LibcWithoutMallopt()
    opened = []
    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: opened.append(name) or libc)
    assert T._keep_freed_pages_mapped() is None
    assert opened == [None] and libc.looked_up == ["mallopt"]

    def no_libc(name):
        raise OSError("cannot open the running process")

    monkeypatch.setattr(T.ctypes, "CDLL", no_libc)
    assert T._keep_freed_pages_mapped() is None


class _RecordingMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_keep_freed_pages_mapped_sets_exactly_three_parameters(monkeypatch):
    mallopt = _RecordingMallopt()
    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    T._keep_freed_pages_mapped()
    # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD and M_ARENA_MAX, in that order
    assert mallopt.calls == [(-3, 32 << 20), (-1, 1 << 30), (-8, 1)]


@pytest.mark.parametrize("patch", ["", "ctypes.CDLL = no_libc"], ids=["libc", "no_libc"])
def test_tensor_reimport_is_safe(patch):
    # reloading in this process would replace the Tensor class under every
    # other module, so the re-import runs in a child process
    code = ("import ctypes, importlib\nimport numpy\n"
            "def no_libc(name):\n    raise OSError(name)\n"
            f"{patch}\nimport patchlm.tensor as T\nimportlib.reload(T)\n"
            "print(T.matmul(T.Tensor([[2.0]]), T.Tensor([[3.0]])).item())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "6.0"


def _ce_bytes(n, seed=3):
    rng = np.random.default_rng(seed)
    rows = T.Tensor(rng.normal(size=(n, 16)).astype(np.float32), requires_grad=True)
    table = T.Tensor(rng.normal(size=(4096, 16)).astype(np.float32), requires_grad=True)
    loss = T.softcapped_cross_entropy(rows, table, rng.integers(0, 4096, n), 15.0)
    loss.backward()
    return loss.data.tobytes() + rows.grad.tobytes() + table.grad.tobytes()


def _threads_in_a_child(code):
    """``threading.active_count()`` after ``code`` runs in a fresh process that
    has imported numpy as np and patchlm.tensor as T."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import threading\nimport numpy as np\nimport patchlm.tensor as T\n"
            "rng = np.random.default_rng(0)\n" + code + "print(threading.active_count())\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_import_and_a_one_chunk_ce_start_no_thread():
    assert _threads_in_a_child(
        "rows = T.Tensor(rng.normal(size=(256, 16)).astype(np.float32), requires_grad=True)\n"
        "table = T.Tensor(rng.normal(size=(4096, 16)).astype(np.float32), requires_grad=True)\n"
        "T.softcapped_cross_entropy(rows, table, rng.integers(0, 4096, 256), 15.0).backward()\n"
    ) == 1


def test_one_tile_attention_starts_no_thread():
    # a 128-query training pass with its backward, then a decode step after 300 keys
    assert _threads_in_a_child(
        "q, k, v = (T.Tensor(rng.normal(size=(2, h, 128, 16)).astype(np.float32),\n"
        "                    requires_grad=True) for h in (4, 2, 2))\n"
        "T.tsum(T.causal_gqa_attention(q, k, v, 0)).backward()\n"
        "q, k, v = (T.Tensor(rng.normal(size=(1, h, n, 16)).astype(np.float32))\n"
        "           for h, n in ((4, 1), (2, 301), (2, 301)))\n"
        "with T.no_grad():\n    T.causal_gqa_attention(q, k, v, 300)\n"
    ) == 1


def _attention_bytes(B=2, S=512, seed=5):
    """The q, k and v gradient bytes of an attention call that splits its slices."""
    rng = np.random.default_rng(seed)
    q, k, v = (T.Tensor(rng.normal(size=(B, h, S, 16)).astype(np.float32), requires_grad=True)
               for h in (4, 2, 2))
    T.tsum(T.causal_gqa_attention(q, k, v, 0)).backward()
    return b"".join(a.tobytes() for a in (q.grad, k.grad, v.grad))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_multi_chunk_ce_on_its_own_pool():
    # four CE chunks and a split attention: the pool exists from here on
    want = _ce_bytes(1000), _attention_bytes()
    assert T._pool is not None
    pid = os.fork()
    if pid == 0:                         # the child never returns into pytest
        status = 1
        try:
            status = 0 if (_ce_bytes(1000), _attention_bytes()) == want else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and os.waitstatus_to_exitcode(status) == 0
