"""Reference kernel: how fast the host is right now.

Fixed work of the kinds that dominate obsforge's time, in code no change to
obsforge can touch: 8x8 eigen, SVD and linear solves, each followed by a
little scalar Python (the design chain's small calls); Kronecker-form
Lyapunov solves at n = 4, 8 and 12 (its large ones); and a batch RK4 of 500
rows (the Monte Carlo checks). ``python3 reference.py`` prints its time, so
that a child process can sample the speed that child processes see.
"""

import time

import numpy as np

_RNG = np.random.default_rng(1)
_A = -np.eye(8) + 0.1 * _RNG.standard_normal((8, 8))
_M = {n: -2.0 * np.eye(n) + 0.3 * _RNG.standard_normal((n, n)) for n in (4, 8, 12)}
_X = _RNG.standard_normal((500, 8))
_F = 0.1 * _RNG.standard_normal((8, 8))


def kernel():
    """Seconds taken by the fixed work; about 25 ms on the machine the benchmark was tuned on."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100):
        w, _ = np.linalg.eig(_A)
        s = np.linalg.svd(_A, compute_uv=False)
        x = np.linalg.solve(_A, _A[i % 8])
        acc += float(np.abs(w).max()) + float(s[0]) + float(x[0])
    for _ in range(6):
        for n, M in _M.items():
            eye = np.eye(n)
            x = np.linalg.solve(np.kron(eye, M) + np.kron(M, eye), eye.ravel())
            acc += float(x[0]) + float(np.linalg.eigvals(M).real.max())
    x, h = _X.copy(), 0.01
    for _ in range(20):
        k1 = x @ _F.T - 0.01 * x**3
        k2 = (x + 0.5 * h * k1) @ _F.T
        k3 = (x + 0.5 * h * k2) @ _F.T
        k4 = (x + h * k3) @ _F.T
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    acc += float(x[0, 0])
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(kernel()))
