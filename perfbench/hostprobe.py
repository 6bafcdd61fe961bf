"""Host-speed probe: a fixed computation that uses no windrisk code.

run.py times this script, from spawn to exit, before every pass and after
the last one, and prints the median as the run's host factor, a
diagnostic that changes no metric.  Like a pass, it starts an
interpreter, imports numpy and scipy, runs scalar Python floating point
in an adaptive quadrature and small numpy array operations, so the shared
host's slow and fast states slow it much as they slow the passes, while
no change to windrisk can change its time.
"""

import math

import numpy as np
import scipy.special  # noqa: F401  (an import every pass pays as well)


def simpson(f, a, b, tol, fa, fm, fb, whole):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (simpson(f, a, m, 0.5 * tol, fa, flm, fm, left)
            + simpson(f, m, b, 0.5 * tol, fm, frm, fb, right))


total = 0.0
for k in range(1, 161, 2):
    f = lambda x, k=k: math.exp(-0.075 * k * x) * math.cos(x * x)  # noqa: E731
    fa, fm, fb = f(0.0), f(2.5), f(5.0)
    total += simpson(f, 0.0, 5.0, 1e-12, fa, fm, fb, 5.0 * (fa + 4.0 * fm + fb) / 6.0)

rng = np.random.default_rng(0)
a = rng.standard_normal((120, 120))
a = a @ a.T + 120.0 * np.eye(120)
for _ in range(20):
    np.linalg.cholesky(a)
z = np.full(400, -np.inf)
for _ in range(4000):
    z = np.maximum(z, rng.standard_normal(400) - 0.5 * np.arange(400) / 400.0)
