import numpy as np
from hypothesis import settings

# every run of the suite draws the same examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def finite_difference(func, x, eps=1e-6):
    """Central-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        bump = np.zeros_like(xf)
        bump[i] = eps
        hi = func((xf + bump).reshape(x.shape))
        lo = func((xf - bump).reshape(x.shape))
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def relative_error(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)
