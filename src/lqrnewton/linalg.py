"""Dense matrix utilities: vectorization, Kronecker products, spectral
radius, the matrix exponential and the PSD square root.

Vectorization is column-major throughout the library: ``vec`` stacks the
columns of a matrix top to bottom, and every routine that exchanges a matrix
for a flat vector follows that convention. All functions are pure and
allocate fresh arrays, so they are safe to call from multiple threads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def vec(x: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into a 1-D vector of length rows*cols."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"vec expects a 2-D array, got ndim={x.ndim}")
    return x.ravel(order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a vector back into a rows-by-cols matrix.

    Raises ValueError if the vector length does not equal rows*cols.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec length-{v.size} vector into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices.

    For a of shape (m, n) and b of shape (p, q) the result has shape
    (m*p, n*q) with block (i, j) equal to a[i, j] * b. Satisfies the
    mixed-product rule kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)
    whenever the factor shapes conform.
    """
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def spectral_radius(x: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix.

    Uses a dense eigenvalue computation (Hessenberg reduction + QR), which is
    reliable for the complex-conjugate dominant pairs that closed-loop
    matrices routinely have. Accurate to roughly 1e-10 relative for the
    well-scaled matrices this library works with (n <= 200 by intent).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"spectral_radius expects a square matrix, got shape {x.shape}")
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(x))))


def expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential via Pade scaling-and-squaring.

    Accurate to ~1e-12 relative for well-scaled inputs (the continuous-time
    system matrices times a sampling period that this library feeds it).
    expm(0) is exactly the identity.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expm expects a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("expm requires finite entries")
    return scipy.linalg.expm(x)


def psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root L with L @ L.T == s.

    Eigenvalue-based so that rank-deficient and zero covariances work;
    tiny negative eigenvalues from round-off are clipped to zero.
    """
    s = np.asarray(s, dtype=float)
    w, v = np.linalg.eigh((s + s.T) / 2.0)
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w) @ v.T
