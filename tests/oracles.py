"""Independent reference implementations used only to check the library.

Everything here is deliberately written from first principles (series,
continued fractions, scalar loops, exhaustive enumeration) so that the
expected values frozen into the tests never share code with the paths
they validate.
"""

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)


def erfc_series(x: float) -> float:
    """erfc via the erf power series; accurate for |x| < 2."""
    total = 0.0
    term = x
    n = 0
    while True:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
        if n > 300:
            break
    return 1.0 - 2.0 / _SQRT_PI * total


def erfc_continued_fraction(x: float, max_iter: int = 400) -> float:
    """erfc via the modified Lentz continued fraction; for x >= 3.

    erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    """
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for i in range(1, max_iter):
        a = 1.0 if i == 1 else 0.5 * (i - 1)
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x * x) / _SQRT_PI * f


def erfc_oracle(x: float) -> float:
    """Reference erfc built only on series / continued-fraction evaluation."""
    if x < 0:
        return 2.0 - erfc_oracle(-x)
    if x < 2.0:
        return erfc_series(x)
    return erfc_continued_fraction(x)


def q_oracle(x: float) -> float:
    """Gaussian tail probability from the reference erfc."""
    return 0.5 * erfc_oracle(x / math.sqrt(2.0))


def inv_q_bisect(p: float, lo: float = -12.0, hi: float = 14.0, tol: float = 1e-12) -> float:
    """Invert the Gaussian tail by plain bisection on the reference Q."""
    flo = q_oracle(lo) - p
    fhi = q_oracle(hi) - p
    assert flo > 0 > fhi, "bracket does not straddle the root"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if q_oracle(mid) - p > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sinr_loop(h: np.ndarray, f_rf: np.ndarray, f_bb: np.ndarray, noise: float) -> np.ndarray:
    """SINR per user via explicit scalar loops over antennas and users."""
    m_users = h.shape[0]
    n_tx, n_rf = f_rf.shape
    out = np.zeros(m_users)
    for m in range(m_users):
        powers = np.zeros(m_users)
        for n in range(m_users):
            acc = 0.0 + 0.0j
            for i in range(n_tx):
                for k in range(n_rf):
                    acc += np.conj(h[m, i]) * f_rf[i, k] * f_bb[k, n]
            powers[n] = abs(acc) ** 2
        interference = sum(powers[n] for n in range(m_users) if n != m)
        out[m] = powers[m] / (interference + noise)
    return out


def upsilon(q, n: int, m: int) -> np.ndarray:
    """Dense Upsilon_{n,m} = B_n^T kron H_m of a QuadraticForms bundle."""
    b_n = np.outer(q.f_bb[:, n], q.f_bb[:, n].conj())
    h_m = np.outer(q.h[m], q.h[m].conj())
    return np.kron(b_n.T, h_m)


def xi_r(q) -> np.ndarray:
    """Dense Xi_r = Omega_r^H Omega_r = T^T kron I."""
    return np.kron(q.t_gram.T, np.eye(q.n_tx))


def omega_p(q) -> np.ndarray:
    """Dense Omega_p = T^T kron I (the power form coincides with Xi_r)."""
    return xi_r(q)


def delta(q, m: int) -> np.ndarray:
    """Dense Delta_m = sum_{n != m} Upsilon_{n,m} - Upsilon_{m,m}/Gamma_m."""
    if q.gamma[m] <= 0:
        raise ValueError(f"SINR constraint for user {m} was dropped (zero threshold)")
    acc = np.zeros((q.d_dim, q.d_dim), dtype=np.complex128)
    for n in range(q.m_users):
        if n != m:
            acc += upsilon(q, n, m)
    return acc - upsilon(q, m, m) / q.gamma[m]


def omega_r_matrix(q) -> np.ndarray:
    """Dense Omega_r = F_bb^T kron I, the linear map d -> vec(F_rf F_bb)."""
    return np.kron(q.f_bb.T, np.eye(q.n_tx))


def frobenius_loop(a: np.ndarray) -> float:
    """Squared Frobenius norm as an explicit entrywise sum."""
    total = 0.0
    for value in np.asarray(a).ravel():
        total += value.real**2 + value.imag**2
    return total


def random_unit_modulus(rng: np.random.Generator, size: int) -> np.ndarray:
    phases = rng.uniform(-np.pi, np.pi, size)
    return np.exp(1j * phases)


def random_row_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random matrix with orthonormal rows (Haar via QR of a Gaussian)."""
    g = rng.normal(size=(cols, rows)) + 1j * rng.normal(size=(cols, rows))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.where(np.diag(r).real == 0, 1.0, np.diag(r).real))
    return q.conj().T
