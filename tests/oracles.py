"""Independent reference implementations used only to check the library.

Everything here is deliberately written from first principles (series,
continued fractions, scalar loops, exhaustive enumeration) so that the
expected values frozen into the tests never share code with the paths
they validate. The transmit beampatterns and `barrier_grad_hess` at the end
are different: they are quantities only tests read, kept here so that the
package holds no code without a caller in it.
"""

import math

import numpy as np
from scipy.special import erfc

from isac_pareto.channel import steering_matrix

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


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(Z > x) on scipy.special.erfc.

    Unlike the rest of this module it rests on a library routine; it is the
    package-independent Q of the upper-half roundtrip check.
    """
    return 0.5 * erfc(x / math.sqrt(2.0))


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
    """Dense Xi_r = Omega_r^H Omega_r = T^T kron I with T = F_bb F_bb^H."""
    t_gram = q.f_bb @ q.f_bb.conj().T
    return np.kron(t_gram.T, np.eye(q.n_tx))


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


def _canonical_pair_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    take_a = (a.real < b.real) | ((a.real == b.real) & (a.imag <= b.imag))
    return np.where(take_a, a, b)


def phase_project_reference(v) -> np.ndarray:
    """The exact circle projection with every pass computed eagerly.

    Five renormalization passes w0..w4 and all three canonical pairs are
    built for every entry, then each entry takes the first orbit event in
    the order below (fixed point, or 2-cycle collapsed to its smaller
    member by real then imaginary part); an entry with no event takes w3.
    The library's lazy projection must return the same bits.
    """
    v = np.asarray(v, dtype=np.complex128)
    w0 = np.where(v == 0, 1.0 + 0.0j, v)
    w0 = w0 / np.abs(w0)
    w1 = w0 / np.abs(w0)
    w2 = w1 / np.abs(w1)
    w3 = w2 / np.abs(w2)
    w4 = w3 / np.abs(w3)

    out = w3.copy()
    done = np.zeros(v.shape, dtype=bool)
    for result, cond in (
        (w0, w1 == w0),
        (w1, w2 == w1),
        (_canonical_pair_reference(w0, w1), w2 == w0),
        (w2, w3 == w2),
        (_canonical_pair_reference(w1, w2), w3 == w1),
        (w3, w4 == w3),
        (_canonical_pair_reference(w2, w3), w4 == w2),
    ):
        pick = cond & ~done
        out[pick] = result[pick]
        done |= pick
    return out


def penalty_reference(q, d: np.ndarray, mu: float) -> float:
    """EPMO's penalty value with every term written out inline: RBE plus mu
    times the squared hinges summed by np.sum, in the library's expression
    order, so the value must match bit for bit."""
    eff = d.reshape(q.n_tx, q.n_rf, order="F") @ q.f_bb
    diff = eff - q.f_r_u
    objective = float(np.real(np.vdot(diff, diff)))
    sinr_res, power_res = _normalized_residuals(q, eff)[1:]
    return objective + mu * (float(np.sum(np.maximum(0.0, sinr_res) ** 2))
                             + max(0.0, power_res) ** 2)


def _normalized_residuals(q, eff: np.ndarray):
    t = q.h.conj() @ eff
    powers = np.abs(t) ** 2
    totals = powers.sum(axis=1)
    sig = powers[q.active, q.active]
    interference = totals[q.active] - sig
    sinr_res = (interference - sig / q.gamma[q.active] + q.noise) / q.noise
    power_res = (float(np.real(np.vdot(eff, eff))) - q.p_max) / q.p_max
    return t, sinr_res, power_res


def penalty_gradient_reference(q, d: np.ndarray, mu: float) -> np.ndarray:
    """EPMO's ambient penalty gradient with every term written out inline
    (Delta_m d from a fresh weight vector and np.outer, Xi d as
    (F_rf F_bb) F_bb^H), in the library's expression order."""
    eff = d.reshape(q.n_tx, q.n_rf, order="F") @ q.f_bb
    xi_d = (eff @ q.f_bb.conj().T).reshape(-1, order="F")
    grad = 2.0 * (xi_d - q.a_r)
    if mu != 0.0:
        acc = np.zeros_like(grad)
        t, sinr_res, power_res = _normalized_residuals(q, eff)
        for res, m in zip(sinr_res, q.active):
            if res >= 0.0:
                weights = np.ones(q.m_users)
                weights[m] = -1.0 / q.gamma[m]
                row = (q.f_bb.conj() * (weights * t[m])).sum(axis=1)
                delta_d = np.outer(q.h[m], row).reshape(-1, order="F")
                acc += (4.0 * res / q.noise) * delta_d
        if power_res >= 0.0:
            acc += (4.0 * power_res / q.p_max) * xi_d
        grad = grad + mu * acc
    return grad


class BarrierProgramReference:
    """The cone solver's barrier program with each iterate evaluated twice.

    `interior` and `grad_hess` each compute the slacks from scratch, the
    cone terms come from a generator and the Hessian updates use np.outer.
    The library evaluates each iterate once, in the same expression order,
    so its gradient, Hessian, interior verdict and centered point must
    match these bit for bit. `rejected` counts the failed interior tests.
    """

    def __init__(self, p_quad, q_lin, cones, p_ball):
        self.p_quad = p_quad
        self.q_lin = q_lin
        self.p_ball = p_ball
        self.n = q_lin.size
        self.cones = [(j_mat, j_mat.T, y0, c,
                       2.0 * np.outer(c, c) - 2.0 * (j_mat.T @ j_mat))
                      for j_mat, y0, c in cones]
        self.two_p_quad = 2.0 * p_quad
        self.d2u_ball = -2.0 * p_ball
        self.rejected = 0

    def ball_value(self, x):
        return 1.0 - float(x @ self.p_ball @ x)

    def interior(self, x) -> bool:
        inside = self._interior(x)
        self.rejected += not inside
        return inside

    def _interior(self, x) -> bool:
        if self.ball_value(x) <= 0:
            return False
        for j_mat, _, y0, c, _ in self.cones:
            s = float(c @ x)
            if s <= 0:
                return False
            y = j_mat @ x + y0
            if s * s - float(y @ y) <= 0:
                return False
        return True

    def cone_terms(self, x):
        for j_mat, j_t, y0, c, d2u in self.cones:
            s = float(c @ x)
            y = j_mat @ x + y0
            yield s * s - float(y @ y), 2.0 * s * c - 2.0 * (j_t @ y), d2u

    def grad_hess(self, x, kappa):
        grad = kappa * (self.two_p_quad @ x - 2.0 * self.q_lin)
        hess = kappa * self.two_p_quad
        for u, du, d2u in self.cone_terms(x):
            grad -= du / u
            hess += np.outer(du, du) / (u * u)
            hess -= d2u / u
        ub = self.ball_value(x)
        dub = self.d2u_ball @ x
        grad -= dub / ub
        hess += np.outer(dub, dub) / (ub * ub) - self.d2u_ball / ub
        return grad, hess

    def newton_center(self, x, kappa, tol=1e-12, max_steps=120):
        """Damped Newton centering; also returns the number of steps taken."""
        decrement = np.inf
        steps = 0
        for steps in range(1, max_steps + 1):
            grad, hess = self.grad_hess(x, kappa)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * max(1.0, np.trace(hess) / self.n)
                step = np.linalg.solve(hess + ridge * np.eye(self.n), -grad)
            decrement = float(-grad @ step)
            if decrement <= tol:
                break
            lam = np.sqrt(max(decrement, 0.0))
            t = 1.0 if lam <= 0.25 else 1.0 / (1.0 + lam)
            cand = x + t * step
            safety = 0
            while not self.interior(cand):
                t *= 0.5
                cand = x + t * step
                safety += 1
                if safety > 60:
                    return x, decrement, steps
            x = cand
        return x, decrement, steps


def barrier_grad_hess(prog, x, kappa):
    """Gradient and Hessian of a `bb_solver._BarrierProgram` at x, from a
    fresh slack evaluation (the solver reuses the one of its interior test)."""
    return prog._grad_hess(x, kappa, prog._slacks(x, strict=False))


def beampattern(pc, grid_deg, geom) -> np.ndarray:
    """Transmit power G(theta) = a(theta)^H C_x a(theta) on an angle grid.

    Evaluated through the factored form |a^H F|^2, which is exactly the
    quadratic form in the transmit covariance; clamped at zero against
    roundoff.
    """
    grid = np.atleast_1d(np.asarray(grid_deg, dtype=float))
    if grid.size == 0:
        raise ValueError("angle grid must be nonempty")
    a = steering_matrix(grid, geom)  # (N_t, G)
    proj = a.conj().T @ pc.effective()  # (G, M)
    g = np.sum(np.abs(proj) ** 2, axis=1)
    return np.maximum(g, 0.0)


def desired_beampattern(target_angles_deg, spread_deg: float, grid_deg) -> np.ndarray:
    """Indicator mask: 1 strictly inside (target +- spread), else 0."""
    if spread_deg <= 0:
        raise ValueError("spread must be positive")
    grid = np.atleast_1d(np.asarray(grid_deg, dtype=float))
    mask = np.zeros(grid.shape)
    for center in np.atleast_1d(target_angles_deg):
        mask[np.abs(grid - center) < spread_deg] = 1.0
    return mask
