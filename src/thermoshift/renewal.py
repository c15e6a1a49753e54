"""Renewal shift on two symbols with polynomial cell weights.

The space splits into cells M_0 = [0] and M_k = [1^k 0], k >= 1, with the
shift mapping M_k onto M_{k-1} and M_0 onto everything; the cell energies
are a_0 = -log zeta(gamma) and a_k = -gamma log((k+1)/k), so the partial
sums s_k satisfy exp(s_k) = (k+1)^{-gamma} / zeta(gamma) and the dual
eigenmeasure masses are available in closed form.  The pressure of
beta-scaled energies is flat at zero past beta = 1 and strictly decreasing
before it, with a kink at 1: a first-order transition.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtbsv

from .transfer import ConvergenceError


def zeta(gamma: float) -> float:
    """Partial sums of n^-gamma plus an integral tail estimate.

    The tail sum over n > N lies between the integrals from N+1 and N; the
    midpoint halves the bracket, and N grows until it is at most 2e-12 wide.
    """
    if gamma <= 1:
        raise ValueError("gamma must be > 1")
    N = 100
    while True:
        lo = (N + 1) ** (1 - gamma) / (gamma - 1)
        hi = N ** (1 - gamma) / (gamma - 1)
        if hi - lo <= 2e-12 or N > 10 ** 8:
            break
        N *= 4
    n = np.arange(1, N + 1, dtype=float)
    return float(np.sum(n ** -gamma) + 0.5 * (lo + hi))


@dataclass(frozen=True)
class RenewalModel:
    """Cell weights at a fixed exponent gamma > 2, truncated at cell K."""

    gamma: float
    K: int
    zeta_value: float = field(init=False)
    a: np.ndarray = field(init=False, repr=False)
    s: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.gamma <= 2:
            raise ValueError("gamma must be > 2 for probability measures")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        z = zeta(self.gamma)
        k = np.arange(self.K + 1, dtype=float)
        a = np.empty(self.K + 1)
        a[0] = -np.log(z)
        a[1:] = -self.gamma * np.log((k[1:] + 1) / k[1:])
        s = np.cumsum(a)
        object.__setattr__(self, "zeta_value", z)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "s", s)

    def tail_mass(self) -> float:
        """Mass beyond the truncation: sum_{k>K} (k+1)^-gamma / zeta."""
        g = self.gamma
        N = self.K + 1  # first dropped term is (K+2)^-gamma
        lo = (N + 2) ** (1 - g) / (g - 1)
        hi = (N + 1) ** (1 - g) / (g - 1)
        return 0.5 * (lo + hi) / self.zeta_value


def eigenmeasure_masses(m: RenewalModel) -> np.ndarray:
    """Closed-form dual-eigenvector masses nu(M_k) = (k+1)^-gamma / zeta."""
    k = np.arange(m.K + 1, dtype=float)
    return (k + 1) ** -m.gamma / m.zeta_value


_HEAD = 512        # terms in the head sum whose root starts the full run
_MAX_NEWTON = 100


def _renewal_sums(P: float, bs: np.ndarray, n: np.ndarray, buf: np.ndarray):
    """(S, T) = (sum_k e_k, sum_k n_k e_k), e_k = exp(bs_k - n_k P), given
    bs = beta s and n = k + 1; computed in the work array buf."""
    np.multiply(n, P, out=buf)
    np.subtract(bs, buf, out=buf)
    np.exp(buf, out=buf)
    return float(buf.sum()), float(np.dot(n, buf))


def _newton(P: float, bs, n, buf, beta: float) -> float:
    """Newton's method on h = log S from P; h' = -T/S."""
    for _ in range(_MAX_NEWTON):
        S, T = _renewal_sums(P, bs, n, buf)
        step = np.log(S) * S / T
        P += step
        if abs(step) <= 1e-12:
            return P
    raise ConvergenceError(f"pressure Newton iteration failed at beta={beta}")


def pressure_at(m: RenewalModel, beta: float):
    """Root P >= 0 of the renewal equation S(P) = 1, or 0 when no positive
    root exists.

    Returns (P, residual), residual = |S(P) - 1|.  S is strictly decreasing
    in P, so a positive root exists iff S(0) > 1.  The root is found by
    Newton's method on h = log S, with h' = -T/S <= -1, T = sum (k+1) e_k.
    h is convex (h'' is the variance of k + 1 under the weights e_k / S),
    so each tangent lies below h and each iterate lands left of the root;
    from a start left of it the iterates rise monotonically to it.  The
    start is the root of the sum over the first _HEAD terms, solved the
    same way and floored at 0: the head sum is below S, so its root is
    below the root.  Past the head the terms carry exp(-(k+1)P), so away
    from the transition the start is already the root to rounding.
    """
    bs, n, buf = beta * m.s, np.arange(1, m.K + 2, dtype=float), np.empty(m.K + 1)
    if _renewal_sums(0.0, bs, n, buf)[0] <= 1.0:
        return 0.0, 0.0
    h = slice(_HEAD)
    P = max(0.0, _newton(0.0, bs[h], n[h], buf[h], beta))
    P = float(_newton(P, bs, n, buf, beta))
    return P, abs(_renewal_sums(P, bs, n, buf)[0] - 1.0)


@dataclass(frozen=True)
class PressureCurve:
    beta: np.ndarray
    P: np.ndarray
    residual: np.ndarray

    def as_rows(self):
        return list(zip(self.beta.tolist(), self.P.tolist(), self.residual.tolist()))


def pressure_curve(m: RenewalModel, beta_grid) -> PressureCurve:
    beta_grid = np.asarray(beta_grid, dtype=float)
    P = np.empty_like(beta_grid)
    res = np.empty_like(beta_grid)
    for i, b in enumerate(beta_grid):
        P[i], res[i] = pressure_at(m, float(b))
    return PressureCurve(beta_grid, P, res)


def tower_matvec(m: RenewalModel, beta: float, phi: np.ndarray) -> np.ndarray:
    """One application of the truncated transfer operator on cell functions.

    Test oracle, kept off the production path: the tests check the
    closed-form equilibrium density against it.

    Preimages of a point in cell j sit in cell j+1 (one point) and in cell 0
    (the point prepending symbol 0), so
        (L phi)(j) = exp(beta a_{j+1}) phi(j+1) + exp(beta a_0) phi(0).
    The escaping j = K upward branch is dropped.
    """
    w = np.exp(beta * m.a)
    out = np.empty_like(phi)
    out[:-1] = w[1:] * phi[1:]
    out[-1] = 0.0
    out += w[0] * phi[0]
    return out


def tower_pressure_oracle(m: RenewalModel, beta: float) -> float:
    """Independent check: log of the leading eigenvalue of the truncated
    cell-to-cell transfer matrix A, floored at 0 (past the transition the
    truncated eigenvalue creeps up to 1 from below as K grows).

    Test oracle, kept off the production path: it shares neither the
    renewal equation nor the root finder with `pressure_at`, which it
    checks.

    Krylov methods stall here: the truncated spectrum fills a near-circle
    with tiny separations.  Instead bisect on t, between the least and the
    largest row sum, using the M-matrix test: for a nonnegative irreducible
    A, (tI - A)^{-1} maps positive vectors to positive vectors exactly when
    t exceeds the spectral radius.

    A is the superdiagonal U of the weights w_{j+1} = exp(beta a_{j+1})
    plus the rank-one first column w_0 1 e_0^T.  So (tI - A) x = 1 reads
    (tI - U) x = (1 + w_0 x_0) 1, that is x = (1 + w_0 x_0) y with
    y = (tI - U)^{-1} 1, one upper-bidiagonal back substitution in O(K)
    (BLAS tbsv on the band; no factorisation); the first entry then gives
    x_0 = y_0 / (1 - w_0 y_0).  When 1 - w_0 y_0 <= 0 the resolvent is not
    positive.
    """
    n = m.K + 1
    w = np.exp(beta * m.a)
    ones = np.ones(n)
    # banded storage of tI - U (superdiagonal row, diagonal row), in the
    # column-major order BLAS reads, so no call copies it
    ab = np.zeros((2, n), order="F")
    ab[0, 1:] = -w[1:]
    row_sums = np.append(w[1:], 0.0) + w[0]
    lo, hi = float(row_sums.min()), float(row_sums.max())

    while hi - lo > 1e-13 * max(1.0, hi):
        t = 0.5 * (lo + hi)
        ab[1] = t
        y = dtbsv(1, ab, ones)
        denom = 1.0 - w[0] * y[0]
        if denom > 0:
            x = (1.0 + w[0] * (y[0] / denom)) * y
            positive = np.isfinite(x).all() and (x > 0).all()
        else:
            positive = False
        if positive:
            hi = t
        else:
            lo = t
    return max(0.0, float(np.log(0.5 * (lo + hi))))


def equilibrium_density(m: RenewalModel) -> np.ndarray:
    """Fixed function of the beta = 1 operator on the truncated tower.

    The tail-sum ratio phi(j) = sum_{l >= j} e^{s_l} / e^{s_j} satisfies
    phi(j) = e^{a_{j+1}} phi(j+1) + e^{a_0} phi(0) up to the truncated tail
    mass, since the cell masses e^{s_l} sum to one.  Normalized against the
    closed-form eigenmeasure to a probability density.
    """
    es = np.exp(m.s)
    tail = np.cumsum(es[::-1])[::-1]
    phi = tail / es
    nu = eigenmeasure_masses(m)
    return phi / float(np.dot(phi, nu))


def phase_transition_report(m: RenewalModel) -> dict:
    """One-sided derivative estimates of the pressure at beta = 1 and the
    two equilibrium measures.

    Central differences are useless at a kink; the left slope uses one-sided
    stencils of widths 1e-2 and 1e-3 with a Richardson check, the right
    slope is read off the flat branch.  The invariant equilibrium measure
    has cell masses proportional to density * eigenmeasure, and its mean
    cell energy reproduces the left slope (dP/dbeta = mean of the energy
    under the equilibrium measure).
    """
    coarse, fine = 1e-2, 1e-3
    p1, _ = pressure_at(m, 1.0)
    left_estimates = {d: (p1 - pressure_at(m, 1.0 - d)[0]) / d
                      for d in (coarse, fine)}
    left = left_estimates[fine]
    right_derivative = (pressure_at(m, 1.0 + fine)[0] - p1) / fine

    f = equilibrium_density(m)
    nu = eigenmeasure_masses(m)
    mu_tilde = f * nu
    mu_tilde = mu_tilde / mu_tilde.sum()
    mean_energy = float(np.dot(m.a, mu_tilde))

    return {
        "P_at_1": p1,
        "left_derivative": left,
        "left_derivative_richardson": 2 * left - left_estimates[coarse],
        "left_derivative_estimates": {str(d): v for d, v in left_estimates.items()},
        "right_derivative": right_derivative,
        "jump": left - right_derivative,
        "mean_energy_equilibrium": mean_energy,
        "equilibrium_masses_head": mu_tilde[:10].tolist(),
        "fixed_point_energy": 0.0,  # the all-ones fixed point of the shift
        "truncation_tail_mass": m.tail_mass(),
        "truncation_flag": m.tail_mass() > fine ** 2,
    }
