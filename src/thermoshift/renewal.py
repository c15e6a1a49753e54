"""Renewal shift on two symbols with polynomial cell weights.

The space splits into cells M_0 = [0] and M_k = [1^k 0], k >= 1, with the
shift mapping M_k onto M_{k-1} and M_0 onto everything; the cell energies
are a_0 = -log zeta(gamma) and a_k = -gamma log((k+1)/k), so the partial
sums telescope to s_k = -log zeta(gamma) - gamma log(k+1) and the dual
eigenmeasure masses are available in closed form.  The pressure of
beta-scaled energies is flat at zero past beta = 1 and strictly decreasing
before it, with a kink at 1: a first-order transition.

The renewal sums are truncated polylogarithms,
S(P) = zeta^-beta sum_{n=1}^{K+1} n^-q e^-nP with q = beta gamma, so they
are evaluated in time independent of K: the first _HEAD terms exactly, the
rest by Euler-Maclaurin summation.  The transition report's mean energy,
head masses and tail mass are sums of the same kind at P = 0.  Only the
oracles build arrays over the K + 1 cells: `tower_pressure_oracle` finds
the truncated operator's spectral radius from a handful of banded solves,
each a certified bracket by a sign test and Collatz-Wielandt bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dtbsv

from .transfer import ConvergenceError

_HEAD = 512        # terms summed exactly; Euler-Maclaurin takes the rest
_MAX_NEWTON = 100
_MAX_SOLVES = 100  # banded solves per tower oracle call
_N = np.arange(1.0, _HEAD + 1)
_LOG_N = np.log(_N)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_EM = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)  # B_2k / (2k)!, k = 1..4
_BINOM = [[math.comb(j, i) for i in range(j + 1)] for j in range(2 * len(_EM))]


def _derivative_ratios(q: float, P: float, x: float) -> list:
    """d_j = f^(j)(x) / f(x), j < 2 len(_EM), for f(x) = x^-q e^-Px.

    From f' = l_1 f: d_{j+1} = sum_i C(j, i) l_{i+1} d_{j-i}, with l_i the
    i-th derivative of log f.
    """
    l = [0.0, -q / x - P, q / x ** 2]
    for i in range(2, 2 * len(_EM) - 1):
        l.append(-i * l[-1] / x)
    d = [1.0]
    for j in range(2 * len(_EM) - 1):
        d.append(sum(c * l[i + 1] * d[j - i] for i, c in enumerate(_BINOM[j])))
    return d


def _em_ends(q: float, P: float, x: float):
    """Euler-Maclaurin end terms at x of f(x) = x^-q e^-Px and of x f(x),
    each sum_k B_2k/(2k)! g^(2k-1)(x) divided by f(x) (DLMF 2.10(i)), with
    (x f)^(j) = x f^(j) + j f^(j-1)."""
    d = _derivative_ratios(q, P, x)
    return (sum(e * d[2 * k + 1] for k, e in enumerate(_EM)),
            sum(e * (x * d[2 * k + 1] + (2 * k + 1) * d[2 * k])
                for k, e in enumerate(_EM)))


def _hurwitz(gamma: float, a: int) -> float:
    """sum_{n >= a} n^-gamma, gamma > 1, a >= 1: the terms below _HEAD + 1
    exactly, the rest by Euler-Maclaurin from b = max(a, _HEAD + 1), with
    the integral of x^-gamma from b to infinity in closed form."""
    b = max(a, _HEAD + 1.0)
    return float((_N[a - 1:] ** -gamma).sum() + b ** -gamma
                 * (b / (gamma - 1) + 0.5 - _em_ends(gamma, 0.0, b)[0]))


def zeta(gamma: float) -> float:
    """Riemann zeta(gamma), gamma > 1 (`_hurwitz` from a = 1)."""
    if gamma <= 1:
        raise ValueError("gamma must be > 1")
    return _hurwitz(gamma, 1)


def _panels(a: float, b: float):
    """20-point Gauss-Legendre nodes and weights on the panels [x, 2x]
    that cover [a, b]."""
    k = max(1, math.ceil(math.log2(b / a)))
    edges = np.minimum(a * 2.0 ** np.arange(k + 1), b)
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (1.0 + _GL_X), half * _GL_W


def _tail_sums(P: float, q: float, a: float, b: float, m: float):
    """e^-m (sum f(n), sum n f(n)) over n = a..b, f(x) = x^-q e^-xP.

    Euler-Maclaurin: the integral of f (and of x f) on `_panels`, plus the
    end terms.
    """
    x, wx = _panels(a, b)
    wf = wx * np.exp(-q * np.log(x) - P * x - m)
    S, T = float(wf.sum()), float((wf * x).sum())
    for t, sign in ((a, -1.0), (b, 1.0)):
        f = math.exp(-q * math.log(t) - P * t - m)
        if f:
            s_end, t_end = _em_ends(q, P, t)
            S += f * (0.5 + sign * s_end)
            T += f * (0.5 * t + sign * t_end)
    return S, T


def _log_sums(P: float, q: float, N: int):
    """(log S, T / S) for S = sum_{n=1}^N n^-q e^-nP, T = sum_n n^(1-q) e^-nP.

    The first _HEAD terms are summed exactly and the rest by `_tail_sums`,
    every term scaled by e^-m, m the largest exponent -q log x - P x at the
    head's n and on the tail's [_HEAD + 1, N], so that no sum overflows.  The
    tail is skipped when its largest term is below e^-40 / N^2 of the head's.
    """
    h = min(N, _HEAD)
    g = -q * _LOG_N[:h] - P * _N[:h]
    m = float(g.max())
    tail = N > _HEAD
    if tail:
        a, b = _HEAD + 1.0, float(N)
        # -q log x - P x is convex for q >= 0; for q < 0 it is concave and
        # peaks at -q/P when P > 0, else rises to b
        xs = (a, b, min(max(-q / P, a), b)) if q < 0 < P else (a, b)
        top = max(-q * math.log(x) - P * x for x in xs)
        m = max(m, top)
        tail = top - m >= -40.0 - 2.0 * math.log(b)
    w = np.exp(g - m)
    S, T = float(w.sum()), float(w @ _N[:h])
    if tail:
        dS, dT = _tail_sums(P, q, a, b, m)
        S, T = S + dS, T + dT
    return m + math.log(S), T / S


def _log_moment(q: float, N: int) -> float:
    """sum_{n=1}^N n^-q log n for q > 1, split as in `_log_sums`: the first
    _HEAD terms exactly, the rest by Euler-Maclaurin with the integral of
    g(x) = x^-q log x on `_panels` and g's end derivatives by the product
    rule, g^(j) = sum_i C(j, i) f^(j-i) log^(i) with f(x) = x^-q and
    log^(i)(x) = (-1)^(i-1) (i-1)! x^-i."""
    h = min(N, _HEAD)
    total = float(_N[:h] ** -q @ _LOG_N[:h])
    if N > _HEAD:
        x, wx = _panels(_HEAD + 1.0, float(N))
        total += float((wx * x ** -q * np.log(x)).sum())
        for t, sign in ((_HEAD + 1.0, -1.0), (float(N), 1.0)):
            d = _derivative_ratios(q, 0.0, t)
            lg = [math.log(t)] + [(-1) ** (i - 1) * math.factorial(i - 1) / t ** i
                                  for i in range(1, 2 * len(_EM))]
            ends = sum(e * sum(c * d[2 * k + 1 - i] * lg[i]
                               for i, c in enumerate(_BINOM[2 * k + 1]))
                       for k, e in enumerate(_EM))
            total += t ** -q * (0.5 * lg[0] + sign * ends)
    return total


@dataclass(frozen=True)
class RenewalModel:
    """Cell weights at a fixed exponent gamma > 2, truncated at cell K.

    The cell arrays `a` and `s` are built on first use: the pressure needs
    neither.
    """

    gamma: float
    K: int
    zeta_value: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, not {self.gamma}")
        if self.gamma <= 2:
            raise ValueError("gamma must be > 2 for probability measures")
        if not isinstance(self.K, (int, np.integer)):
            raise ValueError(f"K must be an integer, not {self.K!r}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        object.__setattr__(self, "zeta_value", zeta(self.gamma))

    @cached_property
    def a(self) -> np.ndarray:
        """Cell energies a_0 = -log zeta, a_k = -gamma log((k+1)/k)."""
        k = np.arange(1, self.K + 1, dtype=float)
        return np.concatenate(([-math.log(self.zeta_value)],
                               -self.gamma * np.log((k + 1) / k)))

    @cached_property
    def s(self) -> np.ndarray:
        """Partial sums of `a`: s_k = -log zeta - gamma log(k+1)."""
        n = np.arange(1, self.K + 2, dtype=float)
        return -math.log(self.zeta_value) - self.gamma * np.log(n)

    def tail_mass(self) -> float:
        """Mass beyond the truncation: sum_{k>K} (k+1)^-gamma / zeta, the
        Hurwitz zeta(gamma, K + 2) / zeta(gamma)."""
        return _hurwitz(self.gamma, self.K + 2) / self.zeta_value


def eigenmeasure_masses(m: RenewalModel) -> np.ndarray:
    """Closed-form dual-eigenvector masses nu(M_k) = (k+1)^-gamma / zeta."""
    k = np.arange(m.K + 1, dtype=float)
    return (k + 1) ** -m.gamma / m.zeta_value


def _newton(P: float, q: float, N: int, c: float, beta: float) -> float:
    """Newton's method on h = c + log S from P, S summed over N terms;
    h' = -T/S."""
    for _ in range(_MAX_NEWTON):
        log_s, mean = _log_sums(P, q, N)
        step = (c + log_s) / mean
        P += step
        if abs(step) <= 1e-12 * max(1.0, abs(P)):
            return P
    raise ConvergenceError(f"pressure Newton iteration failed at beta={beta}")


def pressure_at(m: RenewalModel, beta: float):
    """Root P >= 0 of the renewal equation S(P) = 1, or 0 when no positive
    root exists.

    Returns (P, residual), residual = |S(P) - 1|, where
    S(P) = sum_{k<=K} e^{beta s_k - (k+1) P}.  S is strictly decreasing in
    P, so a positive root exists iff S(0) > 1.  The root is found by
    Newton's method on h = log S, with h' = -T/S <= -1, T = sum (k+1) e_k.
    h is convex (h'' is the variance of k + 1 under the weights e_k / S),
    so each tangent lies below h and each iterate lands left of the root;
    from a start left of it the iterates rise monotonically to it.  The
    start is the root of the sum over the first _HEAD terms, solved the
    same way and floored at 0: the head sum is below S, so its root is
    below the root.  Past the head the terms carry exp(-(k+1)P), so away
    from the transition the start is already the root to rounding.  Each
    S and T costs the same at every K (`_log_sums`), and log S is formed
    from exponents shifted by their maximum, so a root past the range of
    exp is still found.
    """
    q, N = beta * m.gamma, m.K + 1
    c, head = -beta * math.log(m.zeta_value), min(N, _HEAD)
    # the head sum is below S(0) and exceeds 1 at every beta < 0 (where the
    # tail may vary too fast for Euler-Maclaurin), so it is tested first
    if c + _log_sums(0.0, q, head)[0] <= 0.0 and c + _log_sums(0.0, q, N)[0] <= 0.0:
        return 0.0, 0.0
    P = max(0.0, _newton(0.0, q, head, c, beta))
    P = _newton(P, q, N, c, beta)
    h = c + _log_sums(P, q, N)[0]
    return P, abs(math.expm1(h)) if h < 709.0 else math.inf


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


def tower_pressure_oracle(m: RenewalModel, beta: float) -> float:
    """Independent check: log of the leading eigenvalue rho of the truncated
    cell-to-cell transfer matrix A, floored at 0 (past the transition the
    truncated eigenvalue creeps up to 1 from below as K grows).

    Test oracle, kept off the production path: it shares neither the
    renewal equation nor the root finder with `pressure_at`, which it
    checks.

    Krylov methods stall here: the truncated spectrum fills a near-circle
    with tiny separations.  Instead each trial t > 0 costs one solve and
    narrows a bracket on rho, which starts between the least and the largest
    row sum.  A is the superdiagonal U of the weights w_{j+1} =
    exp(beta a_{j+1}) plus the rank-one first column w_0 1 e_0^T.  U is
    nilpotent and nonnegative, so y = (tI - U)^{-1} 1 = sum_k U^k 1 / t^(k+1)
    is positive with least entry y_K = 1/t; z = t y is one upper-bidiagonal
    back substitution with I - U/t, in O(K) (BLAS tbsv on the band; no
    factorisation).  With d = 1 - w_0 y_0, (tI - A) y = d 1, so

    - sign test: for a nonnegative irreducible A, (tI - A)^{-1} is positive
      exactly when t exceeds rho, that is when d > 0;
    - Collatz-Wielandt: (A y)_i / y_i = t - d / y_i, so rho lies between
      t - d t = w_0 z_0 and t - d / max(y); both bounds lie on the side of
      t that the sign of d gives, so they replace t as the bracket's ends.

    The next trial is the secant on d through the last two trials when it
    falls inside the bracket and the last solve at least halved the
    bracket, else the bracket's midpoint: the bracket halves at least every
    second solve, also where d grows like t^-K and secant steps from one
    side would creep.  Once the secant has converged, the Collatz-Wielandt
    bounds of its trial close the bracket.  The result is the log of the
    midpoint of a bracket no wider than 1e-13 hi, or 0 as soon as hi <= 1.
    A y_0 past the range of the doubles counts as t < rho.  More than
    _MAX_SOLVES solves raise ConvergenceError.
    """
    n = m.K + 1
    w = np.exp(beta * m.a)
    w0, ones = float(w[0]), np.ones(n)
    # banded storage of I - U/t (superdiagonal row, unit diagonal row), in
    # the column-major order BLAS reads, so no call copies it
    ab = np.ones((2, n), order="F")
    lo, hi = w0, w0 + float(w[1:].max())  # row K's sum and the largest
    t, prev = 0.5 * (lo + hi), None
    for _ in range(_MAX_SOLVES):
        np.multiply(w[1:], -1.0 / t, out=ab[0, 1:])
        z = dtbsv(1, ab, ones, diag=1)
        d = 1.0 - w0 * float(z[0]) / t
        width = hi - lo
        if not math.isfinite(d):
            lo, prev, t = t, None, 0.5 * (t + hi)
            continue
        ends = w0 * float(z[0]), t - d * t / float(z.max())
        lo, hi = max(lo, min(ends)), min(hi, max(ends))
        if hi <= 1.0:
            return 0.0
        if hi - lo <= 1e-13 * hi:
            return max(0.0, math.log(0.5 * (lo + hi)))
        nxt = 0.5 * (lo + hi)
        # a secant only after a solve that at least halved the bracket
        if prev is not None and d != prev[1] and hi - lo <= 0.5 * width:
            secant = t - d * (t - prev[0]) / (d - prev[1])
            if lo < secant < hi:
                nxt = secant
        prev, t = (t, d), nxt
    raise ConvergenceError(f"tower oracle: no bracket within {_MAX_SOLVES} "
                           f"solves at beta={beta}")


def phase_transition_report(m: RenewalModel) -> dict:
    """One-sided derivative estimates of the pressure at beta = 1 and the
    two equilibrium measures.

    Central differences are useless at a kink; the left slope uses one-sided
    stencils of widths 1e-2 and 1e-3 with a Richardson check, the right
    slope is read off the flat branch.  The invariant equilibrium measure at
    beta = 1 gives cell j the mass mu_j = sum_{l >= j} e^{s_l} / Z, with
    Z = sum_l (l + 1) e^{s_l} (the fixed density times the eigenmeasure).
    Its mean cell energy, sum_l s_l e^{s_l} / Z, reproduces the left slope
    (dP/dbeta = mean of the energy under the equilibrium measure).  With
    e^{s_l} = n^-gamma / zeta, n = l + 1, these are the sums S = sum n^-gamma,
    T = sum n^(1-gamma) and L = sum n^-gamma log n over n <= K + 1, each
    formed in time independent of K.
    """
    coarse, fine = 1e-2, 1e-3
    p1, _ = pressure_at(m, 1.0)
    left_estimates = {d: (p1 - pressure_at(m, 1.0 - d)[0]) / d
                      for d in (coarse, fine)}
    left = left_estimates[fine]
    right_derivative = (pressure_at(m, 1.0 + fine)[0] - p1) / fine

    g, N = m.gamma, m.K + 1
    log_s, mean_n = _log_sums(0.0, g, N)
    S = math.exp(log_s)
    T = S * mean_n
    mean_energy = (-math.log(m.zeta_value) * S - g * _log_moment(g, N)) / T
    # mu_j = sum_{n > j} n^-gamma / T, summed from the far end over the
    # exact terms, plus the terms past them (zero when N <= _HEAD); never S
    # less the first j terms, which cancels to rounding noise at large gamma
    h = min(N, _HEAD)
    head = (np.cumsum(_N[:h][::-1] ** -g)[::-1][:10]
            + (_hurwitz(g, h + 1) - _hurwitz(g, N + 1)))
    tail_mass = m.tail_mass()

    return {
        "P_at_1": p1,
        "left_derivative": left,
        "left_derivative_richardson": 2 * left - left_estimates[coarse],
        "left_derivative_estimates": {str(d): v for d, v in left_estimates.items()},
        "right_derivative": right_derivative,
        "jump": left - right_derivative,
        "mean_energy_equilibrium": mean_energy,
        "equilibrium_masses_head": (head / T).tolist(),
        "fixed_point_energy": 0.0,  # the all-ones fixed point of the shift
        "truncation_tail_mass": tail_mass,
        "truncation_flag": tail_mass > fine ** 2,
    }
