"""Lattice special functions underlying zero-mode construction.

Conventions
-----------
A Bravais lattice is spanned by complex periods ``omega1, omega2`` with
positive orientation ``S = Im(conj(omega1) * omega2) > 0``; S is the unit
cell area.  ``eta1, eta2`` are the quasi-period increments of the Weierstrass
zeta function for the *full* periods, so the Legendre relation reads
``eta1*omega2 - eta2*omega1 = 2*pi*i``.

The modified sigma function is ``sigma_tilde(z) = exp(-nu z^2) sigma(z)`` with
``nu = (i / (4 S)) * (eta1 conj(omega2) - eta2 conj(omega1))``.  Its modulus is
doubly periodic up to the Gaussian factor ``exp(mu |z|^2)``, ``mu = pi/(2 S)``,
which makes it the right building block for lattice flux arrays.

Numerics
--------
Evaluation reduces the basis (orientation-preserving Lagrange reduction, so
``Im tau >= sqrt(3)/2`` and the nome satisfies ``|q| <= exp(-pi sqrt 3)``),
reduces z to the central cell, evaluates the exponentially convergent
trigonometric product for sigma there, and unwinds the quasi-periodicity
exactly.  Everything is done in log space: log-valued functions return the
exact real part, while the imaginary part is meaningful modulo 2*pi only
(enough to reconstruct values and ratios).  Plain value functions overflow for
|z| beyond ~25 cell diameters; use the log forms there.

The log-modulus kernels (log_abs_sin, chain_log_abs, star_log_abs,
log_abs_sigma_tilde) are real valued end to end: a norm integrand needs only
ln|psi|, so they evaluate no complex sine, complex log or phase.  With
v = x + iy, ln|sin v| is 1/2 log(sin^2 x + sinh^2 |y|) for |y| < 20 and
|y| - ln 2 + 1/2 log1p(e (e - 2 cos 2x)), e = exp(-2|y|), from |y| = 20 on,
the same switch at which log_sin and cot drop exp(-2|y|).
ln|sigma_tilde| takes the real parts of the quadratic and quasi-period terms
of log sigma, ln|sin(pi u)| from log_abs_sin and 1/2 log|prod|^2 of the same
theta product; the sign (-1)^(m1+m2+m1 m2) has modulus 1 and drops out.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)
_TWO_PI_I = 2j * math.pi
_TINY = np.finfo(float).tiny
_LEAST_SUBNORMAL = math.ulp(0.0)

# |Im v| from which the sine kernels drop exp(-2 |Im v|) against 1: the
# neglected terms of log_sin and _cot are below exp(-40), and log_abs_sin
# switches to its form free of overflow (sinh^2 overflows beyond |Im v| ~ 355).
_IM_SWITCH = 20.0

# Series cutoffs.  The reduced nome obeys |q| <= exp(-pi*sqrt(3)) ~ 4.3e-3.
# Theta product factors are kept while they can differ from 1 by more than
# _THETA_EPS (at most seven factors, fewer for longer cells); E2 takes a fixed
# number of terms.
_THETA_EPS = 2.0**-54
_E2_TERMS = 24
_SINC_SQRT_SERIES = 1e-4  # |w| below which sin(sqrt w)/sqrt w is a Taylor series


class DomainError(ValueError):
    """Input outside a function's mathematical domain."""


class ConsistencyError(ArithmeticError):
    """An internal cross-check (e.g. the Legendre relation) failed."""


def _as_complex_array(z) -> np.ndarray:
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite evaluation point")
    return arr


@dataclass(frozen=True)
class LatticeBasis:
    """Positively oriented lattice basis (full periods)."""

    omega1: complex
    omega2: complex

    def __post_init__(self):
        w1 = complex(self.omega1)
        w2 = complex(self.omega2)
        if not (cmath.isfinite(w1) and cmath.isfinite(w2)):
            raise DomainError("lattice periods must be finite")
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega2", w2)
        if self.area <= 0.0:
            raise DomainError(
                "basis must be positively oriented: Im(conj(omega1)*omega2) > 0"
            )

    @property
    def area(self) -> float:
        return (self.omega1.conjugate() * self.omega2).imag


@dataclass(frozen=True)
class LatticeConstants:
    """Quasi-period data of a lattice basis.

    Attributes
    ----------
    eta1, eta2 : complex
        Zeta increments for the full periods omega1, omega2.
    nu : complex
        Coefficient of the z^2 correction defining sigma_tilde.
    mu : float
        pi / (2 * area); growth constant of |sigma_tilde|.
    area : float
        Unit cell area.
    sigma_type : float
        Exponential type of sigma itself, |nu| + mu.
    legendre_residual : float
        |eta1*omega2 - eta2*omega1 - 2*pi*i| as evaluated; a consistency
        indicator, not an input tolerance.
    """

    eta1: complex
    eta2: complex
    nu: complex
    mu: float
    area: float
    sigma_type: float
    legendre_residual: float


def _lagrange_reduce(w1: complex, w2: complex):
    """Shortest positively-oriented basis plus the integer change of basis.

    Returns (a, b, M) with a = M[0][0]*w1 + M[0][1]*w2, b = M[1][0]*w1 +
    M[1][1]*w2, det M = +1, |a| <= |b| and |Re(b/a)| <= 1/2.
    """
    a, b = w1, w2
    ra, rb = [1, 0], [0, 1]
    for _ in range(256):
        if abs(b) < abs(a):
            a, b = b, a
            ra, rb = rb, ra
        t = round((b * a.conjugate()).real / abs(a) ** 2)
        if t == 0:
            break
        b -= t * a
        rb = [rb[0] - t * ra[0], rb[1] - t * ra[1]]
    else:  # pragma: no cover - reduction terminates in O(log) steps
        raise ConsistencyError("basis reduction did not terminate")
    if abs(b) < abs(a):
        a, b = b, a
        ra, rb = rb, ra
    if ((a.conjugate() * b).imag) < 0:
        b = -b
        rb = [-rb[0], -rb[1]]
    det = ra[0] * rb[1] - ra[1] * rb[0]
    if det != 1:  # pragma: no cover - guaranteed by the orientation fix
        raise ConsistencyError("basis reduction lost orientation")
    return a, b, (ra, rb)


def _eisenstein_e2(tau: complex) -> complex:
    # E2(tau) = 1 - 24 sum n q^n / (1 - q^n), q = exp(2 pi i tau)
    q = cmath.exp(_TWO_PI_I * tau)
    s = 0.0 + 0.0j
    qn = 1.0 + 0.0j
    for n in range(1, _E2_TERMS + 1):
        qn *= q
        s += n * qn / (1.0 - qn)
    return 1.0 - 24.0 * s


@dataclass(frozen=True)
class _ReducedLattice:
    a: complex
    b: complex
    tau: complex
    eta_a: complex
    eta_b: complex
    eta_unit: complex  # eta of period 1 for the unit lattice Z + tau Z
    theta_coeffs: tuple  # (1 + q^(2n), q^(n-1)) per product factor, see _theta_product
    log_theta_const: complex  # -2 sum_n log(1 - q^n) over the same factors
    # constants for the caller's basis
    eta1: complex
    eta2: complex
    nu: complex
    mu: float
    area: float
    legendre_residual: float


@lru_cache(maxsize=128)
def _reduced(basis: LatticeBasis) -> _ReducedLattice:
    a, b, (ra, rb) = _lagrange_reduce(basis.omega1, basis.omega2)
    tau = b / a
    eta_a = math.pi**2 * _eisenstein_e2(tau) / (3.0 * a)
    # Legendre relation pins the second increment exactly.
    eta_b = (eta_a * b - _TWO_PI_I) / a
    eta_unit = a * eta_a  # eta scales like 1/length

    # The n-th factor of the sigma product differs from 1 by at most
    # 3 |q|^(n - 1/2); keep it while that can show in double precision.
    q = cmath.exp(_TWO_PI_I * tau)
    n_terms = 1
    while 3.0 * abs(q) ** (n_terms + 0.5) > _THETA_EPS:
        n_terms += 1
    theta_coeffs = tuple((1.0 + q ** (2 * n), q ** (n - 1)) for n in range(1, n_terms + 1))
    # z-independent part of the sigma product: prod (1 - q^n)^-2
    log_const = -2.0 * sum(cmath.log(1.0 - q**n) for n in range(1, n_terms + 1))

    # back to the caller's basis: eta is additive over lattice vectors
    det = ra[0] * rb[1] - ra[1] * rb[0]
    inv = ((rb[1], -ra[1]), (-rb[0], ra[0]))  # det == +1
    assert det == 1
    eta1 = inv[0][0] * eta_a + inv[0][1] * eta_b
    eta2 = inv[1][0] * eta_a + inv[1][1] * eta_b

    area = basis.area
    legendre = abs(eta1 * basis.omega2 - eta2 * basis.omega1 - _TWO_PI_I)
    if legendre > 1e-8 * max(1.0, abs(eta1 * basis.omega2)):
        raise ConsistencyError(f"Legendre relation violated: residual {legendre:g}")
    nu = 0.25j * (eta1 * basis.omega2.conjugate() - eta2 * basis.omega1.conjugate()) / area
    mu = math.pi / (2.0 * area)
    return _ReducedLattice(
        a=a, b=b, tau=tau, eta_a=eta_a, eta_b=eta_b, eta_unit=eta_unit,
        theta_coeffs=theta_coeffs, log_theta_const=log_const,
        eta1=eta1, eta2=eta2, nu=nu, mu=mu, area=area, legendre_residual=legendre,
    )


def lattice_constants(basis: LatticeBasis) -> LatticeConstants:
    """Quasi-period increments and sigma_tilde constants for a basis.

    The pair (eta1, eta2) refers to the basis as given (not to a reduced
    one); nu and mu are basis-independent lattice invariants.
    """
    red = _reduced(basis)
    return LatticeConstants(
        eta1=red.eta1,
        eta2=red.eta2,
        nu=red.nu,
        mu=red.mu,
        area=red.area,
        sigma_type=abs(red.nu) + red.mu,
        legendre_residual=red.legendre_residual,
    )


def log_sin(v) -> np.ndarray:
    """log(sin(v)) for complex v, stable for large |Im v|.

    Real part exact; imaginary part modulo 2*pi.  Callers that need only
    the real part use log_abs_sin.
    """
    v = np.asarray(v, dtype=complex)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    out = np.empty_like(v)
    small = np.abs(v.imag) < _IM_SWITCH
    with np.errstate(divide="ignore", invalid="ignore"):
        out[small] = np.log(np.sin(v[small]))
    vb = v[~small]
    if vb.size:
        s = np.where(vb.imag <= 0.0, 1.0, -1.0)
        # sin v = s * exp(s i v) (1 - exp(-2 s i v)) / (2 i); the neglected
        # log1p argument is below exp(-40)
        ex = -np.exp(-2j * s * vb)
        out[~small] = 1j * s * vb + ex - _LN_2 - 1j * s * (math.pi / 2.0)
    return out[0] if scalar else out


def log_abs_sin(v) -> np.ndarray:
    """ln|sin v| for complex v, real valued; -inf at the zeros of sin.

    With v = x + iy: 1/2 log(sin^2 x + sinh^2 |y|) for |y| < 20, and
    |y| - ln 2 + 1/2 log1p(e (e - 2 cos 2x)), e = exp(-2|y|), beyond.
    Neither form evaluates a complex sine or log.
    """
    v = np.asarray(v, dtype=complex)
    scalar = v.ndim == 0
    if scalar:
        v = v.reshape(1)
    out = log_abs_sin_parts(v.real, np.abs(v.imag))
    return out[0] if scalar else out


def log_abs_sin_parts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ln|sin(x + iy)| from real arrays x and y >= 0: log_abs_sin's kernel,
    for callers that hold the parts."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # |sin v|^2 = sin^2 x + sinh^2 y: two positive terms, no cancellation
        s = np.sin(x)
        sh = np.sinh(y)
        q = s * s + sh * sh
        out = 0.5 * np.log(q)
        if q.min(initial=1.0) < _TINY:  # |v| below 1e-154: the squares underflow
            tiny = q < _TINY
            out[tiny] = np.log(np.hypot(s[tiny], sh[tiny]))
        if y.max(initial=0.0) >= _IM_SWITCH:
            far = y >= _IM_SWITCH
            yf = y[far]
            e = np.exp(-2.0 * yf)
            out[far] = yf - _LN_2 + 0.5 * np.log1p(e * (e - 2.0 * np.cos(2.0 * x[far])))
    return out


def _cot(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    small = np.abs(v.imag) < _IM_SWITCH
    with np.errstate(divide="ignore", invalid="ignore"):
        out[small] = np.cos(v[small]) / np.sin(v[small])
    vb = v[~small]
    if vb.size:
        s = np.where(vb.imag <= 0.0, 1.0, -1.0)
        w = np.exp(-2j * s * vb)
        out[~small] = 1j * s * (1.0 + w) / (1.0 - w)
    return out


def _cell_split(red: _ReducedLattice, z: np.ndarray):
    """z = (m1 + t1) a + (m2 + t2) b with t in [-1/2, 1/2]."""
    w = z / red.a
    y = w.imag / red.tau.imag
    x = w.real - y * red.tau.real
    m1 = np.rint(x)
    m2 = np.rint(y)
    t1 = x - m1
    t2 = y - m2
    u0 = t1 + t2 * red.tau
    return m1, m2, u0


def _theta_exps(red: _ReducedLattice, u0: np.ndarray):
    """q e^{2 pi i u0} and q e^{-2 pi i u0}, exponents combined before exp()."""
    return np.exp(_TWO_PI_I * (red.tau + u0)), np.exp(_TWO_PI_I * (red.tau - u0))


def _theta_product(red: _ReducedLattice, u0: np.ndarray) -> np.ndarray:
    # prod_n (1 - q^n e^{2 pi i u})(1 - q^n e^{-2 pi i u}), the u-dependent
    # factors of the sigma product (see _log_sigma_unit).  Each pair
    # multiplies out to a_n - b_n s, with the scalars a_n = 1 + q^(2n),
    # b_n = q^(n-1) from theta_coeffs and s = q e^{2 pi i u} + q e^{-2 pi i u}:
    # two exp() per point in all.  u is in the reduced central cell,
    # |Im u| <= Im tau / 2, so |q^n e^{+-2 pi i u}| <= |q|^(n - 1/2) <= 0.066.
    # Hence neither exp() can overflow however elongated the basis (terms
    # that underflow are below rounding), and the product stays within 0.15
    # of 1 in log: one principal log of it has the branch of the sum of the
    # factor logs.
    ep, em = _theta_exps(red, u0)
    s = ep + em
    prod = 1.0
    for a, b in red.theta_coeffs:
        prod = prod * (a - b * s)
    return prod


def _log_sigma_unit(red: _ReducedLattice, u0: np.ndarray) -> np.ndarray:
    # sigma(u) = exp(eta_unit u^2 / 2) sin(pi u)/pi *
    #            prod_n (1 - q^n e^{2 pi i u})(1 - q^n e^{-2 pi i u}) / (1 - q^n)^2
    return (
        0.5 * red.eta_unit * u0 * u0
        + log_sin(np.pi * u0)
        - _LN_PI
        + red.log_theta_const
        + np.log(_theta_product(red, u0))
    )


def _zeta_unit(red: _ReducedLattice, u0: np.ndarray) -> np.ndarray:
    # d/du of _log_sigma_unit: d log(a_n - b_n s) = -b_n s' / (a_n - b_n s)
    ep, em = _theta_exps(red, u0)
    s = ep + em
    acc = 0.0
    for a, b in red.theta_coeffs:
        acc = acc + b / (a - b * s)
    return red.eta_unit * u0 + math.pi * _cot(np.pi * u0) - _TWO_PI_I * (ep - em) * acc


def log_sigma(basis: LatticeBasis, z) -> np.ndarray:
    """log of the Weierstrass sigma function (full-period convention).

    Real part exact for any |z|; imaginary part modulo 2*pi.  At lattice
    points the real part is -inf.
    """
    red = _reduced(basis)
    z = _as_complex_array(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    m1, m2, u0 = _cell_split(red, z)
    lam = m1 * red.a + m2 * red.b
    z0 = u0 * red.a
    eta_lam = m1 * red.eta_a + m2 * red.eta_b
    sign = 1j * math.pi * (m1 + m2 + m1 * m2)  # log of (-1)^(m1+m2+m1*m2)
    out = (
        cmath.log(red.a)
        + _log_sigma_unit(red, u0)
        + eta_lam * (z0 + 0.5 * lam)
        + sign
    )
    return out[0] if scalar else out


def weierstrass_sigma(basis: LatticeBasis, z) -> np.ndarray:
    """sigma(z) for the lattice spanned by the basis; overflows for large |z|."""
    ls = log_sigma(basis, z)
    with np.errstate(over="ignore"):
        val = np.exp(ls)
    # exact zero at lattice points instead of exp(-inf + i*nan)
    bad = ~np.isfinite(np.atleast_1d(ls).real)
    if np.any(bad):
        val = np.atleast_1d(val)
        val[bad & (np.atleast_1d(ls).real == -np.inf)] = 0.0
        val = val if np.asarray(z).ndim else val[0]
    return val


def weierstrass_zeta(basis: LatticeBasis, z) -> np.ndarray:
    """zeta(z) = sigma'/sigma; poles at lattice points give inf."""
    red = _reduced(basis)
    z = _as_complex_array(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    m1, m2, u0 = _cell_split(red, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _zeta_unit(red, u0) / red.a + m1 * red.eta_a + m2 * red.eta_b
    return out[0] if scalar else out


def sigma_tilde(basis: LatticeBasis, z) -> np.ndarray:
    """Modified sigma: exp(-nu z^2) sigma(z).  Use the log form for large |z|."""
    red = _reduced(basis)
    z = _as_complex_array(z)
    with np.errstate(over="ignore"):
        return np.exp(log_sigma(basis, z) - red.nu * z * z)


def log_abs_sigma_tilde(basis: LatticeBasis, z) -> np.ndarray:
    """ln |sigma_tilde(z)|; grows like mu |z|^2, -inf on the lattice.

    The real part of log_sigma(z) - nu z^2, term by term: the sign term
    (-1)^(m1+m2+m1*m2) has modulus 1 and drops out.
    """
    red = _reduced(basis)
    z = _as_complex_array(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    m1, m2, u0 = _cell_split(red, z)
    lam = m1 * red.a + m2 * red.b
    eta_lam = m1 * red.eta_a + m2 * red.eta_b
    quad = 0.5 * red.eta_unit * u0 * u0 + eta_lam * (u0 * red.a + 0.5 * lam) - red.nu * z * z
    prod = _theta_product(red, u0)
    out = (
        (math.log(abs(red.a)) + red.log_theta_const.real - _LN_PI)
        + quad.real
        + log_abs_sin(np.pi * u0)
        + 0.5 * np.log(prod.real * prod.real + prod.imag * prod.imag)
    )
    return out[0] if scalar else out


def sigma_tilde_dlog(basis: LatticeBasis, z) -> np.ndarray:
    """Logarithmic derivative of sigma_tilde: zeta(z) - 2 nu z."""
    red = _reduced(basis)
    z = _as_complex_array(z)
    return weierstrass_zeta(basis, z) - 2.0 * red.nu * z


# ---------------------------------------------------------------------------
# canonical products


def primary_factor(u, genus: int) -> np.ndarray:
    """Weierstrass primary factor E(u, p) = (1-u) exp(sum_{k<=p} u^k / k)."""
    return np.exp(log_primary_factor(u, genus))


def log_primary_factor(u, genus: int) -> np.ndarray:
    """log E(u, p), real part exact.

    For |u| < 1/2 the tail form -sum_{k>p} u^k/k is used, which keeps full
    relative accuracy where E is exponentially close to 1.
    """
    if genus < 0:
        raise DomainError("genus must be >= 0")
    u = _as_complex_array(u)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.zeros_like(u)
    near = np.abs(u) < 0.5
    un = u[near]
    if un.size:
        # |u|^k/k < 1e-18 at k=60 for |u|<1/2
        tail = np.zeros_like(un)
        uk = un ** (genus + 1)
        for k in range(genus + 1, 61):
            tail += uk / k
            uk = uk * un
        out[near] = -tail
    uf = u[~near]
    if uf.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            acc = np.log(1.0 - uf).astype(complex)
        uk = np.ones_like(uf)
        for k in range(1, genus + 1):
            uk = uk * uf
            acc = acc + uk / k
        out[~near] = acc
    return out[0] if scalar else out


def _sum_log_factors(z: np.ndarray, zeros: np.ndarray, genus: int) -> np.ndarray:
    """sum_w Re log E(z/w, genus), chunked so huge zero sets stay vectorized."""
    acc = np.zeros(z.shape, dtype=float)
    flat = z.ravel()
    block = max(1, 4_000_000 // max(1, flat.size))
    out = np.zeros(flat.size, dtype=float)
    for lo in range(0, zeros.size, block):
        w = zeros[lo : lo + block]
        out += np.real(log_primary_factor(flat[:, None] / w[None, :], genus)).sum(axis=1)
    acc += out.reshape(z.shape)
    return acc


def canonical_product(zeros: Sequence[complex], z, genus: int = 0,
                      origin_multiplicity: int = 0) -> np.ndarray:
    """log |canonical product| over an explicit finite zero set.

    Returns ln |z^chi * prod_w E(z/w, genus)| with chi = origin_multiplicity.
    Zeros are listed with multiplicity; the origin must not appear in them.
    """
    zeros = np.asarray(zeros, dtype=complex).ravel()
    if zeros.size and np.any(zeros == 0):
        raise DomainError("origin zeros go in origin_multiplicity, not the list")
    z = _as_complex_array(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        acc = np.zeros(z.shape, dtype=float)
        if origin_multiplicity:
            acc += origin_multiplicity * np.log(np.abs(z))
        acc += _sum_log_factors(z, zeros, genus)
    return acc[0] if scalar else acc


def canonical_product_limit(
    enumerate_zeros: Callable[[float], np.ndarray],
    z,
    genus: int,
    r0: float,
    *,
    tol: float = 1e-8,
    max_doublings: int = 18,
    origin_multiplicity: int = 0,
):
    """Partial canonical products over growing discs with a stagnation test.

    ``enumerate_zeros(R)`` must return every zero with 0 < |w| <= R (with
    multiplicity).  Partial log-products are formed at radii r0, 2*r0, ...;
    the limit is accepted once the max log change stays below tol for three
    consecutive doublings.

    Returns (log_abs, radii, increments, stagnated).
    """
    z = _as_complex_array(z)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    radii: list[float] = []
    increments: list[float] = []
    r = float(r0)
    r_prev = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        acc = np.zeros(zv.shape, dtype=float)
        if origin_multiplicity:
            acc = acc + origin_multiplicity * np.log(np.abs(zv))
        current = None
        quiet = 0
        for _ in range(max_doublings + 1):
            zeros = np.asarray(enumerate_zeros(r), dtype=complex).ravel()
            new = zeros[np.abs(zeros) > r_prev]
            r_prev = r
            acc = acc + _sum_log_factors(zv, new, genus)
            radii.append(r)
            if current is not None:
                finite = np.isfinite(acc) & np.isfinite(current)
                inc = float(np.max(np.abs(acc[finite] - current[finite]))) if finite.any() else 0.0
                increments.append(inc)
                quiet = quiet + 1 if inc < tol else 0
                if quiet >= 3:
                    return (acc[0] if scalar else acc), radii, increments, True
            current = acc.copy()
            r *= 2.0
    return (acc[0] if scalar else acc), radii, increments, False


# ---------------------------------------------------------------------------
# chains and stars


def chain_log_abs(omega0: float, kappa: complex, z) -> np.ndarray:
    """ln |sin(pi (z - kappa) / omega0)|: zeros on kappa + omega0 * Z."""
    if not (omega0 > 0):
        raise DomainError("chain period must be positive")
    z = _as_complex_array(z)
    return log_abs_sin(np.pi * (z - kappa) / omega0)


def chain_dlog(omega0: float, kappa: complex, z) -> np.ndarray:
    """d/dz of log sin(pi (z - kappa)/omega0)."""
    if not (omega0 > 0):
        raise DomainError("chain period must be positive")
    z = _as_complex_array(z)
    scalar = z.ndim == 0
    v = np.atleast_1d(np.pi * (z - kappa) / omega0)
    out = (math.pi / omega0) * _cot(v)
    return out[0] if scalar else out


def star_log_abs(order: int, z) -> np.ndarray:
    """ln |sin(pi z^N) / z^(N-1)| for the N-fold star of roots of integers.

    Zero set: all N-th roots of every positive integer, rotated through the
    2N half-axes, plus a simple zero at the origin.
    """
    if order < 1:
        raise DomainError("star order must be a positive integer")
    z = _as_complex_array(z)
    out = log_abs_sin(math.pi * z**order)
    if order > 1:
        # |z| floored at the least subnormal, which changes no nonzero z: at
        # the origin -inf - (N-1) log(floor) stays -inf instead of nan
        out = out - (order - 1) * np.log(np.maximum(np.abs(z), _LEAST_SUBNORMAL))
    return out


def star_dlog(order: int, z) -> np.ndarray:
    """d/dz of log(sin(pi z^N)/z^(N-1))."""
    if order < 1:
        raise DomainError("star order must be a positive integer")
    z = _as_complex_array(z)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            order * math.pi * zv ** (order - 1) * _cot(math.pi * zv**order)
            - (order - 1) / zv
        )
    return out[0] if scalar else out


def sinc_sqrt(w) -> np.ndarray:
    """Entire function sin(sqrt(w))/sqrt(w); equals 1 at w = 0."""
    w = _as_complex_array(w)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.empty_like(w)
    small = np.abs(w) < _SINC_SQRT_SERIES
    ws = w[small]
    # sin(sqrt w)/sqrt w = 1 - w/6 + w^2/120 - w^3/5040 + O(w^4)
    out[small] = 1.0 - ws / 6.0 + ws * ws / 120.0 - ws * ws * ws / 5040.0
    wb = w[~small]
    if wb.size:
        r = np.sqrt(wb)  # branch irrelevant: the function is even in sqrt(w)
        out[~small] = np.sin(r) / r
    return out[0] if scalar else out


def log_abs_sinc_sqrt_pair(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln|S(u)|, ln|S(-u)|), S = sinc_sqrt, branch free, from one square
    root: with sqrt u = a + ib (a >= 0), sqrt(-u) is |b| + ia or |b| - ia,
    and ln|sin| reads only the real part and |imaginary part|."""
    modulus = np.abs(u)
    small = modulus < _SINC_SQRT_SERIES
    plus, minus = np.empty(u.shape, dtype=float), np.empty(u.shape, dtype=float)
    if small.any():
        us = u[small]
        plus[small] = np.log(np.abs(sinc_sqrt(us)))
        minus[small] = np.log(np.abs(sinc_sqrt(-us)))
    big = ~small
    if big.any():
        r = np.sqrt(u[big])
        a, b = r.real, np.abs(r.imag)
        half_log = 0.5 * np.log(modulus[big])
        plus[big] = log_abs_sin_parts(a, b) - half_log
        minus[big] = log_abs_sin_parts(b, a) - half_log
    return plus, minus
