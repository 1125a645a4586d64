"""Scalar/vector potentials and explicit zero-mode families.

Spin '+' zero modes have the form exp(-phi) f(z) and spin '-' modes
exp(+phi) conj(h(z)), where phi solves Delta phi = b for the configuration's
flux density and f, h are holomorphic off the flux set.  The spin '-' side
applies its verdict's recipe to the flux-mirrored configuration (theta ->
1 - theta, xi0 -> -xi0) through h = f_mirror / W, with W the entire function
vanishing simply on every actual flux site.  Nothing is decided here.

One family of zero-set functions serves both phi and W: each of
`PointZeros` (one point), `SinZeros` (a chain), `SigmaZeros` (a lattice)
and `StarZeros` (a star) is an entire function vanishing simply on its
component's sites.  phi is the uniform part pi xi0 |z|^2 / 2 plus pairs
(zero set, weight), the weight being the site flux theta (-theta for a
removed perturbation point).  An f or h factor is a tuple of (piece,
integer power); its pieces are zero sets or the factor-only functions
`Monomial`, `SincLine`, `StarSinc` and `ExoticSinc`.  A wave function
merges equal pieces of phi and its factor once, when it is built, so
ln|psi| evaluates each distinct entire function once per point: for spin
'-' the weight theta of a zero set and the power -1 of 1/W become one term
with weight theta - 1.

The flux sites themselves and the grouping of chains by carrying line come
from `config` (`unsorted_support`, `line_groups`), which `decide` consults
too; zero sets only evaluate.

Wave functions expose log-magnitude, pointwise values, the matching vector
potential and their singular sites with fractional local exponents, as
arrays (`verify.Sites`): the protocol the quadrature certifier consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    COINCIDENCE_TOL,
    ConfigError,
    FluxConfiguration,
    Support,
    enumerate_support,
    has_nonparallel,
    line_groups,
    mirror_configuration,
    normalize_fluxes,
    parallel_directions,
    unsorted_support,
)
# `decide` stays importable here as a patch point of the benchmark's tracer
# (bench/spans.py); this module never calls it
from .decide import ZeroModeVerdict, decide, fold_loose_sites  # noqa: F401
from .special import (
    DomainError,
    LatticeBasis,
    chain_dlog,
    chain_log_abs,
    lattice_constants,
    log_abs_sigma_tilde,
    log_abs_sin,
    log_abs_sin_parts,
    sigma_tilde,
    sigma_tilde_dlog,
    sinc_sqrt,
    star_dlog,
    star_log_abs,
)
from .verify import DecayHint, Sites

# how near a point's reduced coordinate must lie to a zero of the entire
# factor for zero_orders to count that zero
_ZERO_ORDER_TOL = 1e-7


def _near_multiple(a: np.ndarray, step: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(k, near): the integer k nearest each a / step, and whether a lies
    within _ZERO_ORDER_TOL of k * step."""
    k = np.round(a / step)
    return k, np.abs(a - step * k) <= _ZERO_ORDER_TOL


class NoModesError(ValueError):
    """Construction refused: the verdict does not assert zero modes."""


def _cplx(z) -> np.ndarray:
    return np.asarray(z, dtype=complex)


# ---------------------------------------------------------------------------
# zero sets
#
# Each class is an entire function W vanishing simply on one component's
# sites.  It provides ln|W|, W, W'/W and its zero orders at an array of
# points; the sites themselves are listed by `config`.  A term (W, w) of phi
# contributes w*ln|W(z)| to phi and i*w*conj(W'/W) to a_x + i a_y, so
# a = sgrad phi holds term by term.


@dataclass(frozen=True)
class PointZeros:
    """z - position: one finite site or one perturbation point."""

    position: complex

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(z - self.position))

    def value(self, z: np.ndarray) -> np.ndarray:
        return z - self.position

    def dlog(self, z: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (z - self.position)

    def zero_orders(self, pos: np.ndarray) -> np.ndarray:
        d = pos - self.position
        return (np.hypot(d.real, d.imag) <= COINCIDENCE_TOL).astype(int)


@dataclass(frozen=True)
class SinZeros:
    """sin(pi (z - kappa)/omega0), evaluated in coordinates rotated onto the
    chain: zeros on kappa + omega0 Z."""

    omega0: complex
    kappa: complex

    def _rotated(self, z: np.ndarray) -> tuple[float, complex, complex, np.ndarray]:
        """(period, kappa, direction, z) with kappa and z turned onto the x-axis."""
        per = abs(self.omega0)
        d = self.omega0 / per
        return per, self.kappa / d, d, z / d

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        per, k2, _, w = self._rotated(z)
        return chain_log_abs(per, k2, w)

    def value(self, z: np.ndarray) -> np.ndarray:
        per, k2, _, w = self._rotated(z)
        return np.sin(math.pi * (w - k2) / per)

    def dlog(self, z: np.ndarray) -> np.ndarray:
        per, k2, d, w = self._rotated(z)
        return chain_dlog(per, k2, w) / d

    def zero_orders(self, pos: np.ndarray) -> np.ndarray:
        u = (pos - self.kappa) / self.omega0
        return ((np.abs(u.imag) <= _ZERO_ORDER_TOL) & _near_multiple(u.real)[1]).astype(int)


@dataclass(frozen=True)
class SigmaZeros:
    """sigma_tilde(z - kappa): zeros on the lattice kappa + L."""

    basis: LatticeBasis
    kappa: complex

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return log_abs_sigma_tilde(self.basis, z - self.kappa)

    def value(self, z: np.ndarray) -> np.ndarray:
        return sigma_tilde(self.basis, z - self.kappa)

    def dlog(self, z: np.ndarray) -> np.ndarray:
        return sigma_tilde_dlog(self.basis, z - self.kappa)

    def zero_orders(self, pos: np.ndarray) -> np.ndarray:
        w1, w2 = self.basis.omega1, self.basis.omega2
        s = np.imag(np.conj(w1) * w2)
        d = pos - self.kappa
        t1 = np.imag(np.conj(d) * w2) / s
        t2 = np.imag(np.conj(w1) * d) / s
        return (_near_multiple(t1)[1] & _near_multiple(t2)[1]).astype(int)


@dataclass(frozen=True)
class StarZeros:
    """sin(pi w^N)/w^(N-1), w = z/scale: vanishes simply on the star set."""

    order: int
    scale: float

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return star_log_abs(self.order, z / self.scale)

    def value(self, z: np.ndarray) -> np.ndarray:
        w = z / self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.sin(math.pi * w**self.order) / w ** (self.order - 1)
        return np.where(np.abs(w) <= COINCIDENCE_TOL, 0j, out)

    def dlog(self, z: np.ndarray) -> np.ndarray:
        return star_dlog(self.order, z / self.scale) / self.scale

    def zero_orders(self, pos: np.ndarray) -> np.ndarray:
        w = pos / self.scale
        u = w**self.order
        origin = np.hypot(w.real, w.imag) <= COINCIDENCE_TOL
        return (origin | ((np.abs(u.imag) <= _ZERO_ORDER_TOL) & _near_multiple(u.real)[1])).astype(int)


def _uniform_phi(xi0: float, z: np.ndarray) -> np.ndarray:
    return 0.5 * math.pi * xi0 * (z.real**2 + z.imag**2)


class ScalarPotential:
    """phi = pi xi0 |z|^2 / 2 plus sum w ln|W| over its (zero set W, weight w)
    terms, for the configuration whose flux sites are its singularities."""

    def __init__(self, terms: tuple, config: FluxConfiguration):
        self.terms = terms
        self.config = config
        self.uniform_flux_density = config.uniform_flux_density

    def value(self, z) -> np.ndarray:
        z = _cplx(z)
        xi0 = self.uniform_flux_density
        out = _uniform_phi(xi0, z) if xi0 else np.zeros(z.shape, dtype=float)
        for zeros, w in self.terms:
            out = out + w * zeros.log_abs(z)
        return out

    def singular_sites(self, r: float) -> Support:
        """Every flux site with |position| <= r: positions and fluxes."""
        return unsorted_support(self.config, r)


class VectorPotential:
    """a = sgrad phi, differentiated term by term; callable as a_x + i a_y."""

    def __init__(self, phi: ScalarPotential):
        self._phi = phi

    def __call__(self, z) -> np.ndarray:
        z = _cplx(z)
        xi0 = self._phi.uniform_flux_density
        out = 1j * math.pi * xi0 * z if xi0 else np.zeros(z.shape, dtype=complex)
        for zeros, w in self._phi.terms:
            out = out + 1j * w * np.conj(zeros.dlog(z))
        if not np.all(np.isfinite(out)):
            raise DomainError("vector potential evaluated on a flux site")
        return out

    def components(self, z) -> tuple[np.ndarray, np.ndarray]:
        a = self(z)
        return np.real(a), np.imag(a)

    def singular_sites(self, r: float) -> Support:
        return self._phi.singular_sites(r)


def _require_normalized(config: FluxConfiguration) -> None:
    normalized, _ = normalize_fluxes(config)
    if normalized != config:
        raise ConfigError("configuration must be normalized; apply normalize_fluxes")


def _zero_sets(config: FluxConfiguration) -> list[tuple]:
    """(W, theta) for every component of the configuration, perturbation aside."""
    out: list = [(PointZeros(s.position), s.theta) for s in config.finite_sites]
    for ch in config.chains:
        out.extend((SinZeros(ch.omega0, s.position), s.theta) for s in ch.offsets)
    for lat in config.lattices:
        out.extend((SigmaZeros(lat.basis, s.position), s.theta) for s in lat.offsets)
    if config.star is not None:
        out.append((StarZeros(config.star.order, config.star.scale), config.star.theta))
    return out


def build_scalar_potential(config: FluxConfiguration) -> ScalarPotential:
    """Assemble phi for a normalized configuration.

    phi = pi xi0 |z|^2 / 2 plus theta-weighted log moduli: |z - w| for point
    fluxes, |sin(pi (z-kappa)/omega0)| for chains, |sigma_tilde(z-kappa)| for
    lattices and the star product for star components.  Removed perturbation
    points enter with weight -theta, added ones with +theta.
    """
    _require_normalized(config)
    terms = _zero_sets(config)
    if config.perturbation is not None:
        removed = config.perturbation.removed
        if removed:
            base = replace(config, perturbation=None)
            sites = enumerate_support(base, 1.0 + max(map(abs, removed)))
            terms.extend((PointZeros(p), -t) for p, t in zip(removed, sites.theta_at(removed)))
        pert = config.perturbation
        terms.extend((PointZeros(p), t) for p, t in zip(pert.points, pert.thetas))
    return ScalarPotential(tuple(terms), config)


def build_vector_potential(phi: ScalarPotential) -> VectorPotential:
    """a = sgrad phi with analytic derivatives of every log term."""
    return VectorPotential(phi)


# ---------------------------------------------------------------------------
# factor-only pieces
#
# A factor is a tuple of (piece, integer power).  Its pieces are zero sets
# or the entire functions below, which are never phi terms.  Pieces provide
# values, log moduli and their zero orders at an array of points, which fix
# the local exponent bookkeeping at flux sites.


@dataclass(frozen=True)
class Monomial:
    k: int

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        if self.k == 0:
            return np.zeros(z.shape, dtype=float)
        with np.errstate(divide="ignore"):
            return self.k * np.log(np.abs(z))

    def value(self, z: np.ndarray) -> np.ndarray:
        return z**self.k

    def zero_orders(self, pos: np.ndarray) -> np.ndarray:
        return np.where(np.hypot(pos.real, pos.imag) <= COINCIDENCE_TOL, self.k, 0)


@dataclass(frozen=True)
class SincLine:
    """sin(alpha w)/w with w = (z - origin)/direction; decays off the line."""

    alpha: float
    origin: complex
    direction: complex

    def _w(self, z: np.ndarray) -> np.ndarray:
        return (z - self.origin) / self.direction

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        w = self._w(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = log_abs_sin(self.alpha * w) - np.log(np.abs(w))
        return np.where(np.abs(w) <= COINCIDENCE_TOL, math.log(self.alpha), out)

    def value(self, z: np.ndarray) -> np.ndarray:
        w = self._w(z)
        small = np.abs(w) <= 1e-8
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(small, self.alpha, np.sin(self.alpha * np.where(small, 1.0, w)) / np.where(small, 1.0, w))
        return out

    def zero_orders(self, pos: np.ndarray) -> np.ndarray:
        w = self._w(pos)
        k, near = _near_multiple(self.alpha * w.real, math.pi)
        return ((np.abs(w.imag) <= _ZERO_ORDER_TOL) & (k != 0) & near).astype(int)


@dataclass(frozen=True)
class StarSinc:
    """sin(alpha w^N)/w^N, w = z/scale; equals alpha at the origin."""

    alpha: float
    order: int
    scale: float

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        w = z / self.scale
        u = w**self.order
        with np.errstate(divide="ignore", invalid="ignore"):
            out = log_abs_sin(self.alpha * u) - self.order * np.log(np.abs(w))
        return np.where(np.abs(w) <= COINCIDENCE_TOL, math.log(self.alpha), out)

    def value(self, z: np.ndarray) -> np.ndarray:
        w = z / self.scale
        u = w**self.order
        small = np.abs(u) <= 1e-8
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(small, self.alpha, np.sin(self.alpha * np.where(small, 1.0, u)) / np.where(small, 1.0, u))
        return out

    def zero_orders(self, pos: np.ndarray) -> np.ndarray:
        u = (pos / self.scale) ** self.order
        k, near = _near_multiple(self.alpha * u.real, math.pi)
        origin = np.hypot(u.real, u.imag) <= COINCIDENCE_TOL
        return (~origin & (np.abs(u.imag) <= _ZERO_ORDER_TOL) & (k != 0) & near).astype(int)


def _log_abs_sinc_sqrt(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln|S(u)|, ln|S(-u)|), S(u) = sin(sqrt u)/sqrt u, branch free, from
    one square root: with sqrt u = a + ib (a >= 0), sqrt(-u) is |b| + ia or
    |b| - ia, and ln|sin| reads only the real part and |imaginary part|."""
    modulus = np.abs(u)
    small = modulus < 1e-4
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


@dataclass(frozen=True)
class ExoticSinc:
    """Entire f = (i/pi) [sin(alpha w)/(alpha w)] / [S(pi alpha w) S(-pi alpha w)]
    with S(u) = sin(sqrt u)/sqrt u, evaluated at w = z/direction + i shift.

    Decays like exp(-c sqrt|w|) off the real w-axis neighborhoods and keeps
    the 1/|w| profile of sin(alpha w)/w on the strip.
    """

    alpha: float
    direction: complex
    shift: float

    def _w(self, z: np.ndarray) -> np.ndarray:
        return z / self.direction + 1j * self.shift

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        w = self._w(z)
        u = self.alpha * w
        pu = math.pi * u
        with np.errstate(divide="ignore", invalid="ignore"):
            num = log_abs_sin(u) - np.log(np.abs(u))
            num = np.where(np.abs(u) <= COINCIDENCE_TOL, 0.0, num)
        plus, minus = _log_abs_sinc_sqrt(pu)
        return num - plus - minus - math.log(math.pi)

    def value(self, z: np.ndarray) -> np.ndarray:
        w = self._w(z)
        u = self.alpha * w
        small = np.abs(u) <= 1e-8
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.where(small, 1.0, np.sin(np.where(small, 1.0, u)) / np.where(small, 1.0, u))
        den = sinc_sqrt(math.pi * u) * sinc_sqrt(-math.pi * u)
        return (1j / math.pi) * num / den

    def zero_orders(self, pos: np.ndarray) -> np.ndarray:
        w = self._w(pos)
        k, near = _near_multiple(self.alpha * w.real, math.pi)
        # no zero where k = m^2: at k = 0 the sinc is 1, elsewhere a zero of
        # S(+-pi alpha w) in the denominator cancels that of sin(alpha w); the
        # rounded root is exact for the site indices that occur
        root = np.rint(np.sqrt(np.abs(k)))
        square = root * root == np.abs(k)
        return ((np.abs(w.imag) <= _ZERO_ORDER_TOL) & near & ~square).astype(int)


def _factor_value(factor: tuple, z: np.ndarray) -> np.ndarray:
    out = np.ones(z.shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for piece, power in factor:
            v = piece.value(z)
            out = out * (v if power == 1 else v**power)
    return out


# ---------------------------------------------------------------------------
# wave functions


@dataclass(frozen=True)
class WaveFunction:
    """Zero-mode candidate exp(-phi) F for spin '+', exp(+phi) conj(F) for '-'.

    ln|psi| = -+ pi xi0 |z|^2 / 2 + sum w ln|g| over the pieces g of phi and
    F, with each phi weight signed by the spin, each factor power added, and
    equal pieces merged: every distinct entire function is evaluated once
    per point, and a piece whose weights cancel is not evaluated at all.
    """

    spin: str
    potential: ScalarPotential
    field: VectorPotential
    factor: tuple
    decay_hint: DecayHint
    label: str = ""

    def __post_init__(self):
        weights: dict = {}
        for zeros, w in self.potential.terms:
            weights[zeros] = weights.get(zeros, 0.0) + self._sign * w
        for piece, power in self.factor:
            weights[piece] = weights.get(piece, 0.0) + power
        terms = tuple((g, w) for g, w in weights.items() if w != 0.0)
        object.__setattr__(self, "_log_terms", terms)

    @property
    def _sign(self) -> float:
        return -1.0 if self.spin == "+" else 1.0

    def log_abs(self, z) -> np.ndarray:
        z = _cplx(z)
        xi0 = self.potential.uniform_flux_density
        out = self._sign * _uniform_phi(xi0, z) if xi0 else np.zeros(z.shape, dtype=float)
        for piece, w in self._log_terms:
            out = out + w * piece.log_abs(z)
        return out

    def magnitude(self, z) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_abs(z))

    def value(self, z) -> np.ndarray:
        z = _cplx(z)
        f = _factor_value(self.factor, z)
        if self.spin == "-":
            f = np.conj(f)
        with np.errstate(over="ignore"):
            return np.exp(self._sign * self.potential.value(z)) * f

    def vector_potential(self, z) -> np.ndarray:
        return self.field(z)

    def singular_sites(self, r: float) -> Sites:
        sites = self.potential.singular_sites(r)
        e = self._sign * sites.theta
        for piece, power in self.factor:
            if power:
                e += power * piece.zero_orders(sites.pos)
        frac = np.abs(e - np.round(e)) > COINCIDENCE_TOL
        return Sites(sites.pos[frac], e[frac])


def _nearby_nodes(v: np.ndarray, lo: float, hi: float, n: int, reach: float) -> np.ndarray:
    """Indices (len(v), k) of the nodes of linspace(lo, hi, n) that may lie
    within `reach` of each coordinate in v: the node it rounds to and one
    more on each side (more where the nodes are closer than `reach`, all of
    them where they coincide), clipped to the grid."""
    if n == 1 or lo == hi:
        return np.broadcast_to(np.arange(n), (len(v), n))
    half = 1 + int(min(n, reach * (n - 1) / abs(hi - lo)))
    near = np.rint(np.clip((v - lo) / (hi - lo) * (n - 1), 0, n - 1)).astype(np.intp)
    return np.clip(near[:, None] + np.arange(-half, half + 1), 0, n - 1)


def sample_grid(psi: WaveFunction, x_range, y_range, nx: int, ny: int) -> np.ndarray:
    """|psi| on a rectangular grid, rows tracking y; inf marks flux sites."""
    xs = np.linspace(x_range[0], x_range[1], nx)
    ys = np.linspace(y_range[0], y_range[1], ny)
    zg = xs[None, :] + 1j * ys[:, None]
    with np.errstate(invalid="ignore"):
        out = psi.magnitude(zg)
    # a node on a zero of one term and a pole of another (a removed lattice
    # site: sigma_tilde against 1/(z - p)) gives inf - inf, although |psi|
    # is continuous there; take the mean over four points around it
    bad = np.isnan(out)
    if bad.any():
        p = zg[bad]
        h = 1e-6 * np.maximum(1.0, np.abs(p))
        ring = p[:, None] + h[:, None] * np.array([1.0, 1j, -1.0, -1j])
        out[bad] = psi.magnitude(ring).mean(axis=1)
    # grid nodes that land on a site exactly: rounding in log space can
    # miss the pole/zero (sin(pi*n) != 0 in floats), so snap them; only the
    # nodes around the one each site rounds to can be that close
    sites = psi.singular_sites(float(np.max(np.abs(zg))) + 1.0)
    if sites.pos.size:
        p = sites.pos
        tol = 1e-12 * np.maximum(1.0, np.hypot(p.real, p.imag))  # abs(p), rounded alike
        row = _nearby_nodes(p.imag, y_range[0], y_range[1], ny, tol.max())
        col = _nearby_nodes(p.real, x_range[0], x_range[1], nx, tol.max())
        shape = (len(p), row.shape[1], col.shape[1])
        rows, cols = np.broadcast_to(row[:, :, None], shape), np.broadcast_to(col[:, None, :], shape)
        hit = np.abs(zg[rows, cols] - p[:, None, None]) <= tol[:, None, None]
        expo = sites.expo[np.nonzero(hit)[0]]
        # assigned in site order: a later site overwrites an earlier one
        out[rows[hit], cols[hit]] = np.where(expo < 0.0, math.inf, 0.0)
    return out


# ---------------------------------------------------------------------------
# recipe assembly


@dataclass(frozen=True)
class ZeroModeFamily:
    """Finitely many members of a zero-mode family plus recipe metadata."""

    spin: str
    f_recipe: str
    alpha_range: tuple[float, float] | None
    members: tuple[WaveFunction, ...]
    member_params: tuple[tuple[str, float], ...]
    notice: str = ""

    def generator(self, index: int) -> WaveFunction:
        return self.members[index]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def alpha_default(interval: tuple[float, float]) -> float:
    """Midpoint of an admissible open alpha interval."""
    lo, hi = interval
    if not hi > lo:
        raise DomainError("empty alpha interval")
    return 0.5 * (lo + hi)


def _alpha_grid(upper: float, count: int, alpha: float | None) -> list[float]:
    grid = [upper * i / (count + 1) for i in range(1, count + 1)]
    if alpha is not None:
        if not 0.0 < alpha < upper:
            raise DomainError(f"alpha must lie in (0, {upper:.6g})")
        rest = [a for a in grid if abs(a - alpha) > 1e-12 * max(1.0, upper)]
        grid = [alpha] + rest[: count - 1]
    return grid


def _line_flux_density(group) -> float:
    """pi * (flux per unit length) along one carrying line."""
    return math.pi * sum(
        sum(s.theta for s in ch.offsets) / abs(ch.omega0) for ch in group
    )


def _point_pieces(points, power: int) -> tuple:
    return tuple((PointZeros(p), power) for p in points)


@dataclass
class _Member:
    factor: tuple
    hint: DecayHint
    param: tuple[str, float]


@dataclass
class _Recipe:
    kind: str
    alpha_range: tuple[float, float] | None
    members: list[_Member]
    notice: str = ""


def _monomial_members(count, kind, rate_fn, extra: tuple = ()):
    """Members z^k times the pieces `extra`, k = 0 .. count - 1."""
    members = [
        _Member(((Monomial(k), 1),) + extra, rate_fn(k), ("k", float(k))) for k in range(count)
    ]
    return _Recipe(kind, None, members)


def _sinc_members(count, kind, upper, alpha, member):
    """Members over the alpha grid of (0, upper); member(a) gives the
    (factor, decay hint) of parameter a."""
    members = [_Member(*member(a), ("alpha", a)) for a in _alpha_grid(upper, count, alpha)]
    return _Recipe(kind, (0.0, upper), members)


def _finite_recipe(config: FluxConfiguration, verdict: ZeroModeVerdict, count: int) -> _Recipe:
    # summed left to right in site order: np.sum's pairwise order moves the last bits
    total = sum(unsorted_support(config, math.inf).theta.tolist())
    mult = verdict.multiplicity if verdict.multiplicity is not None else count
    notice = ""
    if count > mult:
        notice = f"multiplicity {mult} < requested {count}; family truncated"
        count = mult
    rec = _monomial_members(count, "Monomial", lambda k: DecayHint("power", total - k))
    rec.notice = notice
    return rec


def _chain_recipe(config: FluxConfiguration, count: int, alpha: float | None) -> _Recipe:
    groups = line_groups(config.chains)
    lead = groups[0]
    theta_bar = _line_flux_density(lead)
    origin = lead[0].offsets[0].position
    d = lead[0].direction
    if has_nonparallel(config.chains):
        hint = DecayHint("exponential", 0.5 * min(_line_flux_density(g) for g in groups))
    else:
        hint = DecayHint("ring", -2.0)
    return _sinc_members(
        count, "SincChain", theta_bar, alpha, lambda a: (((SincLine(a, origin, d), 1),), hint)
    )


def _collinear_recipe(
    config: FluxConfiguration, cond: int, count: int, alpha: float | None
) -> _Recipe:
    chains = sorted(config.chains, key=lambda c: abs(c.omega0))
    d = chains[0].direction
    periods = [abs(c.omega0) for c in chains]
    thetas = [c.offsets[0].theta for c in chains]
    if cond == 1:
        upper = min(math.pi * t / p for t, p in zip(thetas, periods))
        hint = DecayHint("ring", -2.0 * len(chains))
        return _sinc_members(
            count, "SincChain", upper, alpha,
            lambda a: (tuple((SincLine(a, c.offsets[0].position, d), 1) for c in chains), hint),
        )
    # conditions 2 and 3 (a pair with sum theta >= 1): one sinc line, the
    # other chains as sine arms
    upper = math.pi / periods[0] - math.pi * sum(
        (1.0 - t) / p for t, p in zip(thetas, periods)
    )
    arms = tuple((SinZeros(c.omega0, c.offsets[0].position), 1) for c in chains[1:])
    lead = chains[0].offsets[0].position
    return _sinc_members(
        count, "SincChain", upper, alpha,
        lambda a: (((SincLine(a, lead, d), 1),) + arms, DecayHint("ring", -2.0)),
    )


def _lattice_rate(config: FluxConfiguration) -> float:
    rate = 0.0
    for lat in config.lattices:
        mu = lattice_constants(lat.basis).mu
        rate += mu * sum(s.theta for s in lat.offsets)
    return rate


def _lattice_recipe(config: FluxConfiguration, count: int) -> _Recipe:
    rate = _lattice_rate(config)
    return _monomial_members(count, "Polynomial", lambda k: DecayHint("gaussian", rate))


def _simple_lattice_recipe(config: FluxConfiguration, cond: int, count: int) -> _Recipe:
    lats = sorted(config.lattices, key=lambda l: l.basis.area)
    mus = [lattice_constants(l.basis).mu for l in lats]
    thetas = [l.offsets[0].theta for l in lats]
    if cond == 1:
        rate = sum(m * t for m, t in zip(mus, thetas))
        return _monomial_members(count, "Polynomial", lambda k: DecayHint("gaussian", rate))
    rate = mus[0] * thetas[0] - sum(
        m * (1.0 - t) for m, t in zip(mus[1:], thetas[1:])
    )
    arms = tuple((SigmaZeros(l.basis, l.offsets[0].position), 1) for l in lats[1:])
    return _monomial_members(count, "Polynomial", lambda k: DecayHint("gaussian", rate), arms)


def _landau_lattice_recipe(config: FluxConfiguration, count: int) -> _Recipe:
    lat = config.lattices[0]
    mu = lattice_constants(lat.basis).mu
    eta0 = config.uniform_flux_density * lat.basis.area
    rate = mu * (eta0 + sum(s.theta for s in lat.offsets))
    return _monomial_members(count, "Polynomial", lambda k: DecayHint("gaussian", rate))


def _landau_general_recipe(config: FluxConfiguration, count: int) -> _Recipe:
    products = tuple((zeros, 1) for zeros, _ in _zero_sets(config))
    rate = 0.5 * math.pi * abs(config.uniform_flux_density)
    return _monomial_members(count, "Polynomial", lambda k: DecayHint("gaussian", rate), products)


def _perturbed_chain_recipe(config: FluxConfiguration, count: int, alpha: float | None) -> _Recipe:
    groups = line_groups(config.chains)
    lead = groups[0]
    other_dirs = [g for g in groups if not parallel_directions(lead[0].direction, g[0].direction)]
    upper = 0.5 * _line_flux_density(lead)
    extra = _point_pieces(config.perturbation.points, 1)
    hint = DecayHint("exponential", 0.5 * min(_line_flux_density(g) for g in other_dirs))
    origin, d = lead[0].offsets[0].position, lead[0].direction
    return _sinc_members(
        count, "SincChain", upper, alpha, lambda a: (((SincLine(a, origin, d), 1),) + extra, hint)
    )


def _parallel_exotic_recipe(config: FluxConfiguration, count: int, alpha: float | None) -> _Recipe:
    d = config.chains[0].direction
    upper = sum(
        math.pi * s.theta / abs(c.omega0) for c in config.chains for s in c.offsets
    )
    ys = [np.imag(s.position / d) for c in config.chains for s in c.offsets]
    shift = 1.0 + max(0.0, -min(ys))
    extra = _point_pieces(config.perturbation.points, 1)
    return _sinc_members(
        count, "ExoticParallel", upper, alpha,
        lambda a: (
            ((ExoticSinc(a, d, shift), 1),) + extra,
            DecayHint("exp_sqrt", 0.5 * math.sqrt(math.pi * a)),
        ),
    )


def _patched_lattice_recipe(config: FluxConfiguration, count: int) -> _Recipe:
    rate = _lattice_rate(config)
    extra = _point_pieces(config.perturbation.points, 1)
    return _monomial_members(count, "Polynomial", lambda k: DecayHint("gaussian", rate), extra)


def _star_recipe(config: FluxConfiguration, count: int, alpha: float | None) -> _Recipe:
    star = config.star
    n, theta = star.order, star.theta
    upper = math.pi * theta
    hint = DecayHint("ring", 1.0 - 3.0 * n + 2.0 * theta * (n - 1.0))
    return _sinc_members(
        count, "SincChain", upper, alpha, lambda a: (((StarSinc(a, n, star.scale), 1),), hint)
    )


def _inherited_recipe(
    config: FluxConfiguration, verdict: ZeroModeVerdict, count: int, alpha: float | None
) -> _Recipe:
    """Thm 7.1: the family of the base configuration, built on the base
    verdict that `verdict` carries, its decay shifted by the added flux."""
    rec = _plus_recipe(replace(config, perturbation=None), verdict.base, count, alpha)
    shift = sum(config.perturbation.thetas)
    if shift and config.perturbation.removed == ():
        for m in rec.members:
            if m.hint.kind == "power":
                m.hint = DecayHint("power", m.hint.rate + shift)
            elif m.hint.kind == "ring":
                m.hint = DecayHint("ring", m.hint.rate - 2.0 * shift)
    return rec


def _plus_recipe(
    config: FluxConfiguration, verdict: ZeroModeVerdict, count: int, alpha: float | None
) -> _Recipe:
    """The spin '+' recipe of `verdict` on `config`; a spin '-' verdict's
    conditions are those of the mirror's spin '+', so Thm 6.4a is Thm 6.4."""
    thm = "Thm 6.4" if verdict.theorem == "Thm 6.4a" else verdict.theorem
    cond = int(verdict.condition_values.get("conditionIndex", 0))
    config = fold_loose_sites(config)  # the configuration `verdict` answers for
    if thm == "Thm 6.1":
        return _finite_recipe(config, verdict, count)
    if thm == "Thm 6.3":
        return _chain_recipe(config, count, alpha)
    if thm == "Thm 6.4":
        return _collinear_recipe(config, cond, count, alpha)
    if thm in ("Thm 6.5", "Thm 6.New"):
        return _lattice_recipe(config, count)
    if thm == "§7.4 lattice theorem":
        return _simple_lattice_recipe(config, cond, count)
    if thm == "Thm 6.8":
        return _landau_lattice_recipe(config, count)
    if thm == "Thm 6.7":
        return _landau_general_recipe(config, count)
    if thm == "Thm 7.1":
        return _inherited_recipe(config, verdict, count, alpha)
    if thm == "Thm 7.3":
        return _perturbed_chain_recipe(config, count, alpha)
    if thm == "Thm 7.4":
        return _parallel_exotic_recipe(config, count, alpha)
    if thm == "§8.4 theorem":
        return _patched_lattice_recipe(config, count)
    if thm == "§7.5 theorem":
        return _star_recipe(config, count, alpha)
    raise NoModesError(f"no construction recipe for verdict {thm!r}")


def _inverse_w(config: FluxConfiguration) -> tuple:
    """Factor pieces of 1/W, W vanishing simply on every actual flux site:
    each zero set to the power -1, removed points restored, added ones
    divided out."""
    wrap = tuple((zeros, -1) for zeros, _ in _zero_sets(config))
    if config.perturbation is not None:
        wrap += _point_pieces(config.perturbation.removed, 1)
        wrap += _point_pieces(config.perturbation.points, -1)
    return wrap


def build_zero_modes(
    config: FluxConfiguration,
    verdict: ZeroModeVerdict,
    count: int,
    *,
    alpha: float | None = None,
) -> ZeroModeFamily:
    """Construct `count` linearly independent zero modes for an Exists verdict.

    The f-factor recipe follows the theorem cited by the verdict, which must
    be `decide(config, verdict.spin)`: no question is decided again here.  A
    spin '-' family applies that recipe to the flux mirror of `config` and
    divides by W; a Thm 7.1 family builds on the base verdict it carries.
    `alpha` overrides the first grid value for sinc-type recipes.
    """
    if count < 1:
        raise DomainError("count must be a positive integer")
    if not verdict.exists:
        raise NoModesError(f"verdict {verdict.status!r} asserts no zero modes to build")
    _require_normalized(config)

    phi = build_scalar_potential(config)
    a_field = build_vector_potential(phi)

    minus = verdict.spin == "-"
    rec = _plus_recipe(mirror_configuration(config) if minus else config, verdict, count, alpha)
    wrap = _inverse_w(config) if minus else ()

    members = tuple(
        WaveFunction(
            verdict.spin,
            phi,
            a_field,
            m.factor + wrap,
            m.hint,
            label=f"{rec.kind}({m.param[0]}={m.param[1]:.6g})",
        )
        for m in rec.members
    )
    return ZeroModeFamily(
        spin=verdict.spin,
        f_recipe=rec.kind,
        alpha_range=rec.alpha_range,
        members=members,
        member_params=tuple(m.param for m in rec.members),
        notice=rec.notice,
    )


def build_divergence_candidate(
    config: FluxConfiguration, verdict: ZeroModeVerdict
) -> WaveFunction:
    """Canonical would-be mode for a NotExists verdict (constant f factor).

    Running the quadrature certifier on it is expected to report divergence;
    that is the numerical counterpart of the non-existence statement.
    """
    if verdict.status != "NotExists":
        raise NoModesError("divergence candidates exist only for NotExists verdicts")
    _require_normalized(config)
    phi = build_scalar_potential(config)
    a_field = build_vector_potential(phi)
    # spin '-' modulus exp(+phi)/|W|: every actual site contributes 1 - theta
    factor = () if verdict.spin == "+" else _inverse_w(config)
    if config.uniform_flux_density != 0.0 or config.lattices:
        hint = DecayHint("gaussian", 0.0)
    elif config.chains or config.star is not None:
        hint = DecayHint("ring", 0.0)
    else:
        theta = phi.singular_sites(math.inf).theta
        rate = sum((theta if verdict.spin == "+" else 1.0 - theta).tolist())
        hint = DecayHint("power", rate)
    return WaveFunction(verdict.spin, phi, a_field, factor, hint, label="divergence-candidate")
