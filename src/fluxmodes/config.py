"""Flux-configuration data model and point-set analytics.

A configuration is a uniform field density plus an arrangement of
Aharonov-Bohm fluxes: isolated sites, periodic chains (rank-1 lattices of
parallel lines), full rank-2 lattices, an optional N-fold star of integer
roots, and an optional discrete perturbation (removed / added points).

All components are immutable; analytics are pure functions on arrays: the
support within a radius is a `Support` of site position and flux arrays.

This module is the one home of configuration geometry: `unsorted_support`
and `enumerate_support` list the flux sites, `line_groups` groups chains by
carrying line, and `PARALLEL_TOL` and `COINCIDENCE_TOL` are the tolerances
of both; `decide` and `ansatz` derive neither themselves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .special import DomainError, LatticeBasis

# two sites closer than this coincide; decide and ansatz both test by it
COINCIDENCE_TOL = 1e-9


class ConfigError(ValueError):
    """Malformed or inconsistent flux configuration."""


class ChainMergeError(ConfigError):
    """Same-line chains with incommensurable periods: union not uniformly discrete."""


@dataclass(frozen=True)
class FluxSite:
    position: complex
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "position", complex(self.position))
        object.__setattr__(self, "theta", float(self.theta))
        if not (cmath.isfinite(self.position) and math.isfinite(self.theta)):
            raise ConfigError("flux site fields must be finite")


@dataclass(frozen=True)
class ChainComponent:
    """Points kappa + omega0 * Z for each offset kappa; omega0 may be any
    nonzero complex direction."""

    omega0: complex
    offsets: tuple[FluxSite, ...]

    def __post_init__(self):
        object.__setattr__(self, "omega0", complex(self.omega0))
        object.__setattr__(self, "offsets", tuple(self.offsets))
        if self.omega0 == 0:
            raise ConfigError("chain period must be nonzero")
        if not self.offsets:
            raise ConfigError("chain needs at least one offset")

    @property
    def direction(self) -> complex:
        return self.omega0 / abs(self.omega0)


@dataclass(frozen=True)
class LatticeComponent:
    basis: LatticeBasis
    offsets: tuple[FluxSite, ...]

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(self.offsets))
        if not self.offsets:
            raise ConfigError("lattice needs at least one offset")


@dataclass(frozen=True)
class StarComponent:
    """N-fold star: all N-th roots of the positive integers on 2N rays,
    plus the origin; every site carries the same flux."""

    order: int
    theta: float
    scale: float = 1.0

    def __post_init__(self):
        if int(self.order) != self.order or self.order < 2:
            raise ConfigError("star order must be an integer >= 2")
        object.__setattr__(self, "order", int(self.order))
        if not (self.scale > 0):
            raise ConfigError("star scale must be positive")


@dataclass(frozen=True)
class AddedSet:
    points: tuple[complex, ...]
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(complex(p) for p in self.points))


@dataclass(frozen=True)
class Perturbation:
    removed: tuple[complex, ...] = ()
    added: tuple[AddedSet, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "removed", tuple(complex(p) for p in self.removed))
        object.__setattr__(self, "added", tuple(self.added))

    @property
    def points(self) -> tuple[complex, ...]:
        """Every added point, set by set."""
        return tuple(p for a in self.added for p in a.points)

    @property
    def thetas(self) -> tuple[float, ...]:
        """The flux of each of `points`."""
        return tuple(a.theta for a in self.added for _ in a.points)


@dataclass(frozen=True)
class FluxConfiguration:
    uniform_flux_density: float = 0.0  # xi0; the field is b0 = 2 pi xi0
    finite_sites: tuple[FluxSite, ...] = ()
    chains: tuple[ChainComponent, ...] = ()
    lattices: tuple[LatticeComponent, ...] = ()
    star: StarComponent | None = None
    perturbation: Perturbation | None = None

    def __post_init__(self):
        object.__setattr__(self, "finite_sites", tuple(self.finite_sites))
        object.__setattr__(self, "chains", tuple(self.chains))
        object.__setattr__(self, "lattices", tuple(self.lattices))
        if not math.isfinite(self.uniform_flux_density):
            raise ConfigError("uniform flux density must be finite")

    @property
    def is_empty(self) -> bool:
        return not (self.finite_sites or self.chains or self.lattices or self.star
                    or (self.perturbation and self.perturbation.added))


# ---------------------------------------------------------------------------
# normalization


def _frac(theta: float) -> tuple[float, int]:
    m = math.floor(theta)
    f = theta - m
    if f >= 1.0:  # theta one ulp below an integer rounds up: treat as integer flux
        return 0.0, m + 1
    return f, m


def _reduce_chain_offset(kappa: complex, omega0: complex) -> tuple[complex, int]:
    # elementary strip: 0 <= Re(conj(kappa) * omega0) < |omega0|^2
    t = (kappa.conjugate() * omega0).real / abs(omega0) ** 2
    m = math.floor(t)
    return kappa - m * omega0, m


def _reduce_lattice_offset(kappa: complex, basis: LatticeBasis) -> tuple[complex, tuple[int, int]]:
    w = kappa / basis.omega1
    tau = basis.omega2 / basis.omega1
    y = w.imag / tau.imag
    x = w.real - y * tau.real
    m1, m2 = math.floor(x), math.floor(y)
    return kappa - m1 * basis.omega1 - m2 * basis.omega2, (m1, m2)


def normalize_fluxes(config: FluxConfiguration) -> tuple[FluxConfiguration, list[dict]]:
    """Reduce every flux to its fractional part in (0, 1) and every offset to
    the elementary strip/cell; integer fluxes disappear (pure gauge).

    Returns the normalized configuration and a gauge log listing every
    integer shift and every eliminated site.  Idempotent.
    """
    log: list[dict] = []

    def norm_site(site: FluxSite, where: str) -> FluxSite | None:
        th, m = _frac(site.theta)
        if m != 0:
            log.append({"kind": where, "position": site.position, "shift": m})
        if th == 0.0:
            log.append({"kind": where, "position": site.position, "removed": True})
            return None
        return FluxSite(site.position, th)

    finite = tuple(s for s in (norm_site(s, "finite") for s in config.finite_sites) if s)

    chains = []
    for ch in config.chains:
        offs = []
        for off in ch.offsets:
            s = norm_site(off, "chain_offset")
            if s is None:
                continue
            kappa, m = _reduce_chain_offset(s.position, ch.omega0)
            if m != 0:
                log.append({"kind": "chain_offset", "position": s.position, "cell_shift": m})
            offs.append(FluxSite(kappa, s.theta))
        if offs:
            _check_distinct([o.position for o in offs], "chain offsets")
            chains.append(ChainComponent(ch.omega0, tuple(offs)))

    lattices = []
    for lat in config.lattices:
        offs = []
        for off in lat.offsets:
            s = norm_site(off, "lattice_offset")
            if s is None:
                continue
            kappa, m = _reduce_lattice_offset(s.position, lat.basis)
            if m != (0, 0):
                log.append({"kind": "lattice_offset", "position": s.position, "cell_shift": m})
            offs.append(FluxSite(kappa, s.theta))
        if offs:
            _check_distinct([o.position for o in offs], "lattice offsets")
            lattices.append(LatticeComponent(lat.basis, tuple(offs)))

    star = config.star
    if star is not None:
        th, m = _frac(star.theta)
        if m != 0:
            log.append({"kind": "star", "shift": m})
        star = StarComponent(star.order, th, star.scale) if th != 0.0 else None
        if star is None:
            log.append({"kind": "star", "removed": True})

    pert = config.perturbation
    if pert is not None:
        added = []
        for a in pert.added:
            th, m = _frac(a.theta)
            if m != 0:
                log.append({"kind": "added_set", "shift": m})
            if th != 0.0:
                added.append(AddedSet(a.points, th))
        pert = Perturbation(pert.removed, tuple(added))
        if not pert.removed and not pert.added:
            pert = None

    out = FluxConfiguration(
        uniform_flux_density=config.uniform_flux_density,
        finite_sites=finite,
        chains=tuple(chains),
        lattices=tuple(lattices),
        star=star,
        perturbation=pert,
    )
    return out, log


def _check_distinct(points: Sequence[complex], what: str) -> None:
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < COINCIDENCE_TOL:
                raise ConfigError(f"coincident {what}: {pts[i]}")


def mirror_configuration(config: FluxConfiguration) -> FluxConfiguration:
    """Flux-reversed twin: theta -> 1 - theta at every site, xi0 -> -xi0.

    The spin-down problem for a configuration coincides with the spin-up
    problem for its mirror, so dual existence conditions and dual wave
    functions are all phrased through this map.  Normalized input stays
    normalized (1 - theta is again in (0, 1), offsets untouched).
    """

    def flip(s: FluxSite) -> FluxSite:
        return FluxSite(s.position, 1.0 - s.theta)

    chains = tuple(
        ChainComponent(c.omega0, tuple(flip(s) for s in c.offsets)) for c in config.chains
    )
    lattices = tuple(
        LatticeComponent(l.basis, tuple(flip(s) for s in l.offsets)) for l in config.lattices
    )
    star = config.star
    if star is not None:
        star = StarComponent(star.order, 1.0 - star.theta, star.scale)
    pert = config.perturbation
    if pert is not None:
        pert = Perturbation(
            pert.removed,
            tuple(AddedSet(a.points, 1.0 - a.theta) for a in pert.added),
        )
    return FluxConfiguration(
        uniform_flux_density=-config.uniform_flux_density,
        finite_sites=tuple(flip(s) for s in config.finite_sites),
        chains=chains,
        lattices=lattices,
        star=star,
        perturbation=pert,
    )


# ---------------------------------------------------------------------------
# chain merging


def _as_rational(x: float, cap: int = 10**6, rel: float = 1e-13) -> Fraction | None:
    """Recognize a float as a small-denominator rational, or return None.

    A rational ratio of floats matches its fraction to a few ulp; the best
    den<=cap approximant of an irrational sits several orders farther out.
    """
    fr = Fraction(x).limit_denominator(cap)
    if abs(x - float(fr)) > rel * max(1.0, abs(x)):
        return None
    return fr


# chain directions d1, d2 are parallel (equal up to sign) when
# |Im(d2/d1)| <= PARALLEL_TOL, and a point lies on the line through a along
# d when |Im((p - a)/d)| <= PARALLEL_TOL max(1, |p - a|); decide and ansatz
# both route on these tests
PARALLEL_TOL = 1e-9


def parallel_directions(d1: complex, d2: complex) -> bool:
    return abs((d2 / d1).imag) <= PARALLEL_TOL


def has_nonparallel(chains: Sequence[ChainComponent]) -> bool:
    """Whether two of the chains run in different directions."""
    dirs = [c.direction for c in chains]
    return any(
        not parallel_directions(d1, d2) for i, d1 in enumerate(dirs) for d2 in dirs[i + 1 :]
    )


def _on_line(anchor: complex, d: complex, p: complex) -> bool:
    delta = p - anchor
    return abs((delta / d).imag) <= PARALLEL_TOL * max(1.0, abs(delta))


def _single_line(chain: ChainComponent) -> bool:
    """Whether every offset of the chain lies on the line of its first."""
    anchor = chain.offsets[0].position
    return all(_on_line(anchor, chain.direction, s.position) for s in chain.offsets)


def line_groups(chains: Sequence[ChainComponent]) -> list[list[ChainComponent]]:
    """Chains grouped by carrying line, the line of a chain's first offset:
    each joins the first group whose first chain is parallel to it and
    whose line holds its first offset."""
    groups: list[list[ChainComponent]] = []
    for ch in chains:
        for group in groups:
            lead = group[0]
            if parallel_directions(lead.direction, ch.direction) and _on_line(
                lead.offsets[0].position, lead.direction, ch.offsets[0].position
            ):
                group.append(ch)
                break
        else:
            groups.append([ch])
    return groups


def _merge_coincident(sites: list[FluxSite], d: complex) -> list[FluxSite]:
    """Sites on one line along `d`, neighbours along it within COINCIDENCE_TOL
    merged: each group keeps its first site's position and sums its fluxes
    in list order; groups come in the order of their first sites."""
    pos = np.array([s.position for s in sites])
    order = np.argsort((pos / d).real, kind="stable")
    apart = np.abs(np.diff(pos[order])) >= COINCIDENCE_TOL
    group = np.empty(len(sites), dtype=np.intp)
    group[order] = np.concatenate(([0], np.cumsum(apart)))
    merged: dict[int, FluxSite] = {}
    for s, g in zip(sites, group.tolist()):
        t = merged.get(g)
        merged[g] = s if t is None else FluxSite(t.position, t.theta + s.theta)
    return list(merged.values())


def merge_collinear_chains(chains: Sequence[ChainComponent]) -> ChainComponent:
    """Merge chains sharing a single line into one chain, or reject.

    All period ratios must be rational (continued-fraction detection with
    denominators up to 1e6); otherwise the union is dense in the line, not
    uniformly discrete, and a ChainMergeError is raised.  So it is when the
    merged chain would carry more than 100 000 residues.  Coincident points
    get their fluxes summed, then renormalized to (0, 1).
    """
    chains = list(chains)
    if not chains:
        raise ConfigError("nothing to merge")
    if not all(map(_single_line, chains)):
        raise ConfigError("merge requires every component to lie on a single line")
    if len(line_groups(chains)) > 1:
        raise ConfigError("chains do not share one line")
    d = chains[0].direction

    # periods as real multiples of the common direction
    periods = [(c.omega0 / d).real for c in chains]
    base = periods[0]
    ratios: list[Fraction] = []
    for p in periods:
        fr = _as_rational(p / base)
        if fr is None or fr == 0:
            raise ChainMergeError(
                "incommensurable chain periods: union dense in the line, "
                "not uniformly discrete"
            )
        ratios.append(abs(fr))

    # least common multiple of the rational ratios
    num = 1
    for fr in ratios:
        num = num * fr.numerator // math.gcd(num, fr.numerator)
    den = ratios[0].denominator
    for fr in ratios[1:]:
        den = math.gcd(den, fr.denominator)
    period = abs(base) * num / den
    omega0 = period * d

    # collect residues of every chain modulo the merged period
    total = sum(round(period / abs(p)) * len(c.offsets) for c, p in zip(chains, periods))
    if total > 100_000:
        # a ratio near a fraction of large denominator: no usable period
        raise ChainMergeError("merged chain would carry too many residues to be usable")
    sites: list[FluxSite] = []
    for ch, p in zip(chains, periods):
        step = abs(p)
        copies = round(period / step)
        for off in ch.offsets:
            for k in range(copies):
                kappa = off.position + k * step * d * (1 if p > 0 else -1)
                kappa, _ = _reduce_chain_offset(kappa, omega0)
                sites.append(FluxSite(kappa, off.theta))

    out = []
    for s in _merge_coincident(sites, d):
        th, _ = _frac(s.theta)
        if th != 0.0:
            out.append(FluxSite(s.position, th))
    if not out:
        raise ConfigError("merged chain has only integer fluxes left")
    out.sort(key=lambda s: (s.position.conjugate() * omega0).real)
    return ChainComponent(omega0, tuple(out))


# ---------------------------------------------------------------------------
# support enumeration


@dataclass(frozen=True, eq=False)
class Support:
    """Flux sites as arrays: complex positions `pos` and their fluxes `theta`."""

    pos: np.ndarray
    theta: np.ndarray

    def __len__(self) -> int:
        return len(self.pos)

    def theta_at(self, points: Sequence[complex]) -> list[float]:
        """Flux of the site at each removed point; raises if one is no site."""
        hits = [np.flatnonzero(_distances(self.pos, p) < COINCIDENCE_TOL) for p in points]
        for p, hit in zip(points, hits):
            if not hit.size:
                raise ConfigError(f"removed point {p} is not a site of the configuration")
        return [float(self.theta[hit[0]]) for hit in hits]


def _component_sites(config: FluxConfiguration, r_max: float):
    """(positions within r_max, theta) per finite site, offset and star."""
    for s in config.finite_sites:
        if abs(s.position) <= r_max:
            yield np.array([s.position]), s.theta
    for ch in config.chains:
        for off in ch.offsets:
            span = math.ceil((r_max + abs(off.position)) / abs(ch.omega0) + 1)
            pos = off.position + np.arange(-span, span + 1) * ch.omega0
            yield pos[np.abs(pos) <= r_max], off.theta
    for lat in config.lattices:
        w1, w2 = lat.basis.omega1, lat.basis.omega2
        for off in lat.offsets:
            r = r_max + abs(off.position)
            b1 = math.ceil(r * abs(w2) / lat.basis.area) + 1
            b2 = math.ceil(r * abs(w1) / lat.basis.area) + 1
            m1, m2 = np.arange(-b1, b1 + 1), np.arange(-b2, b2 + 1)
            grid = (off.position + m1[:, None] * w1 + m2[None, :] * w2).ravel()
            yield grid[np.abs(grid) <= r_max], off.theta
    star = config.star
    if star is not None:
        n = star.order
        m_max = int((r_max / star.scale) ** n) + 1
        if m_max > 5_000_000:
            raise ConfigError("star enumeration radius too large")
        radii = np.array([star.scale * m ** (1.0 / n) for m in range(1, m_max + 1)])
        rays = np.array([cmath.exp(1j * math.pi * k / n) for k in range(2 * n)])
        ring = radii[radii <= r_max, None] * rays
        yield np.concatenate(([0j], ring.ravel())), star.theta


def _distances(pos: np.ndarray, p: complex) -> np.ndarray:
    # np.hypot, unlike np.abs, rounds exactly as Python's abs(complex)
    return np.hypot(pos.real - p.real, pos.imag - p.imag)


_PAIRWISE_MAX = 64  # up to this many points every pair is measured at once
# the minimum-gap search halves its first cells while one holds more points
_CELL_POINTS = 32
_BLOCK_POINTS = 1024  # points whose candidate pairs are measured together
# up to this many (query, point) pairs, nearest neighbours by all pairs: the
# measured crossover with the cell search, whose fixed cost is some 0.1 ms
_PAIRWISE_NEAREST = 1 << 14


class CellIndex:
    """Points binned in square cells of about side `cell`, sorted by int64
    cell key: the one neighbour search over site sets.

    Keys run column by column, so the cells of one column between two rows
    are one contiguous key range, found with searchsorted.  `pairs` lists the
    close pairs among the points (the minimum gap); `near` lists the points
    around query points (nearest neighbours), and `near_blocks` lists them in
    blocks of a bounded size (the site discs that can reach a polar box of the
    quadrature).  Distances are sqrt(dx*dx + dy*dy),
    the rounding of a distance matrix and of a k-d tree.
    """

    def __init__(self, pos: np.ndarray, cell: float):
        self.pos = pos
        x, y = pos.real, pos.imag
        x0, y0 = x.min(), y.min()
        self.corner = complex(x0, y0)
        span = max(x.max() - x0, y.max() - y0)
        # widened so that two points at most `cell` apart never lie two cells
        # apart: the rounding of d and of the cell coordinates is below
        # (cell + span) * 2**-51, and a cell above span * 2**11 holds every point
        self.side = cell + span * 2.0**-40
        # far above what rounding moves a coordinate by: `near` widens by it
        self.slack = (span + abs(x0) + abs(y0)) * 2.0**-40
        iy = ((y - y0) / self.side).astype(np.int64)
        self.width = int(iy.max()) + 2  # row width - 1 stays empty: no key wraps into a neighbour column
        key = ((x - x0) / self.side).astype(np.int64) * self.width + iy
        del iy
        self.order = np.argsort(key)
        self.key = key[self.order]
        self.top = np.array([self.key[-1] // self.width, self.width - 2], dtype=float)  # the last column and row

    @property
    def crowd(self) -> int:
        """The most points in one cell."""
        return int(np.diff(np.flatnonzero(np.diff(self.key, prepend=-1, append=-1))).max())

    def pairs(self, limit: float):
        """Blocks (i, j, d) of every pair of points at most `limit` <= `cell`
        apart, each pair in one block once, generated lazily _BLOCK_POINTS
        points at a time.  Each point meets the later points of its own cell
        and the points of its 4 forward neighbours (+1 in y; +1 in x and -1,
        0, +1 in y): two key ranges."""
        key, width = self.key, self.width
        xs, ys = self.pos.real[self.order], self.pos.imag[self.order]
        for lo in range(0, len(key), _BLOCK_POINTS):
            k = key[lo : lo + _BLOCK_POINTS]
            rank = np.arange(lo, lo + len(k))
            starts = np.concatenate([rank + 1, np.searchsorted(key, k + width - 1)])
            stops = np.concatenate([np.searchsorted(key, k + 2), np.searchsorted(key, k + width + 2)])
            counts = stops - starts
            a = np.repeat(np.tile(rank, 2), counts)
            b = np.arange(len(a)) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
            dx, dy = xs[a] - xs[b], ys[a] - ys[b]
            d = np.sqrt(dx * dx + dy * dy)
            keep = d <= limit
            yield self.order[a[keep]], self.order[b[keep]], d[keep]

    def near(self, points: np.ndarray, reach) -> tuple[np.ndarray, np.ndarray]:
        """(i, j): each query points[i] with every point j in the cells that
        meet the square of half-side `reach` (one value, or one per query)
        around it, one key range per column.  They include every point whose
        rounded distance from the query is at most `reach`; the caller's
        exact test follows."""
        return next(self.near_blocks(points, reach))

    def near_blocks(self, points: np.ndarray, reach, size: int | None = None):
        """The pairs of `near`, in the same order, as blocks (i, j) of at
        most `size` pairs (all in one block by default); at least one block,
        which may be empty.  Only the key ranges are held whole."""
        if len(points) * len(self.key) <= _PAIRWISE_MAX**2:  # every pair: one range per query
            q = np.arange(len(points))
            start, count = np.zeros_like(q), np.full(q.size, len(self.key))
            point = np.arange(len(self.key))
        else:
            q, start, count = self._ranges(points, reach)
            point = self.order
        end = np.cumsum(count)
        begin = end - count  # each range's first pair among all pairs
        total = int(end[-1]) if end.size else 0
        size = size or max(total, 1)
        for a in range(0, max(total, 1), size):
            b = min(a + size, total)
            # the ranges that meet pairs [a, b), clipped to them
            r = slice(int(np.searchsorted(end, a, side="right")), int(np.searchsorted(end, b)) + 1)
            lo = np.maximum(begin[r], a)
            c = np.minimum(end[r], b) - lo
            i = np.repeat(q[r], c)
            j = np.arange(i.size) + np.repeat(start[r] + lo - begin[r] - (np.cumsum(c) - c), c)
            yield i, point[j]

    def _ranges(self, points: np.ndarray, reach) -> tuple[np.ndarray, ...]:
        """(query, first, count) of each key range that `near` lists: the
        cells of one column that meet a query's square."""
        pad = np.reshape((reach * (1.0 + 2.0**-40) + self.slack) / self.side, (-1, 1))
        u = (points - self.corner).view(np.float64).reshape(-1, 2) / self.side
        lo = np.minimum(np.maximum(np.floor(u - pad), 0.0), self.top + 1.0)  # first (column, row)
        n = np.maximum(np.minimum(np.floor(u + pad), self.top) - lo + 1.0, 0.0).astype(np.int64)
        n_col = n[:, 0] * (n[:, 1] > 0)
        q = np.repeat(np.arange(n_col.size), n_col)
        lo = lo.astype(np.int64)  # keys reach 2**60: a float key would round
        first = (lo[:, 0] * self.width + lo[:, 1])[q]
        first += (np.arange(q.size) - np.repeat(np.cumsum(n_col) - n_col, n_col)) * self.width
        start = np.searchsorted(self.key, first)
        return q, start, np.searchsorted(self.key, first + n[q, 1]) - start


def _sparse_cells(pos: np.ndarray) -> tuple[CellIndex, float]:
    """A cell index of the points and its cell: from the mean spacing (over
    the bounding box, or along it for a chain), halved while a cell holds more
    than _CELL_POINTS points, down to the smallest cell whose int64 keys
    cannot overflow and at least COINCIDENCE_TOL."""
    n = len(pos)
    w, h = float(np.ptp(pos.real)), float(np.ptp(pos.imag))
    floor = max(max(w, h) * 2.0**-30, COINCIDENCE_TOL)
    cell = max(math.sqrt(w * h / n), max(w, h) / n, floor)
    cells = CellIndex(pos, cell)
    while cells.crowd > _CELL_POINTS and cell > floor:
        cell = max(0.5 * cell, floor)
        cells = CellIndex(pos, cell)
    return cells, cell


def nearest_gaps(pos: np.ndarray, limit: float, which: np.ndarray | None = None) -> np.ndarray:
    """Distance from each point pos[which] (every point by default) to the
    nearest other point, inf where none lies within `limit`.

    Exact, and rounded as a k-d tree rounds it.  Above _PAIRWISE_NEAREST
    pairs, each query asks a cell index for the points within `reach`, from
    the cell of `_sparse_cells` up, with cells and reach 4x wider each round
    (so a query meets a few cells), until one lies within reach, which makes
    the nearest exact, or reach is `limit`; _BLOCK_POINTS queries at a time.
    """
    which = np.arange(len(pos)) if which is None else np.asarray(which)
    if len(pos) * which.size <= _PAIRWISE_NEAREST:
        x, y = pos.real, pos.imag
        dx, dy = x[which, None] - x, y[which, None] - y
        d2 = dx * dx + dy * dy
        d2[np.arange(which.size), which] = math.inf
        gaps = np.sqrt(d2.min(axis=1, initial=math.inf))  # sqrt is monotone: the nearest's distance
        return np.where(gaps <= limit, gaps, math.inf)
    gaps = np.full(which.size, math.inf)
    cells, reach = _sparse_cells(pos)
    todo = np.arange(which.size)
    while todo.size:
        reach = min(reach, limit)
        if reach > cells.side:
            cells = CellIndex(pos, reach)
        for s in range(0, todo.size, _BLOCK_POINTS):
            t = todo[s : s + _BLOCK_POINTS]
            i, j = cells.near(pos[which[t]], reach)
            other = j != which[t[i]]
            i, j = i[other], j[other]
            dz = pos[which[t[i]]] - pos[j]
            best = np.full(t.size, math.inf)
            np.minimum.at(best, i, np.sqrt(dz.real * dz.real + dz.imag * dz.imag))
            gaps[t] = np.where(best <= reach, best, math.inf)
        if reach >= limit:
            break
        todo = todo[gaps[todo] == math.inf]
        reach *= 4.0
    return gaps


def _min_gap(blocks, bound: float) -> tuple[float, np.ndarray]:
    """Smallest d below `bound` in the (i, j, d) blocks (inf if none), and
    the indices of the points in pairs closer than COINCIDENCE_TOL."""
    gap, close = math.inf, [np.empty(0, dtype=np.intp)]
    for i, j, d in blocks:
        gap = min(gap, float(d.min(initial=math.inf, where=d < bound)))
        hit = d < COINCIDENCE_TOL
        close += [i[hit], j[hit]]
    return gap, np.unique(np.concatenate(close))


def _apart(pos: np.ndarray, msg: str, bound: float) -> float:
    """Minimum pairwise gap of the points, inf if no gap is below `bound`.
    Raises naming a point closer than COINCIDENCE_TOL to another."""
    n = len(pos)
    if n <= _PAIRWISE_MAX:
        i, j = np.triu_indices(n, 1)
        dz = pos[i] - pos[j]
        gap, close = _min_gap([(i, j, np.sqrt(dz.real * dz.real + dz.imag * dz.imag))], bound)
    elif bound < math.inf:
        # cells as small as the keys allow: a star's rays are far denser than its mean
        floor = max(float(np.ptp(pos.real)), float(np.ptp(pos.imag))) * 2.0**-30
        gap, close = _min_gap(CellIndex(pos, max(bound, floor)).pairs(bound), bound)
    else:
        # the cell doubles until a pair lies within it; the pairs then
        # include the closest one
        cells, cell = _sparse_cells(pos)
        gap, close = _min_gap(cells.pairs(cell), bound)
        while gap == math.inf:
            cell *= 2.0
            gap, close = _min_gap(CellIndex(pos, cell).pairs(cell), bound)
    if close.size:
        dup = pos[close]
        raise ConfigError(f"{msg}: duplicate site at {dup[np.lexsort((dup.imag, dup.real))[0]]}")
    return gap


def _sites(config: FluxConfiguration, r_max: float, gap: bool = False):
    """Unsorted site positions and fluxes and, with `gap`, their minimum gap
    (else inf); one nearest-neighbour pass per site set checks overlaps."""
    if not (r_max > 0):
        raise ConfigError("r_max must be positive")
    parts = list(_component_sites(config, r_max))
    pos = np.concatenate([p for p, _ in parts]) if parts else np.empty(0, complex)
    theta = np.repeat([float(t) for _, t in parts], [len(p) for p, _ in parts])
    pert = config.perturbation
    reach = math.inf if gap else COINCIDENCE_TOL
    min_gap = _apart(pos, "components overlap", COINCIDENCE_TOL if pert is not None else reach)
    if pert is not None:
        keep = np.ones(len(pos), dtype=bool)
        for rm in pert.removed:
            hit = keep & (_distances(pos, rm) < COINCIDENCE_TOL)
            if not hit.any() and abs(rm) <= r_max:
                raise ConfigError(f"removed point {rm} is not a site")
            keep &= ~hit
        pos, theta = pos[keep], theta[keep]
        added = [(p, t) for p, t in zip(pert.points, pert.thetas) if abs(p) <= r_max]
        for p, _ in added:
            if (_distances(pos, p) < COINCIDENCE_TOL).any():
                raise ConfigError(f"added point {p} collides with a regular site")
        extra = np.array([p for p, _ in added], dtype=complex)
        pos = np.append(pos, extra)
        theta = np.append(theta, [t for _, t in added])
        # only pairs of added points can still be close; the minimum gap
        # needs every pair again
        min_gap = _apart(pos if gap else extra, "added sets overlap", reach)
    return pos, theta, min_gap


def unsorted_support(config: FluxConfiguration, r_max: float) -> Support:
    """Every flux site with |position| <= r_max, perturbation applied, as a
    `Support` of position and flux arrays.

    Component order: finite sites, chain offsets, lattice offsets and the
    star, removed points dropped, then the added points.  Raises on
    coincidences between components or between added and regular sites.
    """
    pos, theta, _ = _sites(config, r_max)
    return Support(pos, theta)


def enumerate_support(config: FluxConfiguration, r_max: float) -> Support:
    """The sites of `unsorted_support` in a deterministic order: ascending
    |z|, then ascending arg (the origin first)."""
    sites = unsorted_support(config, r_max)
    pos = sites.pos
    phase = np.array([cmath.phase(z) if z else -4.0 for z in pos.tolist()])
    order = np.lexsort((phase, np.hypot(pos.real, pos.imag)))
    return Support(pos[order], sites.theta[order])


# ---------------------------------------------------------------------------
# set statistics


@dataclass
class SetStats:
    """Counting function and power sums of a discrete set, for r <= r_max.

    counting_fn(r) counts all points (origin included) with |w| <= r;
    sum_s(alpha, r) is the complex sum of w^-alpha over 0 < |w| <= r;
    sum_t(alpha, r) the corresponding absolute sum.
    """

    counting_fn: Callable[[float], int]
    sum_s: Callable[[float, float], complex]
    sum_t: Callable[[float, float], float]
    convergence_exponent: float
    genus: int
    r_max: float
    low_confidence: bool


def set_stats(points, r_max: float) -> SetStats:
    """Analyze the points of a discrete set with |w| <= r_max."""
    pts = np.asarray(points, dtype=complex).ravel()
    pts = pts[np.abs(pts) <= r_max]
    radii = np.sort(np.abs(pts))
    nonzero = pts[np.abs(pts) > 0]
    order = np.argsort(np.abs(nonzero))
    nz = nonzero[order]
    nz_abs = np.abs(nz)

    def counting_fn(r: float) -> int:
        if r > r_max * (1 + 1e-12):
            raise DomainError("counting function beyond analyzed radius")
        return int(np.searchsorted(radii, r, side="right"))

    def sum_s(alpha: float, r: float) -> complex:
        k = np.searchsorted(nz_abs, r, side="right")
        return complex(np.sum(nz[:k] ** (-alpha)))

    def sum_t(alpha: float, r: float) -> float:
        k = np.searchsorted(nz_abs, r, side="right")
        return float(np.sum(nz_abs[:k] ** (-alpha)))

    r_min = nz_abs[0] if nz.size else 1.0
    decades = math.log10(r_max / r_min) if nz.size else 0.0
    low_confidence = decades < 2.0

    # convergence exponent: least-squares slope of ln n(r) vs ln r, top decade
    if nz.size >= 4:
        grid = np.geomspace(max(r_min * 1.01, r_max / 10), r_max, 24)
        counts = np.array([counting_fn(g) for g in grid], dtype=float)
        keep = counts > 0
        slope = _ls_slope(np.log(grid[keep]), np.log(counts[keep]))
        conv = max(0.0, slope)
    else:
        conv = 0.0

    genus = 0
    for n in range(1, 7):
        if _diverges(sum_t, n, r_min, r_max) and nz.size:
            genus = n
    return SetStats(counting_fn, sum_s, sum_t, conv, genus, float(r_max), low_confidence)


def _ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    x = x - x.mean()
    denom = float(np.dot(x, x))
    return float(np.dot(x, y - y.mean()) / denom) if denom > 0 else 0.0


def _diverges(sum_t, alpha: int, r_min: float, r_max: float) -> bool:
    """Log-linear trend test: T(alpha, r) keeps growing like log r."""
    grid = np.geomspace(max(2.0 * r_min, r_max ** 0.25), r_max, 16)
    vals = np.array([sum_t(alpha, g) for g in grid])
    if vals[-1] <= 0 or np.ptp(vals) == 0:
        return False
    lx = np.log(grid)
    corr = np.corrcoef(lx, vals)[0, 1]
    # correlation alone cannot separate log-growth from a convergent tail:
    # also require the last half of the grid to add a comparable increment
    mid = len(grid) // 2
    inc1 = vals[mid] - vals[0]
    inc2 = vals[-1] - vals[mid]
    if inc1 <= 0:
        return False
    return bool(corr > 0.99 and inc2 / inc1 > 0.45)


# ---------------------------------------------------------------------------
# serialization


def _c2pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _pair2c(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"expected [re, im] pair, got {v!r}")


def config_to_dict(config: FluxConfiguration) -> dict:
    doc: dict = {"uniform_flux_density": config.uniform_flux_density}
    if config.finite_sites:
        doc["finite"] = [
            {"position": _c2pair(s.position), "theta": s.theta} for s in config.finite_sites
        ]
    if config.chains:
        doc["chains"] = [
            {
                "omega0": _c2pair(c.omega0),
                "offsets": [{"kappa": _c2pair(o.position), "theta": o.theta} for o in c.offsets],
            }
            for c in config.chains
        ]
    if config.lattices:
        doc["lattices"] = [
            {
                "omega1": _c2pair(l.basis.omega1),
                "omega2": _c2pair(l.basis.omega2),
                "offsets": [{"kappa": _c2pair(o.position), "theta": o.theta} for o in l.offsets],
            }
            for l in config.lattices
        ]
    if config.star is not None:
        doc["star"] = {
            "order": config.star.order,
            "theta": config.star.theta,
            "scale": config.star.scale,
        }
    if config.perturbation is not None:
        p: dict = {}
        if config.perturbation.removed:
            p["removed"] = [_c2pair(q) for q in config.perturbation.removed]
        if config.perturbation.added:
            p["added"] = [
                {"points": [_c2pair(q) for q in a.points], "theta": a.theta}
                for a in config.perturbation.added
            ]
        doc["perturbation"] = p
    return doc


def config_from_dict(doc: dict) -> FluxConfiguration:
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a mapping")
    known = {"uniform_flux_density", "finite", "chains", "lattices", "star", "perturbation"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
    try:
        finite = tuple(
            FluxSite(_pair2c(s["position"]), float(s["theta"])) for s in doc.get("finite", [])
        )
        chains = tuple(
            ChainComponent(
                _pair2c(c["omega0"]),
                tuple(FluxSite(_pair2c(o["kappa"]), float(o["theta"])) for o in c["offsets"]),
            )
            for c in doc.get("chains", [])
        )
        lattices = tuple(
            LatticeComponent(
                LatticeBasis(_pair2c(l["omega1"]), _pair2c(l["omega2"])),
                tuple(FluxSite(_pair2c(o["kappa"]), float(o["theta"])) for o in l["offsets"]),
            )
            for l in doc.get("lattices", [])
        )
        star = None
        if "star" in doc:
            s = doc["star"]
            star = StarComponent(int(s["order"]), float(s["theta"]), float(s.get("scale", 1.0)))
        pert = None
        if "perturbation" in doc:
            p = doc["perturbation"]
            pert = Perturbation(
                removed=tuple(_pair2c(q) for q in p.get("removed", [])),
                added=tuple(
                    AddedSet(tuple(_pair2c(q) for q in a["points"]), float(a["theta"]))
                    for a in p.get("added", [])
                ),
            )
        return FluxConfiguration(
            uniform_flux_density=float(doc.get("uniform_flux_density", 0.0)),
            finite_sites=finite,
            chains=chains,
            lattices=lattices,
            star=star,
            perturbation=pert,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed configuration: {exc}") from exc


# ---------------------------------------------------------------------------
# uniform discreteness


def _plane_coords(z: complex, basis: LatticeBasis) -> tuple[float, float]:
    """Real coordinates (a, b) with z = a*omega1 + b*omega2."""
    w1, w2 = basis.omega1, basis.omega2
    det = (w1.conjugate() * w2).imag
    a = (z.conjugate() * w2).imag / det
    b = (w1.conjugate() * z).imag / det
    return a, b


def uniformly_discrete(config: FluxConfiguration, window: float = 40.0) -> tuple[bool, float]:
    """(verdict, min gap) for the full support.

    Commensurability questions are settled analytically (rational period
    ratios for same-line chains, rational basis coordinates between lattice
    pairs and for chain steps inside a lattice), because a windowed minimum
    gap cannot see near-coincidences beyond the window.  The remaining
    periodic/finite arrangements are checked by the exact minimum pairwise
    gap within the window.
    """
    if config.star is not None:
        # consecutive radii m^(1/N) approach each other: never uniformly discrete
        return False, 0.0

    # chains sharing one line must merge into a single chain; each offset
    # joins its own line, so a chain whose offsets form several parallel
    # lines meets the chains on each of them
    pieces = [ChainComponent(ch.omega0, (off,)) for ch in config.chains for off in ch.offsets]
    for group in line_groups(pieces):
        if len(group) > 1:
            try:
                merge_collinear_chains(group)
            except ChainMergeError:
                return False, 0.0

    # lattice pair: the difference group is discrete iff the second basis
    # has rational coordinates in the first
    for i, la in enumerate(config.lattices):
        for lb in config.lattices[i + 1 :]:
            for vec in (lb.basis.omega1, lb.basis.omega2):
                a, b = _plane_coords(vec, la.basis)
                if _as_rational(a) is None or _as_rational(b) is None:
                    return False, 0.0
    # chain against lattice: an irrational step equidistributes the chain
    # residues in the lattice cell
    for ch in config.chains:
        for la in config.lattices:
            a, b = _plane_coords(ch.omega0, la.basis)
            if _as_rational(a) is None or _as_rational(b) is None:
                return False, 0.0

    _, _, gap = _sites(config, window, gap=True)  # inf for fewer than two sites
    return gap > 1e-6, gap
