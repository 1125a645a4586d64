"""Numerical certification engine.

Singular 2-D quadrature for L^2 membership, finite-difference annihilation
and Laplacian residuals, loop-flux line integrals, and growth order/type
estimation of entire factors.

Wave functions and potentials are consumed through a duck-typed protocol
(the ansatz module provides concrete objects):

  psi.log_abs(z)            vectorized ln|psi| over complex arrays
  psi.value(z)              complex psi where the phase is defined
  psi.spin                  '+' or '-'
  psi.vector_potential(z)   a_x + i a_y, evaluated analytically
  psi.singular_sites(r)     Sites(pos, expo): complex positions |pos| <= r
                            and their local exponents, as arrays
  psi.decay_hint            DecayHint or None

  phi.value(z)              real phi
  phi.uniform_flux_density  xi0; the Laplacian target is b0 = 2 pi xi0
  phi.singular_sites(r)     the flux sites |pos| <= r; only .pos is read

The quadrature integrates exp(2 log_abs) over nested discs R, 2R, 4R, ...
Each site owns a disc of radius 0.1 x (nearest-neighbor distance), at most
0.5, so every site within 5 of it can set it.  An annulus r < |z| <= R keeps
only the sites that can cut it, r - 1 < |pos| <= R + 1, and lists the sites
within 5 of those to set their radii: a site keeps one radius in every
annulus, and is searched in one annulus, or two near an edge.  One exact cell
search, config.CellIndex, finds the nearest neighbours and, for each polar
panel of the bulk, the sites whose discs can reach its nodes, listed and
measured in blocks of _CUTOFF_PAIRS (box, site) pairs so that the cutoff's
memory is bounded; a C^inf partition of unity blends those discs into the
panel.  The discs are disjoint, so a node inside one takes that site's ramp,
as its nearest site's; the ramp is evaluated only when a node lies in a disc.
A disc's radial rule is split at the partition's ramp: Gauss-Jacobi on the
core, where the cut is 1 and the known local power is the weight, and
Gauss-Legendre on the ramp, with the power and the cut in its weights.  Its
rows are sampled on a 16-node trapezoid circle, and its error is nested:
fine vs coarse radial rows plus all vs every other angular node.  Each disc
an annulus brings is first bounded from 8 probes, in integrand calls of at
most _CHUNK_POINTS points; a disc whose bound is below its share of the
tolerance adds the bound to the error and is not integrated.  The discs
an annulus integrates are evaluated rule by rule, the rows of as many discs as
fit in _CHUNK_POINTS points per integrand call, and each disc is reduced on
its own, so its value does not depend on the discs it shares a call with.
The bulk is refined level by level: each level splits into four the panels
that carry all but half the tolerance of the 6x6 vs 4x4 Gauss-Legendre error,
and evaluates every child of the level in integrand calls of about
_CHUNK_POINTS points.  A panel's 52 nodes have 10 distinct radii and 10
distinct angles; each is computed once per panel and taken out to the nodes,
bit-identical to computing it per node.
The residuals check the meshes (positive, finite, distinct) and the probes'
clearance from the sites in one preamble, and evaluate psi.value (phi.value) at
the probes and at every mesh's four shifted stencils in one call; the loop flux
and the growth estimate (which takes ln|f|) evaluate their nodes in one call.
Tails are certified by one rule.  After each annulus, each extrapolation the
decay hint allows yields a candidate (value, tail error): geometric
stagnation of the increments for exponential-type decay; a two-term power fit
of the increments, or consecutive halving ratios, for algebraic decay.  The
first candidate with tail error + quadrature error <= max(abs_tol,
rel_tol * value) is Convergent, reporting exactly that value and that error.
Growth by factor >= DIVERGENCE_RATIO across two consecutive doublings flags
divergence, without the site discs once the bulk alone shows it.
The Gauss rules come from scipy, imported when the first rule is built:
importing this module loads no scipy, and the rules need only scipy.special.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .config import COINCIDENCE_TOL, CellIndex, nearest_gaps
from .special import DomainError

CONVERGENT = "Convergent"
DIVERGENT = "Divergent"
INCONCLUSIVE = "Inconclusive"

DIVERGENCE_RATIO = 1.5
RADIUS_CAP = 1.0e3
DEFAULT_MESHES = (1e-2, 5e-3, 2.5e-3)

_INITIAL_RADIUS = 4.0
_BUMP_LO, _BUMP_HI = 0.35, 0.95
# a site's disc radius: this share of its nearest-neighbor distance, at most
# _DISC_RADIUS_MAX, so only sites within _DISC_REACH set it
_DISC_SHARE, _DISC_RADIUS_MAX = 0.1, 0.5
_DISC_REACH = _DISC_RADIUS_MAX / _DISC_SHARE
_MAX_PANELS = 40_000
# site-disc rules: (core, ramp) radial rows of the fine and coarse rules,
# and trapezoid nodes on each row's circle
_DISC_ROWS = (12, 24)
_DISC_ROWS_COARSE = (8, 16)
_ANGULAR_NODES = 16
_RING = np.exp(2j * math.pi * np.arange(_ANGULAR_NODES) / _ANGULAR_NODES)
_CHUNK_POINTS = 3072
_CUTOFF_CELLS = 256  # so that a polar box spans few columns of the cutoff's cell index
# (box, site) pairs the cutoff lists and measures at once: every bulk call of
# the benchmark's questions lists at most 3 572, while a wide box among dense
# sites can list millions
_CUTOFF_PAIRS = 8192
_FLUX_PANELS = 32  # Gauss-Legendre panels per side of a flux loop
_GROWTH_SAMPLES = 256  # points per circle of a growth estimate


class DecayHint(NamedTuple):
    """Tail behavior of |psi|, guiding the quadrature's outer radius.

    kind 'gaussian' / 'exponential' / 'exp_sqrt': log|psi| eventually falls
    like -rate * |z|**s with s = 2, 1, 1/2; such increments stagnate and are
    certified by geometric extrapolation.  kind 'power': |psi| ~ C|z|**-rate
    with a smooth angular profile, so the circle integral of |psi|^2 r
    behaves like r**(1-2 rate) with corrections in r**-2.  kind 'ring': the
    circle integral itself behaves like r**rate with corrections in r**-1
    (concentrated tails, e.g. chain strips).  Algebraic tails are certified
    by a two-term fit of the annulus increments.
    """

    kind: str
    rate: float


class Sites(NamedTuple):
    """Singular sites as arrays: complex positions and local exponents."""

    pos: np.ndarray
    expo: np.ndarray


class ProbeRegion(NamedTuple):
    center: complex
    r_inner: float
    r_outer: float


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    flag: str
    radii_trace: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ResidualReport:
    meshes: tuple[float, ...]
    residual_norms: tuple[float, ...]
    observed_order: float


@dataclass(frozen=True)
class GrowthEstimate:
    order: float
    type: float
    confidence: str
    notice: str = ""


# ---------------------------------------------------------------------------
# quadrature building blocks

def _smooth_rise(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1."""
    tt = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        num = np.where(tt > 0.0, np.exp(-1.0 / np.where(tt > 0.0, tt, 1.0)), 0.0)
        den = np.where(tt < 1.0, np.exp(-1.0 / np.where(tt < 1.0, 1.0 - tt, 1.0)), 0.0)
    return num / (num + den)


class _SiteSet(NamedTuple):
    pos: np.ndarray
    expo: np.ndarray
    radius: np.ndarray
    cells: CellIndex | None  # of pos; None without sites


def _site_set(sites: Sites, lo: float = -math.inf, hi: float = math.inf) -> _SiteSet:
    """The sites with fractional exponents and lo < |pos| <= hi, their disc
    radii and a cell index of them.  A radius comes from the nearest listed
    site within _DISC_REACH, so only the sites beyond lo - _DISC_REACH are
    searched."""
    if np.any(sites.expo <= -1.0):
        raise DomainError("local exponent <= -1: |psi|^2 is not integrable")
    # integer local exponents are smooth; only fractional powers need care
    frac = np.abs(sites.expo - np.round(sites.expo)) > COINCIDENCE_TOL
    pos, expo = sites.pos[frac], sites.expo[frac]
    r = np.abs(pos)
    keep = np.nonzero((r > lo) & (r <= hi))[0]
    if not keep.size:
        return _SiteSet(pos[keep], expo[keep], np.zeros(0), None)
    near = np.nonzero(r > lo - _DISC_REACH - 1.0)[0]
    nn = nearest_gaps(pos[near], _DISC_REACH, np.searchsorted(near, keep))  # inf beyond the reach
    radius = np.minimum(_DISC_SHARE * nn, _DISC_RADIUS_MAX)
    if np.any(radius <= 0.0):
        raise DomainError("coincident singular sites")
    pos = pos[keep]
    # cells no smaller than the largest disc, and at most _CUTOFF_CELLS across
    cell = max(float(radius.max()), max(np.ptp(pos.real), np.ptp(pos.imag)) / _CUTOFF_CELLS)
    return _SiteSet(pos, expo[keep], radius, CellIndex(pos, cell))


class _Integrand:
    """exp(2 log_abs) times a smooth cutoff vanishing inside site discs.

    The nodes come one row per polar box.  Each box asks the site set's cell
    index once for the sites in the cells within its spread (the largest node
    distance from the box's centre) plus the largest disc radius, and keeps
    those within its spread plus their own radius: only their discs can hold
    a node of the box.  Site discs are disjoint (radius <= 0.1 x the distance
    to the nearest site within 5, which l2_norm_squared lists with each
    annulus), so a node inside one is nearer its center than any other
    site, and the cutoff there is the ramp of that site alone; every other
    node keeps 1.
    """

    def __init__(self, log_abs: Callable, sites: _SiteSet):
        self.log_abs = log_abs
        self.sites = sites

    def cutoff(self, Z: np.ndarray) -> np.ndarray:
        fac = np.ones(Z.shape)
        s = self.sites
        if s.cells is None:
            return fac
        center = Z.mean(axis=1)
        spread = np.abs(Z - center[:, None]).max(axis=1)
        for box, site in s.cells.near_blocks(center, spread + s.radius.max(), _CUTOFF_PAIRS):
            keep = np.abs(center[box] - s.pos[site]) <= spread[box] + s.radius[site]
            box, site = box[keep], site[keep]
            dist = np.abs(Z[box] - s.pos[site, None])
            pair, node = np.nonzero(dist < s.radius[site, None])
            if pair.size:  # a node in a disc
                t = (dist[pair, node] / s.radius[site[pair]] - _BUMP_LO) / (_BUMP_HI - _BUMP_LO)
                fac[box[pair], node] = _smooth_rise(t)
        return fac

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        fac = self.cutoff(Z)
        out = np.zeros(Z.shape)
        mask = fac > 0.0
        if np.any(mask):
            la = np.asarray(self.log_abs(Z[mask]), dtype=float)
            with np.errstate(over="ignore"):
                out[mask] = np.exp(2.0 * la) * fac[mask]
        return out


@functools.cache
def _gauss_rule(n: int, beta: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nodes, weights) on [-1, 1] of the n-point Gauss-Legendre
    rule, or with `beta` of Gauss-Jacobi for the weight (1 + x)**beta.
    scipy is imported on the first call, so only the quadrature loads it."""
    from scipy.special import roots_jacobi, roots_legendre

    rule = roots_legendre(n) if beta is None else roots_jacobi(n, 0.0, beta)
    for a in rule:
        a.flags.writeable = False
    return rule


@functools.cache
def _bulk_rule() -> tuple[np.ndarray, ...]:
    """(abscissae, radius of each node, angle of each node, 6x6 weights, 4x4
    weights) of one box.  The abscissae are the 6-point rule's then the
    4-point rule's, the same along r and phi; the 52 nodes, the 6x6 rule's
    36 then the 4x4 rule's 16, index them."""
    (x6, w6), (x4, w4) = _gauss_rule(6), _gauss_rule(4)
    i6, i4 = np.arange(6), 6 + np.arange(4)
    node_r = np.concatenate([np.repeat(i6, 6), np.repeat(i4, 4)])
    node_p = np.concatenate([np.tile(i6, 6), np.tile(i4, 4)])
    return np.concatenate([x6, x4]), node_r, node_p, np.outer(w6, w6).ravel(), np.outer(w4, w4).ravel()


# boxes per integrand call: about _CHUNK_POINTS points, few enough that the
# bulk does not raise the process's memory high-water mark
_CHUNK_BOXES = _CHUNK_POINTS // (6 * 6 + 4 * 4)


def _panel_values(F: _Integrand, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre 6x6 values of polar boxes (rows r0, r1, p0, p1) and
    their error indicators |6x6 - 4x4|, evaluated in chunks of boxes."""
    x, node_r, node_p, w6, w4 = _bulk_rule()
    v6 = np.empty(len(boxes))
    v4 = np.empty(len(boxes))
    for s in range(0, len(boxes), _CHUNK_BOXES):
        r0, r1, p0, p1 = boxes[s : s + _CHUNK_BOXES].T
        rh, ph = 0.5 * (r1 - r0), 0.5 * (p1 - p0)
        # each box's 10 radii and 10 angles once, then taken out to its nodes
        # in rows (C order, as the sums over a box and the 6x6 and 4x4 rules
        # must see them: a[:, index] would come out in columns)
        r = np.take(0.5 * (r1 + r0)[:, None] + rh[:, None] * x, node_r, axis=1)
        turn = np.take(np.exp(1j * (0.5 * (p1 + p0)[:, None] + ph[:, None] * x)), node_p, axis=1)
        vals = F(r * turn) * r
        v6[s : s + len(r)] = rh * ph * (vals[:, :36] @ w6)
        v4[s : s + len(r)] = rh * ph * (vals[:, 36:] @ w4)
    return v6, np.abs(v6 - v4)


def _region_integral(
    F: _Integrand, r_lo: float, r_hi: float, abs_tol: float, rel_tol: float
) -> tuple[float, float]:
    """Adaptive integral of F over the polar box [r_lo, r_hi] x [0, 2 pi).

    Refines level by level: each level splits the fewest boxes whose
    removal leaves less than half the tolerance in the error of the rest,
    and evaluates all their children together.
    """
    width = r_hi - r_lo
    n_r = max(2, min(8, int(round(width / max(r_lo, width / 4.0)))) if width > 0 else 2)
    r_edges = np.linspace(r_lo, r_hi, n_r + 1)
    p_edges = np.linspace(0.0, 2.0 * math.pi, 9)
    ri, pj = np.divmod(np.arange(8 * n_r), 8)
    boxes = np.column_stack([r_edges[ri], r_edges[ri + 1], p_edges[pj], p_edges[pj + 1]])
    vals, errs = _panel_values(F, boxes)
    panels = len(boxes)

    while True:
        total, err = float(vals.sum()), float(errs.sum())
        tol = max(abs_tol, rel_tol * abs(total))
        if err <= tol or panels >= _MAX_PANELS:
            break
        order = np.argsort(errs)
        if errs[order[-1]] <= tol / (len(errs) + 1):
            break  # worst panel already below its share: refinement stalled
        # the smallest errors that sum to at most tol / 2 stay; at least the
        # worst box is split, and the cap limits how many of the rest are
        kept = int(np.searchsorted(np.cumsum(errs[order]), 0.5 * tol, side="right"))
        kept = max(min(kept, len(order) - 1), len(order) - (_MAX_PANELS - panels) // 4)
        keep, marked = order[:kept], order[kept:]
        r0, r1, p0, p1 = boxes[marked].T  # each marked box splits into 4 children
        rm, pm = 0.5 * (r0 + r1), 0.5 * (p0 + p1)
        quads = ((r0, rm, p0, pm), (r0, rm, pm, p1), (rm, r1, p0, pm), (rm, r1, pm, p1))
        children = np.concatenate([np.column_stack(q) for q in quads])
        v, e = _panel_values(F, children)
        boxes = np.concatenate([boxes[keep], children])
        vals, errs = np.concatenate([vals[keep], v]), np.concatenate([errs[keep], e])
        panels += len(children)
    return max(total, 0.0), err


@functools.lru_cache(maxsize=None)
def _disc_rules(beta: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(t, weight) of the fine and coarse radial rules for the integral of
    t**beta (1 - ramp(t)) g(t) over 0 <= t <= 1, t the radius in disc radii.

    On the core [0, _BUMP_LO] the cut is exactly 1 and Gauss-Jacobi absorbs
    t**beta; on the ramp [_BUMP_LO, _BUMP_HI] Gauss-Legendre carries t**beta
    and the cut in its weights.  Beyond _BUMP_HI the cut vanishes.
    """
    a, b = _BUMP_LO, _BUMP_HI
    rules = []
    for n_core, n_ramp in (_DISC_ROWS, _DISC_ROWS_COARSE):
        x, w = _gauss_rule(n_core, beta)
        core = (a * (x + 1.0) / 2.0, w * (a / 2.0) ** (beta + 1.0))
        x, w = _gauss_rule(n_ramp)
        u = (x + 1.0) / 2.0
        t = a + (b - a) * u
        ramp = (t, w * (b - a) / 2.0 * t**beta * (1.0 - _smooth_rise(u)))
        rules.append((np.concatenate([core[0], ramp[0]]), np.concatenate([core[1], ramp[1]])))
    return tuple(rules)


def _site_disc_integrals(
    log_abs: Callable, pos: np.ndarray, expo: np.ndarray, radius: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bump-weighted integrals of |psi|^2 over site discs, with errors.

    The known local power rho**(2 e) goes into the radial weights (see
    _disc_rules), so only the smooth remainder is sampled, on a trapezoid
    circle of _ANGULAR_NODES nodes per radial row.  The error estimate is
    |fine - coarse| radially plus |all nodes - every other node| angularly.
    Each rule's rows of as many discs as fit in _CHUNK_POINTS go into one
    log_abs call; each disc is then reduced on its own, as it would be alone.
    """
    beta = 2.0 * expo + 1.0
    rules = [_disc_rules(b) for b in np.round(beta, 12)]
    # scalar powers: numpy's array power can differ from them in the last bit
    scale = np.array([2.0 * math.pi * r ** (b + 1.0) for r, b in zip(radius, beta)])
    sums = []
    for k, n_rows in enumerate((sum(_DISC_ROWS), sum(_DISC_ROWS_COARSE))):
        full, half = np.empty(pos.size), np.empty(pos.size)
        step = _CHUNK_POINTS // (n_rows * _ANGULAR_NODES)
        for s in range(0, pos.size, step):
            c = slice(s, s + step)
            rho = radius[c, None] * np.array([rule[k][0] for rule in rules[c]])
            Z = pos[c, None, None] + rho[:, :, None] * _RING
            la = np.asarray(log_abs(Z.ravel()), dtype=float).reshape(Z.shape)
            with np.errstate(over="ignore"):
                smooth = np.exp(2.0 * la - (2.0 * expo[c])[:, None, None] * np.log(rho)[:, :, None])
            m_full, m_half = smooth.mean(axis=2), smooth[:, :, ::2].mean(axis=2)
            for j, rule in enumerate(rules[c]):
                w = rule[k][1]
                full[s + j] = scale[s + j] * float(w @ m_full[j])
                half[s + j] = scale[s + j] * float(w @ m_half[j])
        sums.append((full, half))
    (fine, fine_half), (coarse, _) = sums
    return fine, np.abs(fine - coarse) + np.abs(fine - fine_half)


def _site_disc_bounds(log_abs: Callable, sites: _SiteSet, idx: np.ndarray) -> list[float]:
    """Cheap upper estimates of the site-disc contributions of sites idx,
    from 8 probes per disc, in log_abs calls of at most _CHUNK_POINTS points."""
    pos, expo, radius = sites.pos[idx], sites.expo[idx], sites.radius[idx]
    rr = np.array([0.25, 0.75])[None, :] * radius[:, None]
    aa = np.exp(1j * np.array([0.4, 1.97, 3.54, 5.11]))
    Z = (pos[:, None, None] + rr[:, :, None] * aa[None, None, :]).reshape(len(idx), 8)
    z = Z.ravel()
    chunks = [log_abs(z[s : s + _CHUNK_POINTS]) for s in range(0, z.size, _CHUNK_POINTS)]
    la = np.concatenate([np.asarray(c, dtype=float) for c in chunks]).reshape(Z.shape)
    t = np.max(la - expo[:, None] * np.log(np.abs(Z - pos[:, None])), axis=1)
    return [
        2.0 * math.pi * math.exp(2.0 * ti) * ri ** (2.0 * ei + 2.0) / (2.0 * ei + 2.0)
        for ti, ei, ri in zip(t.tolist(), expo.tolist(), radius.tolist())
    ]


# ---------------------------------------------------------------------------
# tail certification


def _power_interval(p: float, a: float, b: float) -> float:
    """Integral of r**p over [a, b] (p < -1 allows b = inf)."""
    if b == math.inf:
        return -(a ** (p + 1.0)) / (p + 1.0)
    return (b ** (p + 1.0) - a ** (p + 1.0)) / (p + 1.0)


def _algebraic_tail(hint: DecayHint, increments: list[float], R: float) -> tuple[float, float] | None:
    """Tail beyond R from a two-term power fit of the last two annuli.

    Returns (tail, fit error estimate) or None if the fit is unusable.
    """
    if len(increments) < 3:
        return None
    if hint.kind == "power":
        p0, step = 1.0 - 2.0 * hint.rate, 2.0
    else:
        p0, step = hint.rate, 1.0
    if p0 >= -1.0:
        return None  # not integrable: divergence detection handles it
    a1, a2 = increments[-2], increments[-1]
    lo, mid = R / 4.0, R / 2.0
    m = np.array(
        [
            [_power_interval(p0, lo, mid), _power_interval(p0 - step, lo, mid)],
            [_power_interval(p0, mid, R), _power_interval(p0 - step, mid, R)],
        ]
    )
    try:
        alpha, beta = np.linalg.solve(m, np.array([a1, a2]))
    except np.linalg.LinAlgError:
        return None
    tail2 = alpha * _power_interval(p0, R, math.inf) + beta * _power_interval(p0 - step, R, math.inf)
    tail1 = a2 / _power_interval(p0, mid, R) * _power_interval(p0, R, math.inf)
    if not (math.isfinite(tail2) and tail2 >= 0.0):
        if not (math.isfinite(tail1) and tail1 >= 0.0):
            return None
        return tail1, tail1  # single-term estimate, all of it counted as error
    return tail2, abs(tail2 - tail1) * 0.5


def _tail_candidates(
    hint: DecayHint | None, increments: list[float], trace: list[tuple[float, float]], abs_tol: float
):
    """(plane integral, tail error) for each extrapolation beyond the last
    annulus that the decay hint allows, in order of preference."""
    R, total = trace[-1]
    inc = increments[-1]
    if hint is not None and hint.kind in ("power", "ring"):
        # two-term power fit; its error counts the fit's own uncertainty and
        # how far the certificate moved since the previous annulus
        fit = _algebraic_tail(hint, increments, R)
        prev = _algebraic_tail(hint, increments[:-1], R / 2.0)
        if fit is not None and prev is not None:
            certificate = total + fit[0]
            yield certificate, fit[1] + abs(certificate - (trace[-2][1] + prev[0]))
        # steep algebraic tails: consecutive halving ratios make the
        # measured-ratio extrapolation exact for pure power increments
        if len(increments) >= 3 and inc > 0.0:
            q1 = inc / max(increments[-2], 1e-300)
            q2 = increments[-2] / max(increments[-3], 1e-300)
            if q1 < 0.5 and q2 < 0.5:
                geo = inc * q1 / (1.0 - q1)
                yield total + geo, 2.0 * geo
    elif len(increments) >= 2:
        prev_inc = increments[-2]
        if inc <= abs_tol and prev_inc <= abs_tol:
            yield total, inc
        if prev_inc > 0.0:
            q = inc / prev_inc
            if q < 0.5:
                geo = inc * q / (1.0 - q)
                yield total, 2.0 * geo


def l2_norm_squared(psi, abs_tol: float = 1e-8, rel_tol: float = 1e-6) -> QuadratureResult:
    """Integral of |psi|^2 over the plane with a convergence verdict.

    Nested discs R = 4, 8, ... up to RADIUS_CAP; see the module docstring
    for the cell treatment.  After each annulus, every tail extrapolation the decay
    hint allows is one candidate (value, tail error); the first whose
    tail error plus the accumulated quadrature error is at most
    max(abs_tol, rel_tol * value) is returned as Convergent with that value
    and that error.
    """
    hint = getattr(psi, "decay_hint", None)
    trace: list[tuple[float, float]] = []
    increments: list[float] = []
    total = 0.0
    quad_err = 0.0
    bad_ratios = 0
    r_prev = -1.0
    R = _INITIAL_RADIUS

    while R <= RADIUS_CAP:
        # the sites within 1 of the annulus cut it; those that can set their
        # radii are listed too, so each site keeps one radius in every annulus
        sites = _site_set(psi.singular_sites(R + 1.0 + _DISC_REACH), r_prev - 1.0, R + 1.0)
        F = _Integrand(psi.log_abs, sites)
        tol_here = 0.1 * max(abs_tol, rel_tol * total)
        inc, e_bulk = _region_integral(F, max(r_prev, 0.0), R, tol_here, 0.1 * rel_tol)
        quad_err += e_bulk

        # site discs only add to the increment: once the bulk alone makes the
        # second growth step in a row, divergence is settled without them
        settled = bad_ratios == 1 and increments[-1] > abs_tol and inc >= DIVERGENCE_RATIO * increments[-1]
        new = np.nonzero((np.abs(sites.pos) > r_prev) & (np.abs(sites.pos) <= R) & (not settled))[0]
        share = 0.1 * tol_here / max(1, new.size)
        bounds = _site_disc_bounds(psi.log_abs, sites, new) if new.size else []
        # the discs whose bound is at least their share (or NaN), in one batch
        whole = new[[not bound < share for bound in bounds]]
        values, errors = _site_disc_integrals(
            psi.log_abs, sites.pos[whole], sites.expo[whole], sites.radius[whole]
        )
        discs = zip(values.tolist(), errors.tolist())
        for bound in bounds:
            if bound < share:
                quad_err += bound
                continue
            v, e = next(discs)
            inc += v
            quad_err += e

        increments.append(inc)
        total += inc
        trace.append((R, total))

        if not math.isfinite(inc):
            return QuadratureResult(total if math.isfinite(total) else 0.0, math.inf, DIVERGENT, tuple(trace))
        if len(increments) >= 2 and increments[-2] > abs_tol:
            ratio = inc / max(increments[-2], 1e-300)
            bad_ratios = bad_ratios + 1 if ratio >= DIVERGENCE_RATIO else 0
            if bad_ratios >= 2:
                return QuadratureResult(total, math.inf, DIVERGENT, tuple(trace))

        for value, tail_err in _tail_candidates(hint, increments, trace, abs_tol):
            if tail_err + quad_err <= max(abs_tol, rel_tol * value):
                return QuadratureResult(value, tail_err + quad_err, CONVERGENT, tuple(trace))

        r_prev = R
        R *= 2.0
    return QuadratureResult(total, math.inf, INCONCLUSIVE, tuple(trace))


def integrate_disc(
    log_abs: Callable,
    singular_sites: Sites | Sequence[tuple[complex, float]],
    radius: float,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-6,
) -> tuple[float, float]:
    """(integral of exp(2 log_abs) over |z| <= radius, error estimate).

    The building block of l2_norm_squared, exposed for calibration: exact
    radial weights at each listed singular site, adaptive panels elsewhere.
    The sites are `Sites` or a sequence of (position, exponent) pairs.
    """
    if not isinstance(singular_sites, Sites):
        pairs = list(singular_sites)
        singular_sites = Sites(
            np.array([p for p, _ in pairs], dtype=complex), np.array([e for _, e in pairs], dtype=float)
        )
    sites = _site_set(singular_sites)
    F = _Integrand(log_abs, sites)
    rough = 0.0
    site_err = 0.0
    values, errors = _site_disc_integrals(log_abs, sites.pos, sites.expo, sites.radius)
    for v, e in zip(values.tolist(), errors.tolist()):
        rough += v
        site_err += e
    bulk, err = _region_integral(F, 0.0, radius, max(abs_tol, rel_tol * rough), rel_tol)
    value = bulk + rough
    return value, err + site_err + 1e-13 * value


# ---------------------------------------------------------------------------
# finite-difference residuals


def _probe_points(region: ProbeRegion) -> np.ndarray:
    center, r_in, r_out = region
    if not (0.0 <= r_in < r_out):
        raise DomainError("probe region needs 0 <= r_inner < r_outer")
    radii = np.linspace(r_in, r_out, 6)
    if r_in == 0.0:
        radii = radii[1:]
    angles = 2.0 * math.pi * (np.arange(16) + 0.31) / 16.0
    return (complex(center) + radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def check_meshes(meshes: Sequence[float]) -> tuple[float, ...]:
    """The mesh ladder as floats; it must be non-empty, positive and free of
    repeats, which would leave the observed order undefined."""
    meshes = tuple(float(h) for h in meshes)
    if not meshes or not all(0.0 < h < math.inf for h in meshes):
        raise DomainError("meshes must be positive and finite")
    if len(set(meshes)) < len(meshes):
        raise DomainError("meshes must be distinct")
    return meshes


def _check_clearance(points: np.ndarray, pos: np.ndarray, clearance: float) -> None:
    if not pos.size:
        return
    dist = np.abs(points[:, None] - pos[None, :])
    if float(dist.min()) < clearance:
        raise DomainError(
            f"probe region within {clearance:g} of a singular site (min distance {dist.min():g})"
        )


def _stencils(f, region: ProbeRegion, meshes: Sequence[float], dtype=None):
    """What both residuals share: the checked meshes, the probe points, and
    f.value at the points and at their shifts by +h, -h, +ih and -ih for
    each mesh h (shape (meshes, 4, points)), from one f.value call.  The
    probes must keep 10 x the largest mesh from every singular site."""
    meshes = check_meshes(meshes)
    pts = _probe_points(region)
    hmax = max(meshes)
    reach = abs(region.center) + region.r_outer + 10.0 * hmax + 1.0
    _check_clearance(pts, f.singular_sites(reach).pos, 10.0 * hmax)
    shifts = [p for h in meshes for p in (pts + h, pts - h, pts + 1j * h, pts - 1j * h)]
    vals = np.asarray(f.value(np.concatenate([pts, *shifts])), dtype=dtype).reshape(-1, pts.size)
    return meshes, pts, vals[0], vals[1:].reshape(len(meshes), 4, pts.size)


def _observed_order(meshes: Sequence[float], norms: Sequence[float]) -> float:
    orders = []
    for (h1, n1), (h2, n2) in zip(zip(meshes, norms), zip(meshes[1:], norms[1:])):
        n1, n2 = max(n1, 1e-300), max(n2, 1e-300)
        orders.append(math.log(n1 / n2) / math.log(h1 / h2))
    return float(np.mean(orders)) if orders else 0.0


def annihilation_residual(
    psi, probe_region: ProbeRegion, meshes: Sequence[float] = DEFAULT_MESHES
) -> ResidualReport:
    """Sup-norm of the first-order annihilation residual on a probe annulus.

    Spin '+': -i (psi_x + i psi_y) - (a_x + i a_y) psi; spin '-' uses the
    conjugate combination.  Derivatives by centered differences; the vector
    potential is evaluated analytically.  A genuine zero mode shows order
    about 2 (the discretization order).
    """
    meshes, pts, base, shifted = _stencils(psi, probe_region, meshes)
    conj_spin = psi.spin == "-"
    norms = []
    a_vals = np.asarray(psi.vector_potential(pts))
    if conj_spin:
        a_vals = np.conj(a_vals)
    for h, (east, west, north, south) in zip(meshes, shifted):
        dx = (east - west) / (2.0 * h)
        dy = (north - south) / (2.0 * h)
        grad = dx - 1j * dy if conj_spin else dx + 1j * dy
        res = -1j * grad - a_vals * base
        norms.append(float(np.max(np.abs(res))))
    return ResidualReport(meshes, tuple(norms), _observed_order(meshes, norms))


def laplacian_residual(
    phi, probe_region: ProbeRegion, meshes: Sequence[float] = DEFAULT_MESHES
) -> ResidualReport:
    """Sup-norm of the 5-point-stencil Laplacian of phi minus b0 = 2 pi xi0."""
    meshes, _, center, shifted = _stencils(phi, probe_region, meshes, float)
    b0 = 2.0 * math.pi * phi.uniform_flux_density
    norms = []
    for h, (east, west, north, south) in zip(meshes, shifted):
        lap = (east + west + north + south - 4.0 * center) / h**2
        norms.append(float(np.max(np.abs(lap - b0))))
    return ResidualReport(meshes, tuple(norms), _observed_order(meshes, norms))


# ---------------------------------------------------------------------------
# contour checks


def loop_flux(a: Callable, rectangle: tuple[float, float, float, float]) -> float:
    """Line integral of a_x dx + a_y dy around an axis-aligned rectangle.

    rectangle = (x0, y0, x1, y1), traversed counterclockwise.  For pure
    Aharonov-Bohm fields this equals 2 pi times the enclosed flux sum, plus
    b0 times the area for a uniform component.  Each side is cut into
    _FLUX_PANELS panels of 8 Gauss-Legendre nodes, all evaluated in one
    a(z) call.
    """
    x0, y0, x1, y1 = map(float, rectangle)
    if not (x0 < x1 and y0 < y1):
        raise DomainError("rectangle must satisfy x0 < x1 and y0 < y1")

    sites = getattr(a, "singular_sites", None)
    if sites is not None:
        reach = max(abs(complex(x0, y0)), abs(complex(x1, y1))) + 1.0
        pos = sites(reach).pos
        x, y = pos.real, pos.imag
        dx = np.maximum(np.maximum(x0 - x, 0.0), x - x1)
        dy = np.maximum(np.maximum(y0 - y, 0.0), y - y1)
        inside = (x0 + 1e-6 < x) & (x < x1 - 1e-6) & (y0 + 1e-6 < y) & (y < y1 - 1e-6)
        if np.any((np.hypot(dx, dy) < 1e-6) & ~inside):
            raise DomainError("rectangle boundary passes too close to a flux site")

    corners = np.array([complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)])
    edges = corners[:, None] + (np.roll(corners, -1) - corners)[:, None] * np.linspace(0.0, 1.0, _FLUX_PANELS + 1)
    mid, half = 0.5 * (edges[:, 1:] + edges[:, :-1]), 0.5 * (edges[:, 1:] - edges[:, :-1])
    x_nodes, w = _gauss_rule(8)
    z = mid[:, :, None] + half[:, :, None] * x_nodes
    # a_x dx + a_y dy = Re(conj(a) dz)
    a_dz = np.conj(np.asarray(a(z.ravel())).reshape(z.shape)) * half[:, :, None]
    return float(np.sum(a_dz.real @ w))


# ---------------------------------------------------------------------------
# growth estimation


def growth_estimate(log_f: Callable, r_grid: Sequence[float]) -> GrowthEstimate:
    """Growth order and type of an entire function f from circle maxima.

    log_f returns ln|f|, evaluated on every circle of _GROWTH_SAMPLES points
    in one call.  order: least-squares slope of ln ln M(r) against ln r over
    the top half of the grid; type: max of ln M(r) / r**order there.  The
    grid is truncated, with a notice, at the first circle whose ln M is not
    finite.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size < 4 or r[0] <= 0.0 or np.any(np.diff(r) <= 0.0):
        raise DomainError("radius grid must be increasing, positive, length >= 4")
    if math.log10(r[-1] / r[0]) < 0.75:
        raise DomainError("radius grid must span at least 0.75 decades")

    phase = np.exp(2j * math.pi * np.arange(_GROWTH_SAMPLES) / _GROWTH_SAMPLES)
    with np.errstate(all="ignore"):  # a circle with non-finite values truncates the grid
        lm = np.asarray(log_f((r[:, None] * phase).ravel()), dtype=float).reshape(r.size, -1).max(axis=1)
    notice = ""
    bad = np.flatnonzero(~np.isfinite(lm))
    if bad.size:
        notice = f"grid truncated at r={r[bad[0]]:g} (non-finite log values)"
        lm = lm[: bad[0]]
    if len(lm) < 4:
        raise DomainError("too few usable radii" + (f"; {notice}" if notice else ""))

    half = len(lm) // 2
    rs, ls = r[half : len(lm)], lm[half:]
    usable = ls > 0.0
    if usable.sum() < 3:
        return GrowthEstimate(0.0, float(np.exp(lm.max())), "low", notice)

    x = np.log(rs[usable])
    y = np.log(ls[usable])
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    resid = float(np.sqrt(np.mean((y - y.mean() - slope * xc) ** 2)))
    order = max(slope, 0.0)
    gtype = float(np.max(ls / rs**order))
    confidence = "high" if resid < 0.1 and usable.sum() >= 4 else "low"
    return GrowthEstimate(order, gtype, confidence, notice)
