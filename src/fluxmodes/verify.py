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
0.5, so every site within 5 of it can set it; each annulus lists those too,
and a site keeps one radius in every annulus.  A C^inf partition of unity
blends the site discs into the polar panels of the bulk: each panel asks a
k-d tree once for the sites whose discs can reach its nodes.  The discs are
disjoint, so a node inside one takes that site's ramp, as its nearest site's.
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
_CHUNK_POINTS points.
Tails are certified by one rule.  After each annulus, each extrapolation the
decay hint allows yields a candidate (value, tail error): geometric
stagnation of the increments for exponential-type decay; a two-term power fit
of the increments, or consecutive halving ratios, for algebraic decay.  The
first candidate with tail error + quadrature error <= max(abs_tol,
rel_tol * value) is Convergent, reporting exactly that value and that error.
Growth by factor >= DIVERGENCE_RATIO across two consecutive doublings flags
divergence, without the site discs once the bulk alone shows it.
The Gauss rules come from scipy, imported when the first rule is built:
importing this module loads no scipy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
# _DISC_RADIUS_MAX, so only sites within _DISC_RADIUS_MAX / _DISC_SHARE set it
_DISC_SHARE, _DISC_RADIUS_MAX = 0.1, 0.5
_MAX_PANELS = 40_000
# site-disc rules: (core, ramp) radial rows of the fine and coarse rules,
# and trapezoid nodes on each row's circle
_DISC_ROWS = (12, 24)
_DISC_ROWS_COARSE = (8, 16)
_ANGULAR_NODES = 16
_RING = np.exp(2j * math.pi * np.arange(_ANGULAR_NODES) / _ANGULAR_NODES)
_CHUNK_POINTS = 3072


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
    tree: object  # cKDTree of pos; None without sites


def _site_set(sites: Sites) -> _SiteSet:
    if np.any(sites.expo <= -1.0):
        raise DomainError("local exponent <= -1: |psi|^2 is not integrable")
    # integer local exponents are smooth; only fractional powers need care
    frac = np.abs(sites.expo - np.round(sites.expo)) > 1e-9
    pos, expo = sites.pos[frac], sites.expo[frac]
    if not pos.size:
        return _SiteSet(pos, expo, np.zeros(0), None)
    from scipy.spatial import cKDTree

    tree = cKDTree(np.column_stack([pos.real, pos.imag]))
    nn = tree.query(tree.data, k=2)[0][:, 1]  # inf for a lone site
    radius = np.minimum(_DISC_SHARE * nn, _DISC_RADIUS_MAX)
    if np.any(radius <= 0.0):
        raise DomainError("coincident singular sites")
    return _SiteSet(pos, expo, radius, tree)


class _Integrand:
    """exp(2 log_abs) times a smooth cutoff vanishing inside site discs.

    The nodes come one row per polar box.  Each box asks the k-d tree once
    for the sites within its spread (the largest node distance from the
    box's centre) plus the largest disc radius, and keeps those within its
    spread plus their own radius: only their discs can hold a node of the
    box.  Site discs are disjoint (radius <= 0.1 x the distance to the
    nearest of the sites within 5, which l2_norm_squared lists with each
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
        if s.tree is None:
            return fac
        center = Z.mean(axis=1)
        spread = np.abs(Z - center[:, None]).max(axis=1)
        near = s.tree.query_ball_point(np.column_stack([center.real, center.imag]), spread + s.radius.max())
        box = np.repeat(np.arange(len(near)), [len(i) for i in near])
        site = np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp, count=box.size)
        keep = np.abs(center[box] - s.pos[site]) <= spread[box] + s.radius[site]
        box, site = box[keep], site[keep]
        dist = np.abs(Z[box] - s.pos[site, None])
        pair, node = np.nonzero(dist < s.radius[site, None])
        i = site[pair]
        t = (dist[pair, node] / s.radius[i] - _BUMP_LO) / (_BUMP_HI - _BUMP_LO)
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
    """(radial nodes, angular nodes, 6x6 weights, 4x4 weights) of one box:
    the 6x6 Gauss-Legendre rule's 36 nodes, then the 4x4 rule's 16."""
    (x6, w6), (x4, w4) = _gauss_rule(6), _gauss_rule(4)
    node_r = np.concatenate([np.repeat(x6, 6), np.repeat(x4, 4)])
    node_p = np.concatenate([np.tile(x6, 6), np.tile(x4, 4)])
    return node_r, node_p, np.outer(w6, w6).ravel(), np.outer(w4, w4).ravel()


# boxes per integrand call: about _CHUNK_POINTS points, few enough that the
# bulk does not raise the process's memory high-water mark
_CHUNK_BOXES = _CHUNK_POINTS // (6 * 6 + 4 * 4)


def _panel_values(F: _Integrand, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre 6x6 values of polar boxes (rows r0, r1, p0, p1) and
    their error indicators |6x6 - 4x4|, evaluated in chunks of boxes."""
    node_r, node_p, w6, w4 = _bulk_rule()
    v6 = np.empty(len(boxes))
    v4 = np.empty(len(boxes))
    for s in range(0, len(boxes), _CHUNK_BOXES):
        r0, r1, p0, p1 = boxes[s : s + _CHUNK_BOXES].T
        rh, ph = 0.5 * (r1 - r0), 0.5 * (p1 - p0)
        r = 0.5 * (r1 + r0)[:, None] + rh[:, None] * node_r
        vals = F(r * np.exp(1j * (0.5 * (p1 + p0)[:, None] + ph[:, None] * node_p))) * r
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
        # the sites within R + 1 cut the bulk; those that can set their
        # radii come too, so each site keeps one radius in every annulus
        sites = _site_set(psi.singular_sites(R + 1.0 + _DISC_RADIUS_MAX / _DISC_SHARE))
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


def _check_clearance(points: np.ndarray, pos: np.ndarray, clearance: float) -> None:
    if not pos.size:
        return
    dist = np.abs(points[:, None] - pos[None, :])
    if float(dist.min()) < clearance:
        raise DomainError(
            f"probe region within {clearance:g} of a singular site (min distance {dist.min():g})"
        )


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
    meshes = tuple(float(h) for h in meshes)
    if not meshes or any(h <= 0 for h in meshes):
        raise DomainError("meshes must be positive")
    pts = _probe_points(probe_region)
    hmax = max(meshes)
    reach = abs(probe_region.center) + probe_region.r_outer + 10.0 * hmax + 1.0
    _check_clearance(pts, psi.singular_sites(reach).pos, 10.0 * hmax)

    conj_spin = psi.spin == "-"
    norms = []
    base = np.asarray(psi.value(pts))
    a_vals = np.asarray(psi.vector_potential(pts))
    if conj_spin:
        a_vals = np.conj(a_vals)
    for h in meshes:
        dx = (np.asarray(psi.value(pts + h)) - np.asarray(psi.value(pts - h))) / (2.0 * h)
        dy = (np.asarray(psi.value(pts + 1j * h)) - np.asarray(psi.value(pts - 1j * h))) / (2.0 * h)
        grad = dx - 1j * dy if conj_spin else dx + 1j * dy
        res = -1j * grad - a_vals * base
        norms.append(float(np.max(np.abs(res))))
    return ResidualReport(meshes, tuple(norms), _observed_order(meshes, norms))


def laplacian_residual(
    phi, probe_region: ProbeRegion, meshes: Sequence[float] = DEFAULT_MESHES
) -> ResidualReport:
    """Sup-norm of the 5-point-stencil Laplacian of phi minus b0 = 2 pi xi0."""
    meshes = tuple(float(h) for h in meshes)
    if not meshes or any(h <= 0 for h in meshes):
        raise DomainError("meshes must be positive")
    pts = _probe_points(probe_region)
    hmax = max(meshes)
    reach = abs(probe_region.center) + probe_region.r_outer + 10.0 * hmax + 1.0
    _check_clearance(pts, phi.singular_sites(reach).pos, 10.0 * hmax)

    b0 = 2.0 * math.pi * phi.uniform_flux_density
    norms = []
    center = np.asarray(phi.value(pts), dtype=float)
    for h in meshes:
        lap = (
            np.asarray(phi.value(pts + h), dtype=float)
            + np.asarray(phi.value(pts - h), dtype=float)
            + np.asarray(phi.value(pts + 1j * h), dtype=float)
            + np.asarray(phi.value(pts - 1j * h), dtype=float)
            - 4.0 * center
        ) / h**2
        norms.append(float(np.max(np.abs(lap - b0))))
    return ResidualReport(meshes, tuple(norms), _observed_order(meshes, norms))


# ---------------------------------------------------------------------------
# contour checks


def loop_flux(a: Callable, rectangle: tuple[float, float, float, float], samples_per_side: int = 256) -> float:
    """Line integral of a_x dx + a_y dy around an axis-aligned rectangle.

    rectangle = (x0, y0, x1, y1), traversed counterclockwise.  For pure
    Aharonov-Bohm fields this equals 2 pi times the enclosed flux sum, plus
    b0 times the area for a uniform component.
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

    panels = max(4, samples_per_side // 8)
    x_nodes, w = _gauss_rule(8)

    def side(start: complex, stop: complex, take) -> float:
        acc = 0.0
        for k in range(panels):
            za = start + (stop - start) * k / panels
            zb = start + (stop - start) * (k + 1) / panels
            mid, half = 0.5 * (za + zb), 0.5 * (zb - za)
            z = mid + half * x_nodes
            acc += abs(half) * float(np.dot(w, take(np.asarray(a(z)))))
        return acc

    total = side(complex(x0, y0), complex(x1, y0), np.real)
    total += side(complex(x1, y0), complex(x1, y1), np.imag)
    total -= side(complex(x0, y1), complex(x1, y1), np.real)
    total -= side(complex(x0, y0), complex(x0, y1), np.imag)
    return total


# ---------------------------------------------------------------------------
# growth estimation


def growth_estimate(
    f: Callable,
    r_grid: Sequence[float],
    samples_per_circle: int = 256,
    *,
    log_scale: bool = False,
) -> GrowthEstimate:
    """Growth order and type of an entire function from circle maxima.

    order: least-squares slope of ln ln M(r) against ln r over the top half
    of the grid; type: max of ln M(r) / r**order there.  With log_scale the
    evaluator returns ln f directly (mandatory when exp would overflow).
    Overflows truncate the grid with a notice.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size < 4 or r[0] <= 0.0 or np.any(np.diff(r) <= 0.0):
        raise DomainError("radius grid must be increasing, positive, length >= 4")
    if math.log10(r[-1] / r[0]) < 0.75:
        raise DomainError("radius grid must span at least 0.75 decades")

    phase = np.exp(2j * math.pi * np.arange(samples_per_circle) / samples_per_circle)
    log_m: list[float] = []
    notice = ""
    for rad in r:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(rad * phase))
        if log_scale:
            lm = float(np.max(np.real(vals)))
            if not math.isfinite(lm):
                notice = f"grid truncated at r={rad:g} (non-finite log values)"
                break
        else:
            mags = np.abs(vals)
            if not np.all(np.isfinite(mags)):
                notice = f"grid truncated at r={rad:g} (overflow)"
                break
            lm = float(np.log(np.max(mags)))
        log_m.append(lm)
    if len(log_m) < 4:
        raise DomainError("too few usable radii" + (f"; {notice}" if notice else ""))

    rr = r[: len(log_m)]
    lm = np.array(log_m)
    half = len(lm) // 2
    rs, ls = rr[half:], lm[half:]
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
