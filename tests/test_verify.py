"""Calibration of the certification engine against closed forms."""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_jacobi, roots_legendre

from fluxmodes import verify
from fluxmodes.ansatz import build_divergence_candidate, build_zero_modes
from fluxmodes.config import (
    ChainComponent,
    FluxConfiguration,
    FluxSite,
    LatticeComponent,
    StarComponent,
    Support,
    config_from_dict,
    normalize_fluxes,
)
from fluxmodes.decide import decide
from fluxmodes.special import DomainError, LatticeBasis, log_abs_sigma_tilde, log_sigma, log_sin
from fluxmodes.verify import (
    _BUMP_HI,
    _BUMP_LO,
    _CHUNK_BOXES,
    _CHUNK_POINTS,
    _CUTOFF_PAIRS,
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    DecayHint,
    ProbeRegion,
    Sites,
    _gauss_rule,
    _Integrand,
    _panel_values,
    _region_integral,
    _site_disc_bounds,
    _site_disc_integrals,
    _site_set,
    _smooth_rise,
    annihilation_residual,
    growth_estimate,
    integrate_disc,
    l2_norm_squared,
    laplacian_residual,
    loop_flux,
)


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _sites(pairs) -> Sites:
    """Sites of (position, exponent) pairs."""
    pairs = list(pairs)
    return Sites(np.array([p for p, _ in pairs], dtype=complex), np.array([e for _, e in pairs], dtype=float))


class FakePsi:
    """Minimal wave-function protocol object for synthetic calibrations."""

    def __init__(self, log_abs, value=None, sites=(), hint=None, spin="+", vector_potential=None):
        self._log_abs = log_abs
        self._value = value
        self._sites = _sites(sites)
        self.decay_hint = hint
        self.spin = spin
        self._vp = vector_potential

    def log_abs(self, z):
        return self._log_abs(np.asarray(z, dtype=complex))

    def value(self, z):
        return self._value(np.asarray(z, dtype=complex))

    def vector_potential(self, z):
        return self._vp(np.asarray(z, dtype=complex))

    def singular_sites(self, r):
        keep = np.abs(self._sites.pos) <= r
        return Sites(self._sites.pos[keep], self._sites.expo[keep])


# ---------------------------------------------------------------------------
# disc quadrature calibrations


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_unit_disc_power_integral(theta):
    value, err = integrate_disc(
        lambda z: -theta * np.log(np.abs(z)),
        [(0.0, -theta)],
        radius=1.0,
        abs_tol=1e-9,
        rel_tol=1e-7,
    )
    exact = math.pi / (1.0 - theta)
    assert abs(value - exact) < 1e-5 * exact
    assert err < 1e-4 * exact


def test_disc_integral_offcenter_site():
    # site away from the origin, exact value by translation invariance of
    # the integrand support: integral over |z - w| <= 1 of |z - w|^-1
    w = 0.4 + 0.3j

    def la(z):
        return -0.5 * np.log(np.abs(z - w))

    # integrate over a disc large enough to contain the unit disc around w,
    # with the integrand cut off outside |z - w| <= 1
    def la_cut(z):
        d = np.abs(z - w)
        out = -0.5 * np.log(d)
        return np.where(d <= 1.0, out, -np.inf)

    value, _ = integrate_disc(la_cut, [(w, -0.5)], radius=2.0, rel_tol=1e-6)
    assert abs(value - 2.0 * math.pi) < 2e-3


# ---------------------------------------------------------------------------
# batched engine internals


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        min_size=1,
        max_size=12,
        unique=True,
    ),
    st.integers(0, 2**32 - 1),
)
def test_nearest_site_cutoff_matches_product(points, seed):
    try:
        sites = _site_set(_sites((complex(x, y), -0.4) for x, y in points))
    except DomainError:
        return  # coincident sites are rejected before any cutoff is formed
    rng = np.random.default_rng(seed)
    # points around each disc edge and ramp, plus points anywhere
    rho = sites.radius[:, None] * rng.uniform(0.0, 1.3, (sites.pos.size, 40))
    near = sites.pos[:, None] + rho * np.exp(2j * math.pi * rng.uniform(size=rho.shape))
    Z = np.concatenate([near.ravel(), rng.uniform(-4, 4, 200) + 1j * rng.uniform(-4, 4, 200)])
    reference = np.ones(Z.shape)
    for p, r in zip(sites.pos, sites.radius):
        reference = reference * _smooth_rise((np.abs(Z - p) / r - _BUMP_LO) / (_BUMP_HI - _BUMP_LO))
    got = _Integrand(lambda z: np.zeros(z.shape), sites).cutoff(Z.reshape(-1, 8))
    assert np.max(np.abs(got.ravel() - reference)) <= 1e-15


def _two_site_mode():
    cfg, _ = normalize_fluxes(FluxConfiguration(finite_sites=(FluxSite(0j, 0.6), FluxSite(1 + 0j, 0.6))))
    return build_zero_modes(cfg, decide(cfg, "+"), 1).generator(0)


def _chain_mode():
    cfg, _ = normalize_fluxes(FluxConfiguration(chains=(ChainComponent(1.0, (FluxSite(0j, 0.5),)),)))
    return build_zero_modes(cfg, decide(cfg, "+"), 1).generator(0)


class CountingPsi:
    """Wave-function proxy counting log_abs calls and their sizes."""

    def __init__(self, psi):
        self._psi = psi
        self.calls = 0
        self.sizes = []

    def log_abs(self, z):
        self.calls += 1
        self.sizes.append(np.size(z))
        return self._psi.log_abs(z)

    def __getattr__(self, name):
        return getattr(self._psi, name)


def test_two_site_norm_makes_few_integrand_calls():
    # one call per chunk of a refinement level, not two per panel (the
    # panel-at-a-time engine made about 4000 here)
    psi = CountingPsi(_two_site_mode())
    res = l2_norm_squared(psi, 1e-8, 1e-4)
    assert res.flag == CONVERGENT
    assert res.value == pytest.approx(27.4844928468641413, rel=1e-4)
    assert psi.calls < 100


def _site_disc_bound_reference(log_abs, center, exponent, radius):
    """One site at a time, as the batched bounds were computed before."""
    rr = np.array([0.25, 0.75]) * radius
    aa = np.exp(1j * np.array([0.4, 1.97, 3.54, 5.11]))
    Z = center + rr[:, None] * aa[None, :]
    la = np.asarray(log_abs(Z.ravel()), dtype=float)
    t = float(np.max(la - exponent * np.log(np.abs(Z.ravel() - center))))
    return 2.0 * math.pi * math.exp(2.0 * t) * radius ** (2.0 * exponent + 2.0) / (2.0 * exponent + 2.0)


def _landau_lattice(eta0):
    base = LatticeComponent(LatticeBasis(1.0, 1.0j), (FluxSite(0j, 0.5),))
    cfg, _ = normalize_fluxes(FluxConfiguration(uniform_flux_density=eta0, lattices=(base,)))
    return cfg, decide(cfg, "-")


@pytest.mark.parametrize("family", ["lattice", "chain", "finite", "star"])
def test_batched_site_disc_bounds_bit_identical(family):
    if family == "lattice":
        cfg, v = _landau_lattice(0.3)
        psi = build_zero_modes(cfg, v, 1).generator(0)
    elif family == "chain":
        psi = _chain_mode()
    elif family == "star":  # 1297 sites: 10 376 probes, in four calls
        psi = _star_mode()
    else:
        psi = _two_site_mode()
    sites = _site_set(psi.singular_sites(6.0))
    idx = np.arange(sites.pos.size)
    counting = CountingPsi(psi)
    got = _site_disc_bounds(counting.log_abs, sites, idx)
    want = [
        _site_disc_bound_reference(psi.log_abs, sites.pos[i], sites.expo[i], sites.radius[i]) for i in idx
    ]
    assert got == want
    assert max(counting.sizes) <= _CHUNK_POINTS


def test_star_norm_bounds_in_chunks(monkeypatch):
    # the order-3 star's annuli to R = 8 and 16 bring 2688 and 21 504 new
    # sites, 8 probes each: their bounds go in calls of _CHUNK_POINTS, and
    # the certificate is the one that a single call per annulus gives
    psi = CountingPsi(_star_mode())
    res = l2_norm_squared(psi, 1e-8, 1e-1)
    assert res.flag == CONVERGENT
    assert res.radii_trace[-1][0] == 16.0
    assert max(psi.sizes) <= _CHUNK_POINTS
    monkeypatch.setattr(verify, "_CHUNK_POINTS", 10**6)
    assert l2_norm_squared(_star_mode(), 1e-8, 1e-1) == res


def test_divergence_settled_by_bulk_skips_site_discs(monkeypatch):
    cfg, v = _landau_lattice(0.7)
    assert v.status == "NotExists"
    centers = []
    discs = verify._site_disc_integrals

    def spy(log_abs, pos, expo, radius):
        centers.extend(np.abs(pos).tolist())
        return discs(log_abs, pos, expo, radius)

    monkeypatch.setattr(verify, "_site_disc_integrals", spy)
    res = l2_norm_squared(build_divergence_candidate(cfg, v), 1e-8, 1e-5)
    assert res.flag == DIVERGENT
    assert res.error_estimate == math.inf
    assert centers  # earlier annuli still integrate their site discs
    assert max(centers) <= res.radii_trace[-1][0] / 2.0  # the last annulus does not


# ---------------------------------------------------------------------------
# site-disc rule


def _one_disc(log_abs, center, exponent, radius):
    """(value, error) of one site disc through the batched rule."""
    values, errors = _site_disc_integrals(
        log_abs, np.array([center]), np.array([exponent]), np.array([radius])
    )
    return float(values[0]), float(errors[0])


def _ramp(t):
    return _smooth_rise((np.asarray(t) - _BUMP_LO) / (_BUMP_HI - _BUMP_LO))


@pytest.mark.parametrize("exponent", [-0.9, -0.6, -0.5, -0.25, -0.1, 0.3, 1.5])
@pytest.mark.parametrize("radius", [0.05, 0.37])
def test_site_disc_pure_power(exponent, radius):
    # |psi|^2 = rho^(2e) exactly: the disc integral is
    # 2 pi r^(2e+2) * integral over [0, 1] of t^(2e+1) (1 - ramp(t)) dt.
    # A flux site's own exponent -theta lies in (-1, 0); a positive exponent
    # (a zero of the member at the site) weights the ramp rows more heavily
    center = 0.3 - 1.1j
    beta = 2.0 * exponent + 1.0
    t_int, t_err = quad(
        lambda t: 1.0 - _ramp(t), 0.0, 1.0,
        weight="alg", wvar=(beta, 0.0), epsabs=0.0, epsrel=1e-13, limit=200,
    )
    scale = 2.0 * math.pi * radius ** (beta + 1.0)
    ref, ref_err = scale * t_int, scale * t_err
    value, err = _one_disc(lambda z: exponent * np.log(np.abs(z - center)), center, exponent, radius)
    assert abs(value - ref) <= err + ref_err
    assert err <= (1e-8 if exponent < 0.0 else 1e-6) * ref


def _split_reference(log_abs, center, exponent, radius):
    """Disc integral from a 40 + 400-row core/ramp split rule on 32 angular
    nodes offset by half a step from the engine's."""
    beta = 2.0 * exponent + 1.0
    x, w = roots_jacobi(40, 0.0, beta)
    t_core, w_core = _BUMP_LO * (x + 1.0) / 2.0, w * (_BUMP_LO / 2.0) ** (beta + 1.0)
    x, w = roots_legendre(400)
    t_ramp = _BUMP_LO + (_BUMP_HI - _BUMP_LO) * (x + 1.0) / 2.0
    w_ramp = w * (_BUMP_HI - _BUMP_LO) / 2.0 * t_ramp**beta * (1.0 - _ramp(t_ramp))
    t, wt = np.concatenate([t_core, t_ramp]), np.concatenate([w_core, w_ramp])
    rho = radius * t
    Z = center + rho[:, None] * np.exp(2j * math.pi * (np.arange(32) + 0.5) / 32)
    la = np.asarray(log_abs(Z.ravel()), dtype=float).reshape(Z.shape)
    smooth = np.exp(2.0 * la - 2.0 * exponent * np.log(rho)[:, None])
    return 2.0 * math.pi * radius ** (beta + 1.0) * float(wt @ smooth.mean(axis=1))


def _star_mode():
    cfg, _ = normalize_fluxes(FluxConfiguration(star=StarComponent(order=3, theta=0.5)))
    return build_zero_modes(cfg, decide(cfg, "+"), 1, alpha=math.pi / 4.0).generator(0)


def _lattice2_mode():
    base = LatticeComponent(LatticeBasis(2.0, 2.0j), (FluxSite(0j, 0.5),))
    cfg, _ = normalize_fluxes(FluxConfiguration(lattices=(base,)))
    return build_zero_modes(cfg, decide(cfg, "+"), 1).generator(0)


@pytest.mark.parametrize("family", ["lattice", "landau", "chain", "finite", "star"])
def test_site_disc_matches_split_reference(family):
    psi = {
        "lattice": _lattice2_mode,
        "landau": lambda: build_zero_modes(*_landau_lattice(0.3), 1).generator(0),
        "chain": _chain_mode,
        "finite": _two_site_mode,
        "star": _star_mode,
    }[family]()
    sites = _site_set(psi.singular_sites(4.0))
    for i in np.argsort(np.abs(sites.pos))[:6]:
        args = (sites.pos[i], sites.expo[i], sites.radius[i])
        ref = _split_reference(psi.log_abs, *args)
        value, err = _one_disc(psi.log_abs, *args)
        assert abs(value - ref) <= err
        assert err <= 1e-8 * ref


def _site_disc_reference(log_abs, center, exponent, radius):
    """One disc at a time, as the batched discs were computed before: two
    log_abs calls, the fine and the coarse rule's rows."""
    beta = 2.0 * exponent + 1.0
    ring = np.exp(2j * math.pi * np.arange(16) / 16)
    scale = 2.0 * math.pi * radius ** (beta + 1.0)

    def rows(t, w):
        rho = radius * t
        Z = center + rho[:, None] * ring
        la = np.asarray(log_abs(Z.ravel()), dtype=float).reshape(Z.shape)
        with np.errstate(over="ignore"):
            smooth = np.exp(2.0 * la - 2.0 * exponent * np.log(rho)[:, None])
        return scale * float(w @ smooth.mean(axis=1)), scale * float(w @ smooth[:, ::2].mean(axis=1))

    fine_rule, coarse_rule = verify._disc_rules(round(beta, 12))
    fine, fine_half = rows(*fine_rule)
    coarse, _ = rows(*coarse_rule)
    return fine, abs(fine - coarse) + abs(fine - fine_half)


def _mixed_mode():
    # 13 sites whose exponents cycle through flux sites and zeros of several
    # orders, so every chunk of both rules mixes radial rules
    pos = np.array([complex(k % 5, k // 5) * 1.3 for k in range(13)])
    expo = np.resize([-0.9, -0.5, -0.25, 0.3, 1.5, -0.6], pos.size)

    def la(z):
        powers = np.sum(expo[:, None] * np.log(np.abs(z - pos[:, None])), axis=0)
        return powers + 0.2 * z.real - 0.05 * np.abs(z) ** 2

    return FakePsi(la, sites=zip(pos, expo))


_DISC_FAMILIES = {
    "finite": _two_site_mode,
    "chain": _chain_mode,
    "lattice": _lattice2_mode,
    "landau-minus": lambda: build_zero_modes(*_landau_lattice(0.3), 1).generator(0),
    "parallel": lambda: _parallel_mode(),
    "star": _star_mode,
    "mixed": _mixed_mode,
}


# 1 to 13 discs cross the edges of both rules' chunks: 5 discs a fine call,
# 8 a coarse one; a family with fewer sites repeats them
@pytest.mark.parametrize("count", [1, 5, 6, 8, 9, 13])
@pytest.mark.parametrize("family", list(_DISC_FAMILIES))
def test_batched_site_discs_bit_identical(family, count):
    psi = _DISC_FAMILIES[family]()
    sites = _site_set(psi.singular_sites(8.0))
    idx = np.resize(np.argsort(np.abs(sites.pos), kind="stable"), count)
    values, errors = _site_disc_integrals(psi.log_abs, sites.pos[idx], sites.expo[idx], sites.radius[idx])
    want = [_site_disc_reference(psi.log_abs, sites.pos[i], sites.expo[i], sites.radius[i]) for i in idx]
    assert list(zip(values.tolist(), errors.tolist())) == want
    if family == "mixed":  # every chunk of either rule mixes exponents
        for step in (5, 8):
            chunks = [sites.expo[idx[s : s + step]] for s in range(0, count, step)]
            assert all(c.size == 1 or np.unique(c).size > 1 for c in chunks)


def test_parallel_member_disc_calls_in_chunks():
    # criterion 09's member: one log_abs call per disc rule and chunk of
    # discs, not two per disc (237 calls before batching), and no call, the
    # disc path's included, above _CHUNK_POINTS points
    psi = CountingPsi(_parallel_mode(alpha=0.4))
    res = l2_norm_squared(psi, 1e-8, 1e-1)
    assert res.flag == CONVERGENT
    assert psi.calls < 100
    assert max(psi.sizes) <= _CHUNK_POINTS


# ---------------------------------------------------------------------------
# bulk cutoff


def _tree(pos):
    from scipy.spatial import cKDTree

    return cKDTree(np.column_stack([pos.real, pos.imag]))


def _per_node_cutoff(sites, Z):
    """The cutoff by one nearest-site k-d tree query per node."""
    fac = np.ones(Z.shape)
    pts = np.column_stack([Z.real.ravel(), Z.imag.ravel()])
    nearest = _tree(sites.pos).query(pts, k=1, distance_upper_bound=float(sites.radius.max()))[1]
    nearest = nearest.reshape(Z.shape)
    near = nearest < sites.pos.size
    i = nearest[near]
    t = (np.abs(Z[near] - sites.pos[i]) / sites.radius[i] - _BUMP_LO) / (_BUMP_HI - _BUMP_LO)
    fac[near] = _smooth_rise(t)
    return fac


def _tree_site_set(sites):
    """Every listed site with a fractional exponent, its disc radius from its
    nearest listed neighbour, and their k-d tree: the site set of a k-d tree
    search over the whole listing."""
    frac = np.abs(sites.expo - np.round(sites.expo)) > 1e-9
    pos = sites.pos[frac]
    tree = _tree(pos)
    nn = tree.query(tree.data, k=2)[0][:, 1]
    return pos, np.minimum(verify._DISC_SHARE * nn, verify._DISC_RADIUS_MAX), tree


def _tree_cutoff(pos, radius, tree, Z):
    """The cutoff by one k-d tree ball query per box, over every listed site."""
    fac = np.ones(Z.shape)
    center = Z.mean(axis=1)
    spread = np.abs(Z - center[:, None]).max(axis=1)
    near = tree.query_ball_point(np.column_stack([center.real, center.imag]), spread + radius.max())
    box = np.repeat(np.arange(len(near)), [len(i) for i in near])
    site = np.array([j for i in near for j in i], dtype=np.intp)
    keep = np.abs(center[box] - pos[site]) <= spread[box] + radius[site]
    box, site = box[keep], site[keep]
    dist = np.abs(Z[box] - pos[site, None])
    pair, node = np.nonzero(dist < radius[site, None])
    t = (dist[pair, node] / radius[site[pair]] - _BUMP_LO) / (_BUMP_HI - _BUMP_LO)
    fac[box[pair], node] = _smooth_rise(t)
    return fac


def _parallel_mode(alpha=None):
    # Thm 7.4: two parallel chains, one site removed and five added
    doc = {
        "chains": [
            {"omega0": [1.0, 0.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}]},
            {"omega0": [2.0, 0.0], "offsets": [{"kappa": [0.5, 0.0], "theta": 0.5}]},
        ],
        "perturbation": {
            "removed": [[0.5, 0.0]],
            "added": [
                {"points": [[2.3, 1.7], [-3.1, 2.4], [0.7, -2.2], [-1.6, -1.9], [4.2, 2.9]], "theta": 0.9}
            ],
        },
    }
    cfg, _ = normalize_fluxes(config_from_dict(doc))
    return build_zero_modes(cfg, decide(cfg, "+"), 1, alpha=alpha).generator(0)


def _box_rows(sites, annuli):
    """The node rows, one per box, of every integrand call the bulk makes
    on each annulus with the cutoff alone as integrand: the initial boxes
    and the refined levels."""
    F = _Integrand(lambda z: np.zeros(z.shape), sites)
    chunks = []

    def spy(Z):
        chunks.append(Z)
        return F(Z)

    for r_lo, r_hi in annuli:
        _region_integral(spy, r_lo, r_hi, 1e-4, 1e-4)
    assert len(chunks) > len(annuli)  # one initial call per annulus, then refinement
    return chunks


# the first two annuli with their sites within R + 1 + 5, and the star's
# sites near the origin, whose radii differ by more than 10x
@pytest.mark.parametrize(
    "family, reach, annuli",
    [
        ("lattice", 10.0, [(0.0, 4.0), (4.0, 8.0)]),
        ("chain", 10.0, [(0.0, 4.0), (4.0, 8.0)]),
        ("parallel", 10.0, [(0.0, 4.0), (4.0, 8.0)]),
        ("star", 10.0, [(0.0, 4.0), (4.0, 8.0)]),
        ("star", 2.5, [(0.0, 2.5)]),
    ],
    ids=["lattice", "chain", "parallel", "star", "star-near-origin"],
)
def test_box_cutoff_matches_per_node_reference(family, reach, annuli):
    make = {"lattice": _lattice2_mode, "chain": _chain_mode, "parallel": _parallel_mode, "star": _star_mode}
    psi = make[family]()
    sites = _site_set(psi.singular_sites(reach))
    F = _Integrand(psi.log_abs, sites)
    touched = 0
    for Z in _box_rows(sites, annuli):
        got = F.cutoff(Z)
        assert np.array_equal(got, _per_node_cutoff(sites, Z))
        touched += int(np.count_nonzero(got < 1.0))
    assert touched > 0
    if family == "star":
        assert sites.radius.max() > 10.0 * sites.radius.min()


def test_box_cutoff_rows_no_disc_reaches():
    # side-2 lattice: discs of radius 0.2 around 2Z^2; boxes between the
    # sites, and far beyond every listed site, keep the cutoff 1
    sites = _site_set(_lattice2_mode().singular_sites(10.0))
    corner = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 52, endpoint=False))
    centers = np.array([1 + 1j, -1 + 3j, 3 - 1j, 100 + 100j, -250j])
    for spread in (0.1, 0.6):
        Z = centers[:, None] + spread * corner * np.linspace(0.2, 1.0, 52)
        got = _Integrand(lambda z: np.zeros(z.shape), sites).cutoff(Z)
        assert np.array_equal(got, _per_node_cutoff(sites, Z))
        assert np.all(got == 1.0)


def test_cutoff_memory_bounded_on_dense_sites():
    # 36 481 sites about 0.1 apart under 59 boxes 2 wide and pi/4 across:
    # 100 040 (box, site) pairs within reach take 162 MiB measured at once,
    # and about 14 MiB in blocks of _CUTOFF_PAIRS
    rng = np.random.default_rng(7)
    g = 0.1 * np.arange(-95, 96)
    pos = (g[:, None] + 1j * g[None, :]).ravel()
    pos = pos + 0.02 * (rng.uniform(-1, 1, pos.size) + 1j * rng.uniform(-1, 1, pos.size))
    sites = _site_set(Sites(pos, np.full(pos.size, -0.5)))
    r0, p0 = rng.uniform(1.0, 7.0, _CHUNK_BOXES), rng.uniform(0.0, 2.0 * math.pi, _CHUNK_BOXES)
    rows = []
    _panel_values(lambda Z: (rows.append(Z), np.zeros(Z.shape))[1], np.column_stack([r0, r0 + 2.0, p0, p0 + 0.25 * math.pi]))
    (Z,) = rows
    assert sites.cells.near(Z.mean(axis=1), 2.0)[0].size > 10 * _CUTOFF_PAIRS
    tracemalloc.start()
    try:
        fac = _Integrand(None, sites).cutoff(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert np.array_equal(fac, _per_node_cutoff(sites, Z))
    assert np.count_nonzero(fac < 1.0) > 0


# ---------------------------------------------------------------------------
# bit-identity oracles: the forms the engine evaluated before it shared work


def _panel_values_reference(F, boxes):
    """_panel_values with one complex exp per node: each node's radius and
    angle computed from its own abscissa."""
    (x6, w6), (x4, w4) = _gauss_rule(6), _gauss_rule(4)
    node_r = np.concatenate([np.repeat(x6, 6), np.repeat(x4, 4)])
    node_p = np.concatenate([np.tile(x6, 6), np.tile(x4, 4)])
    v6, v4 = np.empty(len(boxes)), np.empty(len(boxes))
    for s in range(0, len(boxes), _CHUNK_BOXES):
        r0, r1, p0, p1 = boxes[s : s + _CHUNK_BOXES].T
        rh, ph = 0.5 * (r1 - r0), 0.5 * (p1 - p0)
        r = 0.5 * (r1 + r0)[:, None] + rh[:, None] * node_r
        vals = F(r * np.exp(1j * (0.5 * (p1 + p0)[:, None] + ph[:, None] * node_p))) * r
        v6[s : s + len(r)] = rh * ph * (vals[:, :36] @ np.outer(w6, w6).ravel())
        v4[s : s + len(r)] = rh * ph * (vals[:, 36:] @ np.outer(w4, w4).ravel())
    return v6, np.abs(v6 - v4)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 1000.0),
            st.floats(1e-9, 500.0),
            st.floats(-10.0, 10.0),
            st.floats(1e-9, 2.0 * math.pi),
        ),
        min_size=1,
        max_size=2 * _CHUNK_BOXES + 3,
    )
)
@example([(0.0, 4.0, 0.0, 0.25 * math.pi)])
def test_panel_nodes_match_per_node_reference(boxes):
    boxes = np.array([(r0, r0 + dr, p0, p0 + dp) for r0, dr, p0, dp in boxes])
    got, want = [], []

    def spy(rows):
        def F(Z):
            rows.append(Z)
            return np.exp(-0.01 * (Z.real**2 + Z.imag**2)) * (1.0 + 0.5 * np.cos(3.0 * np.angle(Z)))

        return F

    new, old = _panel_values(spy(got), boxes), _panel_values_reference(spy(want), boxes)
    assert [Z.tobytes() for Z in got] == [Z.tobytes() for Z in want]
    assert _bits(new) == _bits(old)


def _annihilation_reference(psi, region, meshes):
    """annihilation_residual with one psi.value call per stencil."""
    pts = verify._probe_points(region)
    hmax = max(meshes)
    reach = abs(region.center) + region.r_outer + 10.0 * hmax + 1.0
    verify._check_clearance(pts, psi.singular_sites(reach).pos, 10.0 * hmax)
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
        norms.append(float(np.max(np.abs(-1j * grad - a_vals * base))))
    return norms


def _laplacian_reference(phi, region, meshes):
    """laplacian_residual with one phi.value call per stencil."""
    pts = verify._probe_points(region)
    hmax = max(meshes)
    reach = abs(region.center) + region.r_outer + 10.0 * hmax + 1.0
    verify._check_clearance(pts, phi.singular_sites(reach).pos, 10.0 * hmax)
    b0 = 2.0 * math.pi * phi.uniform_flux_density
    center = np.asarray(phi.value(pts), dtype=float)
    norms = []
    for h in meshes:
        lap = (
            np.asarray(phi.value(pts + h), dtype=float)
            + np.asarray(phi.value(pts - h), dtype=float)
            + np.asarray(phi.value(pts + 1j * h), dtype=float)
            + np.asarray(phi.value(pts - 1j * h), dtype=float)
            - 4.0 * center
        ) / h**2
        norms.append(float(np.max(np.abs(lap - b0))))
    return norms


def _landau_minus_mode():
    return build_zero_modes(*_landau_lattice(0.3), 1).generator(0)


# every family the certify benchmark and the acceptance criteria take
# residuals of, both spins; built once
_RESIDUAL_MODES = {
    name: functools.cache(make)
    for name, make in {
        "finite": _two_site_mode,
        "chain": _chain_mode,
        "lattice": _lattice2_mode,
        "landau-minus": _landau_minus_mode,
        "parallel": lambda: _parallel_mode(0.4),
        "star": _star_mode,
    }.items()
}
_probe_regions = st.builds(
    lambda x, y, r_in, width: ProbeRegion(complex(x, y), r_in, r_in + width),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, 0.05, 0.2, 0.6]),
    st.floats(0.05, 1.5),
)
_mesh_lists = st.one_of(
    st.just(verify.DEFAULT_MESHES),
    st.lists(st.floats(1e-4, 2e-2), min_size=1, max_size=4, unique=True).map(tuple),
)


def _same_or_both_refused(new, old, *args):
    try:
        want = old(*args)
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            new(*args)
    else:
        assert _bits(new(*args).residual_norms) == _bits(want)


@pytest.mark.parametrize("family", sorted(_RESIDUAL_MODES))
@settings(max_examples=40, deadline=None)
@given(region=_probe_regions, meshes=_mesh_lists)
@example(region=ProbeRegion(0.5 - 2.4j, 0.1, 0.6), meshes=verify.DEFAULT_MESHES)
def test_annihilation_residual_matches_per_stencil_reference(family, region, meshes):
    psi = _RESIDUAL_MODES[family]()
    _same_or_both_refused(annihilation_residual, _annihilation_reference, psi, region, meshes)


@pytest.mark.parametrize("family", sorted(_RESIDUAL_MODES))
@settings(max_examples=40, deadline=None)
@given(region=_probe_regions, meshes=_mesh_lists)
@example(region=ProbeRegion(0.5 - 2.4j, 0.1, 0.6), meshes=verify.DEFAULT_MESHES)
def test_laplacian_residual_matches_per_stencil_reference(family, region, meshes):
    phi = _RESIDUAL_MODES[family]().potential
    _same_or_both_refused(laplacian_residual, _laplacian_reference, phi, region, meshes)


def _finite_cloud():
    # 150 scattered sites: more than the pairwise paths take, with nearest
    # neighbours from about 0.01 to beyond the disc reach
    rng = np.random.default_rng(5)
    pos = np.concatenate([rng.uniform(-9, 9, 140) + 1j * rng.uniform(-9, 9, 140), 14 + 1j * np.arange(10) * 1.7])
    return FakePsi(lambda z: np.zeros(z.shape), sites=[(p, -0.5) for p in pos])


def _sparse_sites():
    # sites 3.7 to 8.35 from the origin whose discs, of radii 0.37 to 0.5,
    # cross the annulus edges 4 and 8; and 4.0, whose nearest neighbour
    # lies inward, at the origin
    pos = np.array([0j, 4.0, 8.9, -3.7, 4.3j, -8.35j])
    expo = np.array([-0.5, -0.3, -0.6, -0.4, -0.7, -0.2])

    def la(z):
        return np.sum(expo[:, None] * np.log(np.abs(z - pos[:, None])), axis=0) - 0.1 * np.abs(z) ** 2

    return FakePsi(la, sites=zip(pos, expo), hint=DecayHint("gaussian", 0.1))


def _grid_edges():
    # sites on a grid of step 0.25 whose coordinates are exact binary
    # fractions, so that many sit on cell edges and at exact reaches
    g = 0.25 * np.arange(-40, 41)
    pos = (g[:, None] + 1j * g[None, :]).ravel()
    return FakePsi(lambda z: np.zeros(z.shape), sites=[(p, -0.25) for p in pos[np.abs(pos) <= 9.0]])


# each family's annuli as l2_norm_squared takes them: its sites listed to
# R + 1 + the disc reach, the site set kept for r_prev - 1 < |pos| <= R + 1
@pytest.mark.parametrize(
    "family, radii",
    [
        ("lattice", (4.0, 8.0, 16.0)),
        ("chain", (4.0, 8.0, 16.0)),
        ("parallel", (4.0, 8.0)),
        ("finite", (4.0, 8.0)),
        ("star", (4.0, 8.0)),
        ("grid-edges", (4.0, 8.0)),
        ("sparse", (4.0, 8.0, 16.0)),
    ],
)
def test_site_radii_and_cutoff_match_tree(family, radii):
    psi = {
        "lattice": _lattice2_mode,
        "chain": _chain_mode,
        "parallel": _parallel_mode,
        "finite": _finite_cloud,
        "star": _star_mode,
        "grid-edges": _grid_edges,
        "sparse": _sparse_sites,
    }[family]()
    r_prev, touched = -1.0, 0
    for R in radii:
        listed = psi.singular_sites(R + 1.0 + verify._DISC_REACH)
        sites = _site_set(listed, r_prev - 1.0, R + 1.0)
        pos, radius, tree = _tree_site_set(listed)
        kept = (np.abs(pos) > r_prev - 1.0) & (np.abs(pos) <= R + 1.0)
        assert sites.pos.tobytes() == pos[kept].tobytes()
        assert _bits(sites.radius) == _bits(radius[kept])
        F = _Integrand(lambda z: np.zeros(z.shape), sites)

        def check(Z):
            nonlocal touched
            got = F.cutoff(Z)
            assert np.array_equal(got, _tree_cutoff(pos, radius, tree, Z))
            touched += int(np.count_nonzero(got < 1.0))
            return got

        _region_integral(check, max(r_prev, 0.0), R, 1e-4, 1e-4)
        r_prev = R
    assert touched > 0
    if family == "star":  # the mixed radii of the star near its centre
        assert radius.max() > 10.0 * radius.min()


@pytest.mark.parametrize("family", ["finite", "lattice", "chain", "parallel", "star", "sparse"])
def test_annulus_site_sets_change_no_certificate(monkeypatch, family):
    # each annulus keeps only the sites that can cut it; keeping every listed
    # site, as one search over the whole listing did, gives the same result
    make = {
        "finite": _two_site_mode,
        "lattice": _lattice2_mode,
        "chain": _chain_mode,
        "parallel": _parallel_mode,
        "star": _star_mode,
        "sparse": _sparse_sites,
    }[family]
    res = l2_norm_squared(make(), 1e-8, 1e-2)
    assert res.flag == CONVERGENT
    whole = verify._site_set
    monkeypatch.setattr(verify, "_site_set", lambda sites, lo, hi: whole(sites))
    assert l2_norm_squared(make(), 1e-8, 1e-2) == res


# ---------------------------------------------------------------------------
# full-plane quadrature


def _gaussian():
    return FakePsi(lambda z: -0.5 * math.pi * np.abs(z) ** 2, hint=DecayHint("gaussian", math.pi / 2))


def _gaussian_with_site():
    # |psi| = |z|^-0.5 exp(-|z|^2 / 2); integral of r^-1 e^{-r^2} dA = pi^{3/2}
    return FakePsi(
        lambda z: -0.5 * np.log(np.abs(z)) - 0.5 * np.abs(z) ** 2,
        sites=[(0.0, -0.5)],
        hint=DecayHint("gaussian", 0.5),
    )


def _power_tail():
    # |psi|^2 = (1 + r^2)^-1.2, plane integral pi / 0.2
    return FakePsi(lambda z: -0.6 * np.log1p(np.abs(z) ** 2), hint=DecayHint("power", 1.2))


def test_gaussian_plane_norm():
    psi = _gaussian()
    res = l2_norm_squared(psi, abs_tol=1e-10, rel_tol=1e-8)
    assert res.flag == CONVERGENT
    assert res.value == pytest.approx(1.0, rel=1e-7)
    # partial integrals are nondecreasing
    partials = [s for _, s in res.radii_trace]
    assert all(b >= a - 1e-15 for a, b in zip(partials, partials[1:]))


def test_gaussian_with_site():
    psi = _gaussian_with_site()
    res = l2_norm_squared(psi, abs_tol=1e-10, rel_tol=1e-7)
    assert res.flag == CONVERGENT
    assert res.value == pytest.approx(math.pi**1.5, rel=1e-6)


def test_algebraic_tail_extrapolation():
    psi = _power_tail()
    res = l2_norm_squared(psi, abs_tol=1e-9, rel_tol=1e-6)
    assert res.flag == CONVERGENT
    assert res.value == pytest.approx(5.0 * math.pi, rel=1e-5)
    assert res.radii_trace[-1][0] <= 512.0  # certified before the cap


@pytest.mark.parametrize(
    "make", [_gaussian, _gaussian_with_site, _power_tail], ids=["gaussian", "gaussian-with-site", "power-tail"]
)
@settings(max_examples=12, deadline=None)
@given(abs_tol=st.floats(1e-10, 1e-5), rel_tol=st.floats(1e-7, 1e-1))
# the power tail's fit once reported an error above its tolerance here
@example(abs_tol=1e-9, rel_tol=3.1622776601683794e-4)
# the tolerances of the plain calibrations above
@example(abs_tol=1e-10, rel_tol=1e-8)
@example(abs_tol=1e-10, rel_tol=1e-7)
@example(abs_tol=1e-9, rel_tol=1e-6)
def test_convergent_error_within_tolerance(make, abs_tol, rel_tol):
    res = l2_norm_squared(make(), abs_tol=abs_tol, rel_tol=rel_tol)
    if res.flag == CONVERGENT:
        assert res.error_estimate <= max(abs_tol, rel_tol * res.value)


def test_divergent_power_tail():
    psi = FakePsi(lambda z: -0.7 * np.log1p(np.abs(z)), hint=DecayHint("power", 0.7))
    res = l2_norm_squared(psi)
    assert res.flag == DIVERGENT
    assert res.error_estimate == math.inf


def test_divergent_growing_mode():
    psi = FakePsi(lambda z: 0.1 * np.abs(z) ** 2, hint=None)
    res = l2_norm_squared(psi)
    assert res.flag == DIVERGENT


def test_inconclusive_borderline():
    # |psi|^2 ~ r^-2: logarithmically divergent, increments neither grow by
    # 1.5 nor stagnate, and there is no usable hint
    psi = FakePsi(lambda z: -np.log1p(np.abs(z)), hint=None)
    res = l2_norm_squared(psi)
    assert res.flag == INCONCLUSIVE


def test_non_integrable_site_rejected():
    # integer exponents too, though only fractional ones get a site disc:
    # |z|^-2 over the unit disc diverges
    for expo in (-1.2, -1.0, -2.0):
        log_abs = lambda z, e=expo: e * np.log(np.abs(z))  # noqa: E731
        with pytest.raises(DomainError):
            l2_norm_squared(FakePsi(log_abs, sites=[(0.0, expo)]))
        with pytest.raises(DomainError):
            integrate_disc(log_abs, [(0j, expo)], 1.0)


def test_integrate_disc_pairs_and_sites_agree():
    def log_abs(z):
        return -0.3 * np.log(np.abs(z - 0.2)) - 0.25 * np.log(np.abs(z + 0.5j)) - 0.5 * np.abs(z) ** 2

    pairs = [(0.2 + 0j, -0.3), (-0.5j, -0.25), (1.5 + 0j, 2.0)]
    from_pairs = integrate_disc(log_abs, pairs, 2.0)
    from_sites = integrate_disc(log_abs, _sites(pairs), 2.0)
    assert _bits(from_pairs) == _bits(from_sites)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(0j, -0.5), (1.0 + 0j, -1.0)], "local exponent <= -1: |psi|^2 is not integrable"),
        ([(0j, -0.5), (1.0 + 0j, -0.5), (0j, 0.25)], "coincident singular sites"),
    ],
    ids=["exponent", "coincident"],
)
def test_site_set_messages(pairs, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _site_set(_sites(pairs))
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        integrate_disc(lambda z: np.zeros(z.shape), pairs, 2.0)


class AllSitesPsi:
    """Wave-function proxy listing every singular site at any radius."""

    def __init__(self, psi):
        self._psi = psi

    def singular_sites(self, r):
        return self._psi.singular_sites(math.inf)

    def __getattr__(self, name):
        return getattr(self._psi, name)


def test_site_radius_same_in_every_annulus():
    # the nearest neighbour of site 3.9 is 5.2, beyond the first annulus's
    # R + 1 = 5: when each annulus took its radii from its sites within R + 1,
    # site 3.9's disc was integrated with radius 0.39 and the next bulk was
    # cut with radius 0.13, so the ring between them counted twice
    sites = tuple(FluxSite(complex(x), 0.6) for x in (0.0, 3.9, 5.2))
    cfg, _ = normalize_fluxes(FluxConfiguration(finite_sites=sites))
    psi = build_zero_modes(cfg, decide(cfg, "+"), 1).generator(0)
    res = l2_norm_squared(psi, 1e-10, 1e-7)
    ref = l2_norm_squared(AllSitesPsi(psi), 1e-10, 1e-7)
    assert res.flag == ref.flag == CONVERGENT
    assert abs(res.value - ref.value) <= res.error_estimate


# ---------------------------------------------------------------------------
# residual reports


def _landau_plus(g):
    return FakePsi(
        log_abs=lambda z: -0.5 * g * np.abs(z) ** 2,
        value=lambda z: np.exp(-0.5 * g * np.abs(z) ** 2),
        vector_potential=lambda z: 1j * g * z,
        spin="+",
    )


def test_annihilation_order_two():
    rep = annihilation_residual(_landau_plus(1.0), ProbeRegion(0.0, 0.5, 1.5))
    assert rep.residual_norms[0] < 1e-3
    assert 1.8 <= rep.observed_order <= 2.2


def test_annihilation_detects_wrong_potential():
    psi = _landau_plus(1.0)
    psi._vp = lambda z: 0.5j * np.asarray(z, complex)  # wrong field strength
    rep = annihilation_residual(psi, ProbeRegion(0.0, 0.5, 1.5))
    assert rep.residual_norms[-1] > 1e-2
    assert rep.observed_order < 0.5


def test_annihilation_spin_minus():
    # psi = conj(z) exp(-g |z|^2 / 2) solves the spin-down equation for the
    # downward uniform field, a = (g y, -g x)
    g = 1.0
    psi = FakePsi(
        log_abs=lambda z: np.log(np.abs(z)) - 0.5 * g * np.abs(z) ** 2,
        value=lambda z: np.conj(z) * np.exp(-0.5 * g * np.abs(z) ** 2),
        vector_potential=lambda z: -1j * g * z,
        spin="-",
    )
    rep = annihilation_residual(psi, ProbeRegion(0.0, 0.5, 1.5))
    assert rep.residual_norms[0] < 1e-3
    assert 1.8 <= rep.observed_order <= 2.2


def test_annihilation_site_clearance():
    psi = _landau_plus(1.0)
    psi._sites = _sites([(0.89 + 0.11j, -0.5)])  # next to a probe point
    with pytest.raises(DomainError):
        annihilation_residual(psi, ProbeRegion(0.0, 0.5, 1.5))


class FakePhi:
    def __init__(self, value, xi0, sites=()):
        self._value = value
        self.uniform_flux_density = xi0
        self._sites = _sites(sites)

    def value(self, z):
        return self._value(np.asarray(z, dtype=complex))

    def singular_sites(self, r):
        keep = np.abs(self._sites.pos) <= r
        return Support(self._sites.pos[keep], self._sites.expo[keep])


def test_laplacian_residual():
    # phi = (pi xi0 / 2) |z|^2 + 0.3 ln|z - 2|: Laplacian 2 pi xi0 away from 2
    xi0 = 0.5
    phi = FakePhi(
        lambda z: 0.5 * math.pi * xi0 * np.abs(z) ** 2 + 0.3 * np.log(np.abs(z - 2.0)),
        xi0,
        sites=[(2.0, 0.3)],
    )
    rep = laplacian_residual(phi, ProbeRegion(0.0, 0.3, 0.9))
    assert rep.residual_norms[0] < 1e-2
    assert 1.7 <= rep.observed_order <= 2.3


# ---------------------------------------------------------------------------
# contour checks


class FakeField:
    """Vector potential of point fluxes plus a uniform component."""

    def __init__(self, sites, xi0=0.0):
        self.sites = sites
        self.xi0 = xi0

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = 1j * math.pi * self.xi0 * z
        for w, th in self.sites:
            out = out + 1j * th / np.conj(z - w)
        return out

    def singular_sites(self, r):
        pos = np.array([w for w, _ in self.sites], dtype=complex)
        theta = np.array([th for _, th in self.sites])
        keep = np.abs(pos) <= r
        return Support(pos[keep], theta[keep])


def test_loop_flux_single_site():
    field = FakeField([(0.3 + 0.2j, 0.3)])
    got = loop_flux(field, (0.0, 0.0, 1.0, 1.0))
    assert got == pytest.approx(2.0 * math.pi * 0.3, abs=1e-7)


def test_loop_flux_two_sites_and_uniform():
    field = FakeField([(0.25 + 0.5j, 0.3), (-0.5 - 0.25j, 0.45)], xi0=0.2)
    rect = (-1.0, -1.0, 1.0, 1.0)
    area = 4.0
    expected = 2.0 * math.pi * 0.75 + 2.0 * math.pi * 0.2 * area
    assert loop_flux(field, rect) == pytest.approx(expected, abs=1e-6)


def test_loop_flux_excludes_outside_site():
    field = FakeField([(0.3 + 0.2j, 0.3), (5.0 + 0.0j, 0.9)])
    got = loop_flux(field, (0.0, 0.0, 1.0, 1.0))
    assert got == pytest.approx(2.0 * math.pi * 0.3, abs=1e-7)


def test_loop_flux_boundary_site_rejected():
    field = FakeField([(1.0 + 0.5j, 0.3)])
    with pytest.raises(DomainError):
        loop_flux(field, (0.0, 0.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# growth estimation


def test_growth_exponential():
    est = growth_estimate(np.exp, np.geomspace(2.0, 60.0, 14))
    assert est.order == pytest.approx(1.0, abs=0.03)
    assert est.type == pytest.approx(1.0, rel=0.05)
    assert est.confidence == "high"


def test_growth_sigma_tilde_square():
    square = LatticeBasis(1.0, 1.0j)
    est = growth_estimate(
        lambda z: log_abs_sigma_tilde(square, z),
        np.geomspace(5.0, 40.0, 12),
        log_scale=True,
    )
    assert est.order == pytest.approx(2.0, abs=0.05)
    assert est.type == pytest.approx(math.pi / 2.0, rel=0.05)


def test_growth_gaussian_twist():
    # exp(-z^2) sigma(z) on the square lattice: nu = 0, so the order-2 type
    # is |0 - 1| + pi/2
    square = LatticeBasis(1.0, 1.0j)

    def la(z):
        z = np.asarray(z, dtype=complex)
        return np.real(-z**2 + log_sigma(square, z))

    est = growth_estimate(la, np.geomspace(4.0, 32.0, 12), log_scale=True)
    assert est.order == pytest.approx(2.0, abs=0.05)
    assert est.type == pytest.approx(1.0 + math.pi / 2.0, rel=0.05)


def test_growth_order_three():
    def la(z):
        z = np.asarray(z, dtype=complex)
        return np.real(log_sin(math.pi * z**3)) - 2.0 * np.log(np.abs(z))

    est = growth_estimate(la, np.geomspace(1.5, 14.0, 12), log_scale=True)
    assert est.order == pytest.approx(3.0, abs=0.1)


def test_growth_overflow_truncates():
    est = growth_estimate(np.exp, np.geomspace(2.0, 2000.0, 24))
    assert est.notice != ""
    assert est.order == pytest.approx(1.0, abs=0.05)


def test_growth_polynomial_is_order_zero_ish():
    est = growth_estimate(lambda z: z**3, np.geomspace(5.0, 80.0, 12))
    assert est.order < 0.5


def test_growth_grid_guards():
    with pytest.raises(DomainError):
        growth_estimate(np.exp, [1.0, 2.0, 3.0])  # too few points
    with pytest.raises(DomainError):
        growth_estimate(np.exp, np.linspace(10.0, 30.0, 10))  # span < 0.75 decades
