"""Potentials and zero-mode families: exponents, residuals, independence."""

import cmath
import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxmodes import ansatz
from fluxmodes.ansatz import (
    _ZERO_ORDER_TOL,
    ExoticSinc,
    Monomial,
    NoModesError,
    PointZeros,
    SigmaZeros,
    SincLine,
    SinZeros,
    StarSinc,
    StarZeros,
    alpha_default,
    build_divergence_candidate,
    build_scalar_potential,
    build_vector_potential,
    build_zero_modes,
    sample_grid,
)
from fluxmodes.config import (
    COINCIDENCE_TOL,
    AddedSet,
    ChainComponent,
    ConfigError,
    FluxConfiguration,
    FluxSite,
    LatticeComponent,
    Perturbation,
    StarComponent,
    Support,
    enumerate_support,
    has_nonparallel,
    mirror_configuration,
    normalize_fluxes,
)
from fluxmodes.decide import decide
from fluxmodes.special import (
    DomainError,
    LatticeBasis,
    chain_log_abs,
    log_abs_sigma_tilde,
    log_abs_sin,
    star_log_abs,
)
from fluxmodes.verify import (
    ProbeRegion,
    annihilation_residual,
    l2_norm_squared,
    laplacian_residual,
    loop_flux,
)

from test_special import _log_abs_sinc_sqrt_one  # the sinc pair's one-root oracle


def norm(config):
    out, _ = normalize_fluxes(config)
    return out


def site_map(obj, r) -> dict:
    """{position: flux or local exponent} of obj.singular_sites(r)."""
    sites = obj.singular_sites(r)
    values = sites.theta if isinstance(sites, Support) else sites.expo
    return dict(zip(sites.pos.tolist(), values.tolist()))


def finite(*pairs):
    return norm(FluxConfiguration(finite_sites=tuple(FluxSite(p, t) for p, t in pairs)))


def chain(omega0, *pairs):
    return ChainComponent(omega0, tuple(FluxSite(p, t) for p, t in pairs))


def lattice(w1, w2, *pairs):
    return LatticeComponent(LatticeBasis(w1, w2), tuple(FluxSite(p, t) for p, t in pairs))


def family(config, spin, count, **kw):
    return build_zero_modes(config, decide(config, spin), count, **kw)


TWO_SITES = finite((0.0, 0.6), (1.0, 0.6))
Z_CHAIN = norm(FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)),)))
SQUARE = norm(FluxConfiguration(lattices=(lattice(2.0, 2.0j, (0.0, 0.5)),)))


def ring_slope(psi, center, r):
    th = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    a = psi.log_abs(center + r * np.exp(1j * th)).mean()
    b = psi.log_abs(center + 2.0 * r * np.exp(1j * th)).mean()
    return (b - a) / math.log(2.0)


# ---------------------------------------------------------------------------
# scalar and vector potentials


def test_scalar_potential_requires_normalized():
    raw = FluxConfiguration(finite_sites=(FluxSite(0j, 1.6),))
    with pytest.raises(ConfigError):
        build_scalar_potential(raw)


def test_phi_laplacian_matches_field():
    cfg = norm(
        FluxConfiguration(
            uniform_flux_density=0.25,
            finite_sites=(FluxSite(0j, 0.5), FluxSite(1.5 + 0.5j, 0.3)),
        )
    )
    phi = build_scalar_potential(cfg)
    rep = laplacian_residual(phi, ProbeRegion(-2.0 - 2.0j, 0.2, 1.0))
    assert rep.observed_order == pytest.approx(2.0, abs=0.2)
    assert rep.residual_norms[-1] < 1e-5


def test_phi_minus_infinity_at_sites():
    phi = build_scalar_potential(TWO_SITES)
    assert phi.value(np.array([0j]))[0] == -math.inf
    assert np.isfinite(phi.value(np.array([0.5 + 0j]))[0])


def test_phi_singular_sites_weights():
    cfg = norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)),),
            perturbation=Perturbation(removed=(2.0,), added=(AddedSet((0.5 + 1j,), 0.3),)),
        )
    )
    phi = build_scalar_potential(cfg)
    sites = site_map(phi, 3.0)
    assert sites[0j] == pytest.approx(0.5)
    assert sites[0.5 + 1j] == pytest.approx(0.3)
    assert 2.0 + 0j not in sites  # removal cancels the chain weight exactly

    # phi's sites are the configuration's support: none lost, none added
    patched = norm(
        FluxConfiguration(
            lattices=SQUARE.lattices,
            perturbation=Perturbation(removed=(2.0 + 2.0j,), added=(AddedSet((1.0 + 0.3j,), 0.6),)),
        )
    )
    star = norm(FluxConfiguration(star=StarComponent(order=3, theta=0.5)))
    for cfg in (SQUARE, star, patched):
        sites = site_map(build_scalar_potential(cfg), 5.0)
        support = enumerate_support(cfg, 5.0)
        assert len(sites) == len(support)
        pos = np.array(list(sites))
        for p, theta in zip(support.pos, support.theta):
            near = pos[np.argmin(np.abs(pos - p))]
            assert abs(near - p) <= 1e-12 * max(1.0, abs(p))
            assert sites[complex(near)] == pytest.approx(theta)
    removed = 2.0 + 2.0j
    assert min(abs(p - removed) for p in site_map(build_scalar_potential(patched), 5.0)) > 1.0


def test_vector_potential_site_evaluation_rejected():
    a = build_vector_potential(build_scalar_potential(TWO_SITES))
    with pytest.raises(DomainError):
        a(np.array([0j]))


def test_vector_potential_components():
    a = build_vector_potential(build_scalar_potential(TWO_SITES))
    z = np.array([0.3 + 0.4j])
    ax, ay = a.components(z)
    v = a(z)
    assert ax[0] == pytest.approx(v[0].real)
    assert ay[0] == pytest.approx(v[0].imag)


def test_loop_flux_of_built_field():
    cfg = norm(
        FluxConfiguration(
            uniform_flux_density=0.25,
            finite_sites=(FluxSite(0j, 0.5), FluxSite(1.5 + 0.5j, 0.3)),
        )
    )
    a = build_vector_potential(build_scalar_potential(cfg))
    got = loop_flux(a, (-0.5, -0.5, 0.5, 0.5))
    assert got == pytest.approx(2.0 * math.pi * 0.5 + 2.0 * math.pi * 0.25, abs=1e-7)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.1, max_value=0.9),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda pt: (round(pt[0].real, 2), round(pt[0].imag, 2)),
    )
)
def test_value_matches_log_abs(pairs):
    pts = [p for p, _ in pairs]
    if len(pts) > 1 and min(
        abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1 :]
    ) < 0.1:
        return
    cfg = finite(*pairs)
    v = decide(cfg, "+")
    psi = (
        family(cfg, "+", 1).generator(0)
        if v.status == "ExistsFinite"
        else build_divergence_candidate(cfg, v)
    )
    z = np.array([2.7 + 1.9j, -3.1 + 0.4j, 0.2 - 2.6j])
    assert np.abs(psi.value(z)) == pytest.approx(np.exp(psi.log_abs(z)), rel=1e-10)


# ---------------------------------------------------------------------------
# finite families


def test_finite_family_monomial():
    fam = family(TWO_SITES, "+", 1)
    assert fam.f_recipe == "Monomial"
    assert fam.alpha_range is None
    assert fam.member_params == (("k", 0.0),)
    psi = fam.generator(0)
    assert psi.decay_hint.kind == "power"
    assert psi.decay_hint.rate == pytest.approx(1.2)


def test_finite_site_log_slopes():
    psi = family(TWO_SITES, "+", 1).generator(0)
    for r in (1e-2, 1e-3, 1e-4):
        assert ring_slope(psi, 0j, r) == pytest.approx(-0.6, rel=0.01)
        assert ring_slope(psi, 1.0 + 0j, r) == pytest.approx(-0.6, rel=0.01)


def test_finite_residual_order():
    psi = family(TWO_SITES, "+", 1).generator(0)
    rep = annihilation_residual(psi, ProbeRegion(0.5 + 0.3j, 2.0, 4.0))
    assert 1.8 <= rep.observed_order <= 2.2


def test_finite_norm_certified():
    res = l2_norm_squared(family(TWO_SITES, "+", 1).generator(0))
    assert res.flag == "Convergent"
    assert res.value == pytest.approx(27.484493, rel=1e-4)


def test_finite_truncation_notice():
    cfg = finite((0.0, 0.9), (1.0, 0.9), (2.0j, 0.9))
    fam = family(cfg, "+", 5)
    assert len(fam) == 2
    assert "truncated" in fam.notice
    assert [k for _, k in fam.member_params] == [0.0, 1.0]


def test_finite_spin_minus_exponents():
    cfg = finite((0.0, 0.3), (1.0, 0.4))
    fam = family(cfg, "-", 1)
    psi = fam.generator(0)
    sites = site_map(psi, 2.0)
    assert sites[0j] == pytest.approx(-0.7)  # theta - 1
    assert sites[1.0 + 0j] == pytest.approx(-0.6)
    assert psi.decay_hint.rate == pytest.approx(1.3)
    rep = annihilation_residual(psi, ProbeRegion(0.5 - 1.2j, 0.4, 0.9))
    assert 1.8 <= rep.observed_order <= 2.2


def test_divergence_candidate_finite():
    cfg = finite((0.0, 0.3), (1.0, 0.4))
    v = decide(cfg, "+")
    psi = build_divergence_candidate(cfg, v)
    assert psi.factor == ()
    # modulus is exp(-phi) exactly
    z = np.array([0.7 + 0.9j])
    assert psi.log_abs(z)[0] == pytest.approx(-psi.potential.value(z)[0])
    assert l2_norm_squared(psi).flag == "Divergent"


def test_divergence_candidate_requires_not_exists():
    with pytest.raises(NoModesError):
        build_divergence_candidate(TWO_SITES, decide(TWO_SITES, "+"))


def test_refusals():
    cfg = finite((0.0, 0.3), (1.0, 0.4))
    with pytest.raises(NoModesError):
        build_zero_modes(cfg, decide(cfg, "+"), 1)  # NotExists
    with pytest.raises(DomainError):
        build_zero_modes(TWO_SITES, decide(TWO_SITES, "+"), 0)


# ---------------------------------------------------------------------------
# chain families


def test_chain_alpha_grid():
    fam = family(Z_CHAIN, "+", 3)
    assert fam.f_recipe == "SincChain"
    tb = math.pi / 2.0
    assert fam.alpha_range == pytest.approx((0.0, tb))
    assert [a for _, a in fam.member_params] == pytest.approx([tb / 4, tb / 2, 3 * tb / 4])


def test_chain_alpha_override():
    fam = family(Z_CHAIN, "+", 2, alpha=0.3)
    assert fam.member_params[0][1] == pytest.approx(0.3)
    with pytest.raises(DomainError):
        family(Z_CHAIN, "+", 1, alpha=5.0)


def test_chain_residuals_and_hint():
    fam = family(Z_CHAIN, "+", 3)
    probe = ProbeRegion(0.4 + 1.2j, 0.2, 0.8)
    for psi in fam:
        assert psi.decay_hint == ("ring", -2.0)
        rep = annihilation_residual(psi, probe)
        assert 1.8 <= rep.observed_order <= 2.2


def test_chain_zero_site_coincidence():
    # alpha = pi/4 puts sinc zeros on every fourth chain site
    fam = family(Z_CHAIN, "+", 1, alpha=math.pi / 4.0)
    sites = site_map(fam.generator(0), 9.0)
    assert sites[4.0 + 0j] == pytest.approx(0.5)
    assert sites[1.0 + 0j] == pytest.approx(-0.5)
    assert sites[0j] == pytest.approx(-0.5)  # sinc has no zero at its own center


def test_chain_tail_bound_on_rays():
    fam = family(Z_CHAIN, "+", 3)
    tb = math.pi / 2.0
    rs = np.geomspace(2.0, 40.0, 12)
    for psi, (_, alpha) in zip(fam, fam.member_params):
        for ang in (math.pi / 3.0, math.pi / 2.0, 2.0 * math.pi / 3.0):
            z = rs * np.exp(1j * ang)
            lhs = psi.log_abs(z) + np.log(np.abs(z)) - (alpha - tb) * np.abs(z.imag)
            assert lhs.max() < 0.7  # |psi| <= 2 e^{(alpha - theta_bar)|y|} / |z|


def test_chain_members_independent():
    fam = family(Z_CHAIN, "+", 3)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-6.0, 6.0, 200) + 1j * rng.uniform(0.3, 3.0, 200)
    V = np.stack([m.value(pts) for m in fam], axis=1)
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    assert np.linalg.cond(V.conj().T @ V) < 1e12


def test_chain_spin_minus_matches_mirror_modulus():
    # theta = 0.5 is self-mirrored: |psi_-| must equal |psi_+| pointwise
    plus = family(Z_CHAIN, "+", 1).generator(0)
    minus = family(Z_CHAIN, "-", 1).generator(0)
    z = np.array([0.3 + 0.9j, -1.2 + 0.4j, 2.6 - 1.1j])
    assert minus.log_abs(z) == pytest.approx(plus.log_abs(z), rel=1e-12, abs=1e-12)
    rep = annihilation_residual(minus, ProbeRegion(0.4 + 1.2j, 0.2, 0.8))
    assert 1.8 <= rep.observed_order <= 2.2


_SPIN_MINUS_CASES = {
    "thm6.1": finite((0.0, 0.1), (1.0, 0.2), (1.5j, 0.3)),
    "thm6.4a": norm(FluxConfiguration(chains=(chain(1.0, (0.0, 0.3)), chain(math.sqrt(2.0), (0.3, 0.4))))),
    "thm7.1-over-6.4a": norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.3)), chain(math.sqrt(2.0), (0.3, 0.4))),
            perturbation=Perturbation(added=(AddedSet((0.5 + 1.5j,), 0.4),)),
        )
    ),
    "thm7.1-loose-site": norm(
        FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)),), finite_sites=(FluxSite(0.5 + 1.5j, 0.4),))
    ),
    "thm6.8": norm(FluxConfiguration(uniform_flux_density=-0.1, lattices=(lattice(2.0, 2.0j, (0.0, 0.3)),))),
}


@pytest.mark.parametrize("name", sorted(_SPIN_MINUS_CASES))
def test_spin_minus_family_is_built_from_its_verdict(name, monkeypatch):
    # the spin '-' family applies its own verdict's recipe to the mirror:
    # the same recipe as the mirror's spin '+' family, with no decide call
    cfg = _SPIN_MINUS_CASES[name]
    verdict = decide(cfg, "-")
    mirror = decide(mirror_configuration(cfg), "+")
    assert verdict.exists

    def refuse(*args, **kwargs):
        raise AssertionError("build_zero_modes decided a question again")

    monkeypatch.setattr(importlib.import_module("fluxmodes.decide"), "decide", refuse)
    monkeypatch.setattr(ansatz, "decide", refuse, raising=False)
    minus = build_zero_modes(cfg, verdict, 3)
    plus = build_zero_modes(mirror_configuration(cfg), mirror, 3)
    assert (minus.f_recipe, minus.alpha_range, minus.member_params, minus.notice) == (
        plus.f_recipe, plus.alpha_range, plus.member_params, plus.notice
    )
    # psi_- = exp(+phi) conj(f_mirror / W): the factor is the mirror's plus 1/W
    for m, p in zip(minus, plus):
        assert m.factor[: len(p.factor)] == p.factor
        assert m.decay_hint == p.decay_hint


def test_nonparallel_chains_exponential_hint():
    cfg = norm(
        FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)), chain(1.0j, (0.5 + 0.25j, 0.5))))
    )
    psi = family(cfg, "+", 1).generator(0)
    assert psi.decay_hint.kind == "exponential"
    res = l2_norm_squared(psi, 1e-8, 1e-4)
    assert res.flag == "Convergent"


def test_collinear_incommensurable_small_flux():
    cfg = norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.4)), chain(math.pi, (0.5, 0.4)))
        )
    )
    v = decide(cfg, "+")
    assert v.condition_values["conditionIndex"] == 1.0
    fam = build_zero_modes(cfg, v, 2)
    upper = min(math.pi * 0.4 / 1.0, math.pi * 0.4 / math.pi)
    assert fam.alpha_range == pytest.approx((0.0, upper))
    for psi in fam:
        assert psi.decay_hint == ("ring", -4.0)
        res = l2_norm_squared(psi, 1e-8, 1e-4)
        assert res.flag == "Convergent"


def test_collinear_ratio_condition_factor():
    cfg = norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.8)), chain(math.pi, (0.5, 0.9)))
        )
    )
    v = decide(cfg, "+")
    assert v.condition_values["conditionIndex"] == 2.0
    fam = build_zero_modes(cfg, v, 1)
    psi = fam.generator(0)
    upper = math.pi - math.pi * (0.2 / 1.0 + 0.1 / math.pi)
    assert fam.alpha_range == pytest.approx((0.0, upper))
    sites = site_map(psi, 4.0)
    assert sites[0j] == pytest.approx(-0.8)  # lead chain keeps -theta
    assert sites[0.5 + 0j] == pytest.approx(0.1)  # second chain gets 1 - theta
    rep = annihilation_residual(psi, ProbeRegion(0.25 + 1.5j, 0.2, 1.0))
    assert 1.8 <= rep.observed_order <= 2.2


@pytest.mark.parametrize("case", ["collinear-ratio", "s7.4-lattices-ratio"])
def test_condition_3_builds_the_condition_2_recipe(case):
    # condition 3 holds only for a pair with sum theta >= 1, where the
    # condition 2 construction applies: one sinc or monomial factor, the
    # other component as an arm
    cfg = FOLD_CASES[case]
    v = decide(cfg, "+")
    assert v.condition_values["conditionIndex"] == 2.0
    v3 = replace(v, condition_values={**v.condition_values, "conditionIndex": 3.0})
    want, got = build_zero_modes(cfg, v, 2), build_zero_modes(cfg, v3, 2)
    assert (got.f_recipe, got.alpha_range, got.member_params) == (
        want.f_recipe, want.alpha_range, want.member_params
    )
    assert [(m.factor, m.decay_hint) for m in got] == [(m.factor, m.decay_hint) for m in want]
    assert len(got.generator(0).factor) == 2


# ---------------------------------------------------------------------------
# lattice and Landau families


def test_lattice_polynomial_family():
    fam = family(SQUARE, "+", 3)
    assert fam.f_recipe == "Polynomial"
    mu = math.pi / 8.0
    for psi in fam:
        assert psi.decay_hint == ("gaussian", pytest.approx(mu * 0.5))
    sites = site_map(fam.generator(2), 1.0)
    assert sites[0j] == pytest.approx(2 - 0.5)  # z^2 against the site at 0


def test_lattice_members_independent():
    fam = family(SQUARE, "+", 3)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.0, 3.0, 200) + 1j * rng.uniform(-3.0, 3.0, 200)
    keep = np.ones(pts.shape, bool)
    for p in site_map(fam.generator(0), 5.0):
        keep &= np.abs(pts - p) > 0.1
    pts = pts[keep]
    V = np.stack([m.value(pts) for m in fam], axis=1)
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    assert np.linalg.cond(V.conj().T @ V) < 1e12


def test_landau_lattice_rates():
    base = replace(SQUARE, uniform_flux_density=0.3 / 4.0)
    cfg = norm(base)
    mu = math.pi / 8.0
    psi = family(cfg, "+", 1).generator(0)
    assert psi.decay_hint == ("gaussian", pytest.approx(mu * 0.8))
    minus = family(cfg, "-", 1).generator(0)
    assert minus.decay_hint == ("gaussian", pytest.approx(mu * (1 - 0.8)))


def test_landau_lattice_negative_field_spin_plus():
    cfg = norm(replace(SQUARE, uniform_flux_density=-0.3 / 4.0))
    v = decide(cfg, "+")
    assert v.status == "ExistsInfinite"
    psi = family(cfg, "+", 1).generator(0)
    assert psi.decay_hint == ("gaussian", pytest.approx(math.pi / 8.0 * 0.2))
    res = l2_norm_squared(psi, 1e-8, 1e-5)
    assert res.flag == "Convergent"


def test_landau_general_product_factor():
    cfg = norm(
        FluxConfiguration(
            uniform_flux_density=0.25,
            finite_sites=(FluxSite(0j, 0.5), FluxSite(1.5 + 0.5j, 0.3)),
        )
    )
    fam = family(cfg, "+", 2)
    assert fam.f_recipe == "Polynomial"
    sites = site_map(fam.generator(0), 3.0)
    # canonical product contributes a simple zero on every site: 1 - theta
    assert sites[0j] == pytest.approx(0.5)
    assert sites[1.5 + 0.5j] == pytest.approx(0.7)
    for psi in fam:
        rep = annihilation_residual(psi, ProbeRegion(-2.0 - 2.0j, 0.2, 1.0))
        assert 1.8 <= rep.observed_order <= 2.2
    v = decide(cfg, "-")
    assert v.status == "NotExists"
    assert l2_norm_squared(build_divergence_candidate(cfg, v)).flag == "Divergent"


# ---------------------------------------------------------------------------
# perturbed and star families


def test_move_inherits_base_recipe():
    cfg = norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)),),
            perturbation=Perturbation(removed=(2.0,), added=(AddedSet((2.2 + 0.4j,), 0.5),)),
        )
    )
    fam = family(cfg, "+", 1)
    assert fam.f_recipe == "SincChain"
    psi = fam.generator(0)
    assert psi.decay_hint == ("ring", -2.0)
    sites = site_map(psi, 3.0)
    assert sites[2.2 + 0.4j] == pytest.approx(-0.5)
    assert 2.0 + 0j not in sites
    rep = annihilation_residual(psi, ProbeRegion(0.4 + 1.3j, 0.15, 0.6))
    assert 1.8 <= rep.observed_order <= 2.2


def test_additions_shift_power_hint():
    cfg = norm(
        FluxConfiguration(
            finite_sites=(FluxSite(0j, 0.6), FluxSite(1.0 + 0j, 0.6)),
            perturbation=Perturbation(added=(AddedSet((0.5 + 2.0j,), 0.7),)),
        )
    )
    psi = family(cfg, "+", 1).generator(0)
    assert psi.decay_hint == ("power", pytest.approx(1.2 + 0.7))
    assert site_map(psi, 3.0)[0.5 + 2.0j] == pytest.approx(-0.7)


def test_exotic_parallel_member():
    added = AddedSet(points=(2.3 + 1.7j, -3.1 + 2.4j, 0.7 - 2.2j), theta=0.9)
    cfg = norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)), chain(2.0, (0.5, 0.5))),
            perturbation=Perturbation(removed=(0.5,), added=(added,)),
        )
    )
    v = decide(cfg, "+")
    assert v.theorem == "Thm 7.4"
    fam = build_zero_modes(cfg, v, 1, alpha=0.4)
    assert fam.f_recipe == "ExoticParallel"
    assert fam.alpha_range == pytest.approx((0.0, 3.0 * math.pi / 4.0))
    psi = fam.generator(0)
    assert psi.decay_hint.kind == "exp_sqrt"
    sites = site_map(psi, 3.0)
    assert sites[2.3 + 1.7j] == pytest.approx(1.0 - 0.9)
    assert 0.5 + 0j not in sites
    rep = annihilation_residual(psi, ProbeRegion(0.25 + 0.85j, 0.1, 0.4))
    assert 1.8 <= rep.observed_order <= 2.2


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.05, 3.0),
    st.floats(-math.pi, math.pi),
    st.floats(-2.0, 2.0),
    st.lists(st.builds(complex, st.floats(-400.0, 400.0), st.floats(-400.0, 400.0)), min_size=1, max_size=40),
)
def test_exotic_sinc_log_abs_matches_two_square_roots(alpha, turn, shift, points):
    piece = ExoticSinc(alpha, complex(math.cos(turn), math.sin(turn)), shift)
    z = np.array(points, dtype=complex)
    u = alpha * piece._w(z)
    pu = math.pi * u
    with np.errstate(divide="ignore", invalid="ignore"):
        num = log_abs_sin(u) - np.log(np.abs(u))
        num = np.where(np.abs(u) <= COINCIDENCE_TOL, 0.0, num)
    want = num - _log_abs_sinc_sqrt_one(pu) - _log_abs_sinc_sqrt_one(-pu) - math.log(math.pi)
    assert piece.log_abs(z).tobytes() == want.tobytes()


def test_nonparallel_perturbed_member():
    cfg = norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)), chain(1.0j, (0.3 + 0.5j, 0.5))),
            perturbation=Perturbation(removed=(0.0,)),
        )
    )
    v = decide(cfg, "+")
    assert v.theorem == "Thm 7.3"
    psi = family(cfg, "+", 1).generator(0)
    assert psi.decay_hint.kind == "exponential"
    res = l2_norm_squared(psi, 1e-8, 1e-4)
    assert res.flag == "Convergent"


def test_patched_lattice_member():
    cfg = norm(
        FluxConfiguration(
            lattices=(lattice(2.0, 2.0j, (0.0, 0.5)),),
            perturbation=Perturbation(removed=(0.0,), added=(AddedSet((1.0 + 0.3j,), 0.6),)),
        )
    )
    v = decide(cfg, "+")
    assert v.theorem == "§8.4 theorem"
    psi = family(cfg, "+", 1).generator(0)
    sites = site_map(psi, 3.0)
    assert 0j not in sites
    assert sites[1.0 + 0.3j] == pytest.approx(0.4)
    assert sites[2.0 + 0j] == pytest.approx(-0.5)
    rep = annihilation_residual(psi, ProbeRegion(-1.0 - 1.0j, 0.1, 0.55))
    assert 1.8 <= rep.observed_order <= 2.2


def test_star_family_both_spins():
    cfg = norm(FluxConfiguration(star=StarComponent(order=3, theta=0.5)))
    fam = family(cfg, "+", 1, alpha=math.pi / 4.0)
    assert fam.alpha_range == pytest.approx((0.0, math.pi / 2.0))
    psi = fam.generator(0)
    assert psi.decay_hint == ("ring", pytest.approx(-6.0))
    sites = site_map(psi, 1.7)
    assert sites[0j] == pytest.approx(-0.5)
    cube4 = 4.0 ** (1.0 / 3.0)
    assert sites[complex(cube4, 0.0)] == pytest.approx(0.5)  # sinc zero on the site
    rep = annihilation_residual(psi, ProbeRegion(0.5 + 0.3j, 0.1, 0.3))
    assert 1.8 <= rep.observed_order <= 2.2
    minus = family(cfg, "-", 1).generator(0)
    rep = annihilation_residual(minus, ProbeRegion(0.5 + 0.3j, 0.1, 0.3))
    assert 1.8 <= rep.observed_order <= 2.2


# ---------------------------------------------------------------------------
# shared machinery


def test_alpha_default():
    assert alpha_default((0.0, math.pi / 2.0)) == pytest.approx(math.pi / 4.0)
    assert alpha_default((0.0, 0.1)) == pytest.approx(0.05)
    with pytest.raises(DomainError):
        alpha_default((0.5, 0.5))


def test_sample_grid_marks_sites():
    psi = family(TWO_SITES, "+", 1).generator(0)
    g = sample_grid(psi, (-1.0, 1.0), (-0.5, 0.5), 5, 3)
    assert g.shape == (3, 5)
    assert g[1, 2] == math.inf  # site at the origin
    assert np.isfinite(g[0, 0])


def test_family_generator_and_iteration():
    fam = family(Z_CHAIN, "+", 2)
    assert len(fam) == 2
    assert list(fam)[1] is fam.generator(1)
    assert fam.spin == "+"
    assert fam.notice == ""


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.floats(min_value=0.15, max_value=0.85))
def test_monomial_member_slope_at_origin(k, theta):
    cfg = finite((0.0, theta), (1.0, 0.95))
    v = decide(cfg, "+")
    if v.status != "ExistsFinite" or v.multiplicity <= k:
        return
    psi = build_zero_modes(cfg, v, k + 1).generator(k)
    assert ring_slope(psi, 0j, 1e-3) == pytest.approx(k - theta, abs=0.01)


def test_sample_grid_removed_lattice_site():
    # site 0 of the lattice is removed: sigma_tilde's zero meets 1/z there,
    # and |psi| is finite and continuous at the node
    cfg = norm(
        FluxConfiguration(
            lattices=(lattice(2.0, 2.0j, (0.0, 0.5)),),
            perturbation=Perturbation(removed=(0.0,), added=(AddedSet((1.0 + 0.3j,), 0.6),)),
        )
    )
    ring = 1e-3 * np.exp(0.5j * math.pi * np.arange(4))
    for spin, expected in (("+", 1.0174), ("-", 1.0262)):
        psi = family(cfg, spin, 1).generator(0)
        g = sample_grid(psi, (-2.0, 2.0), (-2.0, 2.0), 5, 5)
        assert g[2, 2] == pytest.approx(expected, abs=1e-4)
        assert g[2, 2] == pytest.approx(psi.magnitude(ring).mean(), rel=1e-5)
        assert not np.isnan(g).any()


@pytest.mark.parametrize("tilt, parallel", [(1e-10, True), (1e-8, False)])
def test_parallel_chains_shared_tolerance(tilt, parallel):
    # direction ratio with imaginary part `tilt`: decide (Thm 7.4 against
    # 7.3) and the ansatz (ring against exponential decay) must agree
    chains = (chain(1.0, (0.0, 0.5)), chain(cmath.exp(1j * tilt), (0.5j, 0.5)))
    assert has_nonparallel(chains) is not parallel
    moved = norm(FluxConfiguration(chains=chains, perturbation=Perturbation(removed=(0.0,))))
    assert decide(moved, "+").theorem == ("Thm 7.4" if parallel else "Thm 7.3")
    psi = family(norm(FluxConfiguration(chains=chains)), "+", 1).generator(0)
    assert psi.decay_hint.kind == ("ring" if parallel else "exponential")


# ---------------------------------------------------------------------------
# one evaluation per entire function: the merged ln|psi| against the sum of
# every phi and factor term taken separately, straight from the kernels

FOLD_CASES = {
    "finite": TWO_SITES,
    "finite-weak": finite((0.0, 0.3), (1.0, 0.4)),
    "chain": Z_CHAIN,
    "collinear": norm(
        FluxConfiguration(chains=(chain(1.0, (0.0, 0.4)), chain(math.pi, (0.5, 0.4))))
    ),
    "collinear-ratio": norm(
        FluxConfiguration(chains=(chain(1.0, (0.0, 0.8)), chain(math.pi, (0.5, 0.9))))
    ),
    "lattice": SQUARE,
    "s7.4-lattices": norm(
        FluxConfiguration(
            lattices=(
                lattice(1.0, 1.0j, (0.0, 0.3)),
                lattice(math.sqrt(2.0), math.sqrt(2.0) * 1j, (0.1 + 0.1j, 0.3)),
            )
        )
    ),
    "thm6.7": norm(
        FluxConfiguration(
            uniform_flux_density=0.25,
            finite_sites=(FluxSite(0j, 0.5), FluxSite(1.5 + 0.5j, 0.3)),
        )
    ),
    "thm6.8": norm(replace(SQUARE, uniform_flux_density=0.3 / 4.0)),
    "thm6.8-divergent": norm(replace(SQUARE, uniform_flux_density=0.7 / 4.0)),
    "perturbed-move": norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)),),
            perturbation=Perturbation(removed=(2.0,), added=(AddedSet((2.2 + 0.4j,), 0.5),)),
        )
    ),
    "perturbed-added": norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)),),
            perturbation=Perturbation(added=(AddedSet((0.5 + 1.0j,), 0.3),)),
        )
    ),
    "perturbed-nonparallel": norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)), chain(1.0j, (0.3 + 0.5j, 0.5))),
            perturbation=Perturbation(removed=(0.0,)),
        )
    ),
    "parallel-exotic": norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)), chain(2.0, (0.5, 0.5))),
            perturbation=Perturbation(
                removed=(0.5,), added=(AddedSet((2.3 + 1.7j, -3.1 + 2.4j, 0.7 - 2.2j), 0.9),)
            ),
        )
    ),
    "patched": norm(
        FluxConfiguration(
            lattices=(lattice(2.0, 2.0j, (0.0, 0.5)),),
            perturbation=Perturbation(removed=(0.0,), added=(AddedSet((1.0 + 0.3j,), 0.6),)),
        )
    ),
    "s7.4-lattices-ratio": norm(
        FluxConfiguration(
            lattices=(
                lattice(1.0, 1.0j, (0.0, 0.7)),
                lattice(math.sqrt(2.0), math.sqrt(2.0) * 1j, (0.1 + 0.1j, 0.6)),
            )
        )
    ),
    "star": norm(FluxConfiguration(star=StarComponent(order=3, theta=0.5))),
}


def member_or_candidate(cfg, spin):
    v = decide(cfg, spin)
    if v.status == "NotExists":
        return build_divergence_candidate(cfg, v)
    return build_zero_modes(cfg, v, 1).generator(0)


def kernel_log_abs(piece, z):
    """ln|piece| of a zero set from its special kernel; other pieces as given."""
    if isinstance(piece, PointZeros):
        return np.log(np.abs(z - piece.position))
    if isinstance(piece, SinZeros):
        d = piece.omega0 / abs(piece.omega0)
        return chain_log_abs(abs(piece.omega0), piece.kappa / d, z / d)
    if isinstance(piece, SigmaZeros):
        return log_abs_sigma_tilde(piece.basis, z - piece.kappa)
    if isinstance(piece, StarZeros):
        return star_log_abs(piece.order, z / piece.scale)
    return piece.log_abs(z)


def phi_reference(cfg, z):
    out = 0.5 * math.pi * cfg.uniform_flux_density * np.abs(z) ** 2
    for s in cfg.finite_sites:
        out = out + s.theta * np.log(np.abs(z - s.position))
    for ch in cfg.chains:
        d = ch.direction
        for s in ch.offsets:
            out = out + s.theta * chain_log_abs(abs(ch.omega0), s.position / d, z / d)
    for lat in cfg.lattices:
        for s in lat.offsets:
            out = out + s.theta * log_abs_sigma_tilde(lat.basis, z - s.position)
    if cfg.star is not None:
        out = out + cfg.star.theta * star_log_abs(cfg.star.order, z / cfg.star.scale)
    if cfg.perturbation is not None:
        base = enumerate_support(replace(cfg, perturbation=None), 10.0)
        for p in cfg.perturbation.removed:
            theta = next(t for w, t in zip(base.pos, base.theta) if abs(w - p) < 1e-9)
            out = out - theta * np.log(np.abs(z - p))
        for grp in cfg.perturbation.added:
            for p in grp.points:
                out = out + grp.theta * np.log(np.abs(z - p))
    return out


@pytest.mark.parametrize("spin", ["+", "-"])
@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_merged_log_abs_matches_term_by_term(case, spin):
    cfg = FOLD_CASES[case]
    psi = member_or_candidate(cfg, spin)
    rng = np.random.default_rng(sorted(FOLD_CASES).index(case))
    z = rng.uniform(-3.5, 3.5, 200) + 1j * rng.uniform(-3.5, 3.5, 200)
    near = list(site_map(psi.potential, 6.0))
    if cfg.perturbation is not None:
        near += list(cfg.perturbation.removed)
    z = z[np.min(np.abs(z[:, None] - np.array(near)[None, :]), axis=1) > 1e-3]
    sign = -1.0 if spin == "+" else 1.0
    ref = sign * phi_reference(cfg, z)
    for piece, power in psi.factor:
        ref = ref + power * kernel_log_abs(piece, z)
    got = psi.log_abs(z)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    # the exponents singular_sites reports are the slopes of ln|psi| at the sites
    for p, e in site_map(psi, 2.5).items():
        assert ring_slope(psi, p, 1e-5) == pytest.approx(e, abs=1e-3)


def test_spin_minus_lattice_evaluates_sigma_once(monkeypatch):
    # phi's theta ln|sigma_tilde| and the factor's 1/sigma_tilde are one term
    calls = []
    kernel = ansatz.log_abs_sigma_tilde

    def counted(basis, z):
        calls.append(np.size(z))
        return kernel(basis, z)

    monkeypatch.setattr(ansatz, "log_abs_sigma_tilde", counted)
    z = np.array([0.3 + 0.7j, 1.1 - 0.4j, -2.5 + 0.2j])
    for case in ("thm6.8", "thm6.8-divergent"):
        psi = member_or_candidate(FOLD_CASES[case], "-")
        calls.clear()
        psi.log_abs(z)
        assert calls == [3]


# ---------------------------------------------------------------------------
# site arrays against the per-site loop they replace


def _zero_order_at(piece, p: complex) -> int:
    """The zero order of one piece at one point, as computed site by site
    before the pieces took arrays."""
    if isinstance(piece, PointZeros):
        return 1 if abs(p - piece.position) <= COINCIDENCE_TOL else 0
    if isinstance(piece, Monomial):
        return piece.k if abs(p) <= COINCIDENCE_TOL else 0
    if isinstance(piece, SinZeros):
        u = (complex(p) - piece.kappa) / piece.omega0
        return 1 if abs(u.imag) <= _ZERO_ORDER_TOL and abs(u.real - round(u.real)) <= _ZERO_ORDER_TOL else 0
    if isinstance(piece, SigmaZeros):
        w1, w2 = piece.basis.omega1, piece.basis.omega2
        s = np.imag(np.conj(w1) * w2)
        d = complex(p) - piece.kappa
        t1 = np.imag(np.conj(d) * w2) / s
        t2 = np.imag(np.conj(w1) * d) / s
        return 1 if abs(t1 - round(t1)) <= _ZERO_ORDER_TOL and abs(t2 - round(t2)) <= _ZERO_ORDER_TOL else 0
    if isinstance(piece, StarZeros):
        w = complex(p) / piece.scale
        if abs(w) <= COINCIDENCE_TOL:
            return 1
        u = w**piece.order
        return 1 if abs(u.imag) <= _ZERO_ORDER_TOL and abs(u.real - round(u.real)) <= _ZERO_ORDER_TOL else 0
    if isinstance(piece, StarSinc):
        u = (complex(p) / piece.scale) ** piece.order
        if abs(u) <= COINCIDENCE_TOL or abs(u.imag) > _ZERO_ORDER_TOL:
            return 0
        k = round(piece.alpha * u.real / math.pi)
        return 1 if k != 0 and abs(piece.alpha * u.real - math.pi * k) <= _ZERO_ORDER_TOL else 0
    # SincLine and ExoticSinc: sin(alpha w) on the real w-axis, k != 0
    w = complex(piece._w(np.asarray(p, dtype=complex)))
    if abs(w.imag) > _ZERO_ORDER_TOL:
        return 0
    k = round(piece.alpha * w.real / math.pi)
    if k == 0 or abs(piece.alpha * w.real - math.pi * k) > _ZERO_ORDER_TOL:
        return 0
    if isinstance(piece, ExoticSinc):
        root = math.isqrt(abs(k))
        return 0 if root * root == abs(k) else 1
    return 1


def _tuple_sites(psi, r) -> list:
    """(position, exponent) of psi's fractional sites, site by site."""
    sites = psi.potential.singular_sites(r)
    out = []
    for p, w in zip(sites.pos.tolist(), sites.theta.tolist()):
        e = psi._sign * w
        for piece, power in psi.factor:
            if power:
                e += power * _zero_order_at(piece, p)
        if abs(e - round(e)) > COINCIDENCE_TOL:
            out.append((p, e))
    return out


# added points 0.5 and 2 zero-order tolerances off a removed site's zero, in
# the reduced coordinate of the lattice (step 2) and of the chain (step 1)
NEAR_ZERO_CASES = {
    "patched-near": norm(
        FluxConfiguration(
            lattices=(lattice(2.0, 2.0j, (0.0, 0.5)),),
            perturbation=Perturbation(
                removed=(0.0, 2.0 + 0j),
                added=(AddedSet((complex(2.0 * 0.5 * _ZERO_ORDER_TOL), 2.0 + 2.0j * 2.0 * _ZERO_ORDER_TOL), 0.6),),
            ),
        )
    ),
    "perturbed-near": norm(
        FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)), chain(1.0j, (0.3 + 0.5j, 0.5))),
            perturbation=Perturbation(
                removed=(2.0 + 0j, 3.0 + 0j),
                added=(AddedSet((2.0 + 0.5j * _ZERO_ORDER_TOL, 3.0 + 2.0 * _ZERO_ORDER_TOL), 0.5),),
            ),
        )
    ),
}


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("spin", ["+", "-"])
@pytest.mark.parametrize("case", sorted(FOLD_CASES) + sorted(NEAR_ZERO_CASES))
def test_site_arrays_match_tuple_sites_bitwise(case, spin):
    cfg = {**FOLD_CASES, **NEAR_ZERO_CASES}[case]
    v = decide(cfg, spin)
    if v.status == "NotExists":
        members = [build_divergence_candidate(cfg, v)]
    elif v.status.startswith("Exists"):
        members = list(build_zero_modes(cfg, v, 3))
    else:
        pytest.skip(f"verdict {v.status}: no wave function")
    for psi in members:
        got = psi.singular_sites(6.0)
        want = _tuple_sites(psi, 6.0)
        assert len(want) > 0
        assert got.pos.dtype == complex and got.expo.dtype == float
        assert _bits(got.pos) == _bits(np.array([p for p, _ in want], dtype=complex))
        assert _bits(got.expo) == _bits(np.array([e for _, e in want]))


def test_near_zero_sites_count_only_within_tolerance():
    # spin '-' divides by W: an added point 0.5 tolerances off a zero of W
    # takes its order, one 2 tolerances off does not
    for case, near, far in [("patched-near", 1e-7, 2.0 + 4e-7j), ("perturbed-near", 2.0 + 5e-8j, 3.0 + 2e-7)]:
        cfg = NEAR_ZERO_CASES[case]
        sites = site_map(member_or_candidate(cfg, "-"), 6.0)
        assert sites[near] == pytest.approx(sites[far] - 1.0)


def _near_zero_points(zeros, along: float, to_z) -> np.ndarray:
    """Points 0, 0.5 and 2 zero-order tolerances off each zero of a piece's
    reduced coordinate v, along the real v-axis (where `along` is one unit of
    the coordinate the tolerance applies to) and across it; `to_z` maps v to z."""
    off = np.array([0.0, 0.5, -0.5, 2.0, -2.0]) * _ZERO_ORDER_TOL
    v = np.asarray(zeros, dtype=complex)[:, None] + np.concatenate([off * along, off[1:] * 1j])
    return to_z(v.ravel())


@pytest.mark.parametrize(
    "piece, points",
    [
        (PointZeros(0.3 + 0.2j), 0.3 + 0.2j + np.array([0.0, 5e-10, 2e-9, 1e-9j, 3e-9j])),
        (Monomial(2), np.array([0.0, 5e-10, 2e-9, 1e-9j, 3e-9j, 1.0])),
        (SinZeros(0.8 + 0.6j, 0.1j), _near_zero_points(range(-2, 3), 1.0, lambda v: 0.1j + (0.8 + 0.6j) * v)),
        (
            SigmaZeros(LatticeBasis(2.0, 0.5 + 2.0j), 0.25j),
            _near_zero_points([0, 1, 1 + 1j, -2 - 1j], 1.0, lambda v: 0.25j + 2.0 * v.real + (0.5 + 2.0j) * v.imag),
        ),
        (StarZeros(3, 1.0), _near_zero_points([0, 1, -2, 5], 1.0, lambda v: v ** (1 / 3))),
        (SincLine(0.5 * math.pi, 0.5j, 1j), _near_zero_points(2.0 * np.arange(-2, 3), 2.0 / math.pi, lambda v: 0.5j + 1j * v)),
        (StarSinc(0.5 * math.pi, 3, 1.0), _near_zero_points(2.0 * np.arange(-2, 3), 2.0 / math.pi, lambda v: v ** (1 / 3))),
        (ExoticSinc(math.pi, 1.0, 0.5), _near_zero_points(np.arange(-4, 5), 1.0 / math.pi, lambda v: v - 0.5j)),
    ],
    ids=["point", "monomial", "sin", "sigma", "star", "sinc-line", "star-sinc", "exotic"],
)
def test_piece_zero_orders_match_per_site(piece, points):
    got = piece.zero_orders(points)
    want = [_zero_order_at(piece, p) for p in points.tolist()]
    assert got.tolist() == want
    assert 0 in want and max(want) > 0
