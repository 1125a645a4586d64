"""Decision catalog: structural guards, sharp thresholds, dualities."""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from fluxmodes.config import (
    AddedSet,
    ChainComponent,
    ConfigError,
    FluxConfiguration,
    FluxSite,
    LatticeComponent,
    Perturbation,
    StarComponent,
    config_from_dict,
    enumerate_support,
    line_groups,
    mirror_configuration,
    normalize_fluxes,
    uniformly_discrete,
)
from fluxmodes.ansatz import build_zero_modes
from fluxmodes.decide import (
    EXISTS_FINITE,
    EXISTS_INFINITE,
    NOT_EXISTS,
    UNKNOWN,
    ZeroModeVerdict,
    decide,
)
from fluxmodes.special import LatticeBasis

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def finite(*pairs):
    return FluxConfiguration(finite_sites=tuple(FluxSite(p, t) for p, t in pairs))


def chain(omega0, *pairs):
    return ChainComponent(omega0, tuple(FluxSite(p, t) for p, t in pairs))


def lattice(w1, w2, *pairs):
    return LatticeComponent(LatticeBasis(w1, w2), tuple(FluxSite(p, t) for p, t in pairs))


# ---------------------------------------------------------------------------
# verdict object


def test_verdict_validation():
    with pytest.raises(ValueError):
        ZeroModeVerdict("+", EXISTS_FINITE, "Thm 6.1")  # missing multiplicity
    with pytest.raises(ValueError):
        ZeroModeVerdict("+", EXISTS_INFINITE, "Thm 6.3", multiplicity=2)
    with pytest.raises(ValueError):
        ZeroModeVerdict("+", NOT_EXISTS, "")  # decided verdicts cite a source
    with pytest.raises(ValueError):
        ZeroModeVerdict("x", NOT_EXISTS, "Thm 6.1")
    v = ZeroModeVerdict("-", EXISTS_FINITE, "Thm 6.1", {"sumTheta": 2.5}, multiplicity=2)
    doc = v.to_dict()
    assert doc["status"] == EXISTS_FINITE
    assert doc["multiplicity"] == 2
    assert doc["conditionValues"]["sumTheta"] == 2.5
    assert ZeroModeVerdict("+", UNKNOWN, "").to_dict()["theorem"] == ""


def test_decide_requires_normalized_flux():
    with pytest.raises(ConfigError):
        decide(finite((0.0, 1.5)), "+")
    cfg, _ = normalize_fluxes(finite((0.0, 1.5)))
    assert decide(cfg, "+") == decide(finite((0.0, 0.5)), "+")


def test_decide_rejects_bad_spin():
    with pytest.raises(ValueError):
        decide(finite((0.0, 0.5)), "up")


# ---------------------------------------------------------------------------
# R1: finite arrangements


def test_finite_multiplicity():
    cfg = finite((0.0, 0.9), (1.0, 0.8), (2.0j, 0.8))
    v = decide(cfg, "+")
    assert v.status == EXISTS_FINITE
    assert v.theorem == "Thm 6.1"
    assert v.multiplicity == 2  # degrees 0 and 1 stay below sum - 1 = 1.5
    assert v.condition_values["sumTheta"] == pytest.approx(2.5)
    w = decide(cfg, "-")
    assert w.status == NOT_EXISTS  # mirrored excess 3 - 2.5 - 1 < 0


def test_finite_integer_excess():
    cfg = finite((0.0, 0.8), (1.0, 0.7), (1.0j, 0.5))
    v = decide(cfg, "+")
    assert v.status == EXISTS_FINITE and v.multiplicity == 1  # excess exactly 1
    assert decide(cfg, "-").status == NOT_EXISTS  # excess exactly 0: boundary


@pytest.mark.parametrize(
    "thetas, spin",
    [((0.6, 0.7, 0.7), "-"), ((0.1, 0.2, 0.7), "+")],
    ids=["minus", "plus"],
)
def test_finite_threshold_from_correctly_rounded_sum(thetas, spin):
    # the fluxes sum to 2 and to 1: excess 0, the sharp boundary, in the spin
    # asked; summed in order they give 1.9999999999999998 and
    # 1.0000000000000002, an excess of about 2e-16 and a false ExistsFinite
    cfg = finite(*zip((0.0, 1.0, 1.0j), thetas))
    v = decide(cfg, spin)
    assert (v.status, v.theorem, v.multiplicity) == (NOT_EXISTS, "Thm 6.1", None)
    assert v.condition_values["sumTheta"] == thetas[0] + thetas[1] + thetas[2]  # reported as before


def test_finite_boundary_half_half():
    cfg = finite((0.0, 0.5), (1.0, 0.5))
    assert decide(cfg, "+").status == NOT_EXISTS
    assert decide(cfg, "-").status == NOT_EXISTS


def test_finite_single_site():
    cfg = finite((0.3 + 0.1j, 0.6))
    assert decide(cfg, "+").status == NOT_EXISTS
    assert decide(cfg, "-").status == NOT_EXISTS


def test_empty_configuration():
    assert decide(FluxConfiguration(), "+").status == NOT_EXISTS


# ---------------------------------------------------------------------------
# R2/R3: chains


def test_single_chain():
    cfg = FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)),))
    for spin in "+-":
        v = decide(cfg, spin)
        assert v.status == EXISTS_INFINITE
        assert v.theorem == "Thm 6.3"


def test_commensurable_collinear_chains_are_discrete():
    # periods 1 and 2 on one line: the union is uniformly discrete, so the
    # discrete-chain rule settles it before the collinear catalog is reached
    cfg = FluxConfiguration(chains=(chain(1.0, (0.0, 0.6)), chain(2.0, (0.5, 0.6))))
    v = decide(cfg, "+")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 6.3"


def test_incommensurable_collinear_small_flux():
    cfg = FluxConfiguration(chains=(chain(1.0, (0.0, 0.3)), chain(SQRT2, (0.3, 0.3))))
    v = decide(cfg, "+")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 6.4"
    assert v.condition_values["conditionIndex"] == 1.0  # sum theta < 1
    w = decide(cfg, "-")
    assert w.status == EXISTS_INFINITE
    assert w.theorem == "Thm 6.4a"
    assert w.condition_values["conditionIndex"] == 2.0


def test_incommensurable_collinear_unknown():
    cfg = FluxConfiguration(
        chains=(
            chain(1.0, (0.0, 0.34)),
            chain(SQRT2, (0.3, 0.33)),
            chain(SQRT3, (0.45, 0.34)),
        )
    )
    v = decide(cfg, "+")
    assert v.status == UNKNOWN
    assert v.condition_values["conditionIndex"] == 0.0
    w = decide(cfg, "-")  # mirrored fluxes satisfy the weighted-sum condition
    assert w.status == EXISTS_INFINITE
    assert w.theorem == "Thm 6.4a"


def test_incommensurable_collinear_offsets_ulps_apart():
    # periods 1 and sqrt 2 on one line whose offsets lie 1.8e-16 apart across
    # it: one line for decide and ansatz alike, so the union is dense in the
    # line and the collinear catalog decides, not the discrete-chain rule
    u = complex(-0.9447974800351602, 0.327654882031706)
    assert abs(u) == pytest.approx(1.0)
    doc = {
        "chains": [
            {"omega0": [w.real, w.imag], "offsets": [{"kappa": k, "theta": t}]}
            for w, k, t in (
                (u, [0.1057981189526307, 0.8151790776227912], 0.3),
                (SQRT2 * u, [-0.5149563675333964, 1.0304561526978246], 0.4),
            )
        ]
    }
    assert doc["chains"][1]["omega0"] == [-1.3361454099616472, 0.4633739779469952]
    cfg, _ = normalize_fluxes(config_from_dict(doc))
    across = ((cfg.chains[1].offsets[0].position - cfg.chains[0].offsets[0].position) / u).imag
    assert 0.0 < abs(across) < 1e-15
    assert len(line_groups(cfg.chains)) == 1
    assert uniformly_discrete(cfg) == (False, 0.0)
    v = decide(cfg, "+")
    assert (v.status, v.theorem) == (EXISTS_INFINITE, "Thm 6.4")
    assert v.condition_values["conditionIndex"] == 1.0
    w = decide(cfg, "-")
    assert (w.status, w.theorem) == (EXISTS_INFINITE, "Thm 6.4a")
    assert w.condition_values["conditionIndex"] == 2.0
    # ansatz builds the collinear recipe: one sinc line per chain
    fam = build_zero_modes(cfg, v, 1)
    lines = [piece for piece, _ in fam.generator(0).factor]
    assert [type(p).__name__ for p in lines] == ["SincLine", "SincLine"]
    assert fam.alpha_range == pytest.approx((0.0, math.pi * 0.4 / math.sqrt(2.0)))


def test_chain_on_two_lines_meets_incommensurable_chain():
    # the period-1 chain's offsets lie on two parallel lines; the period
    # sqrt 2 chain shares the first, so their union there is dense
    cfg = FluxConfiguration(
        chains=(
            chain(1.0, (0.0, 0.3), (0.5j, 0.3)),
            chain(SQRT2, (0.3, 0.3)),
        )
    )
    assert uniformly_discrete(cfg) == (False, 0.0)
    for spin in "+-":
        v = decide(cfg, spin)
        assert v.status == UNKNOWN
        assert v.condition_values["minGap"] == 0.0


def test_multi_atom_incommensurable_chains_unknown():
    cfg = FluxConfiguration(
        chains=(
            chain(1.0, (0.0, 0.3), (0.25, 0.3)),
            chain(SQRT2, (0.7, 0.3)),
        )
    )
    assert decide(cfg, "+").status == UNKNOWN


# ---------------------------------------------------------------------------
# R4/R5: lattices


def test_single_lattice():
    cfg = FluxConfiguration(lattices=(lattice(1.0, 1.0j, (0.0, 0.5)),))
    for spin in "+-":
        v = decide(cfg, spin)
        assert v.status == EXISTS_INFINITE
        assert v.theorem == "Thm 6.5"


def test_commensurable_lattice_union():
    cfg = FluxConfiguration(
        lattices=(
            lattice(1.0, 1.0j, (0.0, 0.4)),
            lattice(1.0, 1.0j, (0.5 + 0.5j, 0.3)),
        )
    )
    v = decide(cfg, "+")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 6.New"


def test_incommensurable_lattices_small_flux():
    cfg = FluxConfiguration(
        lattices=(
            lattice(1.0, 1.0j, (0.0, 0.3)),
            lattice(SQRT2, SQRT2 * 1.0j, (0.1 + 0.1j, 0.3)),
        )
    )
    v = decide(cfg, "+")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "§7.4 lattice theorem"
    assert v.condition_values["conditionIndex"] == 1.0
    w = decide(cfg, "-")
    assert w.status == EXISTS_INFINITE
    assert w.condition_values["conditionIndex"] == 2.0


def test_incommensurable_lattices_weighted_condition():
    cfg = FluxConfiguration(
        lattices=(
            lattice(1.0, 1.0j, (0.0, 0.9)),
            lattice(SQRT2, SQRT2 * 1.0j, (0.1 + 0.1j, 0.3)),
        )
    )
    v = decide(cfg, "+")
    assert v.status == EXISTS_INFINITE
    assert v.condition_values["conditionIndex"] == 2.0


def test_equal_area_incommensurable_lattices_unknown():
    rot = complex(math.cos(0.7), math.sin(0.7))
    cfg = FluxConfiguration(
        lattices=(
            lattice(1.0, 1.0j, (0.0, 0.5)),
            lattice(rot, 1.0j * rot, (0.1 + 0.1j, 0.5)),
        )
    )
    v = decide(cfg, "+")
    assert v.status == UNKNOWN
    assert v.condition_values["conditionIndex"] == 0.0
    assert decide(cfg, "-").status == UNKNOWN


@pytest.mark.parametrize("thetas", [(0.5, 0.5), (0.25, 0.75), (0.3, 0.7)])
def test_equal_area_lattice_pair_summing_to_one_unknown(thetas):
    # condition 3 of §7.4 needs two different areas, unlike Thm 6.4's, so an
    # equal-area pair whose fluxes sum to 1 for both spins meets no condition
    rot = complex(math.cos(0.3), math.sin(0.3))
    lats = (lattice(1.0, 1.0j, (0.0, thetas[0])), lattice(rot, 1.0j * rot, (0.1 + 0.1j, thetas[1])))
    assert lats[0].basis.area == lats[1].basis.area
    cfg = FluxConfiguration(lattices=lats)
    for spin in "+-":
        seen = thetas if spin == "+" else [1.0 - t for t in thetas]
        assert sum(seen) == 1.0
        v = decide(cfg, spin)
        assert (v.status, v.theorem) == (UNKNOWN, "§7.4 lattice theorem")
        assert v.condition_values["conditionIndex"] == 0.0


@pytest.mark.parametrize("spin, theorem", [("+", "Thm 6.4"), ("-", "Thm 6.4a")])
def test_chain_periods_near_a_large_denominator_meet_condition_2(spin, theorem):
    # a period ratio within 1e-13 of a fraction of large denominator: the
    # pair is not uniformly discrete, and its one-atom rule answers
    cfg = FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)), chain(1.666078511551902, (0.3, 0.5))))
    v = decide(cfg, spin)
    assert (v.status, v.theorem) == (EXISTS_INFINITE, theorem)
    assert v.condition_values["conditionIndex"] == 2.0


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["chains", "lattices"]),
    ratio=st.floats(1.01, 8.0),
    thetas=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
)
def test_one_atom_pair_with_flux_sum_at_least_one_meets_condition_2(kind, ratio, thetas):
    # with measures m1 < m2 and t1 + t2 >= 1, t1 / m1 > (1 - t2) / m2: the
    # weighted-sum condition 2 holds before the pair condition 3 is tried
    if kind == "chains":
        cfg = FluxConfiguration(chains=(chain(1.0, (0.0, thetas[0])), chain(ratio, (0.3, thetas[1]))))
        theorems = {"+": "Thm 6.4", "-": "Thm 6.4a"}
    else:
        side = math.sqrt(ratio)
        lats = (lattice(1.0, 1.0j, (0.0, thetas[0])), lattice(side, side * 1j, (0.1 + 0.2j, thetas[1])))
        cfg = FluxConfiguration(lattices=lats)
        theorems = {"+": "§7.4 lattice theorem", "-": "§7.4 lattice theorem"}
    # neither reaches the one-atom rule: a commensurable pair, which is
    # uniformly discrete, and a pair sharing a site, which config refuses
    try:
        assume(not uniformly_discrete(cfg)[0])
    except ConfigError as exc:
        assert "duplicate site" in str(exc)
        reject()
    for spin in "+-":
        seen = thetas if spin == "+" else [1.0 - t for t in thetas]
        v = decide(cfg, spin)
        assert (v.status, v.theorem) == (EXISTS_INFINITE, theorems[spin])
        assert v.condition_values["conditionIndex"] == (2.0 if sum(seen) >= 1.0 else 1.0)


def test_multi_atom_incommensurable_lattices_unknown():
    cfg = FluxConfiguration(
        lattices=(
            lattice(1.0, 1.0j, (0.0, 0.3), (0.5, 0.3)),
            lattice(SQRT2, SQRT2 * 1.0j, (0.1 + 0.1j, 0.3)),
        )
    )
    assert decide(cfg, "+").status == UNKNOWN


def test_mixed_components_unknown():
    cfg = FluxConfiguration(
        chains=(chain(1.0, (0.0, 0.4)),),
        lattices=(lattice(3.0, 3.0j, (1.5 + 1.5j, 0.4)),),
    )
    v = decide(cfg, "+")
    assert v.status == UNKNOWN
    assert v.condition_values.get("mixedComponents") == 1.0


# ---------------------------------------------------------------------------
# R6: uniform field plus one lattice


def test_landau_lattice_aligned():
    cfg = FluxConfiguration(
        uniform_flux_density=0.3, lattices=(lattice(1.0, 1.0j, (0.0, 0.5)),)
    )
    v = decide(cfg, "+")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 6.8"
    assert v.condition_values["eta0"] == pytest.approx(0.3)


def test_landau_lattice_unaligned_threshold():
    base = lattice(1.0, 1.0j, (0.0, 0.5))
    small = FluxConfiguration(uniform_flux_density=0.3, lattices=(base,))
    assert decide(small, "-").status == EXISTS_INFINITE  # 0.3 + 0.5 < 1
    large = FluxConfiguration(uniform_flux_density=0.7, lattices=(base,))
    assert decide(large, "-").status == NOT_EXISTS  # 0.7 + 0.5 >= 1
    boundary = FluxConfiguration(uniform_flux_density=0.5, lattices=(base,))
    assert decide(boundary, "-").status == NOT_EXISTS  # equality fails


def test_landau_lattice_negative_field():
    base = lattice(1.0, 1.0j, (0.0, 0.5))
    cfg = FluxConfiguration(uniform_flux_density=-0.3, lattices=(base,))
    assert decide(cfg, "-").status == EXISTS_INFINITE  # aligned
    assert decide(cfg, "+").status == EXISTS_INFINITE  # |eta0| < sum theta
    deep = FluxConfiguration(uniform_flux_density=-0.7, lattices=(base,))
    assert decide(deep, "+").status == NOT_EXISTS


# ---------------------------------------------------------------------------
# R7: uniform field plus finite-type sets


def test_pure_uniform_field():
    cfg = FluxConfiguration(uniform_flux_density=0.4)
    v = decide(cfg, "+")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 6.7"
    assert decide(cfg, "-").status == NOT_EXISTS


def test_field_with_finite_sites():
    # a finite set has genus 0, so the finite-type rule applies sharply
    cfg = FluxConfiguration(
        uniform_flux_density=0.4, finite_sites=(FluxSite(0.0, 0.5), FluxSite(2.0, 0.3))
    )
    v = decide(cfg, "+", r_max=50.0)
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 6.7"
    assert decide(cfg, "-", r_max=50.0).status == NOT_EXISTS


def test_field_with_chain():
    cfg = FluxConfiguration(
        uniform_flux_density=0.3, chains=(chain(1.0, (0.0, 0.5)),)
    )
    v = decide(cfg, "+", r_max=100.0)
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 6.7"
    assert v.condition_values["genus"] <= 1.0
    assert decide(cfg, "-", r_max=100.0).status == NOT_EXISTS


def test_field_with_two_lattices_needs_large_field():
    cfg = FluxConfiguration(
        uniform_flux_density=0.2,
        lattices=(
            lattice(1.0, 1.0j, (0.0, 0.5)),
            lattice(SQRT2, SQRT2 * 1.0j, (0.1 + 0.1j, 0.5)),
        ),
    )
    v = decide(cfg, "+", r_max=80.0)
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 6.7"
    assert v.condition_values.get("requiresLargeB0") == 1.0
    assert v.condition_values["b0ThresholdEstimate"] > 0.0
    assert decide(cfg, "-", r_max=80.0).status == NOT_EXISTS


# ---------------------------------------------------------------------------
# R8: perturbations


def test_finite_with_perturbation_folds_exactly():
    cfg = FluxConfiguration(
        finite_sites=(FluxSite(0.0, 0.9),),
        perturbation=Perturbation(added=(AddedSet((1.0, 2.0j), 0.8),)),
    )
    v = decide(cfg, "+")
    assert v.theorem == "Thm 6.1"  # sharp rule, not inheritance
    assert v.status == EXISTS_FINITE and v.multiplicity == 2


def test_move_inherits_both_ways():
    base = lattice(1.0, 1.0j, (0.0, 0.6))
    moved = FluxConfiguration(
        lattices=(base,),
        perturbation=Perturbation(removed=(0.0,), added=(AddedSet((0.3 + 0.2j,), 0.6),)),
    )
    v = decide(moved, "+")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 7.1"

    # a move on a no-zero-mode background keeps nonexistence
    landau = FluxConfiguration(
        uniform_flux_density=0.5,
        lattices=(lattice(1.0, 1.0j, (0.0, 0.5)),),
        perturbation=Perturbation(removed=(0.0,), added=(AddedSet((0.3 + 0.3j,), 0.5),)),
    )
    assert decide(landau, "-").status == NOT_EXISTS
    assert decide(landau, "-").theorem == "Thm 7.1"


def test_removed_point_must_be_a_site():
    cfg = FluxConfiguration(
        lattices=(lattice(1.0, 1.0j, (0.0, 0.6)),),
        perturbation=Perturbation(removed=(0.25,)),
    )
    with pytest.raises(ConfigError):
        decide(cfg, "+")


def test_additions_inherit_existence():
    cfg = FluxConfiguration(
        chains=(chain(1.0, (0.0, 0.5)),),
        perturbation=Perturbation(added=(AddedSet((0.5 + 0.5j, -1.5j, 2.2 + 1.0j), 0.4),)),
    )
    v = decide(cfg, "+")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 7.1"
    assert v.condition_values["nAdded"] == 3.0


def test_star_base_additions_inherit():
    cfg = FluxConfiguration(
        star=StarComponent(3, 0.5),
        perturbation=Perturbation(added=(AddedSet((0.5 + 0.5j,), 0.3),)),
    )
    assert decide(cfg, "+").status == EXISTS_INFINITE


def test_chain_removal_scarce_parallel():
    cfg = FluxConfiguration(
        chains=(chain(1.0, (0.0, 0.5)),),
        perturbation=Perturbation(removed=(0.0, 1.0)),
    )
    v = decide(cfg, "+")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 7.4"
    assert v.condition_values["nRemoved"] == 2.0


def test_chain_removal_nonparallel():
    cfg = FluxConfiguration(
        chains=(chain(1.0, (0.0, 0.5)), chain(1.0j, (0.5j, 0.5))),
        perturbation=Perturbation(removed=(0.0,)),
    )
    v = decide(cfg, "+")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "Thm 7.3"


# removals along one chain whose exponent estimate lies within the slack of
# 1/2, so Thm 7.4 asks whether the root-scaled count saturates: k^2 for
# k = 1..14 counts floor(sqrt r), saturated (14 / sqrt 200 = 7 / sqrt 50);
# five sites from 50 on count 1 by r = 50 and 5 by r = 200, still growing
@pytest.mark.parametrize(
    "removed, status, theorem, tau, low",
    [
        (tuple(float(k * k) for k in range(1, 15)), EXISTS_INFINITE, "Thm 7.4", 0.5441533213811228, False),
        ((50.0, 53.0, 56.0, 59.0, 62.0), UNKNOWN, "", 0.5068377022401763, True),
    ],
    ids=["squares-saturate", "late-sites-grow"],
)
def test_chain_removal_near_half_exponent_counts(removed, status, theorem, tau, low):
    cfg = FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)),), perturbation=Perturbation(removed=removed))
    for spin in "+-":
        v = decide(cfg, spin)
        assert (v.status, v.theorem) == (status, theorem)
        assert abs(v.condition_values["tauPrime"] - 0.5) <= 0.05
        assert v.condition_values["tauPrime"] == pytest.approx(tau, rel=1e-12)
        assert v.condition_values == {
            "nRemoved": float(len(removed)),
            "nAdded": 0.0,
            "perturbationGenus": 0.0,
            "tauPrime": v.condition_values["tauPrime"],
            **({"lowConfidence": 1.0} if low else {}),
        }


def test_lattice_removal():
    cfg = FluxConfiguration(
        lattices=(lattice(1.0, 1.0j, (0.0, 0.5)),),
        perturbation=Perturbation(removed=(0.0, 1.0)),
    )
    v = decide(cfg, "-")
    assert v.status == EXISTS_INFINITE
    assert v.theorem == "§8.4 theorem"


def test_additions_on_undecided_base_stay_unknown():
    cfg = FluxConfiguration(
        chains=(
            chain(1.0, (0.0, 0.34)),
            chain(SQRT2, (0.3, 0.33)),
            chain(SQRT3, (0.45, 0.34)),
        ),
        perturbation=Perturbation(added=(AddedSet((1.5j,), 0.4),)),
    )
    assert decide(cfg, "+").status == UNKNOWN


# ---------------------------------------------------------------------------
# R9: star


def test_star_both_spins():
    cfg = FluxConfiguration(star=StarComponent(3, 0.5))
    for spin in "+-":
        v = decide(cfg, spin)
        assert v.status == EXISTS_INFINITE
        assert v.theorem == "§7.5 theorem"
        assert v.condition_values["order"] == 3.0


def test_star_with_field_unknown():
    cfg = FluxConfiguration(uniform_flux_density=0.2, star=StarComponent(3, 0.5))
    assert decide(cfg, "+").status == UNKNOWN


# ---------------------------------------------------------------------------
# invariances


def _translate(cfg: FluxConfiguration, t: complex) -> FluxConfiguration:
    return replace(
        cfg,
        finite_sites=tuple(FluxSite(s.position + t, s.theta) for s in cfg.finite_sites),
        chains=tuple(
            ChainComponent(c.omega0, tuple(FluxSite(s.position + t, s.theta) for s in c.offsets))
            for c in cfg.chains
        ),
        lattices=tuple(
            LatticeComponent(l.basis, tuple(FluxSite(s.position + t, s.theta) for s in l.offsets))
            for l in cfg.lattices
        ),
        perturbation=None
        if cfg.perturbation is None
        else Perturbation(
            tuple(p + t for p in cfg.perturbation.removed),
            tuple(AddedSet(tuple(p + t for p in a.points), a.theta) for a in cfg.perturbation.added),
        ),
    )


def _rotate(cfg: FluxConfiguration, phase: complex) -> FluxConfiguration:
    return replace(
        cfg,
        finite_sites=tuple(FluxSite(s.position * phase, s.theta) for s in cfg.finite_sites),
        chains=tuple(
            ChainComponent(
                c.omega0 * phase,
                tuple(FluxSite(s.position * phase, s.theta) for s in c.offsets),
            )
            for c in cfg.chains
        ),
        lattices=tuple(
            LatticeComponent(
                LatticeBasis(l.basis.omega1 * phase, l.basis.omega2 * phase),
                tuple(FluxSite(s.position * phase, s.theta) for s in l.offsets),
            )
            for l in cfg.lattices
        ),
    )


_SAMPLE_CONFIGS = [
    finite((0.0, 0.9), (1.0, 0.8), (2.0j, 0.8)),
    FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)),)),
    FluxConfiguration(chains=(chain(1.0, (0.0, 0.3)), chain(SQRT2, (0.3, 0.3)))),
    FluxConfiguration(
        lattices=(
            lattice(1.0, 1.0j, (0.0, 0.3)),
            lattice(SQRT2, SQRT2 * 1.0j, (0.1 + 0.1j, 0.3)),
        )
    ),
    FluxConfiguration(uniform_flux_density=0.3, lattices=(lattice(1.0, 1.0j, (0.0, 0.5)),)),
]


@pytest.mark.parametrize("idx", range(len(_SAMPLE_CONFIGS)))
def test_translation_invariance(idx):
    cfg = _SAMPLE_CONFIGS[idx]
    moved = _translate(cfg, 0.21 + 0.13j)
    for spin in "+-":
        a = decide(cfg, spin)
        b = decide(moved, spin)
        assert (a.status, a.theorem, a.multiplicity) == (b.status, b.theorem, b.multiplicity)


@pytest.mark.parametrize("idx", range(len(_SAMPLE_CONFIGS)))
def test_rotation_invariance(idx):
    cfg = _SAMPLE_CONFIGS[idx]
    phase = complex(math.cos(0.6), math.sin(0.6))
    turned = _rotate(cfg, phase)
    for spin in "+-":
        a = decide(cfg, spin)
        b = decide(turned, spin)
        assert (a.status, a.theorem, a.multiplicity) == (b.status, b.theorem, b.multiplicity)


@pytest.mark.parametrize("idx", range(len(_SAMPLE_CONFIGS)))
def test_spin_flip_duality(idx):
    cfg = _SAMPLE_CONFIGS[idx]
    down = decide(cfg, "-")
    up_mirror = decide(mirror_configuration(cfg), "+")
    assert down.status == up_mirror.status
    assert down.multiplicity == up_mirror.multiplicity


# ---------------------------------------------------------------------------
# spin '-' verdicts are the spin '+' verdicts of the mirror: ansatz builds a
# spin '-' family by applying the verdict's recipe to the mirror, and a
# Thm 7.1 family from the base verdict the verdict carries

# decimal fluxes put flux sums on integers, where rounding could split a verdict
_THETA = st.one_of(st.floats(0.01, 0.99), st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]))
_GENERIC = (0.37 + 0.61j, -1.23 + 0.41j, 2.09 - 1.57j)  # off every generated site


@st.composite
def _finite_sets(draw):
    cells = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=5, unique=True))
    return finite(*((complex(x, 0.5 * y), draw(_THETA)) for x, y in cells))


@st.composite
def _chain_pairs(draw):
    # the second chain shares the first one's line, runs parallel to it or
    # crosses it
    where = draw(st.sampled_from([(1.0, 0.3), (1.0, 0.3), (1.0, 0.3 + 0.5j), (1j, 0.3), (1 + 1j, 0.3)]))
    ratio = draw(st.floats(0.3, 3.0)) * draw(st.sampled_from([1.0, SQRT2, SQRT3]))
    return FluxConfiguration(
        chains=(chain(1.0, (0.0, draw(_THETA))), chain(ratio * where[0], (where[1], draw(_THETA))))
    )


@st.composite
def _lattice_pairs(draw):
    side = math.sqrt(draw(st.one_of(st.floats(1.05, 6.0), st.sampled_from([2.0, 4.0]))))
    return FluxConfiguration(
        lattices=(
            lattice(1.0, 1.0j, (0.0, draw(_THETA))),
            lattice(side, side * 1j, (0.1 + 0.2j, draw(_THETA))),
        )
    )


@st.composite
def _landau_lattices(draw):
    xi0 = draw(st.floats(0.02, 1.5)) * draw(st.sampled_from([1.0, -1.0]))
    side = draw(st.floats(0.7, 2.0))
    atoms = [(0.0, draw(_THETA))] + ([(0.5 * side * (1 + 1j), draw(_THETA))] if draw(st.booleans()) else [])
    return FluxConfiguration(uniform_flux_density=xi0, lattices=(lattice(side, side * 1j, *atoms),))


@st.composite
def _perturbed(draw):
    base = draw(
        st.sampled_from(
            [
                FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)),)),
                FluxConfiguration(chains=(chain(1.0, (0.0, 0.3)), chain(1j, (0.5 + 0.5j, 0.6)))),
                FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)), chain(2.0, (0.5j, 0.5)))),
                FluxConfiguration(chains=(chain(1.0, (0.0, 0.3)), chain(SQRT2, (0.3, 0.4)))),
                FluxConfiguration(lattices=(lattice(1.0, 1.0j, (0.0, 0.6)),)),
                FluxConfiguration(
                    lattices=(lattice(1.0, 1.0j, (0.0, 0.3)), lattice(SQRT2, SQRT2 * 1j, (0.1 + 0.1j, 0.3)))
                ),
            ]
        )
    )
    theta = draw(_THETA)
    removed = (0.0,) if draw(st.booleans()) else ()
    points = _GENERIC[: draw(st.integers(0 if removed else 1, 3))]
    if removed and points and draw(st.booleans()):
        # a move: the added point carries the removed site's flux
        points, theta = points[:1], enumerate_support(base, 1.0).theta_at(removed)[0]
    added = (AddedSet(points, theta),) if points else ()
    xi0 = draw(st.sampled_from([0.0, 0.0, 0.3, -0.3])) if len(base.lattices) == 1 else 0.0
    return replace(base, uniform_flux_density=xi0, perturbation=Perturbation(removed, added))


_MIRROR_FAMILIES = {
    "finite": _finite_sets(),
    "chain-pairs": _chain_pairs(),
    "lattice-pairs": _lattice_pairs(),
    "landau-lattice": _landau_lattices(),
    "perturbed": _perturbed(),
}


def _recipe_key(v: ZeroModeVerdict):
    """What ansatz builds a family from."""
    theorem = "Thm 6.4" if v.theorem == "Thm 6.4a" else v.theorem
    return v.status, theorem, v.condition_values.get("conditionIndex"), v.multiplicity


@pytest.mark.parametrize("family", sorted(_MIRROR_FAMILIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_spin_minus_verdict_is_the_mirror_spin_plus_verdict(family, data):
    cfg = data.draw(_MIRROR_FAMILIES[family])
    try:
        cfg, _ = normalize_fluxes(cfg)
        down = decide(cfg, "-")
    except ConfigError:
        reject()
    up = decide(mirror_configuration(cfg), "+")
    assert _recipe_key(down) == _recipe_key(up)
    if down.theorem == "Thm 7.1":
        assert (down.base.spin, up.base.spin) == ("-", "+")
        assert _recipe_key(down.base) == _recipe_key(up.base)
    else:
        assert down.base is None and up.base is None


def test_inherited_verdict_carries_its_base_unreported():
    cfg = FluxConfiguration(
        chains=(chain(1.0, (0.0, 0.5)),),
        perturbation=Perturbation(added=(AddedSet((0.5 + 1.5j,), 0.4),)),
    )
    base_cfg = replace(cfg, perturbation=None)
    for spin in "+-":
        v = decide(cfg, spin)
        assert v.theorem == "Thm 7.1"
        assert v.base == decide(base_cfg, spin)
        assert "base" not in v.to_dict()
        assert v == replace(v, base=None)  # equality ignores the base


@st.composite
def _perturbed_chains(draw):
    # a chain pair (uniformly discrete or not) or one multi-atom chain, with
    # sites of the first chain removed and generic points added
    base = draw(
        st.one_of(
            _chain_pairs(),
            st.builds(
                lambda t1, t2: FluxConfiguration(chains=(chain(1.0, (0.0, t1), (0.5 + 0.25j, t2)),)), _THETA, _THETA
            ),
        )
    )
    removed = tuple(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), max_size=3, unique=True)))
    points = _GENERIC[: draw(st.integers(0 if removed else 1, 3))]
    added = (AddedSet(points, draw(_THETA)),) if points else ()
    return replace(base, perturbation=Perturbation(removed, added))


_COLLINEAR_REMOVED = FluxConfiguration(
    chains=(chain(1.0, (0.0, 0.3)), chain(SQRT2, (0.3, 0.4))), perturbation=Perturbation(removed=(0.0,))
)


@settings(max_examples=200, deadline=None)
@given(cfg=_perturbed_chains(), spin=st.sampled_from("+-"))
# not uniformly discrete, a site removed: its base verdict is Thm 6.4 or 6.4a
@example(cfg=_COLLINEAR_REMOVED, spin="+")
@example(cfg=_COLLINEAR_REMOVED, spin="-")
def test_perturbed_chains_take_uniform_discreteness_from_the_base_verdict(cfg, spin):
    # R8 reads the base verdict's theorem where it once asked
    # uniformly_discrete(base) again: the two must agree
    try:
        cfg, _ = normalize_fluxes(cfg)
        v = decide(cfg, spin)
    except ConfigError:
        reject()
    base_cfg = replace(cfg, perturbation=None)
    discrete = uniformly_discrete(base_cfg)[0]
    assert (decide(base_cfg, spin).theorem == "Thm 6.3") == discrete
    if v.theorem in ("Thm 7.3", "Thm 7.4"):
        assert discrete


def test_integer_shift_invariance():
    raw = finite((0.0, 1.9), (1.0, 2.8), (2.0j, -0.2))
    cfg, _ = normalize_fluxes(raw)
    direct = finite((0.0, 0.9), (1.0, 0.8), (2.0j, 0.8))
    for spin in "+-":
        assert decide(cfg, spin) == decide(direct, spin)
