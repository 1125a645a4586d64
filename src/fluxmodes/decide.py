"""Existence verdicts for zero modes of the two spin Hamiltonians.

decide() maps a normalized configuration and a spin sign to a verdict
carrying the governing condition's citation and the numbers it was
evaluated on.  Rules are tried in a fixed order and the first rule whose
structural guard matches the configuration settles the verdict; later
rules are never consulted as a fallback, so a matched rule whose
sufficient conditions all fail yields Unknown rather than NotExists.

Rule guards, in order:

  R1 finite site set, no uniform field      (sharp threshold on sum theta)
  R2 union of chains, uniformly discrete
  R3 collinear one-atom chains on one line  (sufficient conditions only)
  R4 union of lattices, uniformly discrete
  R5 disjoint simple lattices               (sufficient conditions only)
  R6 uniform field + single lattice         (sharp for the unaligned spin)
  R7 uniform field + finite-type set        (power-sum boundedness tests)
  R8 perturbed configuration                (inheritance / scarce additions)
  R9 N-fold star of integer roots

Verdicts for spin '-' are obtained by evaluating dual conditions, which
equal the spin '+' conditions of the mirror configuration (theta -> 1-theta,
xi0 -> -xi0), so `ansatz` applies a spin '-' verdict's recipe to that mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import (
    AddedSet,
    ConfigError,
    FluxConfiguration,
    FluxSite,
    Perturbation,
    SetStats,
    enumerate_support,
    has_nonparallel,
    line_groups,
    normalize_fluxes,
    set_stats,
    uniformly_discrete,
)
from .special import log_abs_sigma_tilde
from .verify import growth_estimate

SPIN_PLUS = "+"
SPIN_MINUS = "-"
SPINS = (SPIN_PLUS, SPIN_MINUS)

EXISTS_INFINITE = "ExistsInfinite"
EXISTS_FINITE = "ExistsFinite"
NOT_EXISTS = "NotExists"
UNKNOWN = "Unknown"
_STATUSES = (EXISTS_INFINITE, EXISTS_FINITE, NOT_EXISTS, UNKNOWN)

# radius up to which point-set hypotheses (genus, convergence exponent,
# bounded power sums) are sampled; the CLI exposes this as --r-max
DEFAULT_R_MAX = 200.0

_EXPONENT_SLACK = 0.05  # tolerance on numerically estimated exponents


@dataclass(frozen=True)
class ZeroModeVerdict:
    """Outcome of one (configuration, spin) existence question."""

    spin: str
    status: str
    theorem: str
    condition_values: dict[str, float] = field(default_factory=dict)
    multiplicity: int | None = None
    # Thm 7.1 only: the verdict of the unperturbed configuration, whose
    # modes the perturbed one inherits; not reported and not compared
    base: ZeroModeVerdict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.spin not in SPINS:
            raise ValueError("spin must be '+' or '-'")
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == EXISTS_FINITE:
            if not (isinstance(self.multiplicity, int) and self.multiplicity >= 1):
                raise ValueError("ExistsFinite carries a positive multiplicity")
        elif self.multiplicity is not None:
            raise ValueError("multiplicity only accompanies ExistsFinite")
        if self.status != UNKNOWN and not self.theorem:
            raise ValueError("a decided verdict needs a nonempty citation")

    @property
    def exists(self) -> bool:
        return self.status in (EXISTS_INFINITE, EXISTS_FINITE)

    def to_dict(self) -> dict:
        # 10 significant digits: keeps reports invariant under the exact
        # integer-shift normalization, which leaves ulp-level residue
        doc = {
            "spin": self.spin,
            "status": self.status,
            "theorem": self.theorem,
            "conditionValues": {
                k: float(f"{float(v):.10g}") for k, v in self.condition_values.items()
            },
        }
        if self.multiplicity is not None:
            doc["multiplicity"] = self.multiplicity
        return doc


def decide(
    config: FluxConfiguration, spin: str, *, r_max: float = DEFAULT_R_MAX
) -> ZeroModeVerdict:
    """Existence verdict for the zero modes of the chosen spin Hamiltonian.

    The configuration must already be normalized (all fluxes in (0,1),
    offsets reduced); anything else raises ConfigError.
    """
    if spin not in SPINS:
        raise ValueError("spin must be '+' or '-'")
    normalized, _ = normalize_fluxes(config)
    if normalized != config:
        raise ConfigError("decide() requires a normalized configuration; apply normalize_fluxes")

    infinite = bool(config.chains or config.lattices or config.star)

    # a perturbation of a finite arrangement is itself a finite arrangement:
    # fold it into the site list, where the sharp finite-set rule applies
    if config.perturbation is not None and not infinite:
        return decide(_fold_finite(config), spin, r_max=r_max)
    # loose sites next to infinite components act as a finite added set
    folded = fold_loose_sites(config)
    if folded is not config:
        return decide(folded, spin, r_max=r_max)

    if config.perturbation is not None:
        return _rule_perturbed(config, spin, r_max)

    xi0 = config.uniform_flux_density
    if xi0 == 0.0:
        if not infinite:
            return _rule_finite(config.finite_sites, spin)
        if config.chains and not config.lattices and config.star is None:
            return _rule_chains(config, spin)
        if config.lattices and not config.chains and config.star is None:
            return _rule_lattices(config, spin)
        if config.star is not None and not config.chains and not config.lattices:
            return _rule_star(config, spin)
        return _unknown(spin, "", {"mixedComponents": 1.0})
    if (
        len(config.lattices) == 1
        and not config.chains
        and config.star is None
        and not config.finite_sites
    ):
        return _rule_landau_lattice(config, spin)
    if config.star is not None:
        # infinite-density set under a uniform field: outside the catalog
        return _unknown(spin, "", {"mixedComponents": 1.0})
    return _rule_landau_general(config, spin, r_max)


# ---------------------------------------------------------------------------
# perturbation folding


def _fold_finite(config: FluxConfiguration) -> FluxConfiguration:
    pert = config.perturbation
    radius = 1.0 + max(
        [abs(s.position) for s in config.finite_sites]
        + [abs(p) for p in pert.removed]
        + [abs(p) for p in pert.points],
        default=0.0,
    )
    sites = enumerate_support(config, radius)
    finite = tuple(map(FluxSite, sites.pos.tolist(), sites.theta.tolist()))
    return replace(config, finite_sites=finite, perturbation=None)


def fold_loose_sites(config: FluxConfiguration) -> FluxConfiguration:
    """The configuration the rules answer for: loose finite sites next to
    chains, lattices or a star join the perturbation as one added set each;
    any other configuration is returned as it is."""
    if not (config.finite_sites and (config.chains or config.lattices or config.star)):
        return config
    pert = config.perturbation or Perturbation()
    added = tuple(pert.added) + tuple(
        AddedSet((s.position,), s.theta) for s in config.finite_sites
    )
    return replace(
        config, finite_sites=(), perturbation=Perturbation(pert.removed, added)
    )


# ---------------------------------------------------------------------------
# R1: finite arrangements (sharp)


def _monomial_count(excess: float) -> int:
    """#{k integer, 0 <= k < excess}; the admissible monomial degrees."""
    m = math.floor(excess)
    return m if excess == m else m + 1


def _rule_finite(sites: tuple[FluxSite, ...], spin: str) -> ZeroModeVerdict:
    n = len(sites)
    values = {"nSites": float(n), "sumTheta": sum(s.theta for s in sites)}
    # the sharp threshold needs the correctly rounded sum, not one summed in
    # order; spin '-' mirrors to 1-theta sums: excess = (n - total) - 1
    total = math.fsum(s.theta for s in sites)
    excess = (total - 1.0) if spin == SPIN_PLUS else (n - total - 1.0)
    if excess > 0.0:
        mult = _monomial_count(excess)
        values["multiplicity"] = float(mult)
        return ZeroModeVerdict(spin, EXISTS_FINITE, "Thm 6.1", values, multiplicity=mult)
    return ZeroModeVerdict(spin, NOT_EXISTS, "Thm 6.1", values)


# ---------------------------------------------------------------------------
# R2/R3: chains


def _rule_chains(config: FluxConfiguration, spin: str) -> ZeroModeVerdict:
    ud, gap = uniformly_discrete(config)
    if ud:
        values = {"nChains": float(len(config.chains)), "minGap": gap}
        return ZeroModeVerdict(spin, EXISTS_INFINITE, "Thm 6.3", values)
    chains = config.chains
    one_atom = len(chains) > 1 and all(len(c.offsets) == 1 for c in chains)
    if one_atom and len(line_groups(chains)) == 1:
        # one-atom chains on a common line with incommensurable periods
        theorem = "Thm 6.4" if spin == SPIN_PLUS else "Thm 6.4a"
        names = ("nChains", "sumThetaOverOmega", "sumInvOmega", "minOmega")
        periods = [abs(c.omega0) for c in chains]
        return _rule_one_atom(spin, theorem, names, periods, [c.offsets[0].theta for c in chains])
    return _unknown(spin, "", {"nChains": float(len(config.chains)), "minGap": gap})


# ---------------------------------------------------------------------------
# R4/R5: lattices without uniform field


_LATTICE_THEOREM = "§7.4 lattice theorem"


def _rule_lattices(config: FluxConfiguration, spin: str) -> ZeroModeVerdict:
    ud, gap = uniformly_discrete(config)
    lats = config.lattices
    n = len(lats)
    if ud:
        theorem = "Thm 6.5" if n == 1 else "Thm 6.New"
        values = {"nLattices": float(n), "minGap": gap}
        return ZeroModeVerdict(spin, EXISTS_INFINITE, theorem, values)
    if all(len(l.offsets) == 1 for l in lats):
        # disjoint one-atom lattices whose union is not uniformly discrete
        names = ("nLattices", "sumThetaOverArea", "sumInvArea", "minArea")
        areas = [l.basis.area for l in lats]
        return _rule_one_atom(spin, _LATTICE_THEOREM, names, areas, [l.offsets[0].theta for l in lats])
    return _unknown(spin, "", {"nLattices": float(n), "minGap": gap})


def _rule_one_atom(
    spin: str, theorem: str, names: tuple[str, ...], measures: list[float], thetas: list[float]
) -> ZeroModeVerdict:
    """Thm 6.4 (chains, measure = period) and §7.4 (lattices, measure = cell
    area): existence if sum theta < 1 (condition 1), if sum theta / measure
    exceeds sum 1 / measure - 1 / min measure (condition 2), or for a pair
    (condition 3; §7.4 asks the two areas to differ).  The sums are taken
    over the fluxes the spin's conditions see, mirrored for spin '-'.
    `names` keys the count, the two sums and the least measure in the
    verdict's values."""
    n = len(measures)
    original_sum = sum(thetas)
    if spin == SPIN_MINUS:
        thetas = [1.0 - t for t in thetas]
    total = sum(thetas)
    ratio = sum(t / m for t, m in zip(thetas, measures))
    inv = sum(1.0 / m for m in measures)
    least = min(measures)
    count, ratio_name, inv_name, least_name = names
    values = {
        count: float(n),
        "sumTheta": original_sum,
        ratio_name: ratio,
        inv_name: inv,
        least_name: least,
    }
    if total < 1.0:
        cond = 1
    elif ratio > inv - 1.0 / least:
        cond = 2
    elif n == 2 and (theorem != _LATTICE_THEOREM or measures[0] != measures[1]):
        cond = 3
    else:
        values["conditionIndex"] = 0.0
        return ZeroModeVerdict(spin, UNKNOWN, theorem, values)
    values["conditionIndex"] = float(cond)
    return ZeroModeVerdict(spin, EXISTS_INFINITE, theorem, values)


# ---------------------------------------------------------------------------
# R6: uniform field + one lattice (sharp for the unaligned spin)


def _rule_landau_lattice(config: FluxConfiguration, spin: str) -> ZeroModeVerdict:
    lat = config.lattices[0]
    xi0 = config.uniform_flux_density
    area = lat.basis.area
    eta0 = xi0 * area
    thetas = [s.theta for s in lat.offsets]
    n = len(thetas)
    total = sum(thetas)
    values = {
        "eta0": eta0,
        "sumTheta": total,
        "nAtoms": float(n),
        "b0": 2.0 * math.pi * xi0,
    }
    aligned = SPIN_PLUS if xi0 > 0 else SPIN_MINUS
    if spin == aligned:
        return ZeroModeVerdict(spin, EXISTS_INFINITE, "Thm 6.8", values)
    # unaligned spin: strict inequality, boundary fails
    ok = (eta0 + total < n) if xi0 > 0 else (abs(eta0) < total)
    status = EXISTS_INFINITE if ok else NOT_EXISTS
    return ZeroModeVerdict(spin, status, "Thm 6.8", values)


# ---------------------------------------------------------------------------
# R7: uniform field + finite-type arrangement


def _signed_sum_bounded(stats: SetStats) -> bool:
    """Are the signed power sums S(2, r) bounded along the sampled radii?"""
    grid = np.geomspace(max(2.0, stats.r_max**0.25), stats.r_max, 16)
    vals = np.array([abs(stats.sum_s(2.0, g)) for g in grid])
    if np.ptp(vals) == 0.0:
        return True
    mid = len(vals) // 2
    early = float(np.max(vals[:mid]))
    late = float(np.max(vals[mid:]))
    return late <= 1.05 * early + 0.5


def _b0_threshold_estimate(config: FluxConfiguration) -> float:
    """4 * sum of c_j (1 - theta_j) with c_j the order-2 type of the j-th
    canonical product, estimated from circle maxima of its log modulus."""
    threshold = 0.0
    for lat in config.lattices:
        est = growth_estimate(lambda z: log_abs_sigma_tilde(lat.basis, z), np.geomspace(4.0, 40.0, 14))
        c_j = est.type if est.order > 1.5 else 0.0
        threshold += 4.0 * c_j * sum(1.0 - s.theta for s in lat.offsets)
    # chains and finite sets have order <= 1: zero order-2 type, no contribution
    return threshold


def _rule_landau_general(
    config: FluxConfiguration, spin: str, r_max: float
) -> ZeroModeVerdict:
    xi0 = config.uniform_flux_density
    aligned = SPIN_PLUS if xi0 > 0 else SPIN_MINUS
    stats = set_stats(enumerate_support(config, r_max).pos, r_max)
    values = {
        "b0": 2.0 * math.pi * xi0,
        "genus": float(stats.genus),
        "convergenceExponent": stats.convergence_exponent,
    }
    if stats.genus <= 1:
        # power sums bounded already at exponent 2: minimal-type canonical
        # products, the verdict holds for every field strength
        status = EXISTS_INFINITE if spin == aligned else NOT_EXISTS
        return ZeroModeVerdict(spin, status, "Thm 6.7", values)
    bounded_above_2 = (
        stats.genus <= 2 and stats.convergence_exponent <= 2.0 + _EXPONENT_SLACK
    )
    quadratic_density = stats.convergence_exponent <= 2.0 + _EXPONENT_SLACK
    signed_bounded = _signed_sum_bounded(stats)
    values["signedSumBounded"] = float(signed_bounded)
    if bounded_above_2 and quadratic_density and signed_bounded:
        values["requiresLargeB0"] = 1.0
        values["b0ThresholdEstimate"] = _b0_threshold_estimate(config)
        status = EXISTS_INFINITE if spin == aligned else NOT_EXISTS
        return ZeroModeVerdict(spin, status, "Thm 6.7", values)
    return _unknown(spin, "Thm 6.7", values, low=stats.low_confidence)


# ---------------------------------------------------------------------------
# R8: perturbed configurations


def _counting_saturates(stats: SetStats) -> bool:
    """n(r) = o(sqrt(r)) test: the root-scaled count must not grow."""
    r1, r0 = stats.r_max, stats.r_max / 4.0
    c1 = stats.counting_fn(r1) / math.sqrt(r1)
    c0 = stats.counting_fn(r0) / math.sqrt(r0)
    return c1 <= c0 * (1.0 + 1e-9)


def _rule_perturbed(config: FluxConfiguration, spin: str, r_max: float) -> ZeroModeVerdict:
    pert = config.perturbation
    base_cfg = replace(config, perturbation=None)
    base = decide(base_cfg, spin, r_max=r_max)

    removed = pert.removed
    points = removed + pert.points
    stats = set_stats(np.asarray(points, dtype=complex), r_max) if points else None
    genus_p = stats.genus if stats else 0
    tau_p = stats.convergence_exponent if stats else 0.0
    values = {
        "nRemoved": float(len(removed)),
        "nAdded": float(len(pert.points)),
        "perturbationGenus": float(genus_p),
        "tauPrime": tau_p,
    }

    removed_thetas = []
    if removed:
        removed_thetas = enumerate_support(base_cfg, 1.0 + max(map(abs, removed))).theta_at(removed)
    is_move = (
        len(removed_thetas) > 0
        and len(removed_thetas) == len(pert.thetas)
        and np.allclose(sorted(removed_thetas), sorted(pert.thetas), atol=1e-12)
    )
    additions_only = not removed

    # finite moves preserve the verdict in both directions; finite additions
    # preserve existence only
    if (is_move and base.status != UNKNOWN) or (additions_only and base.exists):
        return ZeroModeVerdict(
            spin, base.status, "Thm 7.1", values, multiplicity=base.multiplicity, base=base
        )

    # scarce-perturbation existence results (no uniform field component)
    if config.uniform_flux_density == 0.0:
        if config.chains and not config.lattices and config.star is None:
            ud = base.theorem == "Thm 6.3"  # the base verdict's test of uniform discreteness
            if ud and has_nonparallel(config.chains) and genus_p == 0:
                return ZeroModeVerdict(spin, EXISTS_INFINITE, "Thm 7.3", values)
            if ud and not has_nonparallel(config.chains):
                scarce = tau_p < 0.5 - _EXPONENT_SLACK or (
                    tau_p <= 0.5 + _EXPONENT_SLACK and stats is not None and _counting_saturates(stats)
                )
                if scarce:
                    return ZeroModeVerdict(spin, EXISTS_INFINITE, "Thm 7.4", values)
        if len(config.lattices) == 1 and not config.chains and config.star is None:
            if genus_p <= 1:
                return ZeroModeVerdict(spin, EXISTS_INFINITE, "§8.4 theorem", values)

    low = stats.low_confidence if stats else False
    return _unknown(spin, "", values, low=low)


# ---------------------------------------------------------------------------
# R9: star


def _rule_star(config: FluxConfiguration, spin: str) -> ZeroModeVerdict:
    star = config.star
    values = {
        "order": float(star.order),
        "theta": star.theta,
        "convergenceExponent": float(star.order),
    }
    return ZeroModeVerdict(spin, EXISTS_INFINITE, "§7.5 theorem", values)


def _unknown(spin: str, theorem: str, values: dict[str, float], low: bool = False) -> ZeroModeVerdict:
    if low:
        values = {**values, "lowConfidence": 1.0}
    return ZeroModeVerdict(spin, UNKNOWN, theorem, values)
