"""Configuration model and point-set analytics tests."""

import cmath
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxmodes import config as config_module
from fluxmodes.config import (
    AddedSet,
    ChainComponent,
    ChainMergeError,
    ConfigError,
    FluxConfiguration,
    FluxSite,
    LatticeComponent,
    Perturbation,
    StarComponent,
    config_from_dict,
    config_to_dict,
    enumerate_support,
    merge_collinear_chains,
    normalize_fluxes,
    set_stats,
    uniformly_discrete,
)
from fluxmodes.decide import decide
from fluxmodes.special import LatticeBasis

SQUARE = LatticeBasis(1.0, 1.0j)


def chain(omega0, *offsets):
    return ChainComponent(omega0, tuple(FluxSite(k, t) for k, t in offsets))


class TestNormalization:
    def test_fractional_parts(self):
        cfg = FluxConfiguration(finite_sites=(FluxSite(0.0, 2.3), FluxSite(1.0, -0.3)))
        out, log = normalize_fluxes(cfg)
        assert out.finite_sites[0].theta == pytest.approx(0.3)
        assert out.finite_sites[1].theta == pytest.approx(0.7)
        assert any(e.get("shift") == 2 for e in log)

    def test_integer_flux_removed(self):
        cfg = FluxConfiguration(finite_sites=(FluxSite(0.0, 1.0), FluxSite(1.0, 0.5)))
        out, log = normalize_fluxes(cfg)
        assert len(out.finite_sites) == 1
        assert out.finite_sites[0].position == 1.0
        assert any(e.get("removed") for e in log)

    def test_idempotent(self):
        cfg = FluxConfiguration(
            uniform_flux_density=0.4,
            finite_sites=(FluxSite(0.5j, 3.25),),
            chains=(chain(2.0, (5.5, 0.5)),),
        )
        once, _ = normalize_fluxes(cfg)
        twice, log2 = normalize_fluxes(once)
        assert once == twice
        assert log2 == []

    def test_chain_offset_reduced_to_strip(self):
        cfg = FluxConfiguration(chains=(chain(1.0, (3.25, 0.5)),))
        out, _ = normalize_fluxes(cfg)
        k = out.chains[0].offsets[0].position
        assert 0 <= k.real < 1
        assert k == pytest.approx(0.25)

    def test_lattice_offset_reduced_to_cell(self):
        cfg = FluxConfiguration(
            lattices=(LatticeComponent(SQUARE, (FluxSite(2.5 + 3.75j, 0.5),)),)
        )
        out, _ = normalize_fluxes(cfg)
        k = out.lattices[0].offsets[0].position
        assert k == pytest.approx(0.5 + 0.75j)

    @given(st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_theta_always_in_unit_interval(self, theta):
        cfg = FluxConfiguration(finite_sites=(FluxSite(0.0, theta),))
        out, _ = normalize_fluxes(cfg)
        for s in out.finite_sites:
            assert 0 < s.theta < 1


class TestChainMerge:
    def test_interleaved_integer_chains(self):
        merged = merge_collinear_chains([chain(1.0, (0.0, 0.3)), chain(1.0, (0.5, 0.4))])
        assert merged.omega0 == 1.0
        assert [o.position for o in merged.offsets] == [0.0, 0.5]

    def test_periods_one_and_half(self):
        merged = merge_collinear_chains([chain(1.0, (0.0, 0.25)), chain(0.5, (0.0, 0.25))])
        assert abs(merged.omega0) == pytest.approx(1.0)
        # residues: 0 (twice, summed) and 1/2
        assert [o.position for o in merged.offsets] == [0.0, 0.5]
        assert merged.offsets[0].theta == pytest.approx(0.5)
        assert merged.offsets[1].theta == pytest.approx(0.25)

    def test_irrational_ratio_rejected(self):
        with pytest.raises(ChainMergeError):
            merge_collinear_chains(
                [chain(1.0, (0.0, 0.5)), chain(math.sqrt(2), (0.25, 0.5))]
            )

    def test_ratio_near_a_large_denominator_rejected(self):
        # 1.666078511551902 lies within 1e-13 of a fraction of denominator
        # below 1e6: the merged chain would carry over 100 000 residues
        with pytest.raises(ChainMergeError, match="too many residues"):
            merge_collinear_chains([chain(1.0, (0.0, 0.5)), chain(1.666078511551902, (0.3, 0.5))])

    def test_merge_preserves_point_set(self):
        c1 = chain(1.0, (0.0, 0.3))
        c2 = chain(2.0, (0.5, 0.4))
        merged = merge_collinear_chains([c1, c2])
        want = set()
        for c in (c1, c2):
            for w in enumerate_support(FluxConfiguration(chains=(c,)), 10.0).pos:
                want.add((round(w.real, 6), round(w.imag, 6)))
        got = {
            (round(w.real, 6), round(w.imag, 6))
            for w in enumerate_support(FluxConfiguration(chains=(merged,)), 10.0).pos
        }
        assert got == want

    @staticmethod
    def _old_scan(sites, d):
        """The merge of coincident residues as first written: each site is
        compared with every group kept so far; reference only, it is
        quadratic in the residue count."""
        merged = []
        for s in sites:
            for i, t in enumerate(merged):
                if abs(t.position - s.position) < config_module.COINCIDENCE_TOL:
                    merged[i] = FluxSite(t.position, t.theta + s.theta)
                    break
            else:
                merged.append(s)
        return merged

    @pytest.mark.parametrize(
        "chains",
        [
            [chain(1.0, (0.0, 0.25)), chain(0.5, (0.0, 0.25))],
            [chain(1.0, (0.0, 0.3)), chain(0.9, (0.1, 0.4))],  # 1.0 = 0.1 + 0.9
            [chain(1.0, (0.0, 0.3)), chain(499 / 500, (0.1, 0.4))],
            [chain(2.0, (0.0, 0.3), (0.7, 0.6)), chain(-0.4, (0.3, 0.2)), chain(1.2, (0.5, 0.9))],
            [chain(1.0, (0.0, 0.5)), chain(1.0 / 3.0, (1e-12, 0.3))],  # rounding-level coincidences
            [chain(1j, (0.5, 0.3)), chain(-2.5j, (0.5 + 0.5j, 0.7))],
            [chain(0.6 + 0.8j, (0.0, 0.3)), chain(0.9 + 1.2j, (0.3 + 0.4j, 0.7))],
        ],
        ids=["halves", "tenths", "q500", "three", "near", "vertical", "oblique"],
    )
    def test_merge_matches_old_scan(self, chains, monkeypatch):
        merged = merge_collinear_chains(chains)
        monkeypatch.setattr(config_module, "_merge_coincident", self._old_scan)
        assert merged == merge_collinear_chains(chains)  # bit-identical chains

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(2, 60),
        p=st.integers(1, 60),
        kappa=st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 0.5 + 1e-13]),
        thetas=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    )
    def test_merge_matches_old_scan_on_rational_periods(self, q, p, kappa, thetas):
        chains = [chain(1.0, (0.0, thetas[0])), chain(p / q, (kappa, thetas[1]))]
        try:
            merged = merge_collinear_chains(chains)
        except ConfigError as exc:
            assert "integer fluxes" in str(exc)
            return
        original = config_module._merge_coincident
        config_module._merge_coincident = self._old_scan
        try:
            assert merged == merge_collinear_chains(chains)
        finally:
            config_module._merge_coincident = original

    def test_many_residues_merge_fast(self):
        # periods 1 and (q - 1)/q merge to a chain of about 2q residues; the
        # old scan took 2.7 s at q = 4 000 and grew as q^2
        q = 10_000
        chains = [chain(1.0, (0.0, 0.3)), chain((q - 1) / q, (0.1, 0.4))]
        start = time.perf_counter()
        merged = merge_collinear_chains(chains)
        assert time.perf_counter() - start < 2.0
        assert merged.omega0 == pytest.approx(q - 1)
        # residue k of the second chain meets an integer where k / q = 0.1
        assert 2 * q - 1 - 10 <= len(merged.offsets) <= 2 * q - 1
        assert decide(FluxConfiguration(chains=tuple(chains)), "+").theorem == "Thm 6.3"

    def test_different_lines_rejected(self):
        with pytest.raises(ConfigError):
            merge_collinear_chains([chain(1.0, (0.0, 0.5)), chain(1.0, (0.5j, 0.5))])


class TestEnumeration:
    def test_square_lattice_count(self):
        cfg = FluxConfiguration(lattices=(LatticeComponent(SQUARE, (FluxSite(0.0, 0.5),)),))
        assert len(enumerate_support(cfg, 1.5)) == 9

    def test_removed_origin(self):
        cfg = FluxConfiguration(
            lattices=(LatticeComponent(SQUARE, (FluxSite(0.0, 0.5),)),),
            perturbation=Perturbation(removed=(0.0,)),
        )
        assert len(enumerate_support(cfg, 1.5)) == 8

    def test_chain_count(self):
        cfg = FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)),))
        assert len(enumerate_support(cfg, 2.5)) == 5

    def test_sorted_by_radius(self):
        cfg = FluxConfiguration(chains=(chain(1.0, (0.0, 0.5)),))
        rad = [abs(w) for w in enumerate_support(cfg, 6.0).pos.tolist()]
        assert rad == sorted(rad)

    def test_added_sets_flattened_in_order(self):
        pert = Perturbation(
            removed=(0.0,), added=(AddedSet((0.5 + 0.5j, -1.5), 0.3), AddedSet((0.5j,), 0.2))
        )
        assert pert.points == (0.5 + 0.5j, -1.5 + 0j, 0.5j)
        assert pert.thetas == (0.3, 0.3, 0.2)
        assert Perturbation(removed=(1.0,)).points == Perturbation().thetas == ()
        cfg = FluxConfiguration(
            lattices=(LatticeComponent(SQUARE, (FluxSite(0.0, 0.5),)),), perturbation=pert
        )
        sites = config_module.unsorted_support(cfg, 3.0)
        assert sites.pos[-3:].tolist() == list(pert.points)
        assert sites.theta[-3:].tolist() == list(pert.thetas)

    def test_added_collision_rejected(self):
        cfg = FluxConfiguration(
            finite_sites=(FluxSite(1.0, 0.5),),
            perturbation=Perturbation(added=(AddedSet((1.0,), 0.3),)),
        )
        with pytest.raises(ConfigError):
            enumerate_support(cfg, 3.0)

    @pytest.mark.parametrize("second", [-1.5 + 2.5j, -1.5 + 2.5j + 4e-10])
    @pytest.mark.parametrize("gap", [False, True])
    def test_added_duplicate_named_on_a_lattice(self, second, gap):
        # 317 regular sites, more than _PAIRWISE_MAX: without the gap only the
        # added points are checked against each other, with it every pair
        lat = (LatticeComponent(SQUARE, (FluxSite(0.0, 0.5),)),)
        assert len(enumerate_support(FluxConfiguration(lattices=lat), 10.0)) > config_module._PAIRWISE_MAX
        cfg = FluxConfiguration(
            lattices=lat,
            perturbation=Perturbation(added=(AddedSet((0.5 + 0.5j, -1.5 + 2.5j), 0.3), AddedSet((second,), 0.2))),
        )
        with pytest.raises(ConfigError, match=r"^added sets overlap: duplicate site at \(-1\.5\+2\.5j\)$"):
            config_module._sites(cfg, 10.0, gap=gap)

    def test_added_lattice_collision_named(self):
        cfg = FluxConfiguration(
            lattices=(LatticeComponent(SQUARE, (FluxSite(0.0, 0.5),)),),
            perturbation=Perturbation(added=(AddedSet((0.5 + 0.5j, 2 + 1j + 3e-10), 0.3),)),
        )
        with pytest.raises(ConfigError, match=r"^added point \(2\.0000000003\+1j\) collides with a regular site$"):
            enumerate_support(cfg, 10.0)

    def test_cross_component_duplicate_rejected(self):
        cfg = FluxConfiguration(
            finite_sites=(FluxSite(1.0, 0.5),),
            chains=(chain(1.0, (0.0, 0.3)),),
        )
        with pytest.raises(ConfigError):
            enumerate_support(cfg, 3.0)

    @pytest.mark.parametrize("gap", [0.0, 5e-10])
    def test_coincident_sites_in_lattice_column_rejected(self, gap):
        # the second member lands on a translate of the first, in the column x = 0
        members = (FluxSite(0.0, 0.5), FluxSite(complex(0.0, 3.0 + gap), 0.25))
        cfg = FluxConfiguration(lattices=(LatticeComponent(SQUARE, members),))
        with pytest.raises(ConfigError, match="^components overlap: duplicate site at "):
            enumerate_support(cfg, 10.0)

    def test_close_but_distinct_sites_accepted(self):
        members = (FluxSite(0.0, 0.5), FluxSite(complex(0.0, 3.0 + 2e-9), 0.25))
        cfg = FluxConfiguration(lattices=(LatticeComponent(SQUARE, members),))
        grid = [complex(m, n) for m in range(-11, 12) for n in range(-14, 12)]
        expected = sum(abs(z + s.position) <= 10.0 for z in grid for s in members)
        assert len(enumerate_support(cfg, 10.0)) == expected

    def test_theta_at_sites_and_non_sites(self):
        members = (FluxSite(0.0, 0.5), FluxSite(0.5 + 0.5j, 0.25))
        sites = enumerate_support(FluxConfiguration(lattices=(LatticeComponent(SQUARE, members),)), 3.0)
        assert sites.theta_at([2.0, 1.5 - 0.5j, 1e-10]) == [0.5, 0.25, 0.5]
        with pytest.raises(ConfigError, match=r"^removed point 0.5j is not a site of the configuration$"):
            sites.theta_at([1.0, 0.5j])

    def test_star_counts(self):
        cfg = FluxConfiguration(star=StarComponent(3, 0.5))
        sites = enumerate_support(cfg, 1.9)  # radii 1, 2^(1/3), ..., < 1.9 -> m <= 6
        # origin + 6 rays * m in {1..6}
        assert len(sites) == 1 + 6 * 6


# ---------------------------------------------------------------------------
# the list-based enumeration that the array-native Support replaced, kept as
# a bitwise oracle: one FluxSite per site, sorted with a Python key


def _ref_chain(ch, r_max):
    pts = []
    for off in ch.offsets:
        span = (r_max + abs(off.position)) / abs(ch.omega0) + 1
        ks = np.arange(-math.ceil(span), math.ceil(span) + 1)
        pos = off.position + ks * ch.omega0
        keep = np.abs(pos) <= r_max
        pts.extend(FluxSite(p, off.theta) for p in pos[keep])
    return pts


def _ref_lattice(lat, r_max):
    w1, w2 = lat.basis.omega1, lat.basis.omega2
    S = lat.basis.area
    pts = []
    for off in lat.offsets:
        r = r_max + abs(off.position)
        b1 = math.ceil(r * abs(w2) / S) + 1
        b2 = math.ceil(r * abs(w1) / S) + 1
        m1 = np.arange(-b1, b1 + 1)
        m2 = np.arange(-b2, b2 + 1)
        grid = off.position + m1[:, None] * w1 + m2[None, :] * w2
        grid = grid.ravel()
        keep = np.abs(grid) <= r_max
        pts.extend(FluxSite(p, off.theta) for p in grid[keep])
    return pts


def _ref_star(star, r_max):
    pts = [FluxSite(0.0, star.theta)]
    m_max = int((r_max / star.scale) ** star.order) + 1
    n = star.order
    for m in range(1, m_max + 1):
        rad = star.scale * m ** (1.0 / n)
        if rad > r_max:
            break
        for k in range(2 * n):
            pts.append(FluxSite(rad * cmath.exp(1j * math.pi * k / n), star.theta))
    return pts


def _ref_support(config, r_max):
    sites = [s for s in config.finite_sites if abs(s.position) <= r_max]
    for ch in config.chains:
        sites.extend(_ref_chain(ch, r_max))
    for lat in config.lattices:
        sites.extend(_ref_lattice(lat, r_max))
    if config.star is not None:
        sites.extend(_ref_star(config.star, r_max))
    pert = config.perturbation
    if pert is not None:
        for rm in pert.removed:
            hit = [i for i, s in enumerate(sites) if abs(s.position - rm) < 1e-9]
            for i in reversed(hit):
                sites.pop(i)
        for a in pert.added:
            sites.extend(FluxSite(p, a.theta) for p in a.points if abs(p) <= r_max)
    sites.sort(key=lambda s: (abs(s.position), cmath.phase(s.position) if s.position else -4.0))
    return sites


def _ref_gap(config, window):
    from scipy.spatial import cKDTree

    pos = np.array([s.position for s in _ref_support(config, window)])
    pts = np.column_stack([pos.real, pos.imag])
    d, _ = cKDTree(pts).query(pts, k=2)
    return float(d[:, 1].min())


def _bits(x):
    return np.asarray(x).tobytes()


ORACLE_CONFIGS = {
    # sites tie on every nonzero radius: twelve on radius 5 = |3 + 4i|
    "square-ties": (FluxConfiguration(lattices=(LatticeComponent(SQUARE, (FluxSite(0.0, 0.5),)),)), 7.5),
    "thm6.7-two-lattices": (
        FluxConfiguration(
            uniform_flux_density=0.2,
            lattices=(
                LatticeComponent(SQUARE, (FluxSite(0j, 0.5),)),
                LatticeComponent(
                    LatticeBasis(math.sqrt(2), math.sqrt(2) * 1j), (FluxSite(0.1 + 0.1j, 0.5),)
                ),
            ),
        ),
        30.0,
    ),
    "chains": (
        FluxConfiguration(
            chains=(
                chain(1.0, (0.0, 0.5)),
                chain(2.0, (0.5 + 0.5j, 0.3), (1.25 - 0.5j, 0.7)),
                chain(0.9 * cmath.exp(0.7j), (0.2 + 1.3j, 0.4)),
            )
        ),
        12.0,
    ),
    "star3": (FluxConfiguration(star=StarComponent(3, 0.5, 0.8)), 6.0),
    "finite": (
        FluxConfiguration(
            finite_sites=tuple(FluxSite(complex(x, y), 0.1 + 0.07 * i) for i, (x, y) in
                               enumerate([(0, 0), (1, 0), (0, 1), (-1, 0), (0.3, -2.2), (4, 3)]))
        ),
        5.0,
    ),
    "perturbed-lattice": (
        FluxConfiguration(
            lattices=(LatticeComponent(LatticeBasis(2.0, 0.5 + 2.0j), (FluxSite(0.25j, 0.5),)),),
            perturbation=Perturbation(
                removed=(0.25j, 2.0 + 0.25j),
                added=(AddedSet((1.0 + 0.3j, -0.7 + 1.1j), 0.6), AddedSet((30.0,), 0.2)),
            ),
        ),
        20.0,
    ),
}


class TestSupportOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_matches_list_enumeration_bitwise(self, name):
        cfg, r_max = ORACLE_CONFIGS[name]
        ref = _ref_support(cfg, r_max)
        got = enumerate_support(cfg, r_max)
        assert len(got) == len(ref) > 1
        assert got.pos.dtype == complex and got.theta.dtype == float
        assert _bits(got.pos) == _bits(np.array([s.position for s in ref]))
        assert _bits(got.theta) == _bits(np.array([s.theta for s in ref]))

    def test_square_ties_ordered_by_arg(self):
        cfg, r_max = ORACLE_CONFIGS["square-ties"]
        pos = enumerate_support(cfg, r_max).pos
        on_five = [w for w in pos.tolist() if abs(w) == 5.0]
        assert len(on_five) == 12
        assert on_five[0] == complex(-4, -3) and on_five[-1] == -5

    @pytest.mark.parametrize(
        "cfg, window, tree",
        [
            (ORACLE_CONFIGS["finite"][0], 5.0, False),
            (ORACLE_CONFIGS["chains"][0], 8.0, False),
            (ORACLE_CONFIGS["chains"][0], 20.0, True),
            (ORACLE_CONFIGS["square-ties"][0], 10.0, True),
            (ORACLE_CONFIGS["perturbed-lattice"][0], 40.0, True),
            (ORACLE_CONFIGS["perturbed-lattice"][0], 4.0, False),
            (
                FluxConfiguration(lattices=(LatticeComponent(
                    LatticeBasis(1.1, 0.35 + 0.95j), (FluxSite(0j, 0.5), FluxSite(0.41 + 0.37j, 0.3))
                ),)),
                40.0,
                True,
            ),
        ],
    )
    def test_uniformly_discrete_gap_bitwise(self, cfg, window, tree):
        n = len(enumerate_support(cfg, window))
        assert (n > config_module._PAIRWISE_MAX) == tree
        ok, gap = uniformly_discrete(cfg, window=window)
        assert ok
        assert _bits(gap) == _bits(_ref_gap(cfg, window))

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 33, 64, 65, 300])
    def test_random_finite_gap_bitwise(self, n):
        # np.hypot would round about one gap in six differently
        rng = np.random.default_rng(n)
        for _ in range(12):
            pts = rng.uniform(-8, 8, n) + 1j * rng.uniform(-8, 8, n)
            cfg = FluxConfiguration(finite_sites=tuple(FluxSite(p, 0.5) for p in pts))
            _, gap = uniformly_discrete(cfg, window=20.0)
            assert _bits(gap) == _bits(_ref_gap(cfg, 20.0))


def _tree_apart(pos, msg, bound):
    """The minimum gap and duplicate check by a k-d tree: per point, its
    nearest neighbour below `bound`."""
    from scipy.spatial import cKDTree

    xy = np.column_stack([pos.real, pos.imag])
    gaps = cKDTree(xy).query(xy, k=2, distance_upper_bound=bound)[0][:, 1]
    dup = pos[gaps < config_module.COINCIDENCE_TOL]
    if dup.size:
        raise ConfigError(f"{msg}: duplicate site at {dup[np.lexsort((dup.imag, dup.real))[0]]}")
    return float(gaps.min())


def _apart_outcome(apart, pos, bound):
    try:
        return "gap", _bits(apart(pos, "overlap", bound))
    except ConfigError as exc:
        return "duplicate", str(exc)


def _grid_points(w1, w2, r, offset=0j):
    m = np.arange(-int(3 * r / min(abs(w1), abs(w2))) - 2, int(3 * r / min(abs(w1), abs(w2))) + 3)
    pts = (offset + m[:, None] * w1 + m[None, :] * w2).ravel()
    return pts[np.abs(pts) <= r]


def _gap_sets():
    rng = np.random.default_rng(13)
    square = _grid_points(1.0, 1j, 12.0)
    oblique = np.concatenate([_grid_points(1.1, 0.35 + 0.95j, 9.0), _grid_points(1.1, 0.35 + 0.95j, 9.0, 0.41 + 0.37j)])
    diagonal = np.arange(-150, 150) * 0.1 * cmath.exp(0.7j)
    centres = rng.uniform(-20, 20, 6) + 1j * rng.uniform(-20, 20, 6)
    # an 11 x 11 grid of step 0.5 with 21 inner nodes dropped: 100 points in a
    # 5 x 5 box, so the first cell of the gap search is the step, exactly
    keep = np.ones(121, bool)
    keep[rng.choice([k for k in range(121) if k not in (0, 10, 110, 120)], 21, replace=False)] = False
    one_cell = (np.arange(11)[:, None] * 0.5 + 1j * np.arange(11)[None, :] * 0.5).ravel()[keep]
    # 144 points 2e-9 apart at the far side of a 100-wide cloud: the sparse
    # cells halve down to their floor, span * 2**-30, and keys reach 2**60
    tight = (np.arange(12)[:, None] + 1j * np.arange(12)[None, :]).ravel() * 2e-9
    cloud = np.concatenate([rng.uniform(0, 100, 200) + 1j * rng.uniform(0, 100, 200), [0, 100 + 100j], 99.9 + 37.3j + tight])
    return {
        "square-lattice": square,
        "oblique-lattice": oblique,
        "horizontal-chain": np.arange(200) * 0.37 + 0.25j,
        "vertical-chain": 1.5 + 1j * np.arange(-100, 100) * 0.61,
        "diagonal-chain": diagonal,
        "chain-across-lattice": np.concatenate([square, diagonal * math.sqrt(2) + 0.3]),
        "clusters": centres[rng.integers(0, 6, 400)] + (rng.normal(size=400) + 1j * rng.normal(size=400)) * 0.05,
        "one-cell-apart": one_cell,
        "few": rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40),
        "tight-cluster": cloud,
    }


GAP_SETS = _gap_sets()


class TestCellSearchOracle:
    """The cell index and _apart against a distance matrix and a k-d tree."""

    @staticmethod
    def _pairs(pos, cell, limit):
        i, j, d = (np.concatenate(col) for col in zip(*config_module.CellIndex(pos, cell).pairs(limit)))
        return sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist(), d.tolist()))

    @staticmethod
    def _matrix_pairs(pos, limit):
        d = pos[:, None] - pos
        d = np.sqrt(d.real * d.real + d.imag * d.imag)
        i, j = np.nonzero(np.triu(d <= limit, 1))
        return sorted(zip(i.tolist(), j.tolist(), d[i, j].tolist()))

    @pytest.mark.parametrize("name", sorted(GAP_SETS))
    @pytest.mark.parametrize("cell, share", [(0.5, 1.0), (0.5, 0.6), (1.0, 1.0), (3.0, 1.0)])
    def test_close_pairs_match_matrix(self, name, cell, share):
        pos = GAP_SETS[name]
        assert self._pairs(pos, cell, share * cell) == self._matrix_pairs(pos, share * cell)

    @pytest.mark.parametrize("step", [0.7, 1.3])
    def test_close_pairs_one_cell_apart(self, step):
        # neighbours exactly one cell apart whose cell coordinates round to
        # two cells apart: the widened cell side keeps them in adjacent cells
        pos = -step + step * np.arange(12) + 0j
        pairs = self._pairs(pos, step, step)
        assert pairs == self._matrix_pairs(pos, step)
        assert any(d == step for _, _, d in pairs)

    @pytest.mark.parametrize("name", sorted(GAP_SETS))
    @pytest.mark.parametrize("bound", [config_module.COINCIDENCE_TOL, math.inf], ids=["bounded", "gap"])
    def test_apart_matches_tree(self, name, bound):
        pos = GAP_SETS[name]
        expect = _apart_outcome(_tree_apart, pos, bound)
        assert _apart_outcome(config_module._apart, pos, bound) == expect
        assert expect[0] == "gap"

    @pytest.mark.parametrize("name", sorted(GAP_SETS))
    @pytest.mark.parametrize("eps", [1e-12, 0.999999999e-9])
    @pytest.mark.parametrize("bound", [config_module.COINCIDENCE_TOL, math.inf], ids=["bounded", "gap"])
    def test_apart_names_the_tree_duplicate(self, name, eps, bound):
        pos = GAP_SETS[name]
        rng = np.random.default_rng(len(pos))
        k = rng.choice(len(pos), 4, replace=False)
        near = np.concatenate([pos, pos[k] + eps * np.exp(1j * rng.uniform(0, 2 * math.pi, 4))])
        expect = _apart_outcome(_tree_apart, near, bound)
        assert expect[0] == "duplicate"
        assert _apart_outcome(config_module._apart, near, bound) == expect

    @pytest.mark.parametrize("name", sorted(GAP_SETS))
    @pytest.mark.parametrize("limit", [0.3, 5.0, math.inf])
    def test_nearest_gaps_match_tree(self, name, limit):
        from scipy.spatial import cKDTree

        pos = GAP_SETS[name]
        xy = np.column_stack([pos.real, pos.imag])
        nn = cKDTree(xy).query(xy, k=2)[0][:, 1]
        want = np.where(nn <= limit, nn, math.inf)
        assert _bits(config_module.nearest_gaps(pos, limit)) == _bits(want)
        which = np.random.default_rng(len(pos)).permutation(len(pos))[: len(pos) // 3]
        assert _bits(config_module.nearest_gaps(pos, limit, which)) == _bits(want[which])

    def test_tight_cluster_sets_the_cell_floor(self):
        pos = GAP_SETS["tight-cluster"]
        cells, cell = config_module._sparse_cells(pos)
        assert cell == 100.0 * 2.0**-30 and cells.crowd > config_module._CELL_POINTS
        assert cells.key[-1] > 2**53  # beyond the integers a float key holds
        for reach in (cell, 3 * cell):
            i, j = cells.near(pos, reach)
            dz = pos[:, None] - pos
            want = np.nonzero(np.sqrt(dz.real * dz.real + dz.imag * dz.imag) <= reach)
            assert set(zip(*want)) <= set(zip(i.tolist(), j.tolist()))

    @pytest.mark.parametrize("name", sorted(GAP_SETS))
    @pytest.mark.parametrize("cell", [0.05, 0.5, 3.0])
    def test_near_lists_every_point_within_reach(self, name, cell):
        # queries at the points, among them and far outside them, with
        # reaches from a fraction of a cell to many cells
        pos = GAP_SETS[name]
        rng = np.random.default_rng(len(pos))
        x0, x1, y0, y1 = pos.real.min(), pos.real.max(), pos.imag.min(), pos.imag.max()
        spots = rng.uniform(x0 - 3, x1 + 3, 60) + 1j * rng.uniform(y0 - 3, y1 + 3, 60)
        queries = np.concatenate([pos[:60], spots, [1e3 + 1e3j, -1e3]])
        reach = cell * rng.uniform(0.0, 4.0, queries.size)
        i, j = config_module.CellIndex(pos, cell).near(queries, reach)
        assert len(set(zip(i.tolist(), j.tolist()))) == i.size  # each pair once
        dz = queries[:, None] - pos
        want = np.nonzero(np.sqrt(dz.real * dz.real + dz.imag * dz.imag) <= reach[:, None])
        assert set(zip(*want)) <= set(zip(i.tolist(), j.tolist()))

    @pytest.mark.parametrize("name", sorted(GAP_SETS))
    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(1, 5000), cell=st.sampled_from([0.05, 0.5, 3.0]), count=st.integers(0, 70))
    def test_near_blocks_split_near_in_order(self, name, size, cell, count):
        # the cell path and, for a few queries on a small set, every pair
        pos = GAP_SETS[name]
        queries = pos[:count] + 0.3 * cell
        cells = config_module.CellIndex(pos, cell)
        i, j = cells.near(queries, 2.0 * cell)
        blocks = list(cells.near_blocks(queries, 2.0 * cell, size))
        assert blocks and all(b[0].size <= size for b in blocks)
        assert all(b[0].size == size for b in blocks[:-1])
        assert np.array_equal(np.concatenate([b[0] for b in blocks]), i)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), j)

    @pytest.mark.parametrize("step", [0.7, 1.3])
    def test_near_lists_points_on_cell_edges(self, step):
        # a grid whose step is the cell: its points lie on cell edges, and
        # at exactly the reach from the queries at its points
        g = step * np.arange(-5, 6)
        pos = (g[:, None] + 1j * g[None, :]).ravel()
        cells = config_module.CellIndex(pos, step)
        dz = pos[:, None] - pos
        d = np.sqrt(dz.real * dz.real + dz.imag * dz.imag)
        for reach in (0.5 * step, step, 2.0 * step, math.hypot(step, step)):
            i, j = cells.near(pos, reach)
            want = set(zip(*np.nonzero(d <= reach)))
            assert want <= set(zip(i.tolist(), j.tolist()))
            assert reach == 0.5 * step or any(d[a, b] == reach for a, b in want)

    @pytest.mark.parametrize("cell", [0.3, 0.7, 1.3])
    def test_near_lists_points_a_rounding_from_cell_edges(self, cell):
        # points within 3 ulps of cell edges, and queries whose reach is the
        # rounded distance to one of them, less up to 2 ulps: the cell
        # coordinates of query edge and point round apart, and unless `near`
        # widens its squares, it misses points the distance test accepts
        rng = np.random.default_rng(int(10 * cell))
        g = np.arange(-20, 21)
        grid = cell * (g[:, None] + 1j * g[None, :]).ravel() + complex(*rng.uniform(-50, 50, 2))
        cells = config_module.CellIndex(grid, cell)
        px = cells.corner.real + rng.integers(1, 39, 400) * cells.side
        px += rng.integers(-3, 4, 400) * np.spacing(px)
        p = px + 1j * (cells.corner.imag + rng.uniform(0, 40 * cell, 400))
        pos = np.concatenate([grid, p])
        q = p + cell * rng.uniform(0.2, 2.0, 400)
        dz = q - p
        reach = np.sqrt(dz.real * dz.real + dz.imag * dz.imag)
        reach -= rng.integers(0, 3, 400) * np.spacing(reach)
        i, j = config_module.CellIndex(pos, cell).near(q, reach)
        dz = q[:, None] - pos
        want = np.nonzero(np.sqrt(dz.real * dz.real + dz.imag * dz.imag) <= reach[:, None])
        assert set(zip(*want)) <= set(zip(i.tolist(), j.tolist()))

    def test_duplicate_across_cell_edges_at_a_binade(self):
        # a pair 1e-9 - 5e-21 apart whose cell coordinates, near 2**28 cells,
        # round to cells two apart unless the side is widened by span * 2**-40
        x0, xa, xb = -0.26840445255377143, 3.100271466405233e-05, 3.1003714664052324e-05
        pos = np.concatenate([np.linspace(x0, 0.75, 70), [xa, xb]]) + 0j
        for bound in (config_module.COINCIDENCE_TOL, math.inf):
            expect = _apart_outcome(_tree_apart, pos, bound)
            assert expect == ("duplicate", "overlap: duplicate site at (3.100271466405233e-05+0j)")
            assert _apart_outcome(config_module._apart, pos, bound) == expect


class TestSetStats:
    def test_integer_line(self):
        pts = np.arange(-100, 101).astype(complex)
        stats = set_stats(pts, 100.0)
        assert stats.counting_fn(3.0) == 7
        assert stats.sum_t(2.0, 3.0) == pytest.approx(49.0 / 18.0)
        # signed sum cancels odd powers
        assert abs(stats.sum_s(3.0, 50.0)) < 1e-12
        assert abs(stats.sum_s(2.0, 3.0) - 49.0 / 18.0) < 1e-12
        assert stats.convergence_exponent == pytest.approx(1.0, abs=0.1)
        assert stats.genus == 1
        assert not stats.low_confidence

    def test_square_lattice(self):
        cfg = FluxConfiguration(lattices=(LatticeComponent(SQUARE, (FluxSite(0.0, 0.5),)),))
        pts = enumerate_support(cfg, 100.0).pos
        stats = set_stats(pts, 100.0)
        assert stats.convergence_exponent == pytest.approx(2.0, abs=0.1)
        assert stats.genus == 2
        # area density: n(r)/r^2 -> pi
        assert stats.counting_fn(50.0) / 50.0**2 == pytest.approx(math.pi, rel=0.1)

    def test_star_exponent(self):
        cfg = FluxConfiguration(star=StarComponent(3, 0.5))
        pts = enumerate_support(cfg, 12.0).pos
        stats = set_stats(pts, 12.0)
        assert stats.convergence_exponent == pytest.approx(3.0, abs=0.1)
        assert stats.genus == 3

    def test_s_bounded_by_t(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=60) + 1j * rng.normal(size=60)
        pts = pts[np.abs(pts) > 0.05] * 3
        stats = set_stats(pts, 10.0)
        for alpha in (1.0, 2.0, 3.0):
            for r in (1.0, 3.0, 10.0):
                assert abs(stats.sum_s(alpha, r)) <= stats.sum_t(alpha, r) + 1e-12

    def test_finite_set_genus_zero(self):
        stats = set_stats(np.array([1.0, 2.0, 1j]), 50.0)
        assert stats.genus == 0
        assert stats.low_confidence  # only 1.7 decades of radii


class TestUniformDiscreteness:
    def test_square_lattice_ok(self):
        cfg = FluxConfiguration(lattices=(LatticeComponent(SQUARE, (FluxSite(0.0, 0.5),)),))
        ok, gap = uniformly_discrete(cfg, window=10.0)
        assert ok
        assert gap == pytest.approx(1.0)

    def test_incommensurable_same_line_chains(self):
        cfg = FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)), chain(math.sqrt(2), (0.25, 0.5)))
        )
        ok, gap = uniformly_discrete(cfg, window=10.0)
        assert not ok

    def test_parallel_distinct_lines_ok(self):
        cfg = FluxConfiguration(
            chains=(chain(1.0, (0.0, 0.5)), chain(math.sqrt(2) * 1.0, (0.5j, 0.5)))
        )
        ok, _ = uniformly_discrete(cfg, window=10.0)
        assert ok


class TestSerialization:
    def test_round_trip(self):
        cfg = FluxConfiguration(
            uniform_flux_density=0.3,
            finite_sites=(FluxSite(1 + 2j, 0.6),),
            chains=(chain(2.0, (0.5, 0.25), (1.0 + 0.5j, 0.75)),),
            lattices=(LatticeComponent(SQUARE, (FluxSite(0.25 + 0.25j, 0.5),)),),
            star=StarComponent(3, 0.5),
            perturbation=Perturbation(
                removed=(1.0,), added=(AddedSet((5 + 5j, 6 + 6j), 0.4),)
            ),
        )
        doc = config_to_dict(cfg)
        again = config_from_dict(json.loads(json.dumps(doc)))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"uniform_flux_density": 0.0, "wobble": 1})

    def test_malformed_complex_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"finite": [{"position": [1, 2, 3], "theta": 0.5}]})

    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.uniform_flux_density == 0.0
        assert cfg.is_empty
