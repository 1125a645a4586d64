"""Configuration model and point-set analytics tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_merge_preserves_point_set(self):
        c1 = chain(1.0, (0.0, 0.3))
        c2 = chain(2.0, (0.5, 0.4))
        merged = merge_collinear_chains([c1, c2])
        want = set()
        for c in (c1, c2):
            for s in enumerate_support(FluxConfiguration(chains=(c,)), 10.0):
                want.add((round(s.position.real, 6), round(s.position.imag, 6)))
        got = {
            (round(s.position.real, 6), round(s.position.imag, 6))
            for s in enumerate_support(FluxConfiguration(chains=(merged,)), 10.0)
        }
        assert got == want

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
        rad = [abs(s.position) for s in enumerate_support(cfg, 6.0)]
        assert rad == sorted(rad)

    def test_added_collision_rejected(self):
        cfg = FluxConfiguration(
            finite_sites=(FluxSite(1.0, 0.5),),
            perturbation=Perturbation(added=(AddedSet((1.0,), 0.3),)),
        )
        with pytest.raises(ConfigError):
            enumerate_support(cfg, 3.0)

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

    def test_star_counts(self):
        cfg = FluxConfiguration(star=StarComponent(3, 0.5))
        sites = enumerate_support(cfg, 1.9)  # radii 1, 2^(1/3), ..., < 1.9 -> m <= 6
        # origin + 6 rays * m in {1..6}
        assert len(sites) == 1 + 6 * 6


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
        pts = np.array([s.position for s in enumerate_support(cfg, 100.0)])
        stats = set_stats(pts, 100.0)
        assert stats.convergence_exponent == pytest.approx(2.0, abs=0.1)
        assert stats.genus == 2
        # area density: n(r)/r^2 -> pi
        assert stats.counting_fn(50.0) / 50.0**2 == pytest.approx(math.pi, rel=0.1)

    def test_star_exponent(self):
        cfg = FluxConfiguration(star=StarComponent(3, 0.5))
        pts = np.array([s.position for s in enumerate_support(cfg, 12.0)])
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
