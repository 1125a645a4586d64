"""Lattice function unit tests.

Reference values were produced with an independent mpmath implementation
(theta-series route at 50 significant digits) and are frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxmodes.special import (
    ConsistencyError,
    DomainError,
    LatticeBasis,
    canonical_product,
    canonical_product_limit,
    chain_dlog,
    chain_log_abs,
    lattice_constants,
    log_abs_sigma_tilde,
    log_abs_sin,
    log_abs_sinc_sqrt_pair,
    log_primary_factor,
    log_sigma,
    log_sin,
    primary_factor,
    sigma_tilde,
    sinc_sqrt,
    star_log_abs,
    weierstrass_sigma,
    weierstrass_zeta,
)

SQUARE = LatticeBasis(1.0, 1.0j)

# mpmath oracle values, unit square lattice (full periods 1 and i)
SIGMA_REF = {
    0.3 + 0.1j: 0.3001013334619539272269953 + 0.09750883410754820606329948j,
    0.37 - 0.22j: 0.3804239099173965364812416 - 0.2149485663764228448889009j,
    1.7 + 2.3j: 123199.53967922572494946 - 19512.89014033472250006596j,
    -2.25 + 0.55j: 18.59168480812829785251296 - 1592.263174325290359626618j,
}
ZETA_REF = {
    0.3 + 0.1j: 2.944137402063275359751355 - 1.08297177987414813271658j,
    0.37 - 0.22j: 2.015629037731162824022903 + 1.431598392977469849744602j,
    1.7 + 2.3j: 4.453582956347763655961578 - 8.112787658011408405312751j,
    -2.25 + 0.55j: -7.638217216524103341785756 - 1.429380492120609605972695j,
}


class TestLatticeConstants:
    def test_square_exact(self):
        c = lattice_constants(SQUARE)
        assert c.mu == math.pi / 2.0
        assert abs(c.nu) < 1e-10
        assert abs(c.eta1 - math.pi) < 1e-12
        assert abs(c.eta2 + math.pi * 1j) < 1e-12
        assert c.sigma_type == pytest.approx(math.pi / 2.0, rel=1e-10)

    def test_hexagonal(self):
        basis = LatticeBasis(1.0, complex(math.cos(math.pi / 3), math.sin(math.pi / 3)))
        c = lattice_constants(basis)
        assert abs(c.nu) < 1e-9
        assert c.area == pytest.approx(math.sin(math.pi / 3))
        assert c.mu == pytest.approx(math.pi / (2 * c.area), rel=1e-14)

    def test_hexagonal_rotated_basis(self):
        # same triangular lattice, different basis: nu and mu are invariant
        w1 = complex(math.cos(-math.pi / 3), math.sin(-math.pi / 3))
        w2 = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
        c = lattice_constants(LatticeBasis(w1, w2))
        assert abs(c.nu) < 1e-9
        assert abs(c.eta1 - (1.8137993642342178506 + math.pi * 1j)) < 1e-12

    def test_legendre_random_bases(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(w1) < 0.1 or (w1.conjugate() * w2).imag < 0.05:
                continue
            c = lattice_constants(LatticeBasis(w1, w2))
            assert c.legendre_residual < 1e-9

    def test_unimodular_invariance(self):
        # (w1 + 3 w2, w2) spans the same lattice: nu, mu unchanged
        w1, w2 = 1.3 + 0.2j, 0.4 + 1.1j
        c0 = lattice_constants(LatticeBasis(w1, w2))
        c1 = lattice_constants(LatticeBasis(w1 + 3 * w2, w2))
        assert abs(c0.nu - c1.nu) < 1e-11
        assert c0.mu == pytest.approx(c1.mu, rel=1e-14)
        # eta follows the same integer combination
        assert abs(c1.eta1 - (c0.eta1 + 3 * c0.eta2)) < 1e-11

    def test_bad_orientation_rejected(self):
        with pytest.raises(DomainError):
            LatticeBasis(1.0, -1.0j)
        with pytest.raises(DomainError):
            LatticeBasis(1.0, 2.0)  # collinear


class TestSigma:
    @pytest.mark.parametrize("z", sorted(SIGMA_REF, key=abs))
    def test_square_values(self, z):
        assert weierstrass_sigma(SQUARE, z) == pytest.approx(SIGMA_REF[z], rel=1e-12)

    @pytest.mark.parametrize("z", sorted(ZETA_REF, key=abs))
    def test_square_zeta_values(self, z):
        assert weierstrass_zeta(SQUARE, z) == pytest.approx(ZETA_REF[z], rel=1e-12)

    def test_oddness_and_zero(self):
        z = np.array([0.31 + 0.17j, -1.2 + 0.8j, 2.01 - 0.435j])
        s1 = weierstrass_sigma(SQUARE, z)
        s2 = weierstrass_sigma(SQUARE, -z)
        np.testing.assert_allclose(s1, -s2, rtol=1e-11)
        assert weierstrass_sigma(SQUARE, 0.0) == 0.0
        assert np.isinf(log_sigma(SQUARE, 3.0 + 4.0j).real) # lattice point

    def test_sigma_near_origin_is_z(self):
        for z in [1e-4 + 2e-4j, -3e-5j]:
            assert weierstrass_sigma(SQUARE, z) == pytest.approx(z, rel=1e-6)

    def test_quasi_periodicity(self):
        c = lattice_constants(SQUARE)
        rng = np.random.default_rng(3)
        z = rng.uniform(-0.4, 0.4, 8) + 1j * rng.uniform(-0.4, 0.4, 8)
        for (m1, m2) in [(1, 0), (0, 1), (2, -1), (-3, 2)]:
            lam = m1 * 1.0 + m2 * 1.0j
            eta = m1 * c.eta1 + m2 * c.eta2
            eps = (-1.0) ** (m1 + m2 + m1 * m2)
            lhs = weierstrass_sigma(SQUARE, z + lam)
            rhs = eps * np.exp(eta * (z + lam / 2)) * weierstrass_sigma(SQUARE, z)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_zeta_quasi_periodicity(self):
        c = lattice_constants(SQUARE)
        z = 0.21 - 0.13j
        assert weierstrass_zeta(SQUARE, z + 1) == pytest.approx(
            weierstrass_zeta(SQUARE, z) + c.eta1, rel=1e-12
        )

    def test_elongated_basis_stable(self):
        # aspect ratio 40: cell reduction plus log-space series must not overflow
        basis = LatticeBasis(1.0, 40.0j)
        z = np.array([0.5 + 19.9j, 0.25 + 0.1j, 3.7 + 11.0j])
        vals = log_sigma(basis, z)
        assert np.all(np.isfinite(vals.real))
        c = lattice_constants(basis)
        assert c.legendre_residual < 1e-9

    def test_underflowing_nome_quasi_periodicity(self):
        # aspect ratio 300: the nome q = exp(-600 pi) underflows to zero; log
        # sigma must stay finite and keep sigma(z + w1) = -exp(eta1 (z + w1/2)) sigma(z)
        basis = LatticeBasis(1.0, 300.0j)
        c = lattice_constants(basis)
        z = np.array([0.3 + 0.2j, -0.45 + 7.0j, 0.1 + 149.0j, 0.2 - 120.0j, 2.6 + 301.0j])
        lhs = log_sigma(basis, z + basis.omega1)
        rhs = log_sigma(basis, z) + c.eta1 * (z + basis.omega1 / 2)
        assert np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))
        np.testing.assert_allclose(lhs.real, rhs.real, rtol=1e-12)
        phase = np.angle(np.exp(1j * (lhs.imag - rhs.imag - math.pi)))
        np.testing.assert_allclose(phase, 0.0, atol=1e-9)

    def test_scaling_homogeneity(self):
        # sigma(c z | c Lambda) = c sigma(z | Lambda)
        lam = 0.7 - 0.4j
        basis2 = LatticeBasis(lam, lam * 1j)
        z = 0.3 + 0.1j
        assert weierstrass_sigma(basis2, lam * z) == pytest.approx(
            lam * weierstrass_sigma(SQUARE, z), rel=1e-11
        )


def _mpmath_sigma(basis, z):
    """sigma(z) from Jacobi theta functions, DLMF 23.6.8-9, at 30 digits.

    The half-periods are omega1/2 and omega2/2, so q = exp(i pi omega2/omega1)
    and the full-period increment eta1 is twice DLMF's eta_1.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        w1 = mp.mpc(basis.omega1)
        q = mp.exp(1j * mp.pi * mp.mpc(basis.omega2) / w1)
        d1 = mp.jtheta(1, 0, q, 1)
        eta1 = -mp.pi**2 * mp.jtheta(1, 0, q, 3) / (3 * w1 * d1)
        zz = mp.mpc(z)
        theta = mp.jtheta(1, mp.pi * zz / w1, q)
        return complex(w1 / mp.pi * mp.exp(eta1 * zz**2 / (2 * w1)) * theta / d1)


# a reduced basis, and a non-reduced skew one that exercises the basis reduction
NON_SQUARE = {
    "hexagonal": LatticeBasis(1.0, complex(math.cos(math.pi / 3), math.sin(math.pi / 3))),
    "skew": LatticeBasis(1.1 + 0.3j, 2.0 + 1.2j),
}


class TestSigmaIndependentReference:
    def test_reference_matches_frozen_square_values(self):
        for z, ref in SIGMA_REF.items():
            assert _mpmath_sigma(SQUARE, z) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(NON_SQUARE))
    @pytest.mark.parametrize("z", sorted(SIGMA_REF, key=abs))
    def test_non_square_values(self, name, z):
        basis = NON_SQUARE[name]
        ref = _mpmath_sigma(basis, z)
        assert weierstrass_sigma(basis, z) == pytest.approx(ref, rel=1e-12)


class TestSigmaTilde:
    def test_square_reduces_to_sigma(self):
        # nu = 0 for the square lattice, so sigma_tilde == sigma
        z = 0.37 - 0.22j
        assert sigma_tilde(SQUARE, z) == pytest.approx(SIGMA_REF[z], rel=1e-12)

    def test_modulus_periodicity(self):
        # |sigma_tilde(z + w)| = e^{mu(|z+w|^2 - |z|^2)/1} ... the periodic part:
        # log|sigma_tilde| - mu |z|^2 is invariant under lattice translations
        basis = LatticeBasis(1.1 + 0.3j, -0.2 + 0.9j)
        c = lattice_constants(basis)
        rng = np.random.default_rng(11)
        z = rng.uniform(-0.3, 0.3, 6) + 1j * rng.uniform(-0.3, 0.3, 6)
        base = log_abs_sigma_tilde(basis, z) - c.mu * np.abs(z) ** 2
        for lam in [basis.omega1, basis.omega2, 2 * basis.omega1 - basis.omega2]:
            shifted = log_abs_sigma_tilde(basis, z + lam) - c.mu * np.abs(z + lam) ** 2
            np.testing.assert_allclose(shifted, base, atol=1e-9)

    def test_large_argument_log_form(self):
        c = lattice_constants(SQUARE)
        z = 40.0 + 0.5j + 0.25 + 0.25j  # away from lattice points
        val = log_abs_sigma_tilde(SQUARE, z)
        assert np.isfinite(val)
        # dominated by the Gaussian growth term
        assert val == pytest.approx(c.mu * abs(z) ** 2, rel=0.01)


class TestPrimaryFactor:
    def test_reference_values(self):
        # mpmath: E(0.3+0.4i, 2), E(0.5, 1)
        assert primary_factor(0.3 + 0.4j, 2) == pytest.approx(
            1.05085926528231680065 + 0.00089731397361739034788j, rel=1e-14
        )
        assert primary_factor(0.5, 1) == pytest.approx(0.82436063535006407342, rel=1e-14)

    def test_genus_zero(self):
        u = np.array([0.2 + 0.1j, 0.9, -3.0 + 1j])
        np.testing.assert_allclose(primary_factor(u, 0), 1.0 - u, rtol=1e-12)

    @given(
        st.complex_numbers(max_magnitude=0.45, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_log_matches_direct(self, u, p):
        direct = np.log(abs((1 - u) * np.exp(sum(u**k / k for k in range(1, p + 1)))))
        assert np.real(log_primary_factor(u, p)) == pytest.approx(direct, abs=1e-10)

    def test_zero_at_one(self):
        assert primary_factor(1.0, 3) == 0.0
        assert np.isneginf(np.real(log_primary_factor(1.0, 3)))


class TestCanonicalProducts:
    def test_finite_product_matches_direct(self):
        zeros = np.array([1.0, -2.0 + 1j, 0.5j])
        z = 0.3 - 0.7j
        direct = math.log(abs(np.prod(1 - z / zeros)))
        assert canonical_product(zeros, z, genus=0) == pytest.approx(direct, rel=1e-12)

    def test_genus1_integers_give_sin(self):
        # z * prod_{n != 0} E(z/n, 1) = sin(pi z)/pi
        def enum(r):
            n = np.arange(1, int(r) + 1)
            return np.concatenate([n, -n]).astype(complex)

        # genus-1 tails shrink like |z|^2 / R, so the tolerance must respect
        # the doubling budget
        z = np.array([0.3 + 0.2j, -0.55 + 0.45j])
        log_abs, radii, inc, ok = canonical_product_limit(
            enum, z, genus=1, r0=8.0, tol=1e-6, origin_multiplicity=1
        )
        assert ok
        expected = np.real(log_sin(math.pi * z)) - math.log(math.pi)
        np.testing.assert_allclose(log_abs, expected, atol=1e-6)

    def test_genus2_square_lattice_gives_sigma(self):
        def enum(r):
            n = int(r) + 1
            g = np.arange(-n, n + 1)
            pts = (g[:, None] + 1j * g[None, :]).ravel()
            pts = pts[pts != 0]
            return pts[np.abs(pts) <= r]

        z = 0.2 + 0.2j
        log_abs, radii, inc, ok = canonical_product_limit(
            enum, z, genus=2, r0=10.0, tol=1e-6, origin_multiplicity=1
        )
        assert ok
        assert log_abs == pytest.approx(log_sigma(SQUARE, z).real, abs=1e-5)

    def test_no_stagnation_reported_when_divergent(self):
        # genus 0 over the integers diverges: the flag must stay False
        def enum(r):
            n = np.arange(1, int(r) + 1)
            return np.concatenate([n, -n]).astype(complex)

        _, _, _, ok = canonical_product_limit(
            enum, 0.3 + 0.1j, genus=0, r0=4.0, tol=1e-9, max_doublings=8
        )
        assert not ok


class TestChainsAndStars:
    def test_chain_zero_locations(self):
        # exact -inf only where the argument of sin is exactly 0
        assert np.isneginf(chain_log_abs(1.0, 0.0, 0.0))
        assert np.isneginf(chain_log_abs(2.0, 0.5, 0.5))
        # other chain sites: zero up to roundoff in sin(pi * n)
        assert chain_log_abs(1.0, 0.0, 3.0) < -30
        assert chain_log_abs(2.0, 0.5, 4.5) < -30
        assert chain_log_abs(2.0, 0.5, 1.5 + 1e-3) > -8

    def test_chain_large_imaginary_growth(self):
        # ln|sin(pi z)| ~ pi |Im z| - ln 2
        v = chain_log_abs(1.0, 0.0, 0.3 + 50j)
        assert v == pytest.approx(math.pi * 50 - math.log(2), rel=1e-9)

    def test_chain_dlog_is_derivative(self):
        z = 0.37 + 0.41j
        h = 1e-6
        num = (chain_log_abs(1.5, 0.2, z + h) - chain_log_abs(1.5, 0.2, z - h)) / (2 * h)
        assert chain_dlog(1.5, 0.2, z).real == pytest.approx(num, rel=1e-6)

    def test_star_zeros_and_origin_order(self):
        # sin(pi z^3)/z^2 vanishes at cube roots of integers, simple zero at 0
        assert star_log_abs(3, 2.0 ** (1 / 3)) < -30
        near0 = star_log_abs(3, 1e-4) - math.log(1e-4)
        assert near0 == pytest.approx(math.log(math.pi), abs=1e-6)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_star_origin_is_a_zero(self, order):
        # -inf there, not -inf - (N-1)(-inf) = nan or 0 * (-inf) = nan
        assert star_log_abs(order, 0.0) == -np.inf
        got = star_log_abs(order, np.array([0.0, 1e-5, 0.5 + 0.5j]))
        assert got[0] == -np.inf
        assert got[1] == pytest.approx(math.log(math.pi) + math.log(1e-5), abs=1e-9)
        assert np.isfinite(got[2])

    def test_sinc_sqrt(self):
        assert sinc_sqrt(0.0) == pytest.approx(1.0, rel=1e-15)
        w = 2.25  # sqrt = 1.5
        assert sinc_sqrt(w) == pytest.approx(math.sin(1.5) / 1.5, rel=1e-13)
        # entire continuation to negative w: sin(i y)/(i y) = sinh(y)/y
        assert sinc_sqrt(-4.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-13)
        # smooth across the series/direct switch
        assert sinc_sqrt(1.0001e-4) == pytest.approx(sinc_sqrt(0.9999e-4), rel=1e-7)


def _mp_log_abs_sin(v):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return float(mp.log(abs(mp.sin(mp.mpc(v.real, v.imag)))))


def _mp_log_abs_sigma_tilde(basis, z):
    """ln |exp(-nu z^2) sigma(z)| from Jacobi theta functions (as in
    _mpmath_sigma), with nu from the mpmath increments and the Legendre
    relation, in log form so that |z| = 64 does not overflow."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        w1, w2 = mp.mpc(basis.omega1), mp.mpc(basis.omega2)
        q = mp.exp(1j * mp.pi * w2 / w1)
        d1 = mp.jtheta(1, 0, q, 1)
        eta1 = -mp.pi**2 * mp.jtheta(1, 0, q, 3) / (3 * w1 * d1)
        eta2 = (eta1 * w2 - 2j * mp.pi) / w1
        nu = 0.25j * (eta1 * mp.conj(w2) - eta2 * mp.conj(w1)) / mp.im(mp.conj(w1) * w2)
        zz = mp.mpc(z)
        theta = mp.jtheta(1, mp.pi * zz / w1, q)
        log_sigma = mp.log(w1 / mp.pi) + eta1 * zz**2 / (2 * w1) + mp.log(theta / d1)
        return float(mp.re(log_sigma - nu * zz**2))


class TestLogAbsSinReference:
    """log_abs_sin against 30-digit mpmath at the evaluated doubles."""

    def _check(self, v):
        v = np.asarray(v, dtype=complex)
        got = log_abs_sin(v)
        for g, vi in zip(got, v):
            ref = _mp_log_abs_sin(vi)
            assert abs(g - ref) <= 1e-15 * max(1.0, abs(ref)), vi

    def test_near_zeros_large_real_part(self):
        ks = np.array([1, 7, 1000, 123457, 10**6, -999997])
        offsets = np.array([1e-6, -3e-9, 1e-12j, 2e-7 + 5e-7j, -1e-6j])
        self._check((ks[:, None] * math.pi + offsets[None, :]).ravel())

    def test_both_sides_of_the_switch(self):
        x = np.array([0.3, -2.2, 1e5 + 0.7])
        y = np.array([19.5, 19.999999, 20.0, 20.000001, 20.5])
        self._check((x[:, None] + 1j * np.concatenate([y, -y])[None, :]).ravel())

    def test_far_imaginary_part_where_sinh_overflows(self):
        v = np.array([0.1 + 800j, 0.1 - 800j, 1e5 + 800j, -3.0 - 800j])
        got = log_abs_sin(v)
        assert np.all(np.isfinite(got))
        self._check(v)

    def test_tiny_arguments(self):
        # below 1e-154 the squares underflow; the value must not
        self._check([1e-200, 1e-170j, 3e-160 + 4e-160j, 2e-308])

    def test_exact_zeros(self):
        assert log_abs_sin(0.0) == -np.inf
        assert np.all(log_abs_sin(np.array([0.0, -0.0, 0j])) == -np.inf)
        assert chain_log_abs(1.5, 0.25 + 0.5j, 0.25 + 0.5j) == -np.inf

    def test_zero_dim_input_gives_a_scalar(self):
        for v in (0.3 + 0.2j, np.array(0.3 + 0.2j), 0.1 + 800j):
            got = log_abs_sin(v)
            assert np.ndim(got) == 0 and isinstance(got, np.floating)
            assert got == log_abs_sin(np.array([v]))[0]


# bases for the sigma_tilde references: the side-2 lattice of the examples,
# an elongated one (Im tau = 6) and the non-reduced skew basis
SIGMA_TILDE_BASES = {
    "square": SQUARE,
    "side-2": LatticeBasis(2.0, 2.0j),
    "elongated": LatticeBasis(1.0, 0.25 + 6.0j),
    "skew": NON_SQUARE["skew"],
}
SITE_INDICES = [(0, 0), (1, 0), (0, 1), (3, -2), (-5, 4)]


class TestLogAbsSigmaTildeReference:
    """The real kernel against mpmath theta functions.

    Near a site at distance d the cell reduction itself rounds u0 by about
    eps |z|, which the kernel turns into eps |z| / d in ln|sigma_tilde|
    whatever the method; the bound allows that on top of 1e-14 relative."""

    @staticmethod
    def _check(basis, z, distance):
        got = log_abs_sigma_tilde(basis, np.asarray(z))
        for g, zi in zip(got, z):
            ref = _mp_log_abs_sigma_tilde(basis, zi)
            tol = 1e-14 * max(1.0, abs(ref)) + 1e-15 * abs(zi) / distance
            assert abs(g - ref) <= tol, zi

    @pytest.mark.parametrize("name", sorted(SIGMA_TILDE_BASES))
    def test_near_sites(self, name):
        basis = SIGMA_TILDE_BASES[name]
        sites = [m1 * basis.omega1 + m2 * basis.omega2 for m1, m2 in SITE_INDICES]
        z = [s + 1e-8 * complex(math.cos(p), math.sin(p)) for s in sites for p in (0.3, 2.1)]
        self._check(basis, z, 1e-8)

    @pytest.mark.parametrize("name", sorted(SIGMA_TILDE_BASES))
    def test_growth_reach(self, name):
        # |z| = 64, the largest radius of the `special growth` command; each
        # point lies over 0.03 from its nearest site
        basis = SIGMA_TILDE_BASES[name]
        z = [64.0 * complex(math.cos(p), math.sin(p)) for p in (0.1, 0.9, 2.0, 3.3, 4.4, 5.9)]
        self._check(basis, z, 0.01)

    @pytest.mark.parametrize("name", ["square", "side-2", "elongated"])
    def test_minus_inf_on_sites(self, name):
        # bases whose cell split of these sites is exact in binary
        basis = SIGMA_TILDE_BASES[name]
        m = np.arange(-3, 4)
        sites = (m[:, None] * basis.omega1 + m[None, :] * basis.omega2).ravel()
        assert np.all(log_abs_sigma_tilde(basis, sites) == -np.inf)
        assert log_abs_sigma_tilde(basis, 0j) == -np.inf


class TestLogSin:
    @given(
        st.floats(-3, 3), st.floats(-100, 100),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_where_finite(self, x, y):
        v = complex(x, y)
        got = log_sin(v)
        if abs(y) < 40:
            ref = np.log(np.sin(v) + 0j) if np.sin(v) != 0 else None
            if ref is not None and np.isfinite(ref):
                assert got.real == pytest.approx(ref.real, abs=1e-9)
        else:
            assert got.real == pytest.approx(abs(y) - math.log(2), rel=1e-9)

    def test_domain_error_on_nan(self):
        with pytest.raises(DomainError):
            log_sigma(SQUARE, complex("nan"))


def _log_abs_sinc_sqrt_one(u):
    """ln|sin(sqrt u)/sqrt u| by its own square root: ExoticSinc took
    ln|S(pi u)| and ln|S(-pi u)| in two such calls."""
    small = np.abs(u) < 1e-4
    out = np.empty(u.shape, dtype=float)
    if small.any():
        out[small] = np.log(np.abs(sinc_sqrt(u[small])))
    big = ~small
    if big.any():
        r = np.sqrt(u[big])
        out[big] = log_abs_sin(r) - 0.5 * np.log(np.abs(u[big]))
    return out


_SIGNED_ZEROS = (0.0, -0.0)
# arguments of the sinc pair: any direction at moduli 1e-6 to 1e5; the real
# axis (and the negative one) and the imaginary axis with either zero; the
# series branch |u| < 1e-4; and u = w^2 with |Im w| >= 20 (the far branch
# of ln|sin| for S(u)) or |Re w| >= 20 (for S(-u))
_sinc_args = st.one_of(
    st.builds(
        lambda e, phi: 10.0**e * complex(math.cos(phi), math.sin(phi)),
        st.floats(-6.0, 5.0),
        st.floats(-math.pi, math.pi),
    ),
    st.builds(complex, st.floats(-1e5, 1e5), st.sampled_from(_SIGNED_ZEROS)),
    st.builds(complex, st.sampled_from(_SIGNED_ZEROS), st.floats(-1e5, 1e5)),
    st.builds(complex, st.sampled_from(_SIGNED_ZEROS), st.sampled_from(_SIGNED_ZEROS)),
    st.builds(complex, st.floats(-1e-4, 1e-4), st.floats(-1e-4, 1e-4)),
    st.builds(
        lambda a, b, swap: complex(b, a) ** 2 if swap else complex(a, b) ** 2,
        st.floats(-300.0, 300.0),
        st.one_of(st.floats(20.0, 300.0), st.floats(-300.0, -20.0)),
        st.booleans(),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_sinc_args, min_size=1, max_size=40))
@example([0j, -0j, complex(0.0, -0.0), complex(-0.0, -0.0), 1e-4, -1e-4, 1e-4j, 400.0, -400.0, 400j, (3 + 20j) ** 2])
def test_sinc_sqrt_pair_matches_two_square_roots(values):
    u = np.array(values, dtype=complex)
    plus, minus = log_abs_sinc_sqrt_pair(u)
    assert plus.tobytes() == _log_abs_sinc_sqrt_one(u).tobytes()
    assert minus.tobytes() == _log_abs_sinc_sqrt_one(-u).tobytes()
