"""Special-function kernels: seeded inputs, independent references, timing.

Each kernel is evaluated at a panel-sized array (36 points, as the
quadrature calls it) and a batched one (36 000 points).  The sine-type
kernels are compared on every point with numpy closed forms,
log|sin(x + iy)| = log(sin^2 x + sinh^2 y) / 2; the sigma kernels with
mpmath theta functions (DLMF 23.6.8-9) on a sample.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

SIZES = {"p36": 36, "b36k": 36_000}
KERNELS = ("log_sigma", "log_abs_sigma_tilde", "log_sin", "chain_log_abs", "star_log_abs")
SIGMA_SAMPLE = 6  # mpmath evaluations per sigma kernel and size
SINE_TOL = 1e-9  # absolute, times max(1, |reference|)
SIGMA_TOL = 1e-9
SQUARE = (1.0 + 0j, 1.0j)


@dataclass
class KernelCase:
    name: str
    size: str
    args: tuple  # leading arguments before the points
    points: np.ndarray


def _disc(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))


def _box(rng, n, half_x, half_y):
    return rng.uniform(-half_x, half_x, n) + 1j * rng.uniform(-half_y, half_y, n)


def make_cases(special, seed: int) -> list:
    """Inputs in the ranges the quadrature reaches: |z| <= 8 for sigma,
    |Im| up to 30 for the sines (both branches of log_sin)."""
    rng = np.random.default_rng([seed, 36])
    basis = special.LatticeBasis(*SQUARE)
    cases = []
    for size, n in SIZES.items():
        cases += [
            KernelCase("log_sigma", size, (basis,), _disc(rng, n, 8.0)),
            KernelCase("log_abs_sigma_tilde", size, (basis,), _disc(rng, n, 8.0)),
            KernelCase("log_sin", size, (), _box(rng, n, 10.0, 30.0)),
            KernelCase("chain_log_abs", size, (1.0, 0.25 + 0.1j), _box(rng, n, 20.0, 8.0)),
            KernelCase("star_log_abs", size, (3,), _disc(rng, n, 2.5)),
        ]
    return cases


def _log_abs_sin(v):
    x, y = v.real, v.imag
    return 0.5 * np.log(np.sin(x) ** 2 + np.sinh(y) ** 2)


def _mp_sigma(mp, omega1: complex, omega2: complex):
    """log sigma (full periods) from theta functions, with mpmath only."""
    w1, w2 = mp.mpc(omega1), mp.mpc(omega2)
    half = w1 / 2
    q = mp.exp(1j * mp.pi * w2 / w1)
    d1 = mp.jtheta(1, 0, q, 1)
    eta_half = -(mp.pi**2) / (12 * half) * mp.jtheta(1, 0, q, 3) / d1
    eta1 = 2 * eta_half  # increment over the full period omega1
    eta2 = (eta1 * w2 - 2j * mp.pi) / w1  # Legendre relation
    area = mp.im(mp.conj(w1) * w2)
    nu = 0.25j * (eta1 * mp.conj(w2) - eta2 * mp.conj(w1)) / area

    def log_sigma(z):
        z = mp.mpc(z)
        v = mp.pi * z / w1
        return mp.log(w1 / mp.pi) + eta_half * z * z / (2 * half) + mp.log(mp.jtheta(1, v, q) / d1)

    return log_sigma, nu


def _sigma_errors(case: KernelCase, got: np.ndarray) -> list:
    import mpmath as mp

    mp.mp.dps = 30
    basis = case.args[0]
    log_sigma, nu = _mp_sigma(mp, basis.omega1, basis.omega2)
    idx = np.linspace(0, case.points.size - 1, SIGMA_SAMPLE).astype(int)
    fails = []
    for i in idx:
        z = complex(case.points[i])
        ref = log_sigma(z)
        if case.name == "log_abs_sigma_tilde":
            ref = mp.re(ref - nu * z * z)
            err = abs(float(got[i]) - float(ref))
        else:
            d_re = abs(got[i].real - float(mp.re(ref)))
            d_im = abs(float(mp.im(ref)) - got[i].imag) % (2 * math.pi)
            err = max(d_re, min(d_im, 2 * math.pi - d_im))
        scale = max(1.0, abs(float(mp.re(ref))))
        if not err <= SIGMA_TOL * scale:
            fails.append(f"{case.name}[{case.size}] at {z}: error {err:.2e} against mpmath")
    return fails


def _sine_reference(case: KernelCase) -> np.ndarray:
    z = case.points
    if case.name == "log_sin":
        return _log_abs_sin(z)
    if case.name == "chain_log_abs":
        omega0, kappa = case.args
        return _log_abs_sin(math.pi * (z - kappa) / omega0)
    (order,) = case.args
    return _log_abs_sin(math.pi * z**order) - (order - 1) * np.log(np.abs(z))


def evaluate(special, case: KernelCase):
    return getattr(special, case.name)(*case.args, case.points)


def check(case: KernelCase, got) -> list:
    """Failures of one kernel output against its independent reference."""
    got = np.asarray(got)
    if got.shape != case.points.shape:
        return [f"{case.name}[{case.size}] returned shape {got.shape}"]
    if case.name in ("log_sigma", "log_abs_sigma_tilde"):
        return _sigma_errors(case, got)
    ref = _sine_reference(case)
    err = np.abs(np.real(got) - ref) / np.maximum(1.0, np.abs(ref))
    worst = float(np.max(err))
    if not worst <= SINE_TOL:
        return [f"{case.name}[{case.size}] worst error {worst:.2e} against the closed form"]
    return []


def ns_per_point(special, case: KernelCase, min_seconds: float = 0.1, batches: int = 7) -> float:
    """Fastest batch's time per point; each batch repeats the call for about
    min_seconds / batches.  The minimum, as in timeit: other load on the
    machine only ever adds time."""
    fn = getattr(special, case.name)
    evaluate(special, case)  # warm caches (reduced lattice, ufunc loops)
    t0 = time.perf_counter()
    evaluate(special, case)
    once = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(min_seconds / batches / once))
    per_point = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*case.args, case.points)
        per_point.append((time.perf_counter() - t0) / reps / case.points.size)
    return min(per_point) * 1e9
