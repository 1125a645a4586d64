"""Checks of each answer, made apart from the program.

Every function returns a list of failure messages; an empty list passes.
The expected values come from `questions` (theorem conditions, frozen
references) or are computed here (lattice point counts, the star sector
oracle), never from the code under test.
"""

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

RESIDUAL_ORDER = (1.8, 2.2)
REFERENCE_REL = 1e-4
ORACLE_REL = 0.01
GRID_SITE_CLEARANCE = 1e-9


@dataclass
class Outcome:
    """What one question produced.

    `quads` are the QuadratureResults the CLI's norm calls returned;
    `enumerations` are (configuration, r_max, number of sites) for every
    support enumeration made while answering; `star_disc` is the truncated
    disc norm of the star question; `segments` are the times between the
    answer's stamps (see `spans.Taps`).
    """

    exit_code: int | None
    stdout: str
    seconds: float
    quads: list = field(default_factory=list)
    enumerations: list = field(default_factory=list)
    star_disc: float | None = None
    error: str | None = None
    stderr: str = ""
    segments: object = None


def _report(out: Outcome):
    try:
        return json.loads(out.stdout), []
    except json.JSONDecodeError:
        return None, ["stdout is not a JSON report"]


def check_verdict(q, report) -> list:
    got = report.get("verdict", {})
    want = q.verdict
    fails = []
    if got.get("status") != want.status:
        fails.append(f"verdict {got.get('status')} != expected {want.status}")
    if got.get("theorem") != want.theorem:
        fails.append(f"theorem {got.get('theorem')!r} != expected {want.theorem!r}")
    if got.get("multiplicity") != want.multiplicity:
        fails.append(f"multiplicity {got.get('multiplicity')} != expected {want.multiplicity}")
    return fails


def check_certificate(q, report) -> list:
    """The certificate flag matches the verdict; residual orders near 2."""
    fails = []
    if report.get("status") != "PASS":
        fails.append(f"report status {report.get('status')}")
    if q.verdict.exists:
        members = report.get("members", [])
        if len(members) != q.members:
            fails.append(f"{len(members)} members, expected {q.members}")
        lo, hi = RESIDUAL_ORDER
        for i, m in enumerate(members):
            if m["quadrature"]["flag"] != "Convergent":
                fails.append(f"member {i} flag {m['quadrature']['flag']} under an existence verdict")
            order = m["residual"]["observedOrder"]
            if not lo <= order <= hi:
                fails.append(f"member {i} residual order {order} outside [{lo}, {hi}]")
    else:
        flag = report.get("candidate", {}).get("quadrature", {}).get("flag")
        if flag != "Divergent":
            fails.append(f"divergence candidate flag {flag} under a non-existence verdict")
    return fails


def member_norms(report) -> list:
    return [m["quadrature"]["value"] for m in report.get("members", [])]


def check_reference_norm(report, reference: float) -> list:
    norms = member_norms(report)
    if not norms:
        return ["no member norm to compare with the reference"]
    rel = abs(norms[0] - reference) / reference
    if not rel < REFERENCE_REL:
        return [f"norm {norms[0]} differs from reference {reference} by rel {rel:.2e}"]
    return []


def check_increasing(report) -> list:
    norms = member_norms(report)
    if len(norms) < 2 or not all(a < b for a, b in zip(norms, norms[1:])):
        return [f"member norms not strictly increasing: {norms}"]
    return []


def check_star_oracle(direct, oracle: float) -> list:
    if direct is None:
        return ["no truncated-disc star norm"]
    rel = abs(direct - oracle) / abs(oracle)
    if not rel < ORACLE_REL:
        return [f"star disc norm {direct} vs sector oracle {oracle}: rel {rel:.2e}"]
    return []


def check_partial_totals(quads) -> list:
    """A certified value plus its error bounds every partial total of its
    trace: the integrand |psi|^2 is nonnegative."""
    fails = []
    for quad in quads:
        if quad.flag != "Convergent":
            continue
        top = max((total for _, total in quad.radii_trace), default=0.0)
        if quad.value + quad.error_estimate < top * (1.0 - 1e-12):
            fails.append(
                f"certified {quad.value} + {quad.error_estimate} below partial total {top}"
            )
    return fails


def check_quad_count(q, quads) -> list:
    want = q.members if q.verdict.exists else 1
    if len(quads) != want:
        return [f"{len(quads)} norm quadratures, expected {want}"]
    return []


# ---------------------------------------------------------------------------
# support counts


def _count_line(a: complex, d: complex, r: float) -> int:
    """#{k integer : |a + k d| <= r}, from the roots of a quadratic in k."""
    # |d|^2 k^2 + 2 Re(a conj d) k + |a|^2 - r^2 <= 0
    A = abs(d) ** 2
    B = 2.0 * (a * d.conjugate()).real
    C = abs(a) ** 2 - r * r
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return 0
    root = math.sqrt(disc)
    lo, hi = (-B - root) / (2.0 * A), (-B + root) / (2.0 * A)
    k0, k1 = math.ceil(lo - 1e-9), math.floor(hi + 1e-9)
    # resolve points within rounding of the circle exactly as |z| <= r
    while k0 <= k1 and abs(a + k0 * d) > r:
        k0 += 1
    while k1 >= k0 and abs(a + k1 * d) > r:
        k1 -= 1
    return max(0, k1 - k0 + 1)


def count_lattice(w1: complex, w2: complex, kappa: complex, r: float) -> int:
    """Points kappa + m w1 + n w2 with modulus at most r, one row of m at a
    time.  The row index range comes from the distance between rows."""
    height = abs((w1.conjugate() * w2).imag) / abs(w2)  # distance between rows
    span = int(math.ceil((r + abs(kappa)) / height)) + 1
    return sum(_count_line(kappa + m * w1, w2, r) for m in range(-span, span + 1))


def count_support(config, r: float) -> int:
    """The benchmark's own count of the sites enumerate_support must list."""
    n = sum(1 for s in config.finite_sites if abs(s.position) <= r)
    for ch in config.chains:
        n += sum(_count_line(o.position, complex(ch.omega0), r) for o in ch.offsets)
    for lat in config.lattices:
        w1, w2 = lat.basis.omega1, lat.basis.omega2
        n += sum(count_lattice(w1, w2, o.position, r) for o in lat.offsets)
    if config.star is not None:
        star = config.star
        m = int((r / star.scale) ** star.order)
        while star.scale * (m + 1) ** (1.0 / star.order) <= r:
            m += 1
        while m > 0 and star.scale * m ** (1.0 / star.order) > r:
            m -= 1
        n += 1 + 2 * star.order * m
    pert = config.perturbation
    if pert is not None:
        n -= sum(1 for p in pert.removed if abs(p) <= r)
        n += sum(1 for a in pert.added for p in a.points if abs(p) <= r)
    return n


def check_enumerations(enumerations) -> list:
    fails = []
    for config, r, got in enumerations:
        want = count_support(config, r)
        if got != want:
            fails.append(f"enumerate_support(r={r}) listed {got} sites, own count {want}")
    return fails


# ---------------------------------------------------------------------------
# grids


def check_grid(text: str, resolution, sites) -> list:
    try:
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return [f"grid CSV unreadable: {exc}"]
    nx, ny = resolution
    if data.shape != (nx * ny, 3):
        return [f"grid has shape {data.shape}, expected {(nx * ny, 3)}"]
    z = data[:, 0] + 1j * data[:, 1]
    dist = np.full(z.shape, np.inf)
    for p in np.asarray(sites).ravel():  # one site at a time keeps memory at O(nodes)
        np.minimum(dist, np.abs(z - p), out=dist)
    bad = ~np.isfinite(data[:, 2]) & (dist > GRID_SITE_CLEARANCE)
    if bad.any():
        return [f"{int(bad.sum())} non-finite grid values away from flux sites"]
    return []


def star_sector_oracle(
    integrate_disc, alpha: float, theta: float, order: int, radius_w: float
) -> float:
    """Acceptance criterion 10's oracle: the star norm over |z| <= radius_w^(1/order)
    pushed through w = z^order, a plane integral of a power-weighted sinc ratio
    written here with numpy closed forms.  Only the quadrature routine is
    taken from the program."""
    beta = 4.0 - 2.0 * theta - 2.0 * (1.0 - theta) / order

    def log_abs(w):
        w = np.asarray(w, dtype=complex)
        x, y = w.real, w.imag
        with np.errstate(divide="ignore"):
            return (
                -0.5 * beta * np.log(np.abs(w))
                + 0.5 * np.log(np.sin(alpha * x) ** 2 + np.sinh(alpha * y) ** 2)
                - 0.5 * theta * np.log(np.sin(math.pi * x) ** 2 + np.sinh(math.pi * y) ** 2)
            )

    sites = [(0j, 1.0 - theta - 0.5 * beta)]
    for m in range(1, int(radius_w) + 1):
        sites += [(complex(m), -theta), (complex(-m), -theta)]
    sector, _ = integrate_disc(log_abs, sites, radius_w, 1e-9, 1e-5)
    return sector / order


# ---------------------------------------------------------------------------
# invariance groups


def verdict_key(report) -> tuple:
    v = report.get("verdict", {})
    return (
        v.get("status"),
        v.get("theorem"),
        v.get("multiplicity"),
        v.get("conditionValues", {}).get("conditionIndex"),
    )


def check_groups(keys_by_group: dict) -> set:
    """Groups whose verdict keys differ: theta + k and translation copies of
    one configuration must get the same verdict."""
    return {g for g, keys in keys_by_group.items() if len(set(keys)) > 1}


def check_question(q, out: Outcome, oracle: float | None = None) -> list:
    """Every check that applies to question q."""
    if out.error is not None:
        return [out.error]
    fails = []
    if out.exit_code != q.exit_code:
        fails.append(f"exit code {out.exit_code}, expected {q.exit_code} {out.stderr.strip()[-300:]}")
    if q.command == "grid":
        fails += check_grid(out.stdout, q.extra["resolution"], q.extra["sites"])
    else:
        report, fails_json = _report(out)
        if report is None:
            return fails + fails_json
        fails += check_verdict(q, report)
        if q.command == "verify":
            fails += check_certificate(q, report)
            fails += check_quad_count(q, out.quads)
            fails += check_partial_totals(out.quads)
            if "reference_norm" in q.extra:
                fails += check_reference_norm(report, q.extra["reference_norm"])
            if q.extra.get("increasing"):
                fails += check_increasing(report)
        if q.extra.get("star_oracle"):
            fails += check_star_oracle(out.star_disc, oracle)
    fails += check_enumerations(out.enumerations)
    return fails
