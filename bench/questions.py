"""The questions of each workload, their configs, and the verdicts expected
from the theorems' own conditions.

Nothing here imports fluxmodes: configs are plain JSON documents and every
expected verdict is computed from the raw parameters that built them.
"""

import copy
import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("lattice-certify", "sinc-certify", "decide-sweep")
# rounds per timed block: about 30 s of answers on a busy host
BLOCK_ROUNDS = {"lattice-certify": 6, "sinc-certify": 7, "decide-sweep": 20}

# independent high-resolution reference quadrature for the two-site
# theta = (0.6, 0.6) ground mode (the frozen value of acceptance criterion 05)
TWO_SITE_NORM_REF = 27.4844928468641413
STAR_ALPHA = math.pi / 4.0
STAR_ORDER = 3
STAR_THETA = 0.5
STAR_DISC_W = 3.5  # sector oracle disc radius in w = z^3
SQRT2 = math.sqrt(2.0)
RANDOM_CONFIGS = 6  # two of each kind
RANDOM_LATTICE_AREA = 1.2
LANDAU_SIDE = 2.0  # the Thm 6.8 lattice; eta0 = xi0 * LANDAU_SIDE**2
GRID_BOUNDS = (-2.0, 2.0, -2.0, 2.0)
GRID_RESOLUTION = (201, 201)


@dataclass(frozen=True)
class Verdict:
    status: str
    theorem: str
    multiplicity: int | None = None

    @property
    def exists(self) -> bool:
        return self.status in ("ExistsFinite", "ExistsInfinite")


@dataclass
class Question:
    """One fluxmodes CLI call and what its answer must satisfy.

    `argv` names the config by key; the runner substitutes the file path.
    `extra` holds the per-question checks: reference norm, increasing member
    norms, the star sector oracle, grid sites, or an invariance group.
    """

    qid: str
    config: str
    argv: list
    verdict: Verdict
    exit_code: int = 0
    members: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# expected verdicts from the theorems' conditions


def thm_6_1(thetas, spin: str) -> Verdict:
    """Finite set: spin + exists iff sum theta > 1, multiplicity the number of
    integers k >= 0 below the excess; spin - mirrors to 1 - theta."""
    th = [t % 1.0 for t in thetas]
    th = [t for t in th if t > 0.0]
    total = sum(th)
    excess = total - 1.0 if spin == "+" else len(th) - total - 1.0
    if excess > 0.0:
        return Verdict("ExistsFinite", "Thm 6.1", math.ceil(excess))
    return Verdict("NotExists", "Thm 6.1")


def thm_6_8(xi0: float, area: float, thetas, spin: str) -> Verdict:
    """Field plus one lattice: the aligned spin always exists; the other one
    exists iff eta0 + sum theta < n (xi0 > 0), eta0 = xi0 * cell area."""
    aligned = "+" if xi0 > 0.0 else "-"
    if spin == aligned:
        return Verdict("ExistsInfinite", "Thm 6.8")
    ok = xi0 * area + sum(thetas) < len(thetas) if xi0 > 0.0 else abs(xi0 * area) < sum(thetas)
    return Verdict("ExistsInfinite" if ok else "NotExists", "Thm 6.8")


def thm_6_7(xi0: float, spin: str) -> Verdict:
    """Field plus a finite-type union of lattices: the aligned spin exists,
    the other does not."""
    aligned = "+" if xi0 > 0.0 else "-"
    return Verdict("ExistsInfinite" if spin == aligned else "NotExists", "Thm 6.7")


def exit_for(verdict: Verdict) -> int:
    return 0 if verdict.exists else 3


# ---------------------------------------------------------------------------
# config documents


def _pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _lattice(w1, w2, kappa, theta) -> dict:
    return {
        "omega1": _pair(w1),
        "omega2": _pair(w2),
        "offsets": [{"kappa": _pair(kappa), "theta": theta}],
    }


def _chain(omega0, kappa, theta) -> dict:
    return {"omega0": _pair(omega0), "offsets": [{"kappa": _pair(kappa), "theta": theta}]}


def _finite(*pairs) -> dict:
    return {"finite": [{"position": _pair(p), "theta": t} for p, t in pairs]}


PARALLEL_ADDED = (2.3 + 1.7j, -3.1 + 2.4j, 0.7 - 2.2j, -1.6 - 1.9j, 4.2 + 2.9j)

FIXED_CONFIGS = {
    "lattice2": {"lattices": [_lattice(2.0, 2.0j, 0j, 0.5)]},
    "landau03": {
        "uniform_flux_density": 0.3 / LANDAU_SIDE**2,
        "lattices": [_lattice(LANDAU_SIDE, LANDAU_SIDE * 1j, 0j, 0.5)],
    },
    "landau07": {
        "uniform_flux_density": 0.7 / LANDAU_SIDE**2,
        "lattices": [_lattice(LANDAU_SIDE, LANDAU_SIDE * 1j, 0j, 0.5)],
    },
    "finite_strong": _finite((0j, 0.6), (1.0, 0.6)),
    "finite_weak": _finite((0j, 0.3), (1.0, 0.4)),
    "chain": {"chains": [_chain(1.0, 0j, 0.5)]},
    "parallel": {
        "chains": [_chain(1.0, 0j, 0.5), _chain(2.0, 0.5, 0.5)],
        "perturbation": {
            "removed": [_pair(0.5)],
            "added": [{"points": [_pair(p) for p in PARALLEL_ADDED], "theta": 0.9}],
        },
    },
    "star": {"star": {"order": STAR_ORDER, "theta": STAR_THETA}},
    "two_lattices": {
        "uniform_flux_density": 0.2,
        "lattices": [_lattice(1.0, 1.0j, 0j, 0.5), _lattice(SQRT2, SQRT2 * 1j, 0.1 + 0.1j, 0.5)],
    },
    "patched": {
        "lattices": [_lattice(2.0, 2.0j, 0j, 0.5)],
        "perturbation": {"removed": [_pair(0j)], "added": [{"points": [_pair(1.0 + 0.3j)], "theta": 0.6}]},
    },
}


def random_config(rng: np.random.Generator, kind: int):
    """Acceptance criterion 11's generator for one kind: 0 a finite set, 1 a
    one-atom chain, 2 a one-atom lattice, with jittered offsets.  Returns
    (doc, verdict_fn)."""

    def jitter():
        return complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))

    if kind == 0:
        cells = rng.choice(16, size=int(rng.integers(1, 5)), replace=False)
        pairs = [
            (complex(1.7 * (c % 4) - 2.5, 1.7 * (c // 4) - 2.5) + jitter(), float(rng.uniform(0.1, 0.9)))
            for c in cells
        ]
        thetas = [t for _, t in pairs]
        return _finite(*pairs), lambda spin: thm_6_1(thetas, spin)
    if kind == 1:
        d = np.exp(1j * rng.uniform(0.0, math.pi))
        omega0 = complex(rng.uniform(0.8, 2.0) * d)
        doc = {"chains": [_chain(omega0, jitter(), float(rng.uniform(0.1, 0.9)))]}
        return doc, lambda spin: Verdict("ExistsInfinite", "Thm 6.3")
    w1 = complex(rng.uniform(0.8, 1.6) * np.exp(1j * rng.uniform(0.0, math.pi)))
    tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.7, 1.4))
    # a fixed cell area keeps the work of a lattice question the same for every seed
    w1 *= math.sqrt(RANDOM_LATTICE_AREA / (abs(w1) ** 2 * tau.imag))
    doc = {"lattices": [_lattice(w1, w1 * tau, jitter(), float(rng.uniform(0.1, 0.9)))]}
    return doc, lambda spin: Verdict("ExistsInfinite", "Thm 6.5")


def _sites_of(doc: dict):
    """Every site entry of a document with the key of its position."""
    for s in doc.get("finite", []):
        yield s, "position"
    for comp in doc.get("chains", []) + doc.get("lattices", []):
        for o in comp["offsets"]:
            yield o, "kappa"


def shift_thetas(doc: dict, k: int) -> dict:
    """The same configuration with every flux raised by the integer k."""
    out = copy.deepcopy(doc)
    for site, _ in _sites_of(out):
        site["theta"] += k
    return out


def translate(doc: dict, t: complex) -> dict:
    """The same configuration moved by t."""
    out = copy.deepcopy(doc)
    for site, key in _sites_of(out):
        site[key] = _pair(complex(*site[key]) + t)
    return out


# ---------------------------------------------------------------------------
# flux sites inside the grid window, for the finiteness check


def _lattice_points(w1, w2, kappa, box):
    x0, x1, y0, y1 = box
    r = math.hypot(max(abs(x0), abs(x1)), max(abs(y0), abs(y1))) + abs(kappa)
    n = int(math.ceil(r / min(abs(w1), abs(w2)) * 2)) + 1
    m = np.arange(-n, n + 1)
    pts = (kappa + m[:, None] * w1 + m[None, :] * w2).ravel()
    inside = (pts.real >= x0 - 1) & (pts.real <= x1 + 1) & (pts.imag >= y0 - 1) & (pts.imag <= y1 + 1)
    return pts[inside]


def grid_sites(name: str) -> np.ndarray:
    """Flux sites of a fixed lattice config near the grid window."""
    doc = FIXED_CONFIGS[name]
    pts = [
        _lattice_points(complex(*lat["omega1"]), complex(*lat["omega2"]), complex(*o["kappa"]), GRID_BOUNDS)
        for lat in doc["lattices"]
        for o in lat["offsets"]
    ]
    pts = np.concatenate(pts)
    pert = doc.get("perturbation", {})
    for p in pert.get("removed", []):
        pts = pts[np.abs(pts - complex(*p)) > 1e-12]
    added = [complex(*p) for a in pert.get("added", []) for p in a["points"]]
    return np.append(pts, added)


# ---------------------------------------------------------------------------
# the workloads


def _verify(qid, config, spin, verdict, *opts, members=None, **extra):
    argv = ["verify", config, "--spin", spin, *opts]
    if members is not None:
        argv += ["--count", str(members)]
    if not verdict.exists:
        members = None
    return Question(qid, config, argv, verdict, 0, members, extra)


def _decide(qid, config, spin, verdict, *opts, **extra):
    argv = ["decide", config, "--spin", spin, *opts]
    return Question(qid, config, argv, verdict, exit_for(verdict), None, extra)


def _grid(qid, config, spin, verdict, *opts):
    x0, x1, y0, y1 = GRID_BOUNDS
    nx, ny = GRID_RESOLUTION
    argv = [
        "grid", config, "--spin", spin, *opts,
        "--bounds", repr(x0), repr(x1), repr(y0), repr(y1),
        "--resolution", str(nx), str(ny),
    ]
    extra = {"sites": grid_sites(config), "resolution": GRID_RESOLUTION}
    return Question(qid, config, argv, verdict, 0, None, extra)


def lattice_certify() -> list:
    tol = ("--tol-rel", "1e-2")
    area = LANDAU_SIDE**2
    xi03, xi07 = (FIXED_CONFIGS[c]["uniform_flux_density"] for c in ("landau03", "landau07"))
    return [
        _verify(
            "thm6.5-lattice2-plus", "lattice2", "+", Verdict("ExistsInfinite", "Thm 6.5"),
            *tol, members=3, increasing=True,
        ),
        _verify("thm6.8-eta0.3-minus", "landau03", "-", thm_6_8(xi03, area, [0.5], "-"), *tol, members=1),
        _verify("thm6.8-eta0.7-minus", "landau07", "-", thm_6_8(xi07, area, [0.5], "-"), *tol),
    ]


def sinc_certify() -> list:
    return [
        _verify(
            "thm6.1-strong-plus", "finite_strong", "+", thm_6_1([0.6, 0.6], "+"),
            "--tol-rel", "1e-4", members=1, reference_norm=TWO_SITE_NORM_REF,
        ),
        _verify("thm6.1-weak-plus", "finite_weak", "+", thm_6_1([0.3, 0.4], "+"), "--tol-rel", "1e-2"),
        _verify(
            "thm6.1-weak-minus", "finite_weak", "-", thm_6_1([0.3, 0.4], "-"),
            "--tol-rel", "1e-3", members=1,
        ),
        _verify(
            "thm6.3-chain-plus", "chain", "+", Verdict("ExistsInfinite", "Thm 6.3"),
            "--tol-rel", "1e-1", members=3,
        ),
        _verify(
            "thm7.4-parallel-plus", "parallel", "+", Verdict("ExistsInfinite", "Thm 7.4"),
            "--alpha", "0.4", "--tol-rel", "1e-1", members=1,
        ),
        # the star's member norm is criterion 10's truncated-disc norm, taken
        # after the verdict; `verify` on the star takes 6-11 s at any tolerance
        _decide(
            "s7.5-star-plus", "star", "+", Verdict("ExistsInfinite", "§7.5 theorem"),
            star_oracle=True,
        ),
    ]


def decide_sweep(rng: np.random.Generator):
    """Fixed questions plus RANDOM_CONFIGS seeded configs, each asked as is,
    with its fluxes raised by an integer and translated, for both spins.
    Returns (questions, extra config documents by name)."""
    two_plus, two_minus = thm_6_7(0.2, "+"), thm_6_7(0.2, "-")
    patched = Verdict("ExistsInfinite", "§8.4 theorem")
    qs = [
        _decide("thm6.7-two-lattices-plus-r30", "two_lattices", "+", two_plus, "--r-max", "30"),
        _decide("thm6.7-two-lattices-minus-r25", "two_lattices", "-", two_minus, "--r-max", "25"),
        _grid("grid-two-lattices-plus", "two_lattices", "+", two_plus, "--r-max", "30"),
        _decide("s8.4-patched-plus", "patched", "+", patched),
        _decide("s8.4-patched-minus", "patched", "-", patched),
        _grid("grid-patched-plus", "patched", "+", patched),
    ]
    # a known fault: |psi| at the removed site 0 comes out NaN (inf - inf in
    # the log modulus, and the node is not a flux site, so it is not snapped)
    qs[-1].extra["known_fault"] = "non-finite grid values away from flux sites"
    docs = {}
    for i in range(RANDOM_CONFIGS):
        doc, verdict_of = random_config(rng, i % 3)
        k = int(rng.integers(1, 4))
        t = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        variants = {"base": doc, f"theta+{k}": shift_thetas(doc, k), "moved": translate(doc, t)}
        for tag, vdoc in variants.items():
            name = f"random{i}-{tag}"
            docs[name] = vdoc
            for spin in "+-":
                qs.append(
                    _decide(f"{name}-{spin}", name, spin, verdict_of(spin), group=f"random{i}{spin}")
                )
    return qs, docs


def build(workload: str, seed: int):
    """(questions in this seed's order, config documents by name)."""
    rng = np.random.default_rng(seed)
    if workload == "lattice-certify":
        qs, docs = lattice_certify(), {}
    elif workload == "sinc-certify":
        qs, docs = sinc_certify(), {}
    elif workload == "decide-sweep":
        qs, docs = decide_sweep(rng)
    else:
        raise KeyError(workload)
    used = {q.config for q in qs}
    docs.update({k: v for k, v in FIXED_CONFIGS.items() if k in used})
    random.Random(seed).shuffle(qs)
    return qs, docs
