"""Command line front end.

Subcommands: decide (verdict + exit code), verify (construct modes and
certify them numerically), special (lattice/special function values),
grid (|psi| samples as CSV).  Every JSON report embeds the RunManifest;
every report is byte stable.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .ansatz import (
    NoModesError,
    build_divergence_candidate,
    build_zero_modes,
    sample_grid,
)
from .config import ConfigError, config_from_dict, normalize_fluxes
from .decide import DEFAULT_R_MAX, decide
from .special import (
    DomainError,
    LatticeBasis,
    canonical_product,
    lattice_constants,
    log_abs_sigma_tilde,
    sigma_tilde,
    weierstrass_sigma,
    weierstrass_zeta,
)
from .verify import (
    DEFAULT_MESHES,
    ProbeRegion,
    annihilation_residual,
    growth_estimate,
    l2_norm_squared,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DOMAIN = 2
EXIT_NEGATIVE = 3
EXIT_UNKNOWN = 4

_STATUS_EXIT = {
    "ExistsFinite": EXIT_OK,
    "ExistsInfinite": EXIT_OK,
    "NotExists": EXIT_NEGATIVE,
    "Unknown": EXIT_UNKNOWN,
}
_REPORT_EXIT = {"PASS": EXIT_OK, "FAIL": EXIT_NEGATIVE, "INCONCLUSIVE": EXIT_UNKNOWN}

_EXISTS = ("ExistsFinite", "ExistsInfinite")


@dataclass(frozen=True)
class RunManifest:
    config_path: str
    command: str
    abs_tol: float
    rel_tol: float
    special_tol: float
    seeds: int
    output_dir: str | None

    def __post_init__(self):
        if min(self.abs_tol, self.rel_tol, self.special_tol) <= 0.0:
            raise DomainError("tolerances must be positive")

    def to_dict(self) -> dict:
        return {
            "configPath": self.config_path,
            "command": self.command,
            "tolerances": {
                "absTol": self.abs_tol,
                "relTol": self.rel_tol,
                "specialTol": self.special_tol,
            },
            "seeds": self.seeds,
            "outputDir": self.output_dir,
        }


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise DomainError(f"cannot parse complex number from {text!r} (expected re or re,im)")


def _parse_meshes(text: str) -> tuple:
    try:
        meshes = tuple(float(h) for h in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse mesh ladder {text!r}") from None
    if len(meshes) < 2 or any(h <= 0.0 for h in meshes):
        raise DomainError("mesh ladder needs at least two positive steps")
    return meshes


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed configuration {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    cfg, _ = normalize_fluxes(config_from_dict(doc))
    return cfg


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return f
        if math.isnan(f):
            return "nan"
        return "inf" if f > 0.0 else "-inf"
    if isinstance(obj, (complex, np.complexfloating)):
        return [_json_safe(obj.real), _json_safe(obj.imag)]
    return str(obj)


def _emit_report(report: dict, manifest: RunManifest, filename: str) -> None:
    text = json.dumps(_json_safe(report), indent=2, sort_keys=True)
    sys.stdout.write(text + "\n")
    if manifest.output_dir:
        os.makedirs(manifest.output_dir, exist_ok=True)
        with open(os.path.join(manifest.output_dir, filename), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _auto_probe(psi, clearance: float) -> ProbeRegion:
    """Annulus on a fixed search grid, maximizing distance to singular sites."""
    sites = np.array([p for p, _ in psi.singular_sites(12.0)], dtype=complex)
    xs, ys = np.linspace(-3.075, 3.075, 21), np.linspace(-3.05, 3.05, 21)
    # x-major: of tied centres, argmax takes the first in this order
    x, y = np.repeat(xs, ys.size), np.tile(ys, xs.size)
    if sites.size:
        dist = np.hypot(x[:, None] - sites.real, y[:, None] - sites.imag).min(axis=1)
    else:
        dist = np.full(x.size, 4.0)
    i = int(np.argmax(dist))
    best_c, best_d = complex(x[i], y[i]), float(dist[i])
    if best_d < 4.0 * clearance:
        raise DomainError("no probe annulus clears the singular set")
    r_outer = min(0.6 * best_d, best_d - 1.5 * clearance)
    return ProbeRegion(best_c, 0.3 * r_outer, r_outer)


def _quad_record(quad) -> dict:
    last = quad.radii_trace[-1] if quad.radii_trace else None
    if isinstance(last, (tuple, list)):
        last = last[0]
    return {
        "value": quad.value,
        "errorEstimate": quad.error_estimate,
        "flag": quad.flag,
        "finalRadius": last,
    }


def _cmd_decide(args, manifest: RunManifest) -> int:
    cfg = _load_config(args.config)
    verdict = decide(cfg, args.spin, r_max=args.r_max)
    report = {"manifest": manifest.to_dict(), "verdict": verdict.to_dict()}
    _emit_report(report, manifest, "decide.json")
    return _STATUS_EXIT[verdict.status]


def _cmd_verify(args, manifest: RunManifest) -> int:
    cfg = _load_config(args.config)
    verdict = decide(cfg, args.spin, r_max=args.r_max)
    meshes = _parse_meshes(args.mesh_ladder)
    report: dict = {"manifest": manifest.to_dict(), "verdict": verdict.to_dict()}

    if verdict.status in _EXISTS:
        fam = build_zero_modes(cfg, verdict, args.count, alpha=args.alpha, r_max=args.r_max)
        if fam.notice:
            report["notice"] = fam.notice
        report["recipe"] = {"f": fam.f_recipe, "alphaRange": fam.alpha_range}
        members = []
        flags, orders = [], []
        for psi, (pname, pval) in zip(fam, fam.member_params):
            quad = l2_norm_squared(psi, args.tol_abs, args.tol_rel)
            probe = _auto_probe(psi, 10.0 * max(meshes))
            res = annihilation_residual(psi, probe, meshes)
            members.append(
                {
                    "label": psi.label,
                    "param": {pname: pval},
                    "decayHint": {"kind": psi.decay_hint.kind, "rate": psi.decay_hint.rate},
                    "quadrature": _quad_record(quad),
                    "residual": {
                        "meshes": res.meshes,
                        "norms": res.residual_norms,
                        "observedOrder": res.observed_order,
                    },
                }
            )
            flags.append(quad.flag)
            orders.append(res.observed_order)
        report["members"] = members
        if all(f == "Convergent" for f in flags) and all(o >= 1.8 for o in orders):
            status = "PASS"
        elif "Inconclusive" in flags:
            status = "INCONCLUSIVE"
        else:
            status = "FAIL"
    elif verdict.status == "NotExists":
        psi = build_divergence_candidate(cfg, verdict)
        quad = l2_norm_squared(psi, args.tol_abs, args.tol_rel)
        report["candidate"] = {
            "decayHint": {"kind": psi.decay_hint.kind, "rate": psi.decay_hint.rate},
            "quadrature": _quad_record(quad),
        }
        if quad.flag == "Divergent":
            status = "PASS"
        elif quad.flag == "Inconclusive":
            status = "INCONCLUSIVE"
        else:
            status = "FAIL"
    else:
        report["note"] = "verdict Unknown: nothing to certify"
        status = "INCONCLUSIVE"

    report["status"] = status
    _emit_report(report, manifest, "verify.json")
    return _REPORT_EXIT[status]


def _basis_from_args(args) -> LatticeBasis:
    if args.omega1 is None or args.omega2 is None:
        raise DomainError("this function needs --omega1 and --omega2")
    return LatticeBasis(_parse_complex(args.omega1), _parse_complex(args.omega2))


def _cmd_special(args, manifest: RunManifest) -> int:
    fn = args.function
    report: dict = {"manifest": manifest.to_dict(), "function": fn}

    if fn == "constants":
        c = lattice_constants(_basis_from_args(args))
        report["value"] = {
            "eta1": c.eta1,
            "eta2": c.eta2,
            "nu": c.nu,
            "mu": c.mu,
            "area": c.area,
            "sigmaType": c.sigma_type,
        }
        report["achievedTolerance"] = c.legendre_residual
    elif fn in ("sigma", "sigma_tilde", "zeta"):
        if args.z is None:
            raise DomainError(f"{fn} needs --z")
        basis = _basis_from_args(args)
        z = np.array([_parse_complex(args.z)])
        evaluator = {
            "sigma": weierstrass_sigma,
            "sigma_tilde": sigma_tilde,
            "zeta": weierstrass_zeta,
        }[fn]
        report["value"] = complex(evaluator(basis, z)[0])
        report["achievedTolerance"] = lattice_constants(basis).legendre_residual
    elif fn == "canonical_product":
        if args.z is None or not args.zeros:
            raise DomainError("canonical_product needs --z and --zeros")
        zeros = [_parse_complex(p) for p in args.zeros.split(";") if p]
        z = np.array([_parse_complex(args.z)])
        report["value"] = float(canonical_product(zeros, z, genus=args.genus)[0])
        report["valueForm"] = "log_abs"
        report["achievedTolerance"] = 4.0 * len(zeros) * np.finfo(float).eps
    elif fn == "growth":
        basis = _basis_from_args(args)
        radii = np.geomspace(args.r_min, min(args.r_max, 64.0), 12)
        est = growth_estimate(
            lambda w: log_abs_sigma_tilde(basis, w), radii, log_scale=True
        )
        report["value"] = {
            "order": est.order,
            "type": est.type,
            "confidence": est.confidence,
            "notice": est.notice,
        }
        report["achievedTolerance"] = manifest.special_tol
    else:  # pragma: no cover - argparse enforces choices
        raise DomainError(f"unknown special function {fn!r}")

    _emit_report(report, manifest, "special.json")
    return EXIT_OK


def _cmd_grid(args, manifest: RunManifest) -> int:
    cfg = _load_config(args.config)
    verdict = decide(cfg, args.spin, r_max=args.r_max)
    if verdict.status == "NotExists":
        # still plottable: the canonical non-normalizable candidate
        if args.member != 0:
            raise DomainError("divergence candidate has a single member (index 0)")
        psi = build_divergence_candidate(cfg, verdict)
    else:
        fam = build_zero_modes(
            cfg, verdict, args.member + 1, alpha=args.alpha, r_max=args.r_max
        )
        if args.member >= len(fam):
            raise DomainError(
                f"member {args.member} not available (family truncated to {len(fam)})"
            )
        psi = fam.generator(args.member)
    x0, x1, y0, y1 = args.bounds
    nx, ny = args.resolution
    if nx < 1 or ny < 1:
        raise DomainError("grid resolution must be at least 1x1")
    values = sample_grid(psi, (x0, x1), (y0, y1), nx, ny)
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)

    # one row at a time: converting the whole grid at once costs memory
    xcells = list(map(repr, xs.tolist()))
    lines = ["x,y,|psi|"]
    for yc, row in zip(map(repr, ys.tolist()), values):
        lines.extend(
            f"{xc},{yc},{repr(v) if math.isfinite(v) else 'nan' if v != v else 'inf'}"
            for xc, v in zip(xcells, row.tolist())
        )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)

    if manifest.output_dir:
        os.makedirs(manifest.output_dir, exist_ok=True)
        with open(os.path.join(manifest.output_dir, "grid.csv"), "w", encoding="utf-8") as fh:
            fh.write(text)
        report = {
            "manifest": manifest.to_dict(),
            "verdict": verdict.to_dict(),
            "member": {"index": args.member, "label": psi.label},
            "bounds": list(args.bounds),
            "resolution": list(args.resolution),
            "rows": nx * ny,
        }
        with open(os.path.join(manifest.output_dir, "grid.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_json_safe(report), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for domain errors
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_ERROR)


@functools.cache  # built once: a build costs about a millisecond
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=float, default=1e-8, help="absolute quadrature tolerance")
    common.add_argument("--tol-rel", type=float, default=1e-6, help="relative quadrature tolerance")
    common.add_argument("--tol-special", type=float, default=1e-10, help="special function tolerance")
    common.add_argument("--alpha", type=float, default=None, help="override the first grid alpha")
    common.add_argument("--r-max", type=float, default=DEFAULT_R_MAX, help="decision horizon radius")
    common.add_argument(
        "--mesh-ladder",
        default=",".join(repr(h) for h in DEFAULT_MESHES),
        help="comma separated finite difference steps",
    )
    common.add_argument("--seed", type=int, default=0, help="seed echoed into the manifest")
    common.add_argument("--output-dir", default=None, help="directory for report artifacts")

    parser = _Parser(prog="fluxmodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", parents=[common], help="classify a configuration")
    p.add_argument("config", help="path to a JSON configuration document")
    p.add_argument("--spin", choices=["+", "-"], required=True)

    p = sub.add_parser("verify", parents=[common], help="build modes and certify them")
    p.add_argument("config")
    p.add_argument("--spin", choices=["+", "-"], required=True)
    p.add_argument("--count", type=int, default=1, help="number of family members")

    p = sub.add_parser("special", parents=[common], help="evaluate special functions")
    p.add_argument(
        "function",
        choices=["sigma", "sigma_tilde", "zeta", "constants", "canonical_product", "growth"],
    )
    p.add_argument("--omega1", default=None, help="lattice period as re,im")
    p.add_argument("--omega2", default=None, help="lattice period as re,im")
    p.add_argument("--z", default=None, help="evaluation point as re,im")
    p.add_argument("--zeros", default=None, help="semicolon separated re,im pairs")
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--r-min", type=float, default=5.0, help="smallest growth probe radius")

    p = sub.add_parser("grid", parents=[common], help="sample |psi| on a grid as CSV")
    p.add_argument("config")
    p.add_argument("--spin", choices=["+", "-"], required=True)
    p.add_argument("--member", type=int, default=0, help="family member index")
    p.add_argument(
        "--bounds",
        type=float,
        nargs=4,
        default=(-1.0, 1.0, -1.0, 1.0),
        metavar=("X0", "X1", "Y0", "Y1"),
    )
    p.add_argument(
        "--resolution", type=int, nargs=2, default=(41, 41), metavar=("NX", "NY")
    )
    return parser


_DISPATCH = {
    "decide": _cmd_decide,
    "verify": _cmd_verify,
    "special": _cmd_special,
    "grid": _cmd_grid,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        manifest = RunManifest(
            config_path=getattr(args, "config", ""),
            command=args.command,
            abs_tol=args.tol_abs,
            rel_tol=args.tol_rel,
            special_tol=args.tol_special,
            seeds=args.seed,
            output_dir=args.output_dir,
        )
        return _DISPATCH[args.command](args, manifest)
    except ConfigError as exc:
        sys.stderr.write(f"fluxmodes: config error: {exc}\n")
        return EXIT_ERROR
    except (DomainError, NoModesError) as exc:
        sys.stderr.write(f"fluxmodes: domain error: {exc}\n")
        return EXIT_DOMAIN
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"fluxmodes: error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
