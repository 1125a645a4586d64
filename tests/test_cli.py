"""CLI front end: exit codes, report structure, CSV grids, manifests."""

import hashlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fluxmodes import cli
from fluxmodes.ansatz import build_zero_modes
from fluxmodes.cli import main
from fluxmodes.config import config_from_dict, config_to_dict, normalize_fluxes
from fluxmodes.verify import Sites

# reports from before the real log-modulus kernels (see the file's "about")
FROZEN = json.loads((Path(__file__).parent / "frozen_reports.json").read_text())
# relative bands within which the real kernels may move a frozen float, 100x
# the largest move measured: quadrature values and grid cells by rounding,
# the error estimate by differences of those, the residual norms (and the
# order read from their ratios) by the h^-2 amplification of the finite
# difference.  Every other float must stay equal.
FROZEN_BANDS = {"value": 1e-14, "errorEstimate": 1e-11, "norms": 1e-6, "observedOrder": 1e-6}

TWO_SITES = {
    "uniform_flux_density": 0.0,
    "finite": [
        {"position": [0.0, 0.0], "theta": 0.6},
        {"position": [1.0, 0.0], "theta": 0.6},
    ],
}
SMALL = {
    "finite": [
        {"position": [0.0, 0.0], "theta": 0.3},
        {"position": [1.0, 0.0], "theta": 0.4},
    ]
}
UNKNOWN = {
    "chains": [
        {"omega0": [1.0, 0.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.34}]},
        {"omega0": [math.sqrt(2.0), 0.0], "offsets": [{"kappa": [0.5, 0.0], "theta": 0.34}]},
        {"omega0": [math.sqrt(3.0), 0.0], "offsets": [{"kappa": [0.25, 0.0], "theta": 0.34}]},
    ]
}


def write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_decide_positive(tmp_path, capsys):
    path = write(tmp_path, TWO_SITES)
    code, doc = run_json(capsys, "decide", path, "--spin", "+")
    assert code == 0
    assert doc["verdict"]["status"] == "ExistsFinite"
    assert doc["verdict"]["theorem"] == "Thm 6.1"
    assert doc["manifest"]["configPath"] == path
    assert doc["manifest"]["command"] == "decide"
    assert doc["manifest"]["tolerances"] == {
        "absTol": 1e-8,
        "relTol": 1e-6,
        "specialTol": 1e-10,
    }


def test_decide_normalization_invariance(tmp_path, capsys):
    shifted = {
        "finite": [
            {"position": [0.0, 0.0], "theta": 1.6},
            {"position": [1.0, 0.0], "theta": 2.6},
        ]
    }
    _, base = run_json(capsys, "decide", write(tmp_path, TWO_SITES, "a.json"), "--spin", "+")
    _, other = run_json(capsys, "decide", write(tmp_path, shifted, "b.json"), "--spin", "+")
    assert base["verdict"] == other["verdict"]


def test_decide_exit_codes(tmp_path, capsys):
    assert run(capsys, "decide", write(tmp_path, SMALL), "--spin", "+")[0] == 3
    assert run(capsys, "decide", write(tmp_path, UNKNOWN, "u.json"), "--spin", "+")[0] == 4


def test_malformed_config(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"finite": [')
    code = main(["decide", str(p), "--spin", "+"])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 1" in err


def test_unknown_field_rejected(tmp_path, capsys):
    code = main(["decide", write(tmp_path, {"finite": [], "bogus": 1}), "--spin", "+"])
    err = capsys.readouterr().err
    assert code == 1
    assert "bogus" in err


def test_missing_config_file(capsys):
    code = main(["decide", "/nonexistent/members.json", "--spin", "+"])
    assert code == 1


def test_usage_error_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", write(tmp_path, TWO_SITES)])  # --spin missing
    assert exc.value.code == 1


def test_verify_pass(tmp_path, capsys):
    path = write(tmp_path, TWO_SITES)
    out_dir = tmp_path / "run"
    code, doc = run_json(
        capsys,
        "verify",
        path,
        "--spin",
        "+",
        "--tol-rel",
        "1e-4",
        "--output-dir",
        str(out_dir),
    )
    assert code == 0
    assert doc["status"] == "PASS"
    member = doc["members"][0]
    assert member["quadrature"]["flag"] == "Convergent"
    assert member["quadrature"]["value"] == pytest.approx(27.4844928, rel=1e-3)
    assert member["residual"]["observedOrder"] >= 1.8
    assert doc["verdict"]["theorem"] == "Thm 6.1"
    saved = json.loads((out_dir / "verify.json").read_text())
    assert saved == doc


def test_verify_negative_case_passes(tmp_path, capsys):
    code, doc = run_json(capsys, "verify", write(tmp_path, SMALL), "--spin", "+")
    assert code == 0
    assert doc["status"] == "PASS"
    assert doc["candidate"]["quadrature"]["flag"] == "Divergent"


def test_verify_unknown_inconclusive(tmp_path, capsys):
    code, doc = run_json(capsys, "verify", write(tmp_path, UNKNOWN), "--spin", "+")
    assert code == 4
    assert doc["status"] == "INCONCLUSIVE"
    assert "members" not in doc


@pytest.mark.parametrize("spin", ["+", "-"])
def test_verify_chain_with_loose_site(tmp_path, capsys, spin):
    # decide folds the loose site into an added set and answers Thm 7.1;
    # the recipe is built from that folded configuration, where it once
    # recursed on the unfolded one without end
    doc = {
        "chains": [{"omega0": [1.0, 0.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}]}],
        "finite": [{"position": [0.5, 1.5], "theta": 0.4}],
    }
    code, out = run_json(capsys, "verify", write(tmp_path, doc), "--spin", spin, "--tol-rel", "1e-2")
    assert code == 0
    assert out["status"] == "PASS"
    assert out["verdict"]["theorem"] == "Thm 7.1"
    assert [m["quadrature"]["flag"] for m in out["members"]] == ["Convergent"]


CHAIN_ADDED = {
    "chains": [{"omega0": [1.0, 0.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}]}],
    "perturbation": {"added": [{"points": [[0.5, 1.5]], "theta": 0.4}]},
}
LANDAU03 = {
    "uniform_flux_density": 0.075,
    "lattices": [
        {"omega1": [2.0, 0.0], "omega2": [0.0, 2.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}]}
    ],
}


@pytest.mark.parametrize(
    "doc, spin, calls",
    [(CHAIN_ADDED, "+", 2), (CHAIN_ADDED, "-", 2), (LANDAU03, "-", 1)],
    ids=["chain-added-plus", "chain-added-minus", "landau03-minus"],
)
def test_verify_decides_each_question_once(tmp_path, capsys, monkeypatch, doc, spin, calls):
    # verify decides once (a Thm 7.1 verdict decides its base inside that
    # call); ansatz builds the family, mirrored or inherited, from the verdict
    decide_mod = importlib.import_module("fluxmodes.decide")
    ansatz_mod = importlib.import_module("fluxmodes.ansatz")
    inner, seen = decide_mod.decide, []

    def counted(*args, **kwargs):
        seen.append(args[1])
        return inner(*args, **kwargs)

    for mod in (decide_mod, cli, ansatz_mod):
        monkeypatch.setattr(mod, "decide", counted, raising=False)
    code, doc = run_json(capsys, "verify", write(tmp_path, doc), "--spin", spin, "--tol-rel", "1e-2")
    assert (code, doc["status"]) == (0, "PASS")
    assert seen == [spin] * calls
    assert "r_max" not in inspect.signature(build_zero_modes).parameters


def test_verify_chain_count(tmp_path, capsys):
    chain = {
        "chains": [
            {"omega0": [1.0, 0.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}]}
        ]
    }
    code, doc = run_json(
        capsys,
        "verify",
        write(tmp_path, chain),
        "--spin",
        "+",
        "--count",
        "2",
        "--tol-rel",
        "1e-4",
    )
    assert code == 0
    assert doc["status"] == "PASS"
    assert len(doc["members"]) == 2
    assert doc["recipe"]["f"] == "SincChain"
    assert doc["recipe"]["alphaRange"] == pytest.approx([0.0, math.pi / 2.0])


@pytest.mark.parametrize(
    "config, args, tol_rel",
    [
        # Thm 6.8 on the side-2 square lattice, eta0 = xi0 * 4 = 0.3, spin -
        (
            {
                "uniform_flux_density": 0.075,
                "lattices": [
                    {
                        "omega1": [2.0, 0.0],
                        "omega2": [0.0, 2.0],
                        "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}],
                    }
                ],
            },
            ("--spin", "-"),
            1e-2,
        ),
        # Thm 6.3 chain: member 2's ring tail once stated 0.31 against 0.195
        (
            {"chains": [{"omega0": [1.0, 0.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}]}]},
            ("--spin", "+", "--count", "3"),
            3e-2,
        ),
    ],
    ids=["landau-lattice", "chain"],
)
def test_verify_convergent_error_within_tolerance(tmp_path, capsys, config, args, tol_rel):
    code, doc = run_json(
        capsys, "verify", write(tmp_path, config), *args, "--tol-rel", str(tol_rel)
    )
    assert code == 0
    assert doc["status"] == "PASS"
    for member in doc["members"]:
        quad = member["quadrature"]
        assert quad["flag"] == "Convergent"
        assert quad["errorEstimate"] <= max(1e-8, tol_rel * quad["value"])


PARALLEL = {
    "chains": [
        {"omega0": [1.0, 0.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}]},
        {"omega0": [2.0, 0.0], "offsets": [{"kappa": [0.5, 0.0], "theta": 0.5}]},
    ],
    "perturbation": {
        "removed": [[0.5, 0.0]],
        "added": [{"points": [[2.3, 1.7], [-3.1, 2.4], [0.7, -2.2], [-1.6, -1.9], [4.2, 2.9]], "theta": 0.9}],
    },
}
LATTICE2 = {
    "lattices": [
        {"omega1": [2.0, 0.0], "omega2": [0.0, 2.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}]}
    ]
}


def assert_near_frozen(new, old, key=None):
    """Equal structure and non-float leaves; floats within FROZEN_BANDS[key]."""
    if isinstance(old, dict):
        assert sorted(new) == sorted(old), key
        for k in old:
            assert_near_frozen(new[k], old[k], k)
    elif isinstance(old, list):
        assert len(new) == len(old), key
        for a, b in zip(new, old):
            assert_near_frozen(a, b, key)
    elif isinstance(old, float):
        assert isinstance(new, float), key
        assert new == pytest.approx(old, rel=FROZEN_BANDS.get(key, 0.0), abs=0.0), key
    else:
        assert type(new) is type(old) and new == old, key


LANDAU07 = {**LANDAU03, "uniform_flux_density": 0.175}
CHAIN = {"chains": CHAIN_ADDED["chains"]}


@pytest.mark.parametrize(
    "config, spin, args, theorem, frozen, digest",
    [
        (
            TWO_SITES,
            "+",
            ("--tol-rel", "1e-3"),
            "Thm 6.1",
            None,
            "e894428a211df31ee1aff72ee21b84c6342fb114fcdeeeee9137bff2a04b4e9b",
        ),
        (
            LATTICE2,
            "+",
            ("--count", "1", "--tol-rel", "1e-2"),
            "Thm 6.5",
            "lattice",
            "1cc1be1f3a1f4dbddd4175685b0e81e41acc44496c43657d5943c568cb4ec66a",
        ),
        (
            PARALLEL,
            "+",
            ("--tol-rel", "1e-1"),
            "Thm 7.4",
            "parallel-chains",
            "b4d273f76a941994d7276d3fb5a2e25d3eb9ca1728e4cb2b2fab306d3c528a2a",
        ),
        (
            CHAIN,
            "+",
            ("--count", "3", "--tol-rel", "1e-1"),
            "Thm 6.3",
            None,
            "f0cc25180f3c2142d09921c25d13ee84a319642a3da9a141bc908466246e6de4",
        ),
        (
            LANDAU03,
            "-",
            ("--count", "1", "--tol-rel", "1e-2"),
            "Thm 6.8",
            None,
            "d7da22d2f239d786623dc74e301e9d2ccd1cd468f5cd983f55da3b08e932e309",
        ),
        (
            # NotExists: the report certifies the divergence candidate
            LANDAU07,
            "-",
            ("--tol-rel", "1e-2"),
            "Thm 6.8",
            None,
            "505f62b9ff5bddd136a8c604388b4036b1382893a6158b9bd1b6631112d685ab",
        ),
        (
            SMALL,
            "-",
            ("--count", "1", "--tol-rel", "1e-3"),
            "Thm 6.1",
            None,
            "448411dd24f599d6b1bae588d1670619a54b0cea2f89cda5b1364769301cb91f",
        ),
    ],
    ids=["two-site", "lattice", "parallel-chains", "chain", "landau03-minus", "landau07-minus", "two-site-weak-minus"],
)
def test_verify_report_bytes_frozen(tmp_path, capsys, config, spin, args, theorem, frozen, digest):
    # the certificate itself, every float of it, without the run manifest
    code, doc = run_json(capsys, "verify", write(tmp_path, config), "--spin", spin, *args)
    assert code == 0
    assert doc["status"] == "PASS"
    assert doc["verdict"]["theorem"] == theorem
    del doc["manifest"]
    if frozen is not None:
        assert_near_frozen(doc, FROZEN["verify"][frozen])
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


def test_parser_built_once_keeps_no_state(tmp_path, capsys):
    path = write(tmp_path, TWO_SITES)
    first = run(capsys, "decide", path, "--spin", "+")
    code, doc = run_json(
        capsys, "special", "constants", "--omega1", "1,0", "--omega2", "0,1", "--tol-special", "1e-7"
    )
    assert code == 0 and doc["manifest"]["tolerances"]["specialTol"] == 1e-7
    assert run(capsys, "decide", path, "--spin", "+") == first
    assert cli._build_parser() is cli._build_parser()


def _auto_probe_scan(psi, clearance):
    """The point-by-point scan that cli._auto_probe does in one array."""
    sites = psi.singular_sites(12.0).pos.tolist()
    best_c, best_d = 0j, -1.0
    for x in np.linspace(-3.075, 3.075, 21):
        for y in np.linspace(-3.05, 3.05, 21):
            c = complex(x, y)
            d = min((abs(c - p) for p in sites), default=4.0)
            if d > best_d:
                best_d, best_c = d, c
    r_outer = min(0.6 * best_d, best_d - 1.5 * clearance)
    return cli.ProbeRegion(best_c, 0.3 * r_outer, r_outer)


class _Sites:
    def __init__(self, points):
        self.pos = np.array(points, dtype=complex)

    def singular_sites(self, r):
        pos = self.pos[np.abs(self.pos) <= r]
        return Sites(pos, np.full(pos.size, 0.5))


@pytest.mark.parametrize(
    "points",
    [
        [],
        [0j],
        # two opposite corners of the search grid: the other two tie
        [complex(-3.075, -3.05), complex(3.075, 3.05)],
        [complex(x, y) for x, y in np.random.default_rng(5).uniform(-6.0, 6.0, (40, 2))],
    ],
    ids=["none", "origin", "corners", "random"],
)
def test_auto_probe_matches_scan(points):
    psi = _Sites(points)
    assert cli._auto_probe(psi, 0.01) == _auto_probe_scan(psi, 0.01)


def test_special_constants(capsys):
    code, doc = run_json(
        capsys, "special", "constants", "--omega1", "1,0", "--omega2", "0,1"
    )
    assert code == 0
    assert doc["value"]["nu"] == pytest.approx([0.0, 0.0], abs=1e-10)
    assert doc["value"]["mu"] == pytest.approx(math.pi / 2.0)
    assert doc["achievedTolerance"] < 1e-9


def test_special_zeta_half_period(capsys):
    _, consts = run_json(
        capsys, "special", "constants", "--omega1", "1,0", "--omega2", "0,1"
    )
    code, doc = run_json(
        capsys, "special", "zeta", "--omega1", "1,0", "--omega2", "0,1", "--z", "0.5,0"
    )
    assert code == 0
    eta1 = complex(*consts["value"]["eta1"])
    assert complex(*doc["value"]) == pytest.approx(eta1 / 2.0, abs=1e-10)


def test_special_sigma_origin(capsys):
    code, doc = run_json(
        capsys, "special", "sigma", "--omega1", "1,0", "--omega2", "0,1", "--z", "0,0"
    )
    assert code == 0
    assert complex(*doc["value"]) == 0.0


def test_special_canonical_product(capsys):
    code, doc = run_json(
        capsys,
        "special",
        "canonical_product",
        "--zeros",
        "1,0;0,1",
        "--z",
        "2,0",
        "--genus",
        "0",
    )
    assert code == 0
    # (1 - 2/1)(1 - 2/i) = -1 - 2i, log modulus ln sqrt(5)
    assert doc["valueForm"] == "log_abs"
    assert doc["value"] == pytest.approx(0.5 * math.log(5.0), abs=1e-12)


def test_special_growth_square_lattice(capsys):
    code, doc = run_json(
        capsys,
        "special",
        "growth",
        "--omega1",
        "1,0",
        "--omega2",
        "0,1",
        "--r-min",
        "5",
        "--r-max",
        "40",
    )
    assert code == 0
    assert doc["value"]["order"] == pytest.approx(2.0, abs=0.05)
    assert doc["value"]["type"] == pytest.approx(math.pi / 2.0, rel=0.05)


def test_special_domain_error(capsys):
    code = main(["special", "zeta", "--omega1", "1,0", "--omega2", "2,0", "--z", "0.1,0"])
    assert code == 2


def test_grid_single_site(tmp_path, capsys):
    cfg = {"finite": [{"position": [0.0, 0.0], "theta": 0.5}]}
    code, out = run(
        capsys,
        "grid",
        write(tmp_path, cfg),
        "--spin",
        "+",
        "--bounds",
        "-1",
        "1",
        "-1",
        "1",
        "--resolution",
        "3",
        "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,|psi|"
    assert len(lines) == 10
    # row major: y fixed per row block, x fastest
    assert lines[1].startswith("-1.0,-1.0,")
    assert lines[2].startswith("0.0,-1.0,")
    assert lines[5] == "0.0,0.0,inf"
    # |z|^(-1/2) is radial: x mirror symmetry within the row
    assert lines[4].split(",")[2] == lines[6].split(",")[2]


def test_grid_uniform_field_symmetry(tmp_path, capsys):
    cfg = {"uniform_flux_density": 0.3}
    code, out = run(
        capsys,
        "grid",
        write(tmp_path, cfg),
        "--spin",
        "+",
        "--resolution",
        "5",
        "3",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    for y in ("-1.0", "0.0", "1.0"):
        row = [r[2] for r in rows if r[1] == y]
        assert row == row[::-1]


def test_grid_deterministic_bytes(tmp_path, capsys):
    path = write(tmp_path, TWO_SITES)
    args = ("grid", path, "--spin", "+", "--resolution", "7", "5")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


PATCHED = {
    "lattices": [
        {"omega1": [2.0, 0.0], "omega2": [0.0, 2.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}]}
    ],
    "perturbation": {"removed": [[0.0, 0.0]], "added": [{"points": [[1.0, 0.3]], "theta": 0.6}]},
}


@pytest.mark.parametrize(
    "spin, digest",
    [
        ("+", "ea8ad8c3b34255c6c46afde61a6ece17ce8001e8c6ba8dc0f83b9408719da2bc"),
        ("-", "a05a38067cabd2d364891bae6e9b1ca97252679e44394a6b6d499df28b0dc765"),
    ],
    ids=["+", "-"],
)
def test_grid_csv_bytes_frozen(tmp_path, capsys, spin, digest):
    # the side-2 lattice with its origin site removed: eight nodes on lattice
    # sites print inf, the node on the removed site a finite value
    args = ("--bounds", "-2", "2", "-2", "2", "--resolution", "9", "9")
    code, out = run(capsys, "grid", write(tmp_path, PATCHED), "--spin", spin, *args)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    cells = [r[2] for r in rows[1:]]
    assert cells.count("inf") == 8
    assert math.isfinite(float(next(l for l in out.splitlines() if l.startswith("0.0,0.0,")).split(",")[2]))
    frozen = FROZEN["grid"][spin]
    assert [r[:2] for r in rows] == [r[:2] for r in frozen] and rows[0] == frozen[0]
    for new, old in zip(cells, (r[2] for r in frozen[1:])):
        if math.isfinite(float(old)):
            assert float(new) == pytest.approx(float(old), rel=FROZEN_BANDS["value"], abs=0.0)
        else:
            assert new == old
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_grid_csv_nonfinite_cells(tmp_path, capsys, monkeypatch):
    values = np.array([[math.inf, -math.inf, math.nan], [0.0, 1e-300, 2.5]])
    monkeypatch.setattr(cli, "sample_grid", lambda *args: values)
    args = ("--bounds", "-1", "1", "0", "0.5", "--resolution", "3", "2")
    code, out = run(capsys, "grid", write(tmp_path, TWO_SITES), "--spin", "+", *args)
    assert code == 0
    assert out == (
        "x,y,|psi|\n"
        "-1.0,0.0,inf\n0.0,0.0,inf\n1.0,0.0,nan\n"
        "-1.0,0.5,0.0\n0.0,0.5,1e-300\n1.0,0.5,2.5\n"
    )


def test_grid_member_out_of_range(tmp_path, capsys):
    code = main(["grid", write(tmp_path, TWO_SITES), "--spin", "+", "--member", "3"])
    assert code == 2


def test_grid_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "art"
    code, out = run(
        capsys,
        "grid",
        write(tmp_path, TWO_SITES),
        "--spin",
        "+",
        "--resolution",
        "4",
        "4",
        "--output-dir",
        str(out_dir),
    )
    assert code == 0
    assert (out_dir / "grid.csv").read_text() == out
    report = json.loads((out_dir / "grid.json").read_text())
    assert report["verdict"]["theorem"] == "Thm 6.1"
    assert report["resolution"] == [4, 4]


SCIPY_FREE = """
import contextlib, io, json, sys
from fluxmodes.cli import main
config = sys.argv[1]
calls = [
    ["decide", config, "--spin", "+"],
    ["grid", config, "--spin", "+", "--resolution", "21", "21"],
    ["special", "constants", "--omega1", "1,0", "--omega2", "0,1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(main(["verify", config, "--spin", "+", "--tol-rel", "1e-2"]))
spatial = sorted(m for m in sys.modules if m.startswith("scipy.spatial"))
status = json.loads(out.getvalue())["status"]
print(json.dumps({"codes": codes, "loaded": loaded, "spatial": spatial, "status": status}))
"""


def test_decide_grid_special_load_no_scipy(tmp_path):
    # only the quadrature needs scipy, and only its Gauss rules: decide and
    # grid on a lattice (more sites than the pairwise gap path takes) and the
    # special kernels load none of it in a fresh process, and a verify
    # afterwards passes without scipy.spatial
    lattice = {
        "lattices": [
            {"omega1": [2.0, 0.0], "omega2": [0.0, 2.0], "offsets": [{"kappa": [0.0, 0.0], "theta": 0.5}]}
        ]
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE, write(tmp_path, lattice)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc == {"codes": [0, 0, 0, 0], "loaded": [], "spatial": [], "status": "PASS"}


def test_config_round_trip():
    doc = {
        "uniform_flux_density": 0.25,
        "finite": [{"position": [0.5, -0.5], "theta": 1.3}],
        "chains": [
            {"omega0": [2.0, 0.0], "offsets": [{"kappa": [0.0, 1.0], "theta": 0.4}]}
        ],
        "perturbation": {"removed": [[0.0, 1.0]], "added": [{"points": [[5.0, 5.0]], "theta": 0.2}]},
    }
    cfg, _ = normalize_fluxes(config_from_dict(doc))
    again, _ = normalize_fluxes(config_from_dict(config_to_dict(cfg)))
    assert again == cfg


def test_bad_tolerance_rejected(tmp_path, capsys):
    code = main(["decide", write(tmp_path, TWO_SITES), "--spin", "+", "--tol-rel", "0"])
    assert code == 2
