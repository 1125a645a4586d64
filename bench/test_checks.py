"""The benchmark's own tests: every check can fail.

Each test feeds a wrong verdict, flag, norm, count or value to a check and
asserts that the question is counted as failed.  Run from the repo root:

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import run  # noqa: F401  (puts bench/ and src/ on sys.path)
import checks
import kernels
import questions
from questions import Question, Verdict

FM = run.import_program()


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    docs = {k: questions.FIXED_CONFIGS[k] for k in ("finite_strong", "finite_weak", "lattice2")}
    return run.write_configs(FM, docs, tmp_path_factory.mktemp("configs"))


def _with_path(q: Question, paths) -> Question:
    q = copy.deepcopy(q)
    q.argv[1] = paths[q.config]
    return q


def _round(qs):
    taps = run.Taps()
    with taps.install(FM):
        return run.run_round(FM, qs, taps, None, 5)


@pytest.fixture(scope="module")
def strong(config_paths):
    """The two-site verify question, answered once for real."""
    q = _with_path(questions.sinc_certify()[0], config_paths)
    taps = run.Taps()
    with taps.install(FM):
        out = run.ask(FM, q, taps, None)
    assert checks.check_question(q, out) == []
    return q, out


def _mutated(out, edit):
    report = json.loads(out.stdout)
    edit(report)
    return checks.Outcome(out.exit_code, json.dumps(report), out.seconds, out.quads, out.enumerations)


# ---------------------------------------------------------------------------
# expected verdicts


def test_theorem_conditions():
    assert questions.thm_6_1([0.6, 0.6], "+") == Verdict("ExistsFinite", "Thm 6.1", 1)
    assert questions.thm_6_1([0.9, 0.9, 0.9], "+") == Verdict("ExistsFinite", "Thm 6.1", 2)
    assert questions.thm_6_1([0.3, 0.4], "+").status == "NotExists"
    assert questions.thm_6_1([0.3, 0.4], "-") == Verdict("ExistsFinite", "Thm 6.1", 1)
    assert questions.thm_6_1([1.6, 2.6], "+") == questions.thm_6_1([0.6, 0.6], "+")
    assert questions.thm_6_8(0.3, 1.0, [0.5], "-").status == "ExistsInfinite"
    assert questions.thm_6_8(0.5, 1.0, [0.5], "-").status == "NotExists"  # boundary fails
    assert questions.thm_6_8(0.7, 1.0, [0.5], "+").status == "ExistsInfinite"
    assert questions.thm_6_7(0.2, "-").status == "NotExists"


def test_wrong_verdict_counts_failed(config_paths):
    good = questions._decide("weak", "finite_weak", "+", questions.thm_6_1([0.3, 0.4], "+"))
    bad = copy.deepcopy(good)
    bad.qid, bad.verdict, bad.exit_code = "weak-wrong", Verdict("ExistsFinite", "Thm 6.1", 1), 0
    rnd = _round([_with_path(good, config_paths), _with_path(bad, config_paths)])
    assert (rnd.attempted, rnd.failed, rnd.unexpected) == (2 + len(kernels.KERNELS), 1, 1)
    assert rnd.messages[0].startswith("weak-wrong:")


def test_wrong_theorem_and_multiplicity(strong):
    q, out = strong
    for key, value in (("theorem", "Thm 6.5"), ("multiplicity", 2), ("status", "NotExists")):
        assert checks.check_question(q, _mutated(out, lambda r: r["verdict"].__setitem__(key, value)))


def test_wrong_exit_code(strong):
    q, out = strong
    assert checks.check_question(q, checks.Outcome(3, out.stdout, 0.0, out.quads))


# ---------------------------------------------------------------------------
# certificates


def test_flag_must_match_verdict(strong):
    q, out = strong

    def divergent(report):
        report["members"][0]["quadrature"]["flag"] = "Divergent"

    assert checks.check_question(q, _mutated(out, divergent))
    negative = Question("neg", "finite_weak", ["verify"], Verdict("NotExists", "Thm 6.1"))
    report = {"status": "PASS", "candidate": {"quadrature": {"flag": "Convergent"}}}
    assert checks.check_certificate(negative, report)
    report["candidate"]["quadrature"]["flag"] = "Divergent"
    assert checks.check_certificate(negative, report) == []


def test_residual_order_outside_band(strong):
    q, out = strong
    for order in (1.5, 2.5):
        edit = lambda r, o=order: r["members"][0]["residual"].__setitem__("observedOrder", o)
        assert checks.check_question(q, _mutated(out, edit))


def test_reference_norm(strong):
    q, out = strong

    def off(report):
        report["members"][0]["quadrature"]["value"] *= 1.0 + 2e-4

    assert any("reference" in f for f in checks.check_question(q, _mutated(out, off)))


def test_reference_norm_counts_failed(config_paths):
    q = _with_path(questions.sinc_certify()[0], config_paths)
    q.extra["reference_norm"] = 27.0
    rnd = _round([q])
    assert (rnd.failed, rnd.unexpected) == (1, 1)


def test_increasing_member_norms():
    report = {"members": [{"quadrature": {"value": v}} for v in (1.0, 3.0, 2.0)]}
    assert checks.check_increasing(report)
    report["members"][2]["quadrature"]["value"] = 4.0
    assert checks.check_increasing(report) == []


def test_star_oracle():
    assert checks.check_star_oracle(1.02 * 1.7612, 1.7612)
    assert checks.check_star_oracle(None, 1.7612)
    assert checks.check_star_oracle(1.7611, 1.7612) == []


def test_certified_value_bounds_partial_totals(strong):
    _, out = strong
    quad = out.quads[0]
    assert checks.check_partial_totals([quad]) == []
    top = max(t for _, t in quad.radii_trace)
    low = SimpleNamespace(
        flag="Convergent", value=top * 0.99, error_estimate=0.0, radii_trace=quad.radii_trace
    )
    assert checks.check_partial_totals([low])


def test_missing_quadrature_counts(strong):
    q, out = strong
    assert checks.check_quad_count(q, []) and checks.check_quad_count(q, out.quads * 2)


# ---------------------------------------------------------------------------
# invariance, support counts, grids


def test_invariance_groups():
    same = ("ExistsInfinite", "Thm 6.5", None, None)
    assert checks.check_groups({"a": [same, same, same]}) == set()
    other = ("NotExists", "Thm 6.1", None, None)
    assert checks.check_groups({"a": [same, other, same], "b": [same]}) == {"a"}


def test_own_lattice_count_is_exact():
    for w1, w2, kappa, r in ((1.0, 1.0j, 0j, 20.0), (1.3, 0.4 + 1.1j, 0.2 - 0.1j, 9.5)):
        m = np.arange(-60, 61)
        pts = kappa + m[:, None] * w1 + m[None, :] * w2
        assert checks.count_lattice(complex(w1), complex(w2), kappa, r) == int(np.sum(np.abs(pts) <= r))


def test_enumeration_count_mismatch():
    c = FM.config
    lattice = c.LatticeComponent(FM.special.LatticeBasis(1.0, 1.0j), (c.FluxSite(0j, 0.5),))
    cfg = c.FluxConfiguration(lattices=(lattice,))
    got = len(FM.config.enumerate_support(cfg, 30.0))
    assert checks.check_enumerations([(cfg, 30.0, got)]) == []
    assert checks.check_enumerations([(cfg, 30.0, got - 1)])


def _csv(values, xs, ys):
    lines = ["x,y,|psi|"]
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            lines.append(f"{x!r},{y!r},{values[iy][ix]}")
    return "\n".join(lines) + "\n"


def test_grid_finite_away_from_sites():
    xs = ys = [-1.0, 0.0, 1.0]
    vals = [[1.0] * 3 for _ in ys]
    vals[1][1] = "inf"  # on the site at 0: allowed
    assert checks.check_grid(_csv(vals, xs, ys), (3, 3), np.array([0j])) == []
    vals[0][0] = "nan"  # away from every site
    assert checks.check_grid(_csv(vals, xs, ys), (3, 3), np.array([0j]))
    assert checks.check_grid(_csv(vals, xs, ys)[:-12], (3, 3), np.array([0j]))


def test_grid_failure_counts_and_known_fault(config_paths):
    # lattice2 grid nodes land on its sites (inf there); withholding the
    # site list makes those values count as non-finite away from sites
    q = questions._grid("g", "lattice2", "+", Verdict("ExistsInfinite", "Thm 6.5"))
    q = _with_path(q, config_paths)
    assert _round([q]).failed == 0
    q.extra["sites"] = np.array([10.0 + 10.0j])
    rnd = _round([q])
    assert (rnd.failed, rnd.unexpected) == (1, 1)
    q.extra["known_fault"] = "non-finite grid values away from flux sites"
    rnd = _round([q])
    assert (rnd.failed, rnd.unexpected) == (1, 0)


# ---------------------------------------------------------------------------
# kernels


@pytest.mark.parametrize("name", kernels.KERNELS)
def test_kernel_check_catches_an_error(name):
    case = next(c for c in kernels.make_cases(FM.special, 5) if c.name == name and c.size == "p36")
    got = np.asarray(kernels.evaluate(FM.special, case))
    assert kernels.check(case, got) == []
    wrong = got.copy()
    wrong[::5] += 1e-6  # every fifth point, so the sigma sample sees it
    assert kernels.check(case, wrong)
    assert kernels.check(case, got[:-1])


def test_kernel_failure_counts_in_round(config_paths):
    assert all(f == [] for f in run.kernel_checks(FM, 5).values())
    broken = SimpleNamespace(**{k: getattr(FM.special, k) for k in ("LatticeBasis", *kernels.KERNELS)})
    broken.log_sin = lambda v: FM.special.log_sin(v) + 1e-3
    fm = SimpleNamespace(**{**vars(FM), "special": broken})
    weak = questions._decide("weak", "finite_weak", "+", questions.thm_6_1([0.3, 0.4], "+"))
    q = _with_path(weak, config_paths)
    taps = run.Taps()
    with taps.install(FM):
        rnd = run.run_round(fm, [q], taps, None, 5)
    assert (rnd.attempted, rnd.failed, rnd.unexpected) == (1 + len(kernels.KERNELS), 1, 1)
    assert rnd.messages[0].startswith("kernel log_sin:")


def test_oracle_matches_criterion_value():
    # the oracle alone, against the star disc norm acceptance criterion 10 pins to 1 %
    oracle = checks.star_sector_oracle(
        FM.verify.integrate_disc, questions.STAR_ALPHA, questions.STAR_THETA,
        questions.STAR_ORDER, questions.STAR_DISC_W,
    )
    assert math.isclose(oracle, 1.7611786911264733, rel_tol=1e-4)


# ---------------------------------------------------------------------------
# timing


def test_answer_seconds_sums_fastest_segments():
    def rnd(**segments):
        return run.Round(segments={k: np.array(v) for k, v in segments.items()})

    block = [rnd(a=[1.0, 5.0, 1.0], b=[2.0]), rnd(a=[3.0, 1.0, 1.0], b=[4.0])]
    assert run.answer_seconds(block) == {"a": 3.0, "b": 2.0}
    assert run.block_times(block) == (5.0, 3.0)
    # rounds that cut an answer differently fall back to the fastest whole answer
    block.append(rnd(a=[0.5, 0.5, 0.5, 0.5], b=[4.0]))
    assert run.answer_seconds(block)["a"] == 2.0
    assert run.median_round_seconds(block) == 9.0


def test_integrand_calls_cut_the_answer(strong):
    _, out = strong
    assert len(out.segments) > 100
    assert math.isclose(float(out.segments.sum()), out.seconds, rel_tol=1e-12)
