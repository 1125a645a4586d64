"""The benchmark's patch points: every (module, attribute) that
`bench/spans.py` replaces must exist in fluxmodes, or the benchmark breaks."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fm():
    names = ("cli", "config", "decide", "ansatz", "verify", "special")
    return SimpleNamespace(**{n: importlib.import_module(f"fluxmodes.{n}") for n in names})


def test_traced_call_sites_exist(spans, fm):
    missing = [(m, a) for m, a, _ in spans.TRACED if not hasattr(getattr(fm, m), a)]
    assert not missing


@pytest.mark.parametrize("kind", ["Taps", "Tracer"])
def test_install_patches_and_restores(spans, fm, kind):
    mods = (fm.cli, fm.decide, fm.ansatz, fm.verify)
    before = [dict(vars(m)) for m in mods]
    # install reads every attribute it replaces: a missing one raises here
    with getattr(spans, kind)().install(fm):
        during = [dict(vars(m)) for m in mods]
    changed = [{k for k in d if d[k] is not b.get(k)} for b, d in zip(before, during)]
    assert any(changed)
    assert all(c <= b.keys() for c, b in zip(changed, before))  # replaced, not added
    assert [dict(vars(m)) for m in mods] == before
