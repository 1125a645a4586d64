"""fluxmodes benchmark: asks one workload's questions of `fluxmodes.cli.main`
in-process, checks every answer, and prints the metrics.

    python3 bench/run.py --workload lattice-certify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  fluxmodes is imported from the
checkout's src/ only; without it the run stops with exit code 1.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with --trace 0, per-layer ones with
--trace 1).  See bench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
MODULES = ("cli", "config", "decide", "ansatz", "verify", "special")
TRACED_ROUNDS = 2
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "max_question_s": "s", "peak_rss_mb": "MB"}


def _process_age() -> float:
    """Seconds since this process started (Linux), else 0."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


AGE_AT_T0 = _process_age()


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """fluxmodes' modules, from this checkout's src/ and nowhere else."""
    if not (SRC / "fluxmodes" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fluxmodes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"fluxmodes.{name}") for name in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"bench: fluxmodes imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


# the benchmark's own modules sit next to this file
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import kernels  # noqa: E402
import questions  # noqa: E402
from spans import SPAN_FIELDS, Taps, Tracer, layer_metrics  # noqa: E402


def write_configs(fm, docs: dict, workdir: Path) -> dict:
    """Write each config as JSON and load it back through fluxmodes, as the
    CLI will.  Returns the file path of each config name."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        fm.config.normalize_fluxes(fm.config.config_from_dict(loaded))
        paths[name] = str(path)
    return paths


def star_disc_norm(fm, path: str) -> float:
    """Acceptance criterion 10's truncated-disc norm of the star member."""
    with open(path, encoding="utf-8") as fh:
        cfg, _ = fm.cli.normalize_fluxes(fm.cli.config_from_dict(json.load(fh)))
    verdict = fm.cli.decide(cfg, "+")
    family = fm.cli.build_zero_modes(cfg, verdict, 1, alpha=questions.STAR_ALPHA)
    psi = family.generator(0)
    radius = questions.STAR_DISC_W ** (1.0 / questions.STAR_ORDER)
    value, _ = fm.verify.integrate_disc(
        psi.log_abs, psi.singular_sites(radius - 0.02), radius, 1e-9, 1e-5
    )
    return value


def ask(fm, q, taps: Taps, tracer: Tracer | None) -> checks.Outcome:
    """Answer one question; only the answer is timed."""
    taps.reset()
    out, err = io.StringIO(), io.StringIO()
    code, error, star = None, None, None
    if tracer is not None:
        tracer.question = q.qid
    span = tracer.span if tracer is not None else (lambda *a: nullcontext())
    taps.mark()
    try:
        with redirect_stdout(out), redirect_stderr(err), span("question", q.qid):
            with span("cli.main", "main"):
                code = fm.cli.main(q.argv)
            if q.extra.get("star_oracle"):
                star = star_disc_norm(fm, q.argv[1])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a crash is a failed question, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    taps.mark()
    seconds = taps.stamps[-1] - taps.stamps[0]
    return checks.Outcome(
        code, out.getvalue(), seconds, taps.quads, taps.enumerations, star, error, err.getvalue(),
        np.diff(taps.stamps),
    )


@dataclass
class Round:
    segments: dict = field(default_factory=dict)  # segment times of each question id
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0  # failures other than a question's known fault
    peak_rss_mb: float = 0.0  # process high-water mark when the questions ended
    messages: list = field(default_factory=list)

    def count(self, name: str, fails: list, expected: bool = False):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.unexpected += not expected
            self.messages.append(f"{name}: {'; '.join(fails)}")


def run_round(fm, qs, taps, oracle, seed: int, tracer=None) -> Round:
    """Every question once, then every kernel check once; only the
    answers are timed."""
    rnd = Round()
    keys, fails_by_q = {}, {}
    # untimed: every round starts from a collected heap, so that the
    # collector's pauses fall at the same points of every round
    gc.collect()
    for q in qs:
        outcome = ask(fm, q, taps, tracer)
        print(f"question {q.qid} {outcome.seconds:.3f} s", file=sys.stderr)
        rnd.segments[q.qid] = outcome.segments
        fails = checks.check_question(q, outcome, oracle)
        fails_by_q[q.qid] = fails
        if "group" in q.extra and not fails:
            keys.setdefault(q.extra["group"], []).append(
                checks.verdict_key(json.loads(outcome.stdout))
            )
    bad_groups = checks.check_groups(keys)
    for q in qs:
        fails = fails_by_q[q.qid]
        if q.extra.get("group") in bad_groups:
            fails = fails + [f"verdict differs within invariance group {q.extra['group']}"]
        known = q.extra.get("known_fault")
        rnd.count(q.qid, fails, expected=bool(known) and all(known in f for f in fails))
    # before the kernel checks, whose 36 000-point arrays are not program work
    rnd.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, fails in kernel_checks(fm, seed).items():
        rnd.count(f"kernel {name}", fails)
    return rnd


def run_blocks(fm, qs, taps, oracle, seed, seconds, rounds) -> list:
    """Whole blocks of `rounds` rounds while the longest block so far still
    fits in `seconds` (at least one)."""
    blocks = []
    longest, start = 0.0, time.perf_counter()
    while True:
        t0 = time.perf_counter()
        blocks.append([run_round(fm, qs, taps, oracle, seed) for _ in range(rounds)])
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds:
            return blocks


def answer_seconds(block) -> dict:
    """Each question's answer time in one block of rounds, with other
    tenants' load taken out: the sum over the answer's segments of each
    segment's fastest time in the block.  A segment ends at every
    integrand call, support enumeration and grid, so most are well under
    a millisecond, and the host's load only ever adds time to them.
    Where the rounds cut an answer into different numbers of segments,
    the fastest whole answer is taken."""
    out = {}
    for qid in block[0].segments:
        segs = [r.segments[qid] for r in block]
        if len({len(x) for x in segs}) == 1:
            out[qid] = float(np.min(segs, axis=0).sum())
        else:
            out[qid] = min(float(x.sum()) for x in segs)
    return out


def median_round_seconds(rounds) -> float:
    """The median over rounds of the plain time of all their answers."""
    return statistics.median(sum(float(x.sum()) for x in r.segments.values()) for r in rounds)


def block_times(block) -> tuple:
    """(wall_s, max_question_s) of one block."""
    secs = answer_seconds(block)
    return sum(secs.values()), max(secs.values())


def kernel_checks(fm, seed: int) -> dict:
    """Failures of each special kernel against its independent reference,
    over both input sizes.  The inputs are made afresh each time, so they
    take no memory while the questions run."""
    fails = {name: [] for name in kernels.KERNELS}
    for case in kernels.make_cases(fm.special, seed):
        try:
            fails[case.name] += kernels.check(case, kernels.evaluate(fm.special, case))
        except Exception as exc:  # noqa: BLE001 - a crashing kernel is a failed check
            fails[case.name].append(f"{case.name}[{case.size}] raised {type(exc).__name__}: {exc}")
    return fails


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload not in questions.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; one of {questions.WORKLOADS}")
    fm = import_program()
    workdir = OUT / f"configs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        qs, docs = questions.build(args.workload, args.seed)
        paths = write_configs(fm, docs, workdir)
        for q in qs:
            q.argv[1] = paths[q.config]
        setup_s = AGE_AT_T0 + time.perf_counter() - T0

        taps, oracle = Taps(), None
        if any(q.extra.get("star_oracle") for q in qs):
            oracle = checks.star_sector_oracle(
                fm.verify.integrate_disc,
                questions.STAR_ALPHA,
                questions.STAR_THETA,
                questions.STAR_ORDER,
                questions.STAR_DISC_W,
            )
        with taps.install(fm):
            rounds = questions.BLOCK_ROUNDS[args.workload]
            blocks = run_blocks(fm, qs, taps, oracle, args.seed, args.seconds, rounds)
            traced, tracer = [], None
            if args.trace:
                tracer = Tracer()
                with tracer.install(fm):
                    traced = [
                        run_round(fm, qs, taps, oracle, args.seed, tracer)
                        for _ in range(TRACED_ROUNDS)
                    ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for block in blocks for r in block]
    all_rounds = untraced + traced
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    for msg in [m for r in all_rounds for m in r.messages]:
        print(f"FAILED {msg}", file=sys.stderr)

    times = [block_times(block) for block in blocks]
    wall = statistics.median(t[0] for t in times)
    print(f"{len(blocks)} blocks of {rounds} rounds, {len(traced)} traced rounds", file=sys.stderr)
    if args.trace:
        totals = layer_metrics(tracer.spans)
        per_round = {k: v / len(traced) for k, v in totals.items()}
        per_round["verify.points_per_call"] = totals["verify.points_per_call"]
        for case in kernels.make_cases(fm.special, args.seed):
            name = f"special.{case.name}.ns_per_pt.{case.size}"
            per_round[name] = kernels.ns_per_point(fm.special, case)
        per_round["trace.overhead_s"] = median_round_seconds(traced) - median_round_seconds(untraced)
        metrics = {k: _metric(v, layer_unit(k)) for k, v in per_round.items()}
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(
            json.dumps({"fields": SPAN_FIELDS, "spans": tracer.spans}), encoding="utf-8"
        )
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "max_question_s": statistics.median(t[1] for t in times),
            "peak_rss_mb": blocks[0][0].peak_rss_mb,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = not any(r.unexpected for r in all_rounds)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("ns_per_pt.p36") or name.endswith("ns_per_pt.b36k"):
        return "ns/pt"
    if name == "verify.points_per_call":
        return "pt/call"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
