"""lmqlab benchmark: seeded closed-loop workloads, drift-normalised times.

Run from the root of a checkout:

    python3 perfbench/run.py --workload learn-dense --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # every workload, reduced size, asserts every metric
    python3 perfbench/run.py --record-golden    # re-baseline the golden digests (say why)

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the per-layer ones, from a
traced pass that follows an untraced pass over the same verdicts. See
perfbench/README.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def _import_lmqlab() -> None:
    """Import lmqlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "lmqlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lmqlab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lmqlab

    if Path(lmqlab.__file__).resolve().parent != SRC / "lmqlab":
        raise SystemExit(f"perfbench: imported lmqlab from {lmqlab.__file__}, not from {SRC}")


@dataclass
class Pass:
    """One pass over a run's verdicts, untraced or traced."""

    clock: object
    tracer: object
    attempted: int
    failed: int
    problems: list
    first: tuple | None


def run_pass(workload, bases: list[int], smoke: bool, golden: dict, traced: bool, between=None) -> Pass:
    """Run the verdicts; `between(k)` is called before verdict k and, with
    k = len(bases), after the last one, outside every timed period."""
    from spans import ItemClock, Tracer
    from workloads import check

    clock = ItemClock()
    tracer = Tracer(clock) if traced else None
    inst = workload.instrument(clock, tracer)
    attempted = failed = 0
    problems: list[str] = []
    first = None
    for k, base in enumerate(bases):
        if between is not None:
            between(k)
        reports = None
        clock.start_verdict()
        try:
            with inst.installed():
                reports = workload.run(base, smoke, inst)
        except Exception as exc:  # a failing verdict is counted, not fatal
            traceback.print_exc()
            found = [f"base seed {base}: {type(exc).__name__}: {exc}"]
        finally:
            clock.end_verdict()
        if reports is not None:
            found = check(workload, base, smoke, reports, golden)
            first = first or (base, reports)
        items = max(1, clock.verdict_items[-1])
        attempted += items
        if found:
            failed += items
            problems.extend(found)
    if between is not None:
        between(len(bases))
    return Pass(clock, tracer, attempted, failed, problems, first)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, 1-based rank) of the highest percentile with at
    least ten samples beyond it: rank n - 10, or the maximum for n <= 10."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return 100 * rank / n, ordered[rank - 1], rank


class SetupProbes:
    """Set-up seconds at the reference host's speed.

    A probe is a child process timed from before its spawn to the moment it
    reaches the acceptance verdict's first item. Each probe follows a run of
    the fixed start-up in `reference.STARTUP_REF_CODE`; its time is divided
    by that run's and multiplied by the start-up's nominal seconds. Host
    speed moves between slow and fast phases lasting seconds, so the
    SETUP_PROBES probes are also spread evenly over the gaps before, between
    and after the verdicts.
    """

    def __init__(self, workload: str, verdicts: int):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload]
        gaps = verdicts + 1
        self.per_gap = [0] * gaps
        for i in range(SETUP_PROBES):
            self.per_gap[i * gaps // SETUP_PROBES] += 1
        self.samples: list[float] = []

    @staticmethod
    def _time(cmd: list[str]) -> float:
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        lines = done.stdout.split()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()[-500:]}")
        return float(lines[-1]) - t0

    def __call__(self, gap: int) -> None:
        from reference import STARTUP_REF_CODE, STARTUP_REF_NOMINAL_S

        for _ in range(self.per_gap[gap]):
            ref = self._time([sys.executable, "-c", STARTUP_REF_CODE])
            self.samples.append(self._time(self.cmd) / ref * STARTUP_REF_NOMINAL_S)


def probe_main(workload_name: str) -> int:
    """Child side of SetupProbes: set up, print the time the acceptance
    verdict's first item is ready."""
    from spans import ItemClock
    from workloads import WORKLOADS

    class Ready(BaseException):
        """Passes through the harness's `except Exception` wrappers."""

    class ReadyClock(ItemClock):
        def start_verdict(self) -> None:
            pass

        def mark(self) -> None:
            print(time.monotonic(), flush=True)
            raise Ready

    workload = WORKLOADS[workload_name]
    inst = workload.instrument(ReadyClock())
    try:
        with inst.installed():
            workload.run(workload.default_seed, False, inst)
    except Ready:
        return 0
    return 1


def git_rev() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def environment(workload: str, seed: int, bases: list[int], seconds: int, trace: int) -> dict:
    from reference import REF_VERSION

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "workload": workload,
        "seed": seed,
        "verdict_seeds": bases,
        "seconds": seconds,
        "trace": trace,
        "ref_version": REF_VERSION,
    }


def e2e_metrics(plain: Pass, setup_s: float) -> tuple[dict, str]:
    clock = plain.clock
    p, tail_value, rank = tail(clock.items)
    metrics = {
        "verdict_norm": (statistics.fmean(clock.verdict_norms), "ref"),
        "item_p50_norm": (statistics.median(clock.items), "ref"),
        "item_tail_norm": (tail_value, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    note = f"item_tail_norm is p{p:.4g}: rank {rank} of {len(clock.items)} items"
    return metrics, note


def layer_metrics(plain: Pass, traced: Pass) -> dict:
    t = traced.tracer
    c, s = t.counts, t.seconds
    selfs = t.self_by_module()
    queries = t.calls("oracle.query")
    bench_count_s = s("bench.count")
    lmqlab_s = sum(v for k, v in selfs.items() if k != "bench")
    traced_wall = sum(traced.clock.verdict_seconds) - bench_count_s
    m = {
        "harness.instance_s": (s("harness.instance"), "s"),
        "harness.corpus_discovery_s": (c["harness.corpus_discovery_s"], "s"),
        "harness.corpus_reconstruct_s": (c["harness.corpus_reconstruct_s"], "s"),
        "harness.unattributed_s": (
            sum(x.self_time for x in t.spans if x.parent == -1 and x.name.startswith("harness.")), "s"
        ),
        "distributions.sample_s": (s("distributions.sample"), "s"),
        "distributions.draws": (c["distributions.draws"], "count"),
        "distributions.loss_s": (s("distributions.loss"), "s"),
        "distributions.loss_points": (c["distributions.loss_points"], "count"),
        "concepts.label_s": (sum(x.self_time for x in t.spans if x.name == "concepts.label"), "s"),
        "oracle.build_s": (s("oracle.build"), "s"),
        "oracle.builds": (t.calls("oracle.build"), "count"),
        "oracle.anchors_distinct": (c["oracle.anchors_distinct"], "count"),
        "oracle.query_s": (s("oracle.query"), "s"),
        "oracle.queries": (queries, "count"),
        "oracle.queries_distinct": (c["oracle.queries_distinct"], "count"),
        "oracle.query_reuse": (c["oracle.queries_distinct"] / queries if queries else 0.0, "ratio"),
        "learner.phase1_s": (c["learner.phase1_s"], "s"),
        "learner.phase2_s": (c["learner.phase2_s"], "s"),
        "learner.reconstruct_s": (s("learner.reconstruct"), "s"),
        "learner.positives": (c["learner.positives"], "count"),
        "learner.positives_distinct": (c["learner.positives_distinct"], "count"),
        "learner.terms_added": (c["learner.terms_added"], "count"),
        "learner.terms_pruned": (c["learner.terms_pruned"], "count"),
        "evident.reveal_s": (s("evident.reveal"), "s"),
        "evident.crosscheck_s": (s("evident.crosscheck"), "s"),
        "evident.points": (c["evident.points"], "count"),
        "reductions.verify_A_s": (s("reductions.verify_A"), "s"),
        "reductions.verify_B_s": (s("reductions.verify_B"), "s"),
        "reductions.control_s": (s("reductions.control"), "s"),
        "reductions.simulate_s": (s("reductions.simulate"), "s"),
        "reductions.ball_points_A": (c["reductions.ball_points_A"], "count"),
        "reductions.ball_points_B": (c["reductions.ball_points_B"], "count"),
        "reductions.image_points": (c["reductions.image_points"], "count"),
        "reductions.synth_answers": (c["reductions.synth_answers"], "count"),
        "reductions.anchor_scans_B": (c["reductions.anchor_scans_B"], "computed"),
        "reductions.coverage": (
            c["reductions.flip_radius"] / c["reductions.q"] if c["reductions.q"] else 0.0, "ratio"
        ),
        "bench.verdict_s": (statistics.fmean(plain.clock.verdict_seconds), "s"),
        "bench.ref_s": (statistics.fmean(plain.clock.refs), "s"),
        "bench.trace_overhead": (
            statistics.fmean(traced.clock.verdict_norms) / statistics.fmean(plain.clock.verdict_norms),
            "ratio",
        ),
        "bench.traced_s": (lmqlab_s, "s"),
        "bench.accounted_share": (lmqlab_s / traced_wall, "ratio"),
        "bench.error_ratio": (
            (plain.failed + traced.failed) / (plain.attempted + traced.attempted), "ratio"
        ),
    }
    for module in ("harness", "distributions", "concepts", "oracle", "learner", "evident", "reductions"):
        m[f"{module}.self_s"] = (selfs.get(module, 0.0), "s")
    return m


def write_trace(workload: str, seed: int, env: dict, traced: Pass) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.jsonl"
    t = traced.tracer
    origin = min((x.start for x in t.spans), default=0.0)
    with path.open("w") as f:
        f.write(json.dumps({"env": env}) + "\n")
        for span in t.spans:
            f.write(json.dumps(span.to_dict(origin)) + "\n")
        f.write(json.dumps({"counts": dict(t.counts)}) + "\n")
    return path


def measure(workload_name: str, seed: int, seconds: int, trace: int, smoke: bool = False) -> dict:
    from reference import check_reference
    from workloads import WORKLOADS, check, load_golden, verdict_seeds

    check_reference()
    workload = WORKLOADS[workload_name]
    bases = [workload.default_seed] if smoke else verdict_seeds(workload, seed, seconds)
    env = environment(workload_name, seed, bases, seconds, trace)
    print("env " + json.dumps(env), flush=True)
    golden = load_golden()

    probes = None if trace else SetupProbes(workload_name, len(bases))
    plain = run_pass(workload, bases, smoke, golden, traced=False, between=probes)
    passes = [plain]
    if trace:
        passes.append(run_pass(workload, bases, smoke, golden, traced=True))
    for label, p in zip(("untraced", "traced"), passes):
        for problem in p.problems:
            print(f"FAILED {problem}", flush=True)
        c = p.clock
        for base, secs, norm in zip(bases, c.verdict_seconds, c.verdict_norms):
            print(f"{label} verdict {base}: {secs:.3f} s = {norm:.1f} ref (ref {secs / norm * 1000:.3f} ms)")

    base, reports = plain.first or (None, None)
    detected = reports is not None and bool(check(workload, base, smoke, workload.mutate(reports), golden))
    print(f"negative control (mutated {workload_name} report): {'detected' if detected else 'NOT DETECTED'}")

    if trace:
        metrics = layer_metrics(plain, passes[1])
        print(f"trace written to {write_trace(workload_name, seed, env, passes[1]).relative_to(ROOT)}")
        print("reductions.anchor_scans_B is computed as ball points x 2^n, not counted")
    else:
        metrics, note = e2e_metrics(plain, statistics.median(probes.samples))
        print(note)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"error_ratio = {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0 and detected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    """Every workload at reduced size, both modes; every declared metric emitted with its unit."""
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name, workload in WORKLOADS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(name, workload.default_seed, 1, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                ok = False
                print(f"SMOKE {name} trace={trace}: declared {want} but emitted {got}")
            if not result["correct"]:
                ok = False
                print(f"SMOKE {name} trace={trace}: outputs not correct")
            share = result["metrics"].get("bench.accounted_share", {"value": 1.0})["value"]
            if not 0.98 <= share <= 1.02:
                ok = False
                print(f"SMOKE {name}: spans account for {share:.4f} of traced wall time")
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def record_golden() -> int:
    """Write golden digests of each workload's acceptance verdict."""
    from spans import ItemClock
    from workloads import GOLDEN_PATH, WORKLOADS

    golden = {}
    for name, workload in WORKLOADS.items():
        base = workload.default_seed
        inst = workload.instrument(ItemClock())
        with inst.installed():
            reports = workload.run(base, False, inst)
        problems = workload.check(reports)
        if problems:
            print(f"{name} base seed {base}: {problems}; not recording")
            return 1
        golden[name] = {str(base): workload.digests(reports)}
        print(f"{name} {base}: {golden[name][str(base)]}", flush=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="learn-dense")
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's acceptance seed")
    parser.add_argument("--seconds", type=int, default=20, help="run length on the reference host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_lmqlab()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.probe:
        return probe_main(args.workload)
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    if args.smoke:
        return smoke()
    if args.record_golden:
        return record_golden()
    result = measure(args.workload, seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
