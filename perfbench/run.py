"""Benchmark of the zeta-workbench CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each CLI call is one fresh
`python -m zeta_workbench.cli` process with the checkout's `src` on
PYTHONPATH, one at a time.  A round is one pass over the workload's call
list; rounds repeat until S seconds have passed.  Every output of the
first round is checked against the benchmark's own computations, and every
later round must reproduce the first byte for byte.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same
argument lists inside this process through `cli.main(argv)` with the
layers wrapped from outside (see tracing.py) and prints the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import class_sums  # noqa: E402
import continue_verify  # noqa: E402
import enumerate_schottky  # noqa: E402
from common import (  # noqa: E402
    ROOT,
    SRC,
    CheckFailure,
    Scratch,
    child_env,
    cli_argv,
    spawn,
)

WORKLOADS = {m.NAME: m for m in (enumerate_schottky, class_sums, continue_verify)}
SETUPS = 3
RESULTS = ROOT / ".perfbench_results"
# a round is not started once this much of the run has passed
LATEST_ROUND_START_S = 110.0


def setup(module, seed: int, scratch: Scratch):
    """Generate the inputs and warm the interpreter up; return the workload
    and the set-up time."""
    start = time.perf_counter()
    workload = module.Workload(seed, scratch.fresh("inputs"))
    warm = spawn(cli_argv(["--help"]), child_env(scratch.fresh("cache")), scratch.path)
    if warm.code != 0:
        raise SystemExit(f"error: the CLI does not start:\n{warm.stderr}")
    return workload, time.perf_counter() - start


def run_round(workload, scratch: Scratch):
    out = scratch.fresh("round")
    env = child_env(out / "cache")
    results = {}
    failed = 0
    for label, args, expect in workload.calls(out):
        child = spawn(cli_argv(args), env, out)
        results[label] = child
        if child.code != expect:
            failed += 1
            sys.stderr.write(
                f"{label}: exit {child.code}, expected {expect}\n{child.stderr[-2000:]}\n"
            )
    return out, results, failed


def output_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.json"))}


def check_round(workload, out: Path, results: dict, first: dict | None) -> bool:
    """Check the first round against the oracles, later ones against the
    first byte for byte; report what fails on stderr."""
    try:
        if first is None:
            workload.check(out, {k: r.stdout for k, r in results.items()})
        else:
            again = output_files(out)
            for name, data in first.items():
                if again.get(name) != data:
                    raise CheckFailure(f"{name} differs from the first round")
    except CheckFailure as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return False
    except Exception:  # malformed output: report it and keep measuring
        traceback.print_exc()
        return False
    return True


def measure(workload, seconds: float, run_start: float, scratch: Scratch):
    rounds, walls, peaks = 0, [], []
    attempted = failed = 0
    correct = True
    first = None
    begin = time.perf_counter()
    while rounds == 0 or (
        time.perf_counter() - begin < seconds
        and time.perf_counter() - run_start < LATEST_ROUND_START_S
    ):
        out, results, round_failed = run_round(workload, scratch)
        rounds += 1
        attempted += len(results)
        failed += round_failed
        walls.append([r.wall_s for r in results.values()])
        peaks += [r.peak_rss_mb for r in results.values()]
        if round_failed:
            continue
        correct &= check_round(workload, out, results, first)
        if first is None:
            first = output_files(out)
    return {
        "correct": correct and first is not None,
        "attempted": attempted,
        "failed": failed,
        "wall_s": statistics.median(sum(w) for w in walls),
        "cli_p50_s": statistics.median(x for w in walls for x in w),
        "peak_rss_mb": max(peaks),
        "rounds": rounds,
    }


def startup_times(scratch: Scratch, repeats: int = 5) -> tuple[float, float]:
    env = child_env(scratch.fresh("cache"))
    bare = [spawn([sys.executable, "-c", "pass"], env, scratch.path).wall_s for _ in range(repeats)]
    imp = [
        spawn([sys.executable, "-c", "import zeta_workbench.cli"], env, scratch.path).wall_s
        for _ in range(repeats)
    ]
    interpreter = statistics.median(bare)
    return interpreter, statistics.median(imp) - interpreter


def traced(module, workload, scratch: Scratch) -> dict:
    """Per-layer figures from one untraced subprocess round, one untraced
    in-process pass and one traced in-process pass of the same calls."""
    import tracing

    sys.path.insert(0, str(SRC))
    modules = tracing.workbench()
    main = modules["cli"].main

    out, results, round_failed = run_round(workload, scratch)
    if round_failed:
        raise SystemExit("error: a call of the untraced round failed")
    correct = check_round(workload, out, results, None)
    wall = sum(r.wall_s for r in results.values())
    interpreter, import_s = startup_times(scratch)

    out = scratch.fresh("inproc")
    untraced_s = tracing.run_calls(main, workload.calls(out), out / "cache")
    tracer = tracing.Tracer()
    out = scratch.fresh("traced")
    with tracing.installed(tracer, modules):
        traced_s = tracing.run_calls(
            tracer.span("cli.main", main), workload.calls(out), out / "cache"
        )

    inc, own, calls, counts = tracer.inclusive, tracer.self_time, tracer.calls, tracer.counts
    n_calls = len(results)
    words_visited = workload.words_visited() if hasattr(workload, "words_visited") else 0
    zeta_terms = counts["zeta.class_terms"]
    metrics = {
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.calls": (n_calls, "count"),
        "cli.glue_s": (own["cli.main"], "s"),
        "spectra.parse_s": (inc["spectra.parse"], "s"),
        "spectra.serialize_s": (inc["spectra.serialize"], "s"),
        "spectra.classes_parsed": (counts["spectra.classes_parsed"], "count"),
        "cache.store_s": (inc["cache.store"], "s"),
        "cache.load_s": (inc["cache.load"], "s"),
        "cache.hits": (counts["cache.hits"], "count"),
        "enumerator.enumerate_s": (inc["enumerator.enumerate"], "s"),
        "enumerator.primitive_decomposition_s": (inc["enumerator.primitive_decomposition"], "s"),
        "enumerator.complex_length_s": (inc["enumerator.complex_length"], "s"),
        "enumerator.complex_length_calls": (calls["enumerator.complex_length"], "count"),
        "enumerator.walk_s": (own["enumerator.enumerate"], "s"),
        "enumerator.words_visited": (words_visited, "count"),
        "enumerator.classes_out": (counts["enumerator.classes_out"], "count"),
        "reps.character_chi_s": (inc["reps.character_chi"], "s"),
        "reps.character_chi_calls": (calls["reps.character_chi"], "count"),
        "reps.character_sigma_calls": (calls["reps.character_sigma"], "count"),
        "reps.ad_nbar_det_calls": (calls["reps.ad_nbar_det"], "count"),
        "zeta.log_zeta_s": (own["zeta.log_zeta"], "s"),
        "zeta.class_terms": (zeta_terms, "count"),
        "zeta.class_term_ns": (1e9 * own["zeta.log_zeta"] / zeta_terms if zeta_terms else 0.0, "ns"),
        "traces.geometric_side_s": (inc["traces.geometric_side"], "s"),
        "traces.class_terms": (counts["traces.class_terms"], "count"),
        "traces.kernel_check_s": (inc["traces.kernel_check"], "s"),
        "continuation.catalog_s": (inc["continuation.catalog"], "s"),
        "continuation.path_s": (inc["continuation.path"], "s"),
        "continuation.path_calls": (calls["continuation.path"], "count"),
        "continuation.logderiv_evals": (calls["continuation.logderiv"], "count"),
        "continuation.residue_s": (inc["continuation.residue"], "s"),
    }
    for suite in continue_verify.SUITES:
        metrics[f"verify.{suite}_s"] = (inc[f"verify.{suite}"], "s")
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.explained_s": (n_calls * (interpreter + import_s) + traced_s, "s"),
        "trace.inproc_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"spans-{module.NAME}.json").write_text(
        json.dumps(
            {"inclusive_s": dict(inc), "self_s": dict(own), "calls": dict(calls), "counts": dict(counts)},
            indent=1, sort_keys=True,
        ),
        encoding="utf-8",
    )
    return {"correct": correct, "attempted": n_calls, "failed": 0, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()
    if not (SRC / "zeta_workbench" / "cli.py").is_file():
        sys.stderr.write(f"error: no workbench sources under {SRC}\n")
        return 2
    module = WORKLOADS[args.workload]
    scratch = Scratch(args.workload)
    try:
        if args.trace:
            workload, _ = setup(module, args.seed, scratch)
            result = traced(module, workload, scratch)
        else:
            setups = []
            for _ in range(SETUPS):
                workload, seconds = setup(module, args.seed, scratch)
                setups.append(seconds)
            summary = measure(workload, args.seconds, run_start, scratch)
            result = {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    "wall_s": (summary["wall_s"], "s"),
                    "cli_p50_s": (summary["cli_p50_s"], "s"),
                    "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
                    "setup_s": (statistics.median(setups), "s"),
                },
            }
            sys.stderr.write(f"{args.workload}: {summary['rounds']} round(s)\n")
    finally:
        scratch.close()
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    RESULTS.mkdir(exist_ok=True)
    line = json.dumps(result)
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
