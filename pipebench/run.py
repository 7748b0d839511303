"""Layered pipeline benchmark for palmroi: end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 pipebench/run.py --workload paper-eval --seed 42 --seconds 20 --trace 0

Workloads (``workloads.py``; each a closed loop with one client):

- ``paper-eval``: ``run_evaluation`` with the CLI defaults on a 10x12 corpus
  at 384x284.  Dominant layer: ``kernels`` (component labeling).
- ``gallery-probe``: ``palmroi enroll --roi auto`` of 720 templates from a
  60x16 corpus plus the DB reload, then 240 probes of ``load_pgm`` ->
  ``extract_features`` -> ``identify`` -> ``verify``.  Dominant layer of a
  probe: ``matcher``.
- ``cli-oneshot``: ``extract-roi``, ``identify`` and ``verify`` on one image
  and ``enroll --roi auto`` over a 10x12 corpus, each a fresh
  ``python -m palmroi.cli``.  Dominant cost: interpreter start and imports.

``--trace 0`` measures with tracing off and reports:

- ``setup_s``: median of three set-ups (corpus generation plus, on
  cli-oneshot, the 60-template DB the probes are matched against);
- ``pass_s``: median seconds of timed work per pass of the loop (one
  evaluation; one enrollment plus 240 probes; the four commands);
- ``op_p50_ms``: median ms of the workload's single operation (one
  ``run_evaluation``; one probe; one ``extract-roi``, ``identify`` or
  ``verify`` process);
- ``peak_rss_mb``: peak RSS of the process that ran the workload (on
  cli-oneshot the largest child).

``--trace 1`` alternates untraced and traced passes (``spans.py``) and
reports the per-layer metrics of one median traced pass, a per-layer table
and the tracing overhead.  ``synth.generate_corpus.self_ms`` is of one
traced set-up, ``cli.import_ms`` of a fresh interpreter importing
``palmroi.cli``; both are 0 where the workload does not exercise them.

Every run first makes one checked warm-up pass whose timings are dropped.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the report and an
environment stamp.  Output digests are kept in ``.pipebench/`` so that a
later run of the same workload and seed in this checkout must match them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from time import perf_counter

from spans import LAYERS, Tracer, patched
from workloads import ROOT, CliOneshot, Log, WORKLOADS, checked_identify, median

import numpy
import scipy

import palmroi
from palmroi import evaluate, matcher

STATE_DIR = ROOT / ".pipebench"
SETUP_REPEATS = 3
FLOOR_SHARE = 0.02  # a layer under this share of the pass can save at most that much

END_TO_END = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

CALLS = (
    "kernels.count_components", "edges.edge_mask", "roi.keep_ranges", "features.features_from_mask",
    "features.extract_features", "matcher.identify", "matcher.verify", "matcher.distance", "image.load_pgm",
)
SELF_MS = (
    "kernels.count_components", "kernels.sobel_l1", "edges.edge_mask", "edges.count_connected_lines",
    "roi.keep_ranges", "roi.common_roi", "roi.extract_roi", "features.features_from_mask",
    "features.extract_features", "matcher.identify", "matcher.verify", "matcher.enroll", "matcher.save_db",
    "matcher.load_db", "image.load_pgm", "image.save_pgm", "evaluate.run_evaluation", "cli.main",
)
WORK_UNITS = {"kernels.label_px": "px", "image.load_pgm.bytes": "B", "matcher.db_bytes": "B"}
PER_LAYER = (
    {f"{fn}.calls": "count" for fn in CALLS}
    | {f"{fn}.self_ms": "ms" for fn in SELF_MS}
    | {f"{layer}.self_ms": "ms" for layer in LAYERS}
    | WORK_UNITS
    | {
        "edges.sobel_per_image": "ratio",
        "synth.generate_corpus.self_ms": "ms",
        "cli.import_ms": "ms",
        "trace.untraced_pass_ms": "ms",
        "trace.traced_pass_ms": "ms",
        "trace.overhead_pct": "%",
    }
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=evaluate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def check_pass(workload, log: Log) -> None:
    """Check the last pass; output too malformed to check fails its operation."""
    try:
        workload.check(log)
    except Exception:
        log.fail(f"checking {workload.name} outputs raised\n{traceback.format_exc()}")


def warm_up(workload, log: Log) -> None:
    """One pass with every in-process identify answer checked; its timings are dropped."""
    with patched([(matcher, "identify", checked_identify(log, matcher.identify))]):
        workload.run_pass(log)
    check_pass(workload, log)
    log.samples.clear()


def measure(workload, seconds: int, log: Log):
    """End-to-end metrics with tracing off."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    warm_up(workload, log)
    passes = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        passes.append(workload.run_pass(log))
        check_pass(workload, log)
    ops = [t for name in workload.ops for t in log.samples[name]]
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliOneshot) else resource.RUSAGE_SELF
    metrics = {
        "setup_s": median(setups),
        "pass_s": median(passes),
        "op_p50_ms": median(ops) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    samples = {"setup_s": len(setups), "pass_s": len(passes), "op_p50_ms": len(ops)}
    return metrics, workload.report(log), samples


def pass_layer_metrics(tracer: Tracer) -> dict[str, float]:
    metrics = {f"{fn}.calls": tracer.calls(fn) for fn in CALLS}
    metrics |= {f"{fn}.self_ms": tracer.self_ms(fn) for fn in SELF_MS}
    layers = tracer.layer_totals()
    metrics |= {f"{layer}.self_ms": layers[layer][1] for layer in LAYERS}
    metrics |= {f"{layer}.spans": layers[layer][0] for layer in LAYERS}
    metrics |= {name: tracer.work.get(name, 0) for name in WORK_UNITS}
    loads = tracer.calls("image.load_pgm")
    metrics["edges.sobel_per_image"] = tracer.calls("edges.edge_mask") / loads if loads else 0.0
    return metrics


def layer_table(name: str, metrics: dict[str, float], passes: int) -> list[str]:
    traced = metrics["trace.traced_pass_ms"]
    rows = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_ms"])
    lines = [
        f"per-layer trace of {name}, median of {passes} traced passes "
        "(calls: spans entering the layer; share: of the traced pass)",
        f"{'layer':<10}{'calls':>9}{'self ms':>11}{'share':>8}",
    ]
    for layer in rows:
        ms = metrics[f"{layer}.self_ms"]
        share = ms / traced if traced else 0.0
        floor = "  at floor" if metrics[f"{layer}.spans"] and share < FLOOR_SHARE else ""
        lines.append(f"{layer:<10}{metrics[f'{layer}.spans']:>9.0f}{ms:>11.2f}{share:>8.1%}{floor}")
    lines.append(
        f"pass {metrics['trace.untraced_pass_ms']:.1f} ms untraced, {traced:.1f} ms traced: "
        f"tracing overhead {traced - metrics['trace.untraced_pass_ms']:.1f} ms ({metrics['trace.overhead_pct']:.1f}%)"
    )
    if metrics["cli.import_ms"]:
        lines.append(f"cli.import_ms {metrics['cli.import_ms']:.1f} ms (fresh interpreter, import palmroi.cli)")
    lines.append(f"at floor: exercised layers under {FLOOR_SHARE:.0%} of the pass; optimising one saves at most that")
    return lines


def trace(workload, seconds: int, log: Log):
    """Per-layer metrics: untraced and traced passes alternate until the time is up."""
    with Tracer() as setup_trace:
        workload.setup()
    if isinstance(workload, CliOneshot):
        workload.spawn = False  # run the commands in-process so the trace sees into them
    warm_up(workload, log)
    untraced, traced, per_pass = [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < 2:
        untraced.append(workload.run_pass(log))
        check_pass(workload, log)
        with Tracer() as tracer:
            traced.append(workload.run_pass(log))
        check_pass(workload, log)
        per_pass.append(pass_layer_metrics(tracer))
    metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["synth.generate_corpus.self_ms"] = setup_trace.self_ms("synth.generate_corpus")
    metrics["cli.import_ms"] = workload.import_ms() if isinstance(workload, CliOneshot) else 0.0
    metrics["trace.untraced_pass_ms"] = median(untraced) * 1e3
    metrics["trace.traced_pass_ms"] = median(traced) * 1e3
    metrics["trace.overhead_pct"] = 100 * (median(traced) / median(untraced) - 1)
    report = layer_table(workload.name, metrics, len(traced))
    return {name: metrics[name] for name in PER_LAYER}, report, {"traced_passes": len(traced)}


def check_earlier_runs(log: Log, workload, seed: int) -> None:
    """Output digests must equal those an earlier run of this workload and seed stored here."""
    path = STATE_DIR / "digests.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    earlier = state.setdefault(f"{workload.name}:{seed}", {})
    op = log.begin()
    for name, digest in sorted(workload.digests.first.items()):
        log.check(earlier.setdefault(name, digest) == digest, f"{name}: differs from an earlier run of seed {seed}", op)
    tmp = path.with_name(f"digests.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, samples: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": palmroi.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seeds": {"corpus": args.seed, "evaluate_split": evaluate.RunConfig().seed},
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    work = STATE_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    log = Log()
    try:
        metrics, report, samples = (trace if args.trace else measure)(workload, args.seconds, log)
        check_earlier_runs(log, workload, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for line in report:
        print(line)
    print(f"error_rate {log.failed}/{log.attempted} = {log.failed / log.attempted:.6f} (base: operations attempted)")
    print("env " + json.dumps(environment(args, samples), sort_keys=True))
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
