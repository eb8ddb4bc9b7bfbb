"""Benchmark of the TxAllo reproduction, one workload per process.

    python3 perfbench/run.py --workload static_alloc --seed 7 --seconds 10 --trace 0

Without ``--workload`` every workload runs, each in its own process. Run
from anywhere inside a checkout; the repository's ``src`` is imported from
source. No workload starts Spark.

A run keeps processing inputs (see ``workloads.py``) until ``--seconds``
have passed and at least the workload's minimum number of inputs is done.
It prints one line per metric, an ``info`` line (environment, label
digests, failed checks, absent patch points) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds one traced pass over input 0
and reports the per-layer metrics instead.
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
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("static_alloc", "global_alloc", "adaptive_steps")


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Sample:
    setup_s: float
    wall_s: float
    quality: object
    rec: object


def one_input(wl, seed: int, index: int, checks, tracer=None) -> tuple[Sample, list[str]]:
    """Set up, run and check input ``index``; only set-up and run are timed."""
    import repro.chain as chain
    from spans import Patches
    from workloads import GENERATOR_SEED, Recorder, layer_hooks, renamed_stream

    params = chain.EthParams(sf=wl.sf, seed=GENERATOR_SEED)
    rec = Recorder()
    with Patches(layer_hooks(rec), tracer) as patches:
        t0 = time.perf_counter()
        base = chain.eth_transactions_pandas(params)
        t1 = time.perf_counter()
        stream = renamed_stream(base, seed, index)
        t2 = time.perf_counter()
        state = wl.setup(stream)
        t3 = time.perf_counter()
        out = wl.run(state)
        t4 = time.perf_counter()
    quality = wl.check(state, out, rec, checks)
    return Sample((t1 - t0) + (t3 - t2), t4 - t3, quality, rec), patches.absent


# Per-layer seconds: span self time summed over the spans named. Every
# workload calls each of these layers, so none reads 0.
LAYER_SECONDS = {
    "chain.generate_s": ("chain.generate",),
    "graph.build_s": ("graph.pandas_build",),
    "graph.csr_s": ("graph.csr",),
    "louvain.s": ("louvain",),
    "txallo.g_s": ("txallo.g",),
    "metrics.eval_s": ("metrics.pandas_eval",),
    "sim.self_s": ("sim.allocate", "sim.adaptive"),
}
# Layers that only some workloads call, as a share of the traced input's
# set-up plus timed phase; their seconds are in the info line.
LAYER_SHARES = {
    "txallo.a_pct": "txallo.a",
    "baselines.metis_pct": "baselines.metis",
    "baselines.scheduler_pct": "baselines.scheduler",
    "baselines.hash_pct": "baselines.hash",
}


def layer_metrics(tracer, traced: Sample, untraced: Sample) -> dict[str, float]:
    """Per-layer metrics of one traced input."""
    import numpy as np

    own = tracer.self_seconds()
    total = traced.setup_s + traced.wall_s
    rec = traced.rec
    out: dict[str, float] = {
        m: sum(own.get(n, 0.0) for n in names) for m, names in LAYER_SECONDS.items()
    }
    out["trace.wall_s"] = traced.wall_s
    out["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    out.update({m: 100.0 * own.get(n, 0.0) / total for m, n in LAYER_SHARES.items()})
    out.update(
        {
            "graph.build_calls": len(tracer.durations("graph.pandas_build")),
            "graph.build_txs": rec.pandas_build_txs,
            "graph.nodes": rec.last_adj.n,
            "graph.edges": len(rec.last_adj.indices) // 2,
            "louvain.communities": int(rec.louvain_labels[-1].max()) + 1,
            "txallo.a_calls": len(rec.a_calls),
            "txallo.hot_nodes": sum(len(np.unique(hot)) for _, hot, _ in rec.a_calls),
            "txallo.a_relabelled": sum(
                int(np.count_nonzero(new != prev)) for prev, _, new in rec.a_calls
            ),
            "metrics.eval_calls": len(tracer.durations("metrics.pandas_eval")),
        }
    )
    return out


def layer_details(tracer) -> dict:
    """Self seconds of every span name, and A-TxAllo's per-call percentiles."""
    import numpy as np

    a_times = tracer.durations("txallo.a")
    return {
        "layer_self_s": {n: round(v, 6) for n, v in sorted(tracer.self_seconds().items())},
        "a_txallo_p50_s": float(np.percentile(a_times, 50)) if a_times else None,
        "a_txallo_p90_s": float(np.percentile(a_times, 90)) if a_times else None,
    }


UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "gamma": "ratio", "norm_throughput": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith(("_s", ".s")) else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import pandas

    import workloads
    from spans import Tracer

    wl = workloads.make(name)
    checks = workloads.Checks()
    samples: list[Sample] = []
    absent: set[str] = set()
    start = time.perf_counter()
    while len(samples) < wl.min_inputs or time.perf_counter() - start < seconds:
        sample, missing = one_input(wl, seed, len(samples), checks)
        samples.append(sample)
        absent.update(missing)
    if trace:
        tracer = Tracer()
        traced, missing = one_input(wl, seed, 0, checks, tracer)
        absent.update(missing)
        same = workloads.digest([traced.quality.g_labels]) == workloads.digest(
            [samples[0].quality.g_labels]
        )
        checks(same, f"{name}: traced rerun of input 0 changed the G-TxAllo labels")

    kept = [s.quality for s in samples[: wl.min_inputs]]
    if trace:
        metrics = layer_metrics(tracer, traced, samples[0])
        units = {m: layer_unit(m) for m in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(s.setup_s for s in samples),
            "wall_s": statistics.median(s.wall_s for s in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "gamma": float(np.mean([q.gamma for q in kept])),
            "norm_throughput": float(np.mean([q.norm_throughput for q in kept])),
        }
        units = UNITS
    failed = len(checks.failures)
    info = {
        "workload": name,
        "seed": seed,
        "sf": wl.sf,
        "generator_seed": workloads.GENERATOR_SEED,
        "k": workloads.K,
        "eta": workloads.ETA,
        "inputs": len(samples),
        "setup_samples_s": [round(s.setup_s, 4) for s in samples],
        "wall_samples_s": [round(s.wall_s, 4) for s in samples],
        "g_txallo_labels_sha256": workloads.digest([q.g_labels for q in kept]),
        "a_txallo_final_labels_sha256": (
            workloads.digest([q.a_labels for q in kept]) if kept[0].a_labels is not None else None
        ),
        **(layer_details(tracer) if trace else {}),
        "failures": checks.failures,
        "absent_patch_points": sorted(absent),
        "env": {
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "pandas": pandas.__version__,
        },
    }
    for m, v in metrics.items():
        print(f"{name}  {m:<24} {v:>14.6g} {units[m]}")
    print(f"{name}  operations attempted={checks.attempted} failed={failed}")
    print("info " + json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload is None:
        rc = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            rc = max(rc, subprocess.run(cmd).returncode)
        return rc
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
