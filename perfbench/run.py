"""Benchmark of the mdoftwin digital twin.

    python3 perfbench/run.py --workload track-2dof --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``mdoftwin`` from its
``src/`` directory, nothing else. Workloads are listed in BENCHMARK.json and
defined in ``workloads.py``. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
layers are traced (``tracer.py``) and it carries the per-layer metrics.
Lines before it are a readable report. Results, fingerprints and spans go
to ``.bench_out/`` in the checkout.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("track-2dof", "track-7dof", "forecast")

# percentiles tried for a timing's tail, highest first
_TAILS = (99.9, 99.0, 90.0, 50.0)


def import_library():
    """Import mdoftwin from this checkout's src/ or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mdoftwin
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mdoftwin from {src}: {exc}")
    if Path(mdoftwin.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: mdoftwin came from {mdoftwin.__file__}, not {src}")
    return mdoftwin


def commit_id() -> str:
    """HEAD of the checkout's own git metadata, or "unknown" without any."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the library's source files, names and contents."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mdoftwin").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(mdoftwin) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "mdoftwin": mdoftwin.__version__,
        "commit": commit_id(),
        "source_sha256": source_digest(),
    }


def timing(values: list, wall: list) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n, of
    calibrated times, plus the median wall time."""
    import numpy as np

    out = {"n": len(values)}
    if not values:
        return out
    out["p50"] = statistics.median(values)
    out["wall_p50"] = statistics.median(wall)
    for p in _TAILS:
        if len(values) * (100.0 - p) / 100.0 >= 10.0:
            out[f"p{p:g}"] = float(np.percentile(values, p))
            break
    return out


def end_to_end(rec) -> dict:
    """Every end-to-end metric as (value, unit, sample count, detail)."""
    import numpy as np
    from workloads import ENSEMBLE_DRAWS

    cal = {name: [t.calibrated for t in ts] for name, ts in rec.timings.items()}
    wall = {name: [t.wall for t in ts] for name, ts in rec.timings.items()}
    bursts = np.split(np.array(cal["query_s"]), np.cumsum(rec.query_bursts)[:-1])
    burst_p90 = [float(np.percentile(b, 90)) for b in bursts if b.size]
    draws = ENSEMBLE_DRAWS * len(cal["ensemble_s"])
    query = timing(cal["query_s"], wall["query_s"])
    assimilate = timing(cal["assimilate_s"], wall["assimilate_s"])
    nan = float("nan")
    return {
        "setup_s": (statistics.median(cal["setup_s"]), "s", len(cal["setup_s"]),
                    timing(cal["setup_s"], wall["setup_s"])),
        "windows_per_s": (len(cal["window_s"]) / sum(cal["window_s"])
                          if cal["window_s"] else nan, "1/s", len(cal["window_s"]),
                          timing(cal["window_s"], wall["window_s"])),
        "assimilate_s.p50": (assimilate.get("p50", nan), "s", assimilate["n"],
                             assimilate),
        "query_s.p50": (query.get("p50", nan), "s", query["n"], query),
        "query_s.p90": (statistics.median(burst_p90) if burst_p90 else nan, "s",
                        query["n"], {"bursts": len(burst_p90),
                                     "all_queries_p90": float(np.percentile(cal["query_s"], 90))
                                     if cal["query_s"] else nan}),
        # draws over the median call, so that a call slowed by the host does
        # not weigh more than any other
        "ensemble_draws_per_s": (ENSEMBLE_DRAWS / statistics.median(cal["ensemble_s"])
                                 if draws else nan, "1/s", draws,
                                 {"calls": len(cal["ensemble_s"]),
                                  "wall": ENSEMBLE_DRAWS / statistics.median(wall["ensemble_s"])
                                  if draws else nan}),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1, {}),
    }


def accuracy(rec) -> dict:
    """Checked quantities reported beside the metrics; they vary with the seed."""
    nan = float("nan")
    return {
        "k_rel_err.max": (max(rec.k_rel_err, default=nan), "1", len(rec.k_rel_err)),
        "forecast_rel_err.max": (max(rec.forecast_rel_err, default=nan), "1",
                                 len(rec.forecast_rel_err)),
        "window_fail_ratio": (rec.windows_failed / rec.windows_attempted
                              if rec.windows_attempted else nan, "1",
                              rec.windows_attempted),
    }


def tracing_overhead(args, env: dict, e2e: dict) -> dict:
    """Traced over untraced wall times, against the untraced result of this
    workload, seed, length and library source; empty when there is none.

    Wall times, not calibrated ones: a traced run calibrates from kernel
    timings before and after each call only, which read differently from
    the ones sampled during a call.
    """
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace0.json"
    if not path.exists():
        return {}
    base = json.loads(path.read_text())
    if (base["seconds"] != args.seconds
            or base["env"].get("source_sha256") != env["source_sha256"]):
        return {}
    base = base["end_to_end"]
    walls = {"window_s.wall_p50": ("windows_per_s", "wall_p50"),
             "assimilate_s.wall_p50": ("assimilate_s.p50", "wall_p50"),
             "query_s.wall_p50": ("query_s.p50", "wall_p50"),
             "ensemble_draws_per_s.wall": ("ensemble_draws_per_s", "wall")}
    out = {}
    for name, (metric, key) in walls.items():
        untraced, traced = base[metric]["detail"].get(key), e2e[metric][3].get(key)
        if untraced and traced:
            out[name] = {"untraced": untraced, "traced": traced,
                         "change": traced / untraced - 1.0}
    return out


def print_report(args, env, e2e, acc, rec, layers, overhead, elapsed) -> None:
    print(f"mdoftwin benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, wall {elapsed:.1f} s")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"{'metric':34} {'value':>14} {'unit':14} detail")
    for name, (value, unit, n, detail) in e2e.items():
        tail = ", ".join(f"{k} {v:.6g}" for k, v in detail.items() if k != "n")
        print(f"{name:34} {value:14.6g} {unit:14} n={n} {tail}")
    for name, (value, unit, n) in acc.items():
        print(f"{name:34} {value:14.6g} {unit:14} n={n}")
    for name, (value, unit) in layers.items():
        print(f"{name:34} {value:14.6g} {unit}")
    for name, row in overhead.items():
        print(f"tracing overhead on {name}: {row['untraced']:.6g} untraced, "
              f"{row['traced']:.6g} traced ({row['change']:+.1%})")
    kernel = rec.kernel_s
    print(f"host speed: reference kernel {min(kernel):.4g}..{max(kernel):.4g} s "
          f"(median {statistics.median(kernel):.4g} s, {len(kernel)} timings)")
    print(f"checks: {rec.windows_attempted} windows ({rec.windows_failed} failed), "
          f"{rec.ops_attempted} reads and round trips ({rec.ops_failed} failed)")
    for failure in rec.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"fingerprint sha256 {rec.fingerprint.get('sha256', 'missing')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    mdoftwin = import_library()
    from tracer import SpanTable, Tracer, layer_metrics
    from workloads import ENSEMBLE_DRAWS, WORKLOADS, Untraced

    OUT.mkdir(exist_ok=True)
    env = environment(mdoftwin)
    probe = Tracer() if args.trace else Untraced()
    if args.trace:
        probe.install()
    t0 = time.perf_counter()
    try:
        rec = WORKLOADS[args.workload](args.seed, args.seconds, probe, OUT)
    finally:
        if args.trace:
            probe.uninstall()
    elapsed = time.perf_counter() - t0

    e2e = end_to_end(rec)
    acc = accuracy(rec)
    layers, overhead = {}, {}
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        table = SpanTable(probe)
        layers = layer_metrics(table, ENSEMBLE_DRAWS * len(rec.timings["ensemble_s"]))
        layers["twin.snapshot_bytes"] = (float(rec.snapshot_bytes), "bytes")
        overhead = tracing_overhead(args, env, e2e)
        probe.write(OUT / f"spans-{tag}.npz", OUT / f"trace-{tag}.json",
                    {"spans": table.rows(), "counts": {
                        f"{name} @ {ctx or '-'}": n
                        for (name, ctx), n in sorted(probe.counts.items())}})

    with open(OUT / f"fingerprint-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(rec.fingerprint, fh, indent=1, sort_keys=True)
        fh.write("\n")
    reported = [v for v, *_ in (layers if args.trace else e2e).values()]
    correct = (not rec.failures and bool(rec.fingerprint)
               and all(math.isfinite(v) for v in reported))
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "wall_s": elapsed, "correct": correct,
        "end_to_end": {k: {"value": v, "unit": u, "n": n, "detail": d}
                       for k, (v, u, n, d) in e2e.items()},
        "accuracy": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in acc.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "tracing_overhead": overhead,
        "kernel_s": rec.kernel_s,
        "samples": {name: [[t.wall, t.calibrated] for t in ts]
                    for name, ts in rec.timings.items()},
        "query_bursts": rec.query_bursts,
        "failures": rec.failures,
        "fingerprint_sha256": rec.fingerprint.get("sha256"),
    }
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print_report(args, env, e2e, acc, rec, layers, overhead, elapsed)
    metrics = {k: {"value": v if math.isfinite(v) else None, "unit": u}
               for k, (v, u, *_) in (layers if args.trace else e2e).items()}
    print(json.dumps({
        "correct": correct,
        "attempted": rec.windows_attempted + rec.ops_attempted,
        "failed": rec.windows_failed + rec.ops_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
