"""The heckelab benchmark.

    python3 perfbench/run.py --workload kl_table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-test

Run it from the root of a heckelab checkout; it uses the library in
src/ and nothing installed.  Workloads: kl_table, characters, words,
cli_session (see perfbench/NOTES.md for what each measures and why);
`--workload all` runs the four one after another.

--trace 0 measures for --seconds seconds: a few set-up probes, then
untraced passes, each in a fresh process, for as long as another pass
fits.  It prints the end-to-end metrics, with times scaled to the
machine's speed gauged during the passes (speed.py).  --trace 1 runs
one traced pass and one untraced pass and prints the per-layer
metrics, including the tracing overhead.  Either way the last line of
stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}, and the full record (inputs, environment, every pass) goes
to perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import inputs as gen  # noqa: E402  (the script's own directory)
import speed  # noqa: E402

SETUP_PROBES = 10       # set-up-only processes per run, besides the passes
PASS_TIMEOUT = 150      # seconds; a run must end within 180
HELD_OUT_SEED = 104729  # reserved for confirming claims, see NOTES.md

RSS_METHOD = ("ru_maxrss (KiB on Linux) of the pass process from "
              "resource.getrusage(RUSAGE_SELF) at the end of the pass; for "
              "cli_session RUSAGE_CHILDREN of the session process, i.e. the "
              "largest over its CLI child processes; median over passes")


def metric_units(kind: str) -> dict:
    """name -> unit of the "end_to_end" or "per_layer" metrics, in the
    order of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HECKE_LAB_MAX_N"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Start one worker process and return its JSON result, with the
    spawn stamp added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    t_spawn = time.monotonic()
    try:
        r = subprocess.run(cmd, capture_output=True, cwd=str(ROOT),
                           env=child_env(), timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {PASS_TIMEOUT}s"}
    if r.returncode != 0:
        return {"error": r.stderr.decode(errors="replace")[-2000:]}
    try:
        data = json.loads(r.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "the worker printed no result"}
    data["t_spawn"] = t_spawn
    return data


def cli_references(inp: dict, seed: int) -> Path:
    """Stdout of every 'exact' command run without a cache, in this
    process; the session's outputs must match them byte for byte."""
    sys.path.insert(0, str(SRC))
    from heckelab import cli
    refs: dict = {}
    for cmd in inp["commands"]:
        if cmd["check"] != "exact":
            continue
        key = json.dumps(cmd["reference"])
        if key in refs:
            continue
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(cmd["reference"]))
        except SystemExit as exc:
            code = exc.code
        refs[key] = buf.getvalue() if code == 0 else None
    path = OUT / f"refs-cli_session-seed{seed}.json"
    path.write_text(json.dumps(refs))
    return path


def env_stamp() -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=str(ROOT), capture_output=True, text=True,
                             timeout=10).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            commit = top[1]
    except OSError:
        pass  # no git: the source digest below still identifies the code
    digest = hashlib.sha256()
    for path in sorted((SRC / "heckelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": commit or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest(),
            "peak_rss_method": RSS_METHOD}


def percentile_stats(lat: list) -> dict:
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    return {"p50": statistics.median(lat), "p90": p90, "samples": len(lat),
            "beyond_p90": sum(1 for x in lat if x > p90)}


def run_passes(workload: str, seed: int, seconds: int, trace: bool,
               extra: list) -> tuple:
    """Set-up probes and passes; returns (setup samples, passes, traced)."""
    deadline = time.monotonic() + seconds
    setups, passes = [], []
    for _ in range(SETUP_PROBES):
        d = spawn(workload, seed, "--setup-only", *extra)
        if "error" not in d:
            setups.append(d["t_ready"] - d["t_spawn"])
    traced = spawn(workload, seed, "--trace", *extra) if trace else None
    while True:
        t = time.monotonic()
        passes.append(spawn(workload, seed, *extra))
        took = time.monotonic() - t
        if trace or "error" in passes[-1] or time.monotonic() + took > deadline:
            break
    return setups, passes, traced


def scaled_pass(d: dict) -> tuple:
    """(op latencies in ms, wall time in s) of one pass, each op and each
    segment scaled to the speed gauged next to it (speed.py); unscaled
    when the pass took no probes."""
    f = (speed.factors(d["op_t"], d["probes"]) if d["probes"]
         else [1.0] * len(d["op_t"]))
    lat = [x * k for x, k in zip(d["lat_ms"], f)]
    return lat, sum(x * k for x, k in zip(d["seg_ms"], f)) / 1e3


def end_to_end(setups: list, passes: list) -> tuple:
    """The end-to-end metrics of a run.  wall_s is the median pass and the
    op percentiles are over the op latencies pooled over the passes, all
    scaled to the speed gauged next to them where the pass probed it; the
    unscaled figures go to the record only.  setup_s, the median set-up
    probe, is not scaled: process start is mostly the kernel's work,
    which the gauge does not follow."""
    good = [d for d in passes if "error" not in d]
    if not good or not good[0]["lat_ms"] or not setups:
        return None, {}
    runs = [scaled_pass(d) for d in good]
    lat = [x for op_lat, _ in runs for x in op_lat]
    stats = percentile_stats(lat)
    raw_lat = [x for d in good for x in d["lat_ms"]]
    attempted = sum(d["attempted"] for d in good) + len(passes) - len(good)
    failed = sum(d["failed"] for d in good) + len(passes) - len(good)
    metrics = {
        "wall_s": statistics.median(wall for _, wall in runs),
        "op_p50_ms": stats["p50"],
        "op_p90_ms": stats["p90"],
        "peak_rss_mb": statistics.median(d["maxrss_kb"] for d in good) / 1024,
        "setup_s": statistics.median(setups),
        "ok_ratio": 1 - failed / attempted,
    }
    raw = percentile_stats(raw_lat)
    probes = [ms for d in good for _, ms in d["probes"]]
    samples = {"op_latency": stats, "passes": len(good),
               "setup_samples": len(setups),
               "probe_ms": statistics.median(probes) if probes else None,
               "unscaled": {
                   "wall_s": statistics.median(sum(d["seg_ms"]) / 1e3
                                               for d in good),
                   "op_p50_ms": raw["p50"], "op_p90_ms": raw["p90"]}}
    return metrics, samples


def per_kind_counts(passes: list) -> dict:
    counts: dict = {}
    for d in passes:
        for kind in d.get("kinds", ()):
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def run(args) -> None:
    inp = gen.make_inputs(args.workload, args.seed)
    extra = []
    if args.workload == "cli_session":
        extra = ["--refs", str(cli_references(inp, args.seed))]
    setups, passes, traced = run_passes(args.workload, args.seed,
                                        args.seconds, bool(args.trace), extra)
    metrics, samples = end_to_end(setups, passes)
    errors = [d["error"] for d in passes + [traced] if d and "error" in d]
    ran = [d for d in passes + [traced] if d and "error" not in d]
    attempted = sum(d["attempted"] for d in ran) + len(errors)
    failed = sum(d["failed"] for d in ran) + len(errors)
    if args.trace:
        from tracer import layer_metrics
        if traced and "error" not in traced and metrics:
            shown = layer_metrics(traced["layers"])
            shown["trace.overhead_s"] = (scaled_pass(traced)[1]
                                         - metrics["wall_s"])
        else:
            shown = {}
        units = metric_units("per_layer")
    else:
        shown, units = metrics or {}, metric_units("end_to_end")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "held_out_seed": HELD_OUT_SEED, "environment": env_stamp(),
        "end_to_end": metrics, "per_layer": shown if args.trace else None,
        "samples": samples, "op_kinds": per_kind_counts(ran),
        "errors": errors,
        "failures": [f for d in ran for f in d["failures"]][:50],
        "passes": passes,
        "traced_pass": traced, "inputs": inp,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for name, unit in units.items():
        if name in shown:
            print(f"{args.workload:12s} {name:32s} {shown[name]:>16.6g} {unit}")
    if samples:
        lat = samples["op_latency"]
        print(f"{args.workload:12s} ops pooled: {lat['samples']} samples over "
              f"{samples['passes']} passes, {lat['beyond_p90']} beyond p90; "
              f"{samples['setup_samples']} set-up samples")
    for err in errors:
        print(f"{args.workload:12s} pass error: {err.strip()[-300:]}")
    print(f"{args.workload:12s} record: {path.relative_to(ROOT)}")
    result = {"correct": failed == 0 and len(shown) == len(units),
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": {name: {"value": shown[name], "unit": unit}
                          for name, unit in units.items() if name in shown}}
    print(json.dumps(result))


def self_test() -> int:
    """Each workload once as is (fail_ratio must be 0) and once with one
    deliberately wrong expected value (fail_ratio must be > 0)."""
    ok = True
    for workload in gen.WORKLOADS:
        extra = []
        if workload == "cli_session":
            inp = gen.make_inputs(workload, 1)
            extra = ["--refs", str(cli_references(inp, 1)), "--limit", "8"]
        ratios = []
        for flags in ([], ["--corrupt"]):
            d = spawn(workload, 1, *extra, *flags)
            ratios.append(1.0 if "error" in d else d["failed"] / d["attempted"])
        good = ratios[0] == 0 and ratios[1] > 0
        ok &= good
        print(f"self-test {workload:12s} fail_ratio clean={ratios[0]:.4f} "
              f"wrong-expected={ratios[1]:.4f} {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (SRC / "heckelab" / "__init__.py").is_file():
        print(f"perfbench: no heckelab source at {SRC}; run from the root of "
              "a heckelab checkout", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    # compile once up front, so no pass pays for writing bytecode
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    if args.self_test:
        return self_test()
    for workload in (gen.WORKLOADS if args.workload == "all"
                     else (args.workload,)):
        run(argparse.Namespace(**dict(vars(args), workload=workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
