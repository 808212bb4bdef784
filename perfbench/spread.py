"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload words --seeds 1-5 [--seconds 30]

Runs perfbench/run.py once per seed, one run at a time, and prints for
each metric the median of the runs and the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of
that median, beside the metric's bound from BENCHMARK.json.  Keep other
work off the machine while it runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict = {}
    for seed in seed_list(args.seeds):
        r = subprocess.run([sys.executable, str(HERE / "run.py"),
                            "--workload", args.workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"],
                           cwd=str(ROOT), capture_output=True, text=True)
        result = json.loads(r.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for m in bench["end_to_end"]:
        vals = values.get(m["name"], [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{args.workload:12s} {m['name']:12s} median {med:12.6g} "
              f"spread {spread:7.4f} bound {m['bound']} "
              f"{'ok' if spread < m['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
