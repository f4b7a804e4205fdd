"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 tgrbench/spread.py --workload re_check --seeds 1-10

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A metric is steady when its spread is below a third of its bound
in BENCHMARK.json; ``setup_s`` has no spread limit, only its median matters.
Runs are sequential, one process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    steady = True
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        limit = m["bound"] / 3
        ok = m["name"] == "setup_s" or spread < limit
        steady = steady and ok
        print(f"{m['name']:<12} median {statistics.median(v):.5g} {m['unit']}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {spread:.4f}  bound/3 {limit:.4f}  {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
