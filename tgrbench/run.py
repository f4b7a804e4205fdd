"""tgrkit benchmark: one workload per process, closed loop, one op at a time.

    python3 tgrbench/run.py --workload reg_check --seed 1 --seconds 25 --trace 0
    python3 tgrbench/run.py --workload all --seed 1 --ops 3      # smoke run

Run from the root of a checkout; the program is imported from ./src.  Each
op is one ``tgrkit.cli.main([...])`` call with ``--format lines``, timed
around that call only.  Input generation, the reference check and a
``gc.collect()`` happen between ops, outside the timing.  With ``--trace 1``
every op runs twice on the same input, untraced then traced, and the run
reports per-layer metrics instead of end-to-end ones.  The last line of
standard output is the JSON result; the lines before it are for people.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = ROOT / "src"
WORKDIR = ROOT / ".tgrbench_work"
SETUP_REPS = 3
TAIL_BEYOND = 10
WALL_CAP = 1.5
MODULES = ("cli", "grammars", "recompile", "regcompile", "tgr", "words")


def import_program() -> dict:
    """Import tgrkit from this checkout's src/, never from anywhere else."""
    if not (SRC / "tgrkit" / "__init__.py").is_file():
        sys.exit(f"tgrbench: no tgrkit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"tgrkit.{name}") for name in MODULES}
    if Path(modules["cli"].__file__).resolve().parent != SRC / "tgrkit":
        sys.exit(f"tgrbench: imported tgrkit from {modules['cli'].__file__}, not {SRC}")
    return modules


def install_captures(modules: dict, captures, captured: dict) -> None:
    """Keep the latest return value of each capture point for the reference checks."""
    for mod, attr, key in captures:
        fn = getattr(modules[mod], attr)

        def wrapper(*args, _fn=fn, _key=key, **kwargs):
            res = _fn(*args, **kwargs)
            captured[_key] = res
            return res

        setattr(modules[mod], attr, wrapper)


def run_op(cli_main, op, captured: dict) -> workloads.Result:
    captured.clear()
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(op.argv)
    except (Exception, SystemExit) as exc:  # an op that crashes is a failed op, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return workloads.Result(code, out.getvalue(), err.getvalue(), seconds, error, dict(captured))


def tail(values: list[float]) -> tuple[float, float]:
    """Op time at the highest percentile with TAIL_BEYOND ops beyond it, and that percentile."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_digests(path: Path, digests: list[str]) -> str | None:
    """Compare with an earlier run of the same seed; keep the longer record."""
    old = path.read_text().split() if path.exists() else []
    for i, (a, b) in enumerate(zip(old, digests)):
        if a != b:
            return f"op {i} output differs from an earlier run with this seed ({path})"
    if len(digests) > len(old):
        path.write_text("\n".join(digests) + "\n")
    return None


def run_workload(args) -> int:
    modules = import_program()
    import_wall = time.perf_counter() - _T0
    import_s = import_wall * clock.NOMINAL_S / clock.loop_seconds()
    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](WORKDIR)
    captured: dict = {}
    install_captures(modules, workloads.CAPTURES, captured)
    tracer = tracing.Tracer(modules) if args.trace else None
    cli_main = lambda argv: modules["cli"].main(argv)  # noqa: E731  (looked up per call, so traced)

    warmup_failures = []

    def set_up() -> float:
        start = time.perf_counter()
        with tracer.installed("setup") if tracer else contextlib.nullcontext():
            wl.setup(args.seed, modules)
            for op in wl.warmups(args.seed):
                outcome = wl.check(op, run_op(cli_main, op, captured))
                if outcome.failed:
                    warmup_failures.append(f"{outcome.status}: {outcome.detail}")
        return time.perf_counter() - start

    setup_reps = []
    scale = {}
    for _ in range(SETUP_REPS):
        wall, scale["setup"] = clock.calibrated(set_up)
        setup_reps.append(wall * scale["setup"])
        gc.collect()
    setup_s = import_s + statistics.median(setup_reps)

    seconds, walls, traced_seconds, digests, problems = [], [], [], [], []
    traced_ops = []
    failed = 0
    correct = not warmup_failures
    # The timed phase lasts --seconds in reference seconds, so the op count
    # does not follow the machine's drift, capped at WALL_CAP times that in
    # wall time; it covers whole blocks of the cap schedule, so every run has
    # the same mix of caps.
    elapsed = 0.0
    loop_start = time.perf_counter()
    i = 0
    block = len(wl.combos)

    def more() -> bool:
        if args.ops:
            return i < args.ops
        if i % block:
            return True
        return elapsed < args.seconds and time.perf_counter() - loop_start < WALL_CAP * args.seconds

    while more():
        iteration_start = time.perf_counter()
        op = wl.op(args.seed, i)
        gc.collect()
        res, factor = clock.calibrated(lambda: run_op(cli_main, op, captured))
        outcome = wl.check(op, res)
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        if tracer:
            gc.collect()
            with tracer.installed(f"op{i}"):
                traced, scale[f"op{i}"] = clock.calibrated(lambda: run_op(cli_main, op, captured))
            traced_ops.append(f"op{i}")
            traced_seconds.append(traced.seconds * scale[f"op{i}"])
            if outcome.status == "ok":
                outcome = wl.check(op, traced)
            if hashlib.sha256(traced.stdout.encode()).hexdigest() != digest:
                outcome = workloads.Outcome("misreport", "traced output differs from untraced")
        seconds.append(res.seconds * factor)
        walls.append(res.seconds)
        digests.append(digest)
        if outcome.failed:
            failed += 1
            correct = correct and outcome.status == "defect"
            problems.append(f"op {i} {op.kind}: {outcome.status}: {outcome.detail}")
        words = "-" if outcome.closure_words is None else outcome.closure_words
        print(f"op {i} {op.kind} {seconds[-1]:.4f} s (wall {res.seconds:.4f} s) exit {res.code} "
              f"{outcome.status} words {words} digest {digest[:16]}")
        elapsed += (time.perf_counter() - iteration_start) * factor
        i += 1

    code_hash = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()[:12]
    digest_dir = WORKDIR / "digests"
    digest_dir.mkdir(exist_ok=True)
    mismatch = check_digests(digest_dir / f"{args.workload}-seed{args.seed}-{code_hash}.txt", digests)
    if mismatch:
        correct = False
        problems.append(mismatch)

    n = len(seconds)
    for line in warmup_failures:
        print(f"warm-up op failed: {line}")
    for line in problems:
        print(f"problem: {line}")
    run_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed} ops {n} failed {failed} "
          f"failed_share {failed / n:.4f} ratio digest {run_digest[:16]}")

    if tracer:
        layer = tracing.layer_metrics(tracer, traced_ops, scale, traced_seconds, seconds)
        metrics = {name: {"value": value, "unit": tracing.LAYER_METRICS[name]}
                   for name, value in layer.items()}
        for name, m in metrics.items():
            print(f"metric {name} {m['value']:.6g} {m['unit']} (per op, n={n})")
        tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        tail_s, pct = tail(seconds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(seconds), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": n / sum(seconds), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        notes = {
            "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPS} set-ups "
                       f"{statistics.median(setup_reps):.3f} s",
            "op_p50_s": f"n={n}, wall median {statistics.median(walls):.4f} s",
            "op_tail_s": f"p{pct:.1f}, {min(TAIL_BEYOND, n - 1)} ops beyond, n={n}",
            "ops_per_s": f"n={n} over {sum(seconds):.2f} s of op time, wall {sum(walls):.2f} s",
            "peak_rss_mb": "whole process",
        }
        for name, m in metrics.items():
            print(f"metric {name} {m['value']:.6g} {m['unit']} ({notes[name]})")
        print(f"metric failed_share {failed / n:.6g} ratio ({failed}/{n})")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    ok = True
    summary = []
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops:
            argv += ["--ops", str(args.ops)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(line for line in lines if not line.startswith("op ")) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        summary.append((name, result))
    if summary:
        print("\n" + f"{'metric':<26}" + "".join(f"{name:>14}" for name, _ in summary))
        for metric, m in summary[0][1]["metrics"].items():
            values = "".join(f"{r['metrics'][metric]['value']:>14.6g}" for _, r in summary)
            print(f"{metric:<26}{values}  {m['unit']}")
        print(f"{'failed/attempted':<26}" + "".join(
            f"{str(r['failed']) + '/' + str(r['attempted']):>14}" for _, r in summary))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many timed ops instead of --seconds (smoke runs)")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
