"""mcpa benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload delay_curve --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; mcpa is imported from ./src. The
workloads are described in bench/README.md. With --trace 0 the result holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(spans are written to .bench_out/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("delay_curve", "calibration", "cli_process")
#: fresh processes timed for setup_s; the median is reported
SETUP_SAMPLES = 3
#: cli_process repeats each config at least this often (byte-identity check)
CLI_MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120.0


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one op at a time in one process, with no extra threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Keep freed arrays in the heap instead of handing them back to the
    # kernel. With glibc's defaults every delay_curve op re-faults ~170k
    # pages (a third of its wall time, in the kernel), and on a shared VM
    # that cost swings with host load by +/-30 % from run to run.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    return env


def spawn_worker(args, work, *, setup_only, trace_path=None):
    """Start worker.py; return (process, setup seconds, import seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        cmd += ["--trace", trace_path]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=work, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed: {line!r}")
    return proc, setup_s, float(line.split()[1])


def measure_setup(args, work, count):
    """Set-up-only workers: import mcpa in a fresh process and build inputs."""
    setups, imports = [], []
    for _ in range(count):
        proc, setup_s, import_s = spawn_worker(args, work, setup_only=True)
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up worker failed")
        setups.append(setup_s)
        imports.append(import_s)
    return setups, imports


def run_in_process(args, work, trace_path):
    # the timed worker's own set-up is the last of the samples
    setups, imports = measure_setup(args, work, SETUP_SAMPLES - 1)
    proc, setup_s, import_s = spawn_worker(args, work, setup_only=False, trace_path=trace_path)
    try:
        out, _ = proc.communicate(timeout=args.seconds + CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    summary = json.loads(out.strip().splitlines()[-1])
    result = {
        "attempted": len(summary["op_times"]),
        "failed": summary["failed"],
        "ok_times": summary["ok_times"],
        "elapsed": summary["elapsed"],
        "peak_rss_kb": summary["peak_rss_kb"],
        "problems": summary["problems"],
        "n_problems": summary["n_problems"],
        "setup": setups + [setup_s],
        "imports": imports + [import_s],
    }
    if trace_path:
        with open(trace_path, encoding="utf-8") as fh:
            result["spans"] = json.load(fh)["spans"]
    return result


def run_cli_op(work, argv, trace_dir, op):
    """One mcpa process, timed from spawn to exit; returns its record."""
    if trace_dir:
        spans_path = os.path.join(trace_dir, f"op{op}.json")
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, *argv]
    else:
        spans_path = None
        cmd = [sys.executable, "-m", "mcpa.cli", *argv]
    with open(os.path.join(work, "stdout.txt"), "w+b") as out, \
            open(os.path.join(work, "stderr.txt"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=work)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        record = {"wall": wall, "code": proc.returncode, "rss_kb": usage.ru_maxrss,
                  "stdout": out.read().decode(), "stderr": err.read().decode()}
    if spans_path:
        with open(spans_path, encoding="utf-8") as fh:
            record["trace"] = json.load(fh)
    return record


def output_digest(work, name, stdout):
    """Hash of stdout and every file a config wrote, for the byte-identity check."""
    h = hashlib.sha256(stdout.encode())
    out_dir = os.path.join(work, "out", name)
    if os.path.isdir(out_dir):
        for fname in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_cli_process(args, work, trace_dir):
    import checks
    import inputs

    setups, imports = measure_setup(args, work, SETUP_SAMPLES)
    cycle = inputs.cli_cycle(args.seed, ROOT)
    records, digests, problems = [], {}, []
    failed = 0
    bookkeeping = 0.0  # hashing between ops, taken out of the timed phase
    start = time.perf_counter()
    rounds = 0
    # whole rounds only, so the failing op is always 1 of len(cycle)
    while rounds < CLI_MIN_ROUNDS or time.perf_counter() - start - bookkeeping < args.seconds:
        for name, argv, expected in cycle:
            rec = run_cli_op(work, argv, trace_dir, len(records))
            rec["name"] = name
            rec["ok"] = rec["code"] == expected
            records.append(rec)
            if not rec["ok"]:
                failed += 1
                continue
            t0 = time.perf_counter()
            digest = output_digest(work, name, rec["stdout"])
            if digests.setdefault(name, digest) != digest:
                problems.append(f"{name}: outputs differ between repeated runs")
            bookkeeping += time.perf_counter() - t0
        rounds += 1
    elapsed = time.perf_counter() - start - bookkeeping
    # the files on disk are the last round's, byte-identical to the first's
    for name, _, _ in cycle:
        rec = next((r for r in records if r["name"] == name and r["ok"]), None)
        if rec is not None:
            problems += checks.check_cli(work, name, rec["stdout"], rec["stderr"])
    result = {
        "attempted": len(records),
        "failed": failed,
        "ok_times": [r["wall"] for r in records if r["ok"]],
        "elapsed": elapsed,
        "peak_rss_kb": max(r["rss_kb"] for r in records),
        "problems": problems[:20],
        "n_problems": len(problems),
        "setup": setups,
        "imports": imports,
    }
    if trace_dir:
        spans = []
        for op, rec in enumerate(records):
            spans += [[op, *s[1:]] for s in rec["trace"]["spans"]]
        result["spans"] = spans
        result["imports"] = imports + [r["trace"]["import_s"] for r in records]
        result["process"] = [r["wall"] - r["trace"]["import_s"] - r["trace"]["main_s"]
                             for r in records]
    return result


def end_to_end(result):
    ok = result["ok_times"]
    return {
        "op_p50_s": {"value": statistics.median(ok), "unit": "s"},
        "ops_per_s": {"value": len(ok) / result["elapsed"], "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(result["setup"]), "unit": "s"},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "mcpa", "__init__.py")):
        print(f"no mcpa sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    out_root = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    trace_path = None
    try:
        if args.trace:
            trace_path = os.path.join(out_root, f"trace-{args.workload}-{args.seed}.json")
        if args.workload == "cli_process":
            trace_dir = os.path.join(work, "spans") if args.trace else None
            if trace_dir:
                os.makedirs(trace_dir)
            result = run_cli_process(args, work, trace_dir)
        else:
            result = run_in_process(args, work, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        import spans

        metrics = spans.per_layer_metrics(result["spans"], result["attempted"], result["ok_times"],
                                          result["imports"], result.get("process", ()))
        if args.workload == "cli_process":
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": result["spans"]}, fh)
    else:
        metrics = end_to_end(result)
    print(json.dumps({
        "correct": result["n_problems"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
