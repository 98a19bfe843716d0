#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the engine from src/)
into $CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The workload's files live under .bench_tmp/ and are removed when
the run ends.

Standard output ends with an "# env" line (host facts that tell a busy host
apart from a slow change) and then the result: one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
the build succeeded and every correctness gate passed; otherwise no result
line is printed.
"""

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
WORKLOADS = ("serve_zipf", "bank_contended", "restart_cold")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no engine sources at %s/src" % ROOT)
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


def fdatasync_probe_us(directory, n=20):
    """Median fdatasync time of a 4 KiB write on the checkout's disk."""
    path = os.path.join(directory, "fdatasync.probe")
    times = []
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
    try:
        for _ in range(n):
            os.write(fd, b"x" * 4096)
            start = time.perf_counter()
            os.fdatasync(fd)
            times.append((time.perf_counter() - start) * 1e6)
    finally:
        os.close(fd)
        os.unlink(path)
    return statistics.median(times)


def fs_type(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path], check=True,
                             capture_output=True, text=True).stdout
        return out.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_id():
    """The git commit when the checkout has one, else a hash of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  check=True, capture_output=True,
                                  text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        out = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    scratch = os.path.join(tmp_root, "%s-%d-%d" % (args.workload, args.seed,
                                                    os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_root)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch]
    if args.trace:
        traces = os.path.join(tmp_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]

    try:
        probe_us = fdatasync_probe_us(scratch)
        stat0 = cpu_times()
        load0 = open("/proc/loadavg").read().split()[0]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("workload timed out after %d s" % RUN_TIMEOUT_S)
            return 3
        stat1 = cpu_times()
        load1 = open("/proc/loadavg").read().split()[0]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or result is None or not result.get("correct"):
        log("workload failed (exit code %d)" % proc.returncode)
        if result is not None:
            log(lines[-1])
        return 1

    delta = [b - a for a, b in zip(stat0, stat1)]
    steal = delta[7] if len(delta) > 7 else 0
    env_line = {
        "nproc": os.cpu_count(),
        "commit": source_id(),
        "scratch_fs": fs_type(tmp_root),
        "real_disk_fdatasync_us": round(probe_us, 1),
        "loadavg_start": float(load0),
        "loadavg_end": float(load1),
        "steal_share": round(steal / sum(delta), 4) if sum(delta) else 0.0,
        # Non-idle share of every CPU of the host over the run, this run
        # included: well above this workload's own proc.cpu_util / nproc
        # means other work shared the host.
        "host_busy_share": round(1 - (delta[3] + delta[4]) / sum(delta), 4)
        if sum(delta) else 0.0,
    }
    print("# env " + json.dumps(env_line))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
