#!/usr/bin/env python3
"""End-to-end benchmark entry point (see README.md in this directory).

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a geovalid checkout. Builds the library, the CLI and
the driver from source into $CARGO_TARGET_DIR (default .bench_build), runs
the arithmetic self-test after each build, then runs one measurement with
e2e_driver. The last line of stdout is the JSON result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-csv", "serve-text", "cluster-binary", "serve-mixed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then rebuilds incrementally; the self-test runs
    whenever the build relinked the driver or the self-test."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    binaries = [os.path.join(build_dir, b) for b in ("e2e_driver", "e2e_selftest")]

    def stamps():
        return [os.path.getmtime(b) if os.path.exists(b) else None
                for b in binaries]

    before = stamps()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    if stamps() != before:
        subprocess.run([binaries[1]], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)


def source_rev():
    """The git revision when there is one; otherwise a digest of the
    sources the benchmark builds, so two checkouts can still be told
    apart."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "e2e_bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("src/CMakeLists.txt", "tools/geovalid_cli.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"run.py: {need} not found; run from a geovalid checkout")
            return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "e2e")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "e2e_driver"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--cli", os.path.join(build_dir, "geovalid"),
             "--work", work, "--rev", source_rev()],
            stdout=subprocess.PIPE, text=True, timeout=178)
    except subprocess.TimeoutExpired:
        log("run.py: driver timed out")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"run.py: driver exited with {proc.returncode} and no result")
        return proc.returncode or 1
    # The result must name exactly the metrics BENCHMARK.json declares.
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        log("run.py: metrics differ from BENCHMARK.json: "
            f"{sorted(set(got) ^ set(declared))}")
        return 1
    # An incorrect run still prints its result, which says so.
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
