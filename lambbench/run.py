#!/usr/bin/env python3
"""Build and run the lamb benchmark.

    python3 lambbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lambbench/run.py --self-check [--workload NAME] [--seed N]

Run from the repository root. The harness (lambbench/CMakeLists.txt, which
builds the lamb library from the repository's own build file) is built into
$CARGO_TARGET_DIR, default .bench_build, and run there; build output goes to
stderr and the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}.

--self-check runs each workload (or the one named) twice with one seed and
once with another, for a short time, and checks that every exact count and
the digest of inputs and answers repeat for the seed and that the other seed
changes the inputs.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["warm-serve", "cold-build", "blas-exec", "http-serve"]
RUN_TIMEOUT_S = 175


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(root):
    build_dir = os.path.join(root, "lambbench")
    jobs = str(os.cpu_count() or 1)
    # The compiler's temporary files stay inside the build root too.
    tmp = os.path.join(root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "lamb_bench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(build_dir, "lamb_bench")


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=os.path.dirname(HERE), capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run(binary, root, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(root, "work"),
           "--git-describe", git_describe()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, []
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
        sys.stdout.flush()
    return proc.returncode, lines


def detail(lines):
    for line in lines:
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise ValueError("no detail line in the output")


def self_check(binary, root, workloads, seed):
    ok = True
    for workload in workloads:
        runs = []
        for s in (seed, seed, seed + 1):
            code, lines = run(binary, root, workload, s, 2, 0, echo=False)
            if code != 0:
                print(f"{workload} seed {s}: exit {code}")
                ok = False
                break
            runs.append(detail(lines))
        if len(runs) < 3:
            continue
        a, b, c = runs
        same = a["counts"] == b["counts"] and a["digest"] == b["digest"]
        differs = a["digest"] != c["digest"]
        print(f"{workload}: same seed repeats: {same}; "
              f"other seed changes inputs: {differs}; counts {a['counts']}")
        if not same:
            print(f"  seed {seed} run 1: {a}\n  seed {seed} run 2: {b}")
        ok = ok and same and differs
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    root = build_root()
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if args.self_check:
        workloads = [args.workload] if args.workload else WORKLOADS
        return self_check(binary, root, workloads, args.seed)
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run(binary, root, args.workload, args.seed, args.seconds,
                  args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
