#!/usr/bin/env python3
"""The repository benchmark (BENCHMARK.json).

    python3 perfbench/run.py --workload serve|verify_bulk|synth --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Builds the `lclbench` executable and the
library it links from source (Release, into .bench_build/ or
$CARGO_TARGET_DIR), then runs one workload. The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it is
the machine and build record. The first record seen in a build directory is
kept there, and a later run on a different machine or build is flagged on
stderr, since its numbers are not comparable.

--smoke runs all three phases at the smoke sizes in about 20 seconds: the
benchmark's own check that every phase still runs and answers correctly.

Workloads (every run reports every end-to-end metric, so each drives all
three phases; the named phase runs at full size in 60-70% of the window and
the other two at a smaller side size in the rest):
  serve        the verification daemon on loopback TCP: a small-request
               phase (per-request path) and a 512x512 bulk phase (bytes)
  verify_bulk  in-process verify() over every kernel tier, 128^2 to 8192^2
               plus d = 3/4, and a streaming pass over a 1.2 GB file
  synth        the family sweep over the 32 X-orientations and vc2-vc5, and
               the vc:4 / vc:3 synthesis ladders
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    generated = [os.path.join(cmake_dir, name) for name in ("build.ninja", "Makefile")]
    if not any(os.path.exists(path) for path in generated):
        configure = ["cmake", "-S", SOURCE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "lclbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(cmake_dir, "lclbench")


def flag_machine_change(build_dir, record_line):
    path = os.path.join(build_dir, "machine.json")
    record = json.loads(record_line)["machine"]
    if not os.path.exists(path):
        with open(path, "w") as out:
            json.dump(record, out)
        return
    with open(path) as saved:
        first = json.load(saved)
    if first != record:
        print("perfbench: WARNING: machine/build record differs from the first "
              f"run in this build directory ({first} vs {record}); "
              "results are not comparable", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "verify_bulk", "synth"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", os.path.join(build_dir, "data")]
    if args.smoke:
        command.append("--smoke")
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if len(lines) < 2 or not lines[-1].startswith('{"correct"'):
        # No result line: lclbench failed before it could print one.
        print(f"perfbench: lclbench exited {result.returncode}", file=sys.stderr)
        for line in lines:
            print(line, file=sys.stderr)
        return result.returncode or 1
    flag_machine_change(build_dir, lines[-2])
    for line in lines:
        print(line)
    # lclbench exits non-zero when an output was wrong ("correct": false).
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
