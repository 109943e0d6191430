#!/usr/bin/env python3
"""Builds the fvsst benchmark from source and runs one measurement.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload smp-search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark and the simulator library it drives are compiled into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) with the
perfbench/CMakeLists.txt package; later runs rebuild only what changed.
Build output goes to stderr.  The measurement's own stdout is passed
through unchanged, so its last line is the JSON result (see README.md).
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("smp-search", "flat-1k", "tree-100k")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "core").is_dir():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "fvsst_perfbench"


def commit():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the benchmark's and the library's sources, so a result
    names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="check that stepping by T, one run_for and the "
                             "timing decorators all decide the same")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None or
                               args.seconds is None or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and (args.seed < 0 or args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.self_test:
        command = [str(binary), "--self-test"]
    else:
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--commit", commit(),
                   "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
