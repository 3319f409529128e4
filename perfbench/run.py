#!/usr/bin/env python3
"""Build and run the codecomp end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload toolchain|farm|execute \\
        --seed N --seconds N --trace 0|1

Configures and builds perfbench/ (with the libraries under src/ that it
links) into .bench_build/ with CMake, then runs the perfbench binary with
the same arguments. Build output goes to stderr; the binary's stdout,
whose last line is the result JSON, passes through unchanged, and so does
its exit code (0 ok, 1 bad arguments, 2 set-up failed, 3 a check failed).
A traced run (--trace 1) writes its Chrome trace-event JSON to
.bench_build/trace-<workload>-<seed>.json unless --trace-file is given.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def option(args, name):
    """Value following the last occurrence of --name in args, or None."""
    value = None
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            value = args[i + 1]
    return value


def commit_id():
    """HEAD of the repository this benchmark sits in, or 'unknown'."""
    def git(*argv):
        result = subprocess.run(["git", "-C", ROOT] + list(argv),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        return result.stdout.strip() if result.returncode == 0 else ""
    try:
        top = git("rev-parse", "--show-toplevel")
        if top and os.path.realpath(top) == os.path.realpath(ROOT):
            return git("rev-parse", "HEAD") or "unknown"
    except OSError:
        pass
    return "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, cwd=ROOT)
        except OSError as error:
            return fail("cannot run cmake: %s" % error)
        if result.returncode != 0:
            return fail("build step failed: " + " ".join(step))
    return 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no codecomp sources (src/) beside perfbench/; run "
                    "from a full checkout of the repository")
    status = build()
    if status != 0:
        return status
    args = sys.argv[1:]
    if option(args, "--trace") == "1" and option(args, "--trace-file") is None:
        name = "trace-%s-%s.json" % (option(args, "--workload"),
                                     option(args, "--seed"))
        args += ["--trace-file", os.path.join(BUILD, name)]
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + args + ["--commit", commit_id()],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
