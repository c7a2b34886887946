#!/usr/bin/env python3
"""Build and run the StrataIB benchmark.

    python3 perfbench/run.py --workload <suite|pressure|observed|service>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a StrataIB source tree. The first run configures and
builds perfbench/ (which compiles ../src with the repository's Release
flags) into .bench_build/perfbench; later runs only re-check the build.
The benchmark binary does the measuring; this script adds provenance
(git commit when there is one, a digest of the sources, nproc), checks
that the reported metrics are exactly the ones BENCHMARK.json declares,
keeps a copy of the output under .bench_build/perfbench/results, and
prints the result object as the last line of standard output.

Exit status: 0 when every correctness check passed; 1 when a check failed
or the build or run did not complete; 2 on bad arguments.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("suite", "pressure", "observed", "service")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    return code


def build():
    """Configures (once) and builds the benchmark; True on success."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                return False
    return True


def source_digest():
    """SHA-256 over the paths and contents of src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        return fail("--seconds must be >= 1 and --seed >= 0", 2)

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail("no StrataIB sources next to perfbench/ (expected src/)")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json is missing")
    if not build():
        return fail("build failed; see " + str(BUILD / "build.log"))

    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "strataib_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)

    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(run.stdout)
        return fail("benchmark printed no result (exit %d)" % run.returncode)

    provenance = {}
    body = []
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        else:
            body.append(line)
    provenance.update({
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "trace": args.trace,
    })

    declared = declared_metrics(args.trace)
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        return fail("reported metrics differ from BENCHMARK.json: %s vs %s"
                    % (sorted(reported.items()), sorted(declared.items())))

    out_lines = body + ["provenance " + json.dumps(provenance, sort_keys=True),
                        json.dumps(result)]
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.txt" % (args.workload, args.seed, args.trace))
     ).write_text("\n".join(out_lines) + "\n")
    print("\n".join(out_lines))
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
