#!/usr/bin/env python3
"""Repository benchmark for the rtcm middleware reproduction.

Builds the benchmark program (CMakeLists.txt here, which builds the library
from the enclosing checkout), refuses timings from a Debug or sanitizer build
tree, runs one workload, checks every cell's outputs against the checked-in
golden files, and prints one JSON result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30
    python3 perfbench/run.py --workload deep-pending --trace 1      # per-layer
    python3 perfbench/run.py --workload wide-topology --write-golden

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced run.  The build tree is $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; every result is also appended, with its provenance,
to perfbench-out/results.jsonl beside it, and traced runs write their spans
there.  README.md describes the workloads, metrics and golden files.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
WORKLOADS = ("paper-suite", "wide-topology", "deep-pending")
SEED_WINDOWS = 16  # kSeedWindows in perfbench.cpp
# Build types whose timings the benchmark reports.
TIMED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# Wall-time limit for one program run (building comes on top).
RUN_LIMIT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(tree):
    """Configure (first time only) and build the benchmark program."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not an rtcm checkout (no CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (tree / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(tree),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DRTCM_SANITIZE=OFF"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure, "configure")
    jobs = str(min(os.cpu_count() or 1, 4))
    run_logged(["cmake", "--build", str(tree), "-j", jobs,
                "--target", "rtcm_perfbench"], "build")
    program = tree / "rtcm_perfbench"
    if not program.is_file():
        fail(f"build produced no {program}")
    return program


def run_logged(cmd, what):
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail(f"{what} failed (exit {result.returncode})")


def read_cache(tree):
    cache = {}
    for line in (tree / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(("#", "//")) or "=" not in line or ":" not in line:
            continue
        key, value = line.split("=", 1)
        cache[key.split(":", 1)[0]] = value
    return cache


def gate(cache):
    """Refuse to time a Debug or sanitizer build tree."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in TIMED_BUILD_TYPES:
        fail(f"build tree has CMAKE_BUILD_TYPE='{build_type}'; timings are "
             f"only reported from {' or '.join(TIMED_BUILD_TYPES)}", 3)
    sanitize = cache.get("RTCM_SANITIZE", "OFF")
    if sanitize.upper() not in ("", "OFF", "0", "FALSE", "NO"):
        fail(f"build tree has RTCM_SANITIZE={sanitize}; timings from "
             "sanitizer builds are refused", 3)


def git_sha():
    if os.environ.get("RTCM_GIT_SHA"):
        return os.environ["RTCM_GIT_SHA"]
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    return "unknown"


def run_program(program, args, timeout):
    try:
        result = subprocess.run([str(program)] + args, capture_output=True,
                                text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{program.name} {' '.join(args)} timed out after {timeout:.0f} s")
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        fail(f"{program.name} exited with {result.returncode}")
    sys.stderr.write(result.stderr)
    return json.loads(result.stdout.strip().splitlines()[-1])


def cell_id(part, cell):
    return "/".join([part, cell["combo"], cell["shape"], cell["variant"],
                     str(cell["seed"])])


def cell_digest(cell):
    text = json.dumps(cell, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def golden_mismatches(workload, window, outputs):
    """Ids of cells whose outputs differ from the golden file."""
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        fail(f"no golden file {path}")
    want = json.loads(path.read_text())["digests"][str(window)]
    bad = set()
    for part, cells in outputs.items():
        digests = want.get(part, [])
        for i, cell in enumerate(cells):
            if i >= len(digests) or digests[i] != cell_digest(cell):
                bad.add(cell_id(part, cell))
    for part, digests in want.items():
        if len(outputs.get(part, [])) != len(digests):
            bad.add(f"{part}: {len(digests)} golden cells, "
                    f"{len(outputs.get(part, []))} run")
    return bad


def write_golden(program, workload):
    digests = {}
    readable = None
    for window in range(1, SEED_WINDOWS + 1):
        doc = run_program(program, [f"--workload={workload}",
                                    f"--seed={window}", "--mode=outputs"],
                          RUN_LIMIT_S)
        if doc["failed"]:
            fail(f"window {window} has failing cells: {doc['failures']}")
        digests[str(window)] = {part: [cell_digest(c) for c in cells]
                                for part, cells in doc["outputs"].items()}
        if window == 1:
            readable = doc["outputs"]
    about = ("Per-cell deterministic outputs (the sweep::Report "
             "deterministic_dump fields). digests[w][part][i] is the first 12 "
             "hex digits of the SHA-256 of cell i's canonical JSON in seed "
             "window w; outputs lists window 1, the default seed, in full.")
    compact = {"separators": (",", ":"), "sort_keys": True}
    lines = ["{", f' "about": {json.dumps(about)},',
             f' "workload": {json.dumps(workload)},', ' "digests": {']
    lines += [f'  "{w}": {json.dumps(d, **compact)},'
              for w, d in digests.items()]
    lines[-1] = lines[-1].rstrip(",")
    lines += [" },", ' "outputs": {']
    for part, cells in readable.items():
        lines.append(f"  {json.dumps(part)}: [")
        lines += [f"   {json.dumps(c, **compact)}," for c in cells]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  ],")
    lines[-1] = lines[-1].rstrip(",")
    lines += [" }", "}"]
    GOLDEN.mkdir(exist_ok=True)
    path = GOLDEN / f"{workload}.json"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite golden/<workload>.json from this build")
    args = parser.parse_args()

    tree = build_dir()
    program = build(tree)
    cache = read_cache(tree)
    if args.write_golden:
        write_golden(program, args.workload)
        return
    gate(cache)

    mode = "trace" if args.trace else "measure"
    cmd = [f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--mode={mode}"]
    out_dir = tree.parent / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        cmd.append(f"--spans={out_dir}/spans-{args.workload}-seed{args.seed}"
                   ".jsonl")
    doc = run_program(program, cmd, RUN_LIMIT_S)

    failed = set(doc["failed"])
    failed |= golden_mismatches(args.workload, doc["seed_window"],
                                doc["outputs"])
    metrics = doc["metrics"]
    section = "per_layer" if args.trace else "end_to_end"
    expected = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())[section]]
    if sorted(metrics) != sorted(expected):
        fail(f"program reported {sorted(metrics)}, BENCHMARK.json lists "
             f"{sorted(expected)}")

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seed_window": doc["seed_window"], "mode": mode,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": f"{cache.get('CMAKE_CXX_COMPILER', '?')} "
                    f"({doc['compiler']})",
        "nproc": os.cpu_count(), "workers": doc["workers"],
        "git_sha": git_sha(), "samples": doc["samples"],
        "failures": sorted(failed)[:20] + doc["failures"][:20],
    }
    result = {
        "correct": not failed,
        "attempted": doc["cells"],
        "failed": len(failed),
        "metrics": metrics,
    }
    with open(out_dir / "results.jsonl", "a") as record:
        record.write(json.dumps({"provenance": provenance, "result": result},
                                sort_keys=True) + "\n")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
