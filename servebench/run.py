#!/usr/bin/env python3
"""Build and run the servebench serving benchmark.

Run from the root of a quest checkout:

  python3 servebench/run.py --workload inline-hits --seed 1 --trace 0

The first run configures and builds (Release) the quest libraries, the
shipped quest_serve / quest_router binaries and the benchmark client into
.bench_build (or $CARGO_TARGET_DIR); later runs only re-check the build.
The client then replaces this process, so its last stdout line -- one
JSON object with "correct", "attempted", "failed" and "metrics" -- is the
run's result, and a signal sent to this pid reaches the client.

Two extra modes:

  --repeat N   steadiness report: N runs of the workload with seeds
               seed .. seed+N-1; prints, per metric, the median, the
               quartiles (statistics.quantiles, n=4), the quartile
               spread and (max - min), both as a share of the median.
  --self-test  build and run the benchmark's unit tests.

See servebench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["inline-hits", "hard-search", "fleet-sharded", "fleet-replicated"]


def fail(message, code=2):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    for required in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"no quest sources at {ROOT} (missing {required})")
    out = build_dir()
    # A stamp of the sources skips the build check (about a second) when
    # nothing changed since the last successful build of these targets.
    stamp = os.path.join(out, "built-" + "-".join(targets))
    inputs = digest(quest_sources() + files_under(HERE))
    if (read_text(stamp) == inputs
            and all(os.path.exists(target_path(out, t)) for t in targets)):
        return out
    # Build output goes to stderr: stdout's last line is the result.
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    command = ["cmake", "--build", out, "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    with open(stamp, "w") as out_file:
        out_file.write(inputs)
    return out


def target_path(out, target):
    if target.startswith("quest_"):
        return os.path.join(out, "quest", "tools", target)
    return os.path.join(out, target)


def read_text(path):
    try:
        with open(path) as text:
            return text.read()
    except OSError:
        return None


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def files_under(top):
    return [os.path.join(directory, name)
            for directory, _, files in os.walk(top) for name in files]


def quest_sources():
    return ([os.path.join(ROOT, "CMakeLists.txt")]
            + files_under(os.path.join(ROOT, "src"))
            + files_under(os.path.join(ROOT, "tools")))


def digest(paths):
    """sha256 over the files' paths and contents."""
    result = hashlib.sha256()
    for path in sorted(paths):
        result.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as source:
            result.update(source.read())
    return result.hexdigest()[:16]


def source_digest():
    """Digest of the quest sources the benchmark builds."""
    return digest(quest_sources())


def client_command(out, args):
    """The client's command line; "{seed}" marks where the seed goes."""
    work = os.path.join(out, "runs")
    os.makedirs(work, exist_ok=True)
    return [os.path.join(out, "servebench"),
            "--workload", args.workload, "--seed", "{seed}",
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--bin-dir", os.path.join(out, "quest", "tools"),
            "--work-dir", work,
            "--commit", commit(), "--source-digest", source_digest()]


def with_seed(command, seed):
    return [str(seed) if part == "{seed}" else part for part in command]


def steadiness(out, args):
    command = client_command(out, args)
    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        done = subprocess.run(with_seed(command, seed),
                              capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stdout + done.stderr)
            fail(f"run with seed {seed} failed", 1)
        result = json.loads(lines[-1])
        runs.append(result)
        env = next((json.loads(line)["env"] for line in lines
                    if line.startswith('{"env"')), {})
        values = " ".join(f"{name}={metric['value']:.6g}"
                          for name, metric in result["metrics"].items())
        print(f"seed {seed}: steal {env.get('steal_ticks_window')} {values}",
              flush=True)
    report = {}
    for name, metric in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        report[name] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("nan"),
            "range_share": ((max(values) - min(values)) / median
                            if median else float("nan")),
        }
        print(f"{args.workload} {name:<24} median {median:<12.6g} "
              f"q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"iqr/median {report[name]['iqr_share']:.4f} "
              f"range/median {report[name]['range_share']:.4f}")
    print(json.dumps({"workload": args.workload, "runs": len(runs),
                      "trace": args.trace, "metrics": report}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        out = build(["servebench_test"])
        test = os.path.join(out, "servebench_test")
        sys.exit(subprocess.run([test]).returncode)
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1 or args.repeat < 0:
        fail("--seed must be >= 0, --seconds >= 1, --repeat >= 0")
    out = build(["servebench", "quest_serve", "quest_router"])
    if args.repeat > 0:
        if args.repeat < 2:
            fail("--repeat needs at least 2 runs for quartiles")
        steadiness(out, args)
        return
    command = with_seed(client_command(out, args), args.seed)
    sys.stdout.flush()
    os.execv(command[0], command)


if __name__ == "__main__":
    main()
