#!/usr/bin/env python3
"""Pipeline benchmark launcher.

Usage (from the repository root):

    python3 pipebench/run.py --workload <name> --seed N --seconds S --trace 0|1

Builds the release `hamlet` CLI and the `pipebench` binary (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs one workload in its
own process with the thread count and memory budget that
`workloads.json` gives it, inside a
scratch directory under `.bench_work/` that is removed afterwards. The
last line of stdout is the JSON result; with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics. The metric
names are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-workload environment, from workloads.json. HAMLET_THREADS is per
# process, so each workload runs in a process of its own; "nproc" means
# every core this process may run on.
with open(os.path.join(HERE, "workloads.json")) as f:
    WORKLOADS = {name: w["env"] for name, w in json.load(f)["workloads"].items()}

# Hard cap on one workload process, under the 180 s one run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(env, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for needed in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to {os.path.basename(HERE)}/: "
                 "run from a full checkout of the repository")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cargo_build(env, "--bin", "hamlet")
    cargo_build(env, "--manifest-path", os.path.join(HERE, "Cargo.toml"))

    nproc = str(len(os.sched_getaffinity(0)))
    for k, v in WORKLOADS[args.workload].items():
        env[k] = nproc if v == "nproc" else v
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    # Spill files of the budgeted ingest land here too, not in /tmp.
    env["TMPDIR"] = work

    cmd = [
        os.path.join(target, "release", "pipebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--hamlet", os.path.join(target, "release", "hamlet"),
        "--work", work,
    ]
    # A session of its own, so a timeout also stops the `hamlet serve`
    # child the workload may have started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"{args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("the workload printed no JSON result line")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(args.trace == "1")
    if got != want:
        sys.stdout.write(out)
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
