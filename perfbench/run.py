"""hgdiff benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--work-dir DIR]

Run from anywhere; it benchmarks the hgdiff sources under src/ of the
checkout that holds this file. BENCHMARK.json at the checkout root declares
the workloads and metrics; perfbench/workloads.py holds the parameters.

Every job runs in a fresh child process (perfbench/job.py), one at a time.
With --trace 0, jobs repeat while one more, as long as the longest so far,
still ends within --seconds (at least one runs), and the end-to-end metrics
are printed. With --trace 1, a traced job runs and the
per-module metrics are printed with the tracing overhead: traced run_s over
the median untraced run_s recorded for the same seed and code, or over an
untraced job run first when none is recorded.
Times are reported in reference seconds (perfbench/calibrate.py): each
job's wall times scaled by how fast a fixed kernel ran just before and after
it, so that a drift in machine speed cancels and a change in the program
does not. The wall-second medians are printed too, as comment lines.
Inputs come from --seed alone. Every job's outputs are checked; the reports'
digest and, for traced jobs, the counts must also match any earlier run of
the same seed and code in the same work directory. The last output line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--smoke runs toy sizes on the same code path for the benchmark's own tests;
its numbers are never reported. Outputs go to --work-dir (default
.bench_build/perfbench under the checkout).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# This process and its children run with one BLAS thread (set before numpy
# loads): on a machine of few shared cores, a multi-threaded BLAS waits on
# whichever core is busy elsewhere, and its timings spread with the load of
# neighbours, not with the program.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

import calibrate  # noqa: E402  (this directory is on sys.path)
from workloads import WORKLOADS, params  # noqa: E402

RUN_LIMIT_S = 170  # a whole invocation, child jobs included

# end-to-end metric -> stage samples it is the median of
STAGE_METRICS = {"setup_s": "setup", "epoch_s": "epoch", "train_s": "train",
                 "eval_s": "eval", "reload_eval_s": "reload_eval"}


def code_digest():
    """Digest of the program and benchmark sources: records are kept per code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "hgdiff").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def prepare_data(args, work, deadline):
    """Dataset files for mid-node-files, written by `hgdiff synth` in a child
    of their own, untimed, and kept for later runs of the same seed."""
    if args.workload != "mid-node-files":
        return None
    g = params(args.workload, args.smoke)["graph"]
    name = f"seed{args.seed}-{g['users']}x{g['items']}-aux{g['aux']}-d{g['density']}-f{g['fidelity']}"
    data = work / "data" / name
    if (data / "done").is_file():
        return data
    partial = data.with_name(data.name + ".partial")
    cmd = [sys.executable, "-m", "hgdiff.cli", "synth", "--users", str(g["users"]),
           "--items", str(g["items"]), "--aux", str(g["aux"]), "--density", str(g["density"]),
           "--fidelity", str(g["fidelity"]), "--seed", str(args.seed), "--out-dir", str(partial)]
    subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - time.monotonic()))
    (partial / "done").write_text("")
    partial.rename(data)
    return data


def run_job(args, traced, index, work, data, deadline):
    """One job in a fresh child process; returns a dict with its record (or
    None), its wall seconds (run_s) and the problems found."""
    job_dir = work / "jobs" / f"{args.workload}-seed{args.seed}-{index}"
    job_dir.mkdir(parents=True, exist_ok=True)
    out = job_dir / "record.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--work", str(job_dir),
           "--out", str(out)]
    if data is not None:
        cmd += ["--data", str(data)]
    if args.smoke:
        cmd.append("--smoke")
    log = job_dir / "log.txt"
    job = {"traced": traced, "record": None, "run_s": None, "problems": []}
    started = time.perf_counter()
    try:
        with open(log, "w", encoding="utf-8") as fh:
            proc = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        job["problems"].append(f"job {index} timed out; see {log}")
        return job
    job["run_s"] = time.perf_counter() - started
    if proc.returncode != 0 or not out.is_file():
        job["problems"].append(f"job {index} exited {proc.returncode}; see {log}")
        return job
    record = json.loads(out.read_text())
    job["record"] = record
    job["problems"] += [f"{record['run_id']}: {f}" for f in record["failures"]]
    return job


def load_records(path):
    return json.loads(path.read_text()) if path.is_file() else {}


def check_records(path, key, jobs):
    """Compare each job's report digest and, when traced, its counts with what
    earlier runs of this key recorded, then record them with untraced run_s."""
    seen = load_records(path)
    entry = seen.setdefault(key, {})
    for job in jobs:
        record = job["record"]
        if not job["traced"]:
            entry.setdefault("run_s", []).append(job["run_s"] * job["scale"])
        if entry.setdefault("digest", record["digest"]) != record["digest"]:
            job["problems"].append(f"{record['run_id']}: report digest differs from an "
                                   f"earlier run of the same seed and code")
        if job["traced"]:
            counts = {k: v for k, v in record["layers"].items()
                      if isinstance(v, int) and not isinstance(v, bool)}
            if entry.setdefault("counts", counts) != counts:
                changed = sorted(k for k in counts if entry["counts"].get(k) != counts[k])
                job["problems"].append(f"{record['run_id']}: counts differ from an earlier "
                                       f"traced run: {changed}")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)


def end_to_end(untraced, reference=True):
    """Medians over the untraced jobs, of times in reference seconds or, with
    reference=False, in wall seconds; returns (values, samples)."""
    def scale(job):
        return job["scale"] if reference else 1.0

    samples = {name: [x * scale(job) for job in untraced
                      for x in job["record"]["stages"][stage]]
               for name, stage in STAGE_METRICS.items()}
    samples["run_s"] = [job["run_s"] * scale(job) for job in untraced]
    samples["peak_rss_mb"] = [job["record"]["peak_rss_mb"] for job in untraced]
    return {name: statistics.median(xs) for name, xs in samples.items() if xs}, samples


def per_layer(traced, untraced_run_s):
    values = dict(traced["record"]["layers"])
    values["trace.run_s"] = traced["run_s"] * traced["scale"]
    values["trace.overhead"] = values["trace.run_s"] / statistics.median(untraced_run_s) - 1.0
    return values


def kernel_passes():
    """Timed passes of the reference kernel, taken between jobs."""
    return [calibrate.timed() for _ in range(3)]


def main(argv=None):
    ap = argparse.ArgumentParser(description="hgdiff benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, never reported")
    ap.add_argument("--work-dir", default=str(ROOT / ".bench_build" / "perfbench"))
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "hgdiff" / "__init__.py").is_file():
        print(f"no hgdiff sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    work = Path(args.work_dir) / ("smoke" if args.smoke else "full")
    work.mkdir(parents=True, exist_ok=True)
    data = prepare_data(args, work, deadline)

    code = code_digest()
    records, key = work / "records.json", f"{args.workload}|seed{args.seed}|{code}"
    recorded_run_s = load_records(records).get(key, {}).get("run_s", [])
    # --trace 1: the traced job, after an untraced one if none is recorded;
    # --trace 0: untraced jobs while another one fits in --seconds
    plan = ([] if recorded_run_s else [False]) + [True] if args.trace else None
    started = time.monotonic()
    calibrate.kernel()  # warm-up
    before = kernel_passes()
    jobs = []
    while True:
        traced = plan[len(jobs)] if plan else False
        jobs.append(run_job(args, traced, len(jobs), work, data, deadline))
        if jobs[-1]["record"] is None:
            break
        # machine speed around this job: the kernel passes just before and after it
        after = kernel_passes()
        jobs[-1]["kernel_s"] = statistics.median(before + after)
        jobs[-1]["scale"] = calibrate.REFERENCE_S / jobs[-1]["kernel_s"]
        before = after
        if plan:
            if len(jobs) == len(plan):
                break
        else:
            longest = max(job["run_s"] for job in jobs)
            if (time.monotonic() - started + longest > args.seconds
                    or deadline - time.monotonic() < 1.5 * longest):
                break
    done = [job for job in jobs if job["record"] is not None]
    if done:
        check_records(records, key, done)

    untraced = [job for job in done if not job["traced"]]
    traced = [job for job in done if job["traced"]]
    if args.trace:
        baseline = recorded_run_s or [job["run_s"] * job["scale"] for job in untraced]
        values, samples = (per_layer(traced[0], baseline), None) if traced else ({}, None)
    else:
        values, samples = end_to_end(untraced)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if done and missing:
        jobs[-1]["problems"].append(f"metrics not measured: {missing}")

    env = dict(done[0]["record"]["env"]) if done else {}
    env.update(git_rev=git_rev(), code=code, jobs=len(jobs),
               workload=args.workload, params=params(args.workload, args.smoke),
               kernel_s=[job["kernel_s"] for job in done], reference_s=calibrate.REFERENCE_S)
    print("# env " + json.dumps(env, sort_keys=True))
    if args.smoke:
        print("# smoke run: toy sizes, not a measurement")
    if samples:
        print("# times below are in reference seconds; in wall seconds they read:")
        wall, _ = end_to_end(untraced, reference=False)
        for name in samples:
            if name.endswith("_s"):
                print(f"#   {name} = {wall[name]!r} s")
    for name, m in metrics.items():
        n = f" (median of {len(samples[name])})" if samples else ""
        print(f"{name} = {m['value']!r} {m['unit']}{n}")
    failed = sum(1 for job in jobs if job["problems"])
    print(f"failed_share = {failed / len(jobs)!r} share ({failed} of {len(jobs)} jobs)")
    for job in jobs:
        for problem in job["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
