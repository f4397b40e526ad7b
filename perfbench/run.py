"""Benchmark of the `stochbellman` command line, end to end and per layer.

Run from a checkout of the repository:

    python3 perfbench/run.py --workload quad-solve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client: CLI sessions run one after
another, never concurrently, in subprocesses with the CLI's default flags,
until `--seconds` have passed (at least one session).  Every session's
output is checked: exit code 0, structured stdout that parses and is
bit-identical to the run's first session, and values within the workload's
tolerance of an oracle reference computed once, outside the timed region.
Inputs and references come from `instances.py`, run as a child, so that
this process stays small (see workloads.py).

On a shared host the same session's time drifts by a third over minutes,
and CPU time drifts with it (a child's CPU seconds track its wall seconds,
within a few per cent where it runs on one thread).  So a calibration
kernel (calibrate.py) runs in a child before every session, and `wall_s`,
`wall_s_min` and `setup_s` are the measured seconds times
(CAL_REF_S / k) ** CAL_ELASTICITY, where k is the run's median kernel time.
The measured seconds are reported too, as `raw_wall_s` and `raw_setup_s`,
with the kernel's `calib_s`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` reports per-layer
metrics: it alternates untraced subprocess sessions with in-process
sessions through `cli.main` under the boundary tracer (tracer.py), and
writes the spans as JSON lines next to the inputs.  Inputs, spans and a
full result record (environment, samples) go to `.perfbench_work/` in the
checkout.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is nonzero
when any invocation failed or the checkout has no `src/stochbellman`.

Seed 90001 is held out: no tuning of the benchmark or of a change looks at
it, and a claimed gain is re-checked on it once the change is written.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_EVERY_S = 5.0  # one setup step per this many seconds of a run
CAL_REF_S = 0.1  # kernel seconds that times are rescaled to; about its time on a 2.1 GHz Xeon
# How far session and setup times follow the kernel's: over 20 runs of each
# workload on a 2-core host, the slope of log run-median session time on
# log kernel time was 0.48-0.52 (0.34-0.90 for setup).  Rescaling by the
# full kernel ratio doubled the spread across seeds on some workloads.
CAL_ELASTICITY = 0.5
STARTUP_REPEATS = 5
SESSION_LIMIT_S = 150.0  # a session still running after this is killed and fails
# what the `stochbellman` console script runs
ENTRY = "import sys; from stochbellman.cli import main; sys.exit(main())"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment():
    """What the numbers depend on; recorded, never overridden."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "stochbellman").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "STOCH_BELLMAN_THREADS": os.environ.get("STOCH_BELLMAN_THREADS")}


def child_env():
    env = dict(os.environ)
    env.pop("STOCH_BELLMAN_THREADS", None)  # children get the users' default
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args, env, stderr_path):
    """Run one child; returns (wall seconds, exit code, stdout, peak RSS in MB)."""
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(SESSION_LIMIT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    return wall, proc.returncode, out, usage.ru_maxrss / 1024.0


class Checker:
    """Verifies every invocation and counts the failures."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.value_abs_err = 0.0
        self.problems = []

    def __call__(self, code, out):
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            report = json.loads(out)
        except ValueError:
            report = None
            problems.append("stdout does not parse as JSON")
        if self.first is None:
            self.first = out
        elif out != self.first:
            problems.append("stdout differs from the first session's")
        if isinstance(report, dict):
            err, found = self.workload.check(report, self.reference)
            self.value_abs_err = max(self.value_abs_err, err)
            problems.extend(found)
        elif report is not None:
            problems.append("stdout is not a JSON object")
        if problems:
            self.failed += 1
            self.problems.append(problems)


def helper(workdir, script, *args):
    """Run one of the benchmark's scripts in a child; returns (wall seconds, stdout)."""
    args = [str(a) for a in args]
    wall, code, out, _ = spawn([str(HERE / script), *args], child_env(),
                               workdir / "stderr.txt")
    if code != 0:
        raise RuntimeError(f"{script} {' '.join(args)} exited with {code}; "
                           f"see {workdir / 'stderr.txt'}")
    return wall, out


def setup_time(workload, seed, horizon, workdir):
    """Seconds of one setup step: a child that generates and writes the inputs."""
    return helper(workdir, "instances.py", "setup", workload.name, seed, horizon, workdir)[0]


def reference_value(workload, workdir):
    return json.loads(helper(workdir, "instances.py", "reference", workload.name, workdir)[1])


def calibration(workdir):
    """Seconds of each repeat of the calibration kernel, run in a child."""
    return json.loads(helper(workdir, "calibrate.py")[1])


def _session(workload, workdir, checker, env):
    """One checked CLI session in a child; returns (wall seconds, peak RSS MB)."""
    wall, code, out, peak = spawn(["-c", ENTRY, *workload.argv(workdir)], env,
                                  workdir / "stderr.txt")
    checker(code, out)
    return wall, peak


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(workload, seed, seconds, workdir, horizon):
    """Sessions until `seconds` pass, each after a calibration child, with a
    setup step every SETUP_EVERY_S, so that the calibration and setup
    samples span the same stretch of host speed as the session samples."""
    env = child_env()
    setup = [setup_time(workload, seed, horizon, workdir)]
    checker = Checker(workload, reference_value(workload, workdir))
    walls, rss, calib = [], [], []
    start = last_setup = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.append(setup_time(workload, seed, horizon, workdir))
            last_setup = time.perf_counter()
        calib += calibration(workdir)
        wall, peak = _session(workload, workdir, checker, env)
        walls.append(wall)
        rss.append(peak)
    scale = (CAL_REF_S / statistics.median(calib)) ** CAL_ELASTICITY
    metrics = {
        "wall_s": _metric(statistics.median(walls) * scale, "s", len(walls)),
        "wall_s_min": _metric(min(walls) * scale, "s", len(walls)),
        "setup_s": _metric(statistics.median(setup) * scale, "s", len(setup)),
        "peak_rss_mb": _metric(max(rss), "MB", len(rss)),
        "raw_wall_s": _metric(statistics.median(walls), "s", len(walls)),
        "raw_setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "calib_s": _metric(statistics.median(calib), "s", len(calib)),
        "value_abs_err": _metric(checker.value_abs_err, "1", checker.attempted),
        "fail_ratio": _metric(checker.failed / checker.attempted, "ratio", checker.attempted),
    }
    return checker, metrics, {"wall_s": walls, "setup_s": setup, "calib_s": calib,
                              "peak_rss_mb": rss}


def _traced_session(workload, workdir, checker):
    """One in-process session under the tracer; returns (seconds, tracer)."""
    from stochbellman import cli
    from tracer import Tracer
    buf = io.StringIO()
    with Tracer() as tracer:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(workload.argv(workdir))
        except Exception:  # a crash is a failed invocation, not a benchmark crash
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
    checker(code, buf.getvalue().encode())
    return elapsed, tracer


def per_layer(workload, seed, seconds, workdir, horizon):
    from tracer import COUNTED, PEAKS, TIMED, metric_name, summarize
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # the traced sessions run in this process
    setup_time(workload, seed, horizon, workdir)
    checker = Checker(workload, reference_value(workload, workdir))
    env = child_env()
    startup = [spawn(["-c", "import stochbellman.cli"], env, workdir / "stderr.txt")[0]
               for _ in range(STARTUP_REPEATS)]
    saved = os.environ.pop("STOCH_BELLMAN_THREADS", None)
    walls, traced, summaries = [], [], []
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            walls.append(_session(workload, workdir, checker, env)[0])
            elapsed, tracer = _traced_session(workload, workdir, checker)
            traced.append(elapsed)
            summaries.append((summarize(tracer.spans, threading.get_ident()), tracer))
    finally:
        if saved is not None:
            os.environ["STOCH_BELLMAN_THREADS"] = saved
    with open(workdir / "spans.jsonl", "w") as fh:
        for session, (_, tracer) in enumerate(summaries):
            tracer.write_spans(fh, session)

    n = len(summaries)

    def med(get):
        return statistics.median(get(s) for s, _ in summaries)

    metrics = {"cli.startup_s": _metric(statistics.median(startup), "s", len(startup))}
    for span in TIMED:
        stem = metric_name(span)
        metrics[f"{stem}_s"] = _metric(med(lambda s: s["total"].get(span, 0.0)), "s", n)
        metrics[f"{stem}_self_s"] = _metric(med(lambda s: s["self"].get(span, 0.0)), "s", n)
    for span in COUNTED:  # counts repeat exactly; median_low keeps them integers
        metrics[f"{metric_name(span)}_calls"] = _metric(statistics.median_low(
            s["calls"].get(span, 0) for s, _ in summaries), "count", n)
    for key in PEAKS:
        metrics[key] = _metric(max(t.peaks[key] for _, t in summaries), "count", n)
    wall = statistics.median(walls)
    metrics["trace.overhead_s"] = _metric(
        statistics.median(traced) - (wall - metrics["cli.startup_s"]["value"]), "s", n)
    metrics["value_abs_err"] = _metric(checker.value_abs_err, "1", checker.attempted)
    metrics["fail_ratio"] = _metric(checker.failed / checker.attempted, "ratio",
                                    checker.attempted)
    extra = {"wall_s": walls, "traced_session_s": traced, "cli.startup_s": startup,
             "covered_s": [s["covered_s"] for s, _ in summaries],
             "spans": {name: {"total_s": med(lambda s: s["total"].get(name, 0.0)),
                              "self_s": med(lambda s: s["self"].get(name, 0.0)),
                              "top_s": med(lambda s: s["top"].get(name, 0.0)),
                              "calls": statistics.median_low(
                                  s["calls"].get(name, 0) for s, _ in summaries),
                              "waits_on_pool": any(name in s["pooled"] for s, _ in summaries)}
                       for name in sorted({k for s, _ in summaries for k in s["total"]})}}
    return checker, metrics, extra


def run_workload(workload, seed, seconds, trace, horizon=None, workdir=None):
    """One benchmark run; returns the result record, also written to workdir."""
    horizon = workload.horizon if horizon is None else horizon
    workdir = Path(workdir or WORK / f"{workload.name}-s{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    measure = per_layer if trace else end_to_end
    checker, metrics, samples = measure(workload, seed, seconds, workdir, horizon)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "horizon": horizon,
              "environment": environment(), "metrics": metrics, "samples": samples,
              "attempted": checker.attempted, "failed": checker.failed,
              "problems": checker.problems}
    with open(workdir / f"result-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report_lines(record):
    name, samples = record["workload"], record["samples"]
    yield f"# {name} seed={record['seed']} horizon={record['horizon']} trace={record['trace']}"
    yield f"# environment {json.dumps(record['environment'], sort_keys=True)}"
    for metric, m in record["metrics"].items():
        yield f"{name:<13} {metric:<36} {m['value']:>14.6g} {m['unit']:<5} n={m['samples']}"
    spans = samples.get("spans", {})
    for span, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        yield f"{name:<13} span {span:<31} top-level {row['top_s']:8.4f} s " \
              f"total {row['total_s']:8.4f} s self {row['self_s']:8.4f} s calls {row['calls']}" \
              + (" (self time includes waiting on pool workers)" if row["waits_on_pool"] else "")
    if spans:
        top = max(spans, key=lambda k: spans[k]["top_s"])
        busy = [k for k in spans if not spans[k]["waits_on_pool"]]
        own = max(busy, key=lambda k: spans[k]["self_s"])
        yield f"# largest top-level step {top}; largest self time {own} (all threads, " \
              f"not counting spans that wait on pool workers); top-level " \
              f"steps cover {statistics.median(samples['covered_s']):.4f} s of the traced " \
              f"session's {statistics.median(samples['traced_session_s']):.4f} s " \
              f"(untraced wall_s {statistics.median(samples['wall_s']):.4f} s)"
    for problems in record["problems"]:
        yield f"# FAILED invocation: {'; '.join(problems)}"


def contract_line(record, names):
    """The last stdout line: exactly `correct`, `attempted`, `failed`, `metrics`."""
    metrics = {name: {"value": record["metrics"][name]["value"],
                      "unit": record["metrics"][name]["unit"]} for name in names}
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "stochbellman" / "cli.py").is_file():
        print(f"error: {SRC / 'stochbellman'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; one of {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    records = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        records.append(record)
        for line in report_lines(record):
            print(line, flush=True)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        print(contract_line(records[0], declared_metrics(args.trace)))
    else:
        print(json.dumps({r["workload"]: {k: m["value"] for k, m in r["metrics"].items()}
                          for r in records}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
