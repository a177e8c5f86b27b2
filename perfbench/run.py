"""Benchmark of jetstar: seeded closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload fedosov-star --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one at a time

This process is the client.  It generates the requests (perfbench/gen.py),
sends each to a workload process (perfbench/worker.py) and waits for the
reply before sending the next, so exactly one operation is in flight.  The
workload process imports jetstar from ``src/`` and sees nothing but the
generated requests.

A run starts the workload process from cold several times and reports the
median time to its first ready query as ``setup_s``.  The last process then
answers a fixed prefix of the stream, untimed, whose outputs are hashed
into the run's digest, and then answers operations for ``--seconds``
seconds of measured time (time spent checking outputs is excluded); the
throughput counts the operations finished within that time, the one running
at its end by the share of it that was done.  Every
output is checked by exact invariants.  For the default seed the digest
must equal the one recorded in perfbench/spec.json.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the workload process records spans
around jetstar's public functions and the line carries the per-layer
metrics; every operation is also sent to an untraced workload process, right
after the traced one, to measure the tracing overhead.  Exit code 0 means every output was correct; 1 a wrong
or failed output; 2 a missing program or bad arguments; 3 a run that did
not finish in time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import gen
from spans import metric_specs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SPEC_PATH = os.path.join(BENCH_DIR, "spec.json")

# Cold starts per run: at least SETUP_MIN_STARTS, more while they take less
# than SETUP_BUDGET_S in all, so a cheap set-up gets a steadier median.
SETUP_MIN_STARTS = 3
SETUP_MAX_STARTS = 15
SETUP_BUDGET_S = 3.0
# Untimed operations at the start of every run; their outputs make the digest.
PREFIX_OPS = {"fedosov-star": 3, "quotient-star": 15, "homology-tables": 11}
# peak_rss_mb is read after this many timed operations (or at the end of a
# run that completes fewer), so a faster program, which completes more
# operations in a run and so fills more cache, is compared at equal work.
RSS_AFTER_OPS = {"fedosov-star": 30, "quotient-star": 600, "homology-tables": 250}
TAIL_BEYOND = 10
RUN_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(Exception):
    pass


class Worker:
    """One workload process, started cold; ``setup_s`` is spawn-to-ready."""

    def __init__(self, workload, traced, trace_path=None):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload,
               "1" if traced else "0"]
        if trace_path:
            cmd.append(trace_path)
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=env, text=True)
        try:
            ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start
        self.env = ready["env"]

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"workload process exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self, timed_ops=0):
        reply = self.call({"kind": "quit", "timed_ops": timed_ops})
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return reply

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe and not pipe.closed:
                pipe.close()


class Drive:
    """Outcome of driving one workload process through prefix and timed phase."""

    def __init__(self):
        self.prefix_outputs = []
        self.op_s = []
        self.shadow_s = 0.0
        self.failures = []
        self.attempted = 0
        self.in_window = 0.0
        self.peak_rss_mb = None


def drive(worker, workload, seed, seconds, corrupt_op=None, shadow=None):
    """Prefix, then the timed phase.  A ``shadow`` process gets each request
    right after ``worker``; its time is summed apart and not measured."""
    result = Drive()
    requests = gen.stream(workload, seed)

    def one(request, op_id):
        request["op_id"] = op_id
        reply = worker.call(dict(request, corrupt=corrupt_op == result.attempted))
        if reply["errors"]:
            result.failures.append({"op": result.attempted, "kind": request["kind"],
                                    "errors": reply["errors"]})
        result.attempted += 1
        if shadow is not None:
            shadowed = time.perf_counter()
            shadow_reply = shadow.call(request)
            reply["check_s"] += time.perf_counter() - shadowed
            if isinstance(op_id, int):
                result.shadow_s += shadow_reply["op_s"]
        return reply

    for k in range(PREFIX_OPS[workload]):
        result.prefix_outputs.append(one(next(requests), f"prefix-{k}")["out"])
    start = time.perf_counter()
    checking = 0.0
    while True:
        sent = time.perf_counter() - start - checking
        if sent >= seconds:
            break
        reply = one(next(requests), len(result.op_s))
        checking += reply["check_s"]
        result.op_s.append(reply["op_s"])
        done = time.perf_counter() - start - checking
        # the operation running at the deadline counts with its finished share
        result.in_window += 1 if done <= seconds else (seconds - sent) / (done - sent)
        if len(result.op_s) <= RSS_AFTER_OPS[workload]:
            result.peak_rss_mb = reply["peak_rss_mb"]
    return result


def digest(outputs):
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it; the maximum, at percentile 100, when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(workload, seed, seconds, traced, spec, corrupt_op=None):
    os.makedirs(OUT_DIR, exist_ok=True)
    workers = []

    def start(traced_worker, trace_path=None):
        worker = Worker(workload, traced_worker, trace_path)
        workers.append(worker)
        return worker

    shadow = None
    try:
        if traced:
            spans_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.json")
            shadow = start(False)
            worker = start(True, spans_path)
            setup_times = [worker.setup_s]
        else:
            setup_times = [start(False).setup_s]
            while len(setup_times) < SETUP_MAX_STARTS and (
                    len(setup_times) < SETUP_MIN_STARTS or sum(setup_times) < SETUP_BUDGET_S):
                workers[-1].close()
                setup_times.append(start(False).setup_s)
            worker = workers[-1]
        run = drive(worker, workload, seed, seconds, corrupt_op, shadow)
        final = worker.close(len(run.op_s))
    finally:
        for worker in workers:
            worker.kill()

    run_digest = digest(run.prefix_outputs)
    expected = spec["digests"].get(workload) if seed == spec["default_seed"] else None
    failed_ops = {item["op"] for item in run.failures}
    if expected is not None and run_digest != expected:
        run.failures.append({"op": "prefix", "kind": "digest",
                             "errors": [f"digest {run_digest} != recorded {expected}"]})
        failed_ops.update(range(PREFIX_OPS[workload]))

    n = len(run.op_s)
    tail_s, tail_pct = tail(run.op_s)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "env": worker.env,
        "client": "closed loop, 1 single-threaded client, 1 operation in flight",
        "attempted": run.attempted,
        "failed": len(failed_ops),
        "error_rate": len(failed_ops) / run.attempted,
        "timed_ops": n,
        "ops_in_window": run.in_window,
        "peak_rss_after_ops": min(n, RSS_AFTER_OPS[workload]),
        "setup_samples_s": setup_times,
        "latency_tail": {"percentile": tail_pct, "samples": n},
        "digest": run_digest,
        "digest_expected": expected,
        "failures": run.failures[:20],
    }
    if traced:
        values = dict(final["per_layer"])
        values["trace.ops"] = n
        values["trace.overhead_s"] = sum(run.op_s) - run.shadow_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in metric_specs()}
        report["untraced_s"] = run.shadow_s
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "throughput_ops_per_s": run.in_window / seconds,
            "latency_p50_ms": 1000 * statistics.median(run.op_s),
            "latency_tail_ms": 1000 * tail_s,
            "peak_rss_mb": run.peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(traced)}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return report


def print_report(report):
    env = report["env"]
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}"
          f"  trace {report['trace']}  ({report['client']})")
    print(f"  env: rational backend {env['backend']}, {env['implementation']} {env['python']},"
          f" cpu affinity {env['cpu_affinity']}")
    for name, metric in report["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  median of {len(report['setup_samples_s'])} cold starts"
        elif name == "throughput_ops_per_s":
            note = (f"  {report['ops_in_window']:.2f} ops done in {report['seconds']} s measured;"
                    f" {report['timed_ops']} timed")
        elif name == "peak_rss_mb":
            note = f"  after {report['peak_rss_after_ops']} timed ops"
        elif name == "latency_tail_ms":
            tail_info = report["latency_tail"]
            note = f"  p{tail_info['percentile']:.1f} of {tail_info['samples']} samples"
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']:<6}{note}")
    print(f"  {'error_rate':<40} {report['error_rate']:>14.6g} {'ratio':<6}"
          f"  {report['failed']} failed of {report['attempted']} attempted")
    if report["digest_expected"] is None:
        status = "no recorded value for this seed"
    elif report["digest"] == report["digest_expected"]:
        status = "matches the recorded value"
    else:
        status = "MISMATCH with the recorded value"
    print(f"  digest {report['digest']} ({status})")
    for failure in report["failures"]:
        print(f"  FAILED op {failure['op']} ({failure['kind']}): {'; '.join(failure['errors'])}")


def result_line(report):
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": report["metrics"]}


def _timeout(signum, frame):
    raise TimeoutError(f"run did not finish within {RUN_TIMEOUT_S} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the seed whose digests are recorded)")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-op", type=int, default=None,
                        help="alter the output of this operation (0 = first); for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "jetstar", "__init__.py")):
        sys.stderr.write(f"error: no jetstar sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    seed = spec["default_seed"] if args.seed is None else args.seed
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)

    signal.signal(signal.SIGALRM, _timeout)
    reports = []
    try:
        for workload in workloads:
            signal.alarm(RUN_TIMEOUT_S)
            reports.append(run_workload(workload, seed, args.seconds, bool(args.trace),
                                        spec, args.corrupt_op))
            signal.alarm(0)
            print_report(reports[-1])
    except (WorkerError, TimeoutError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    if len(reports) == 1:
        line = result_line(reports[0])
    else:
        line = {
            "correct": all(r["failed"] == 0 for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {f"{r['workload']}.{name}": metric
                        for r in reports for name, metric in r["metrics"].items()},
        }
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
