"""Closed-loop benchmark for mdtds: one client, one process, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload word-verify --seed 1 --seconds 45 --trace 1
    python3 perfbench/run.py --all --seed 0      # every workload, as a table

The library is imported from ``src/`` next to this directory; nothing is
installed or built.  A run builds the workload's round of requests from the
seed, then sends them one at a time, each after the previous answer, in
whole rounds until the requests have taken ``--seconds`` of wall time.
Every answer is checked against an oracle between requests, outside the
timed region.  Between rounds, fresh interpreters are started a few times to
measure set-up time.

The shared host's speed swings by up to 2x within seconds, in CPU time as
much as in wall time, and the median of every sample follows it; the fastest
of a request's repeats moves far less.  So each slot of the round is timed
by its fastest repeat in the run, and ``--trace 0`` prints p50, tail and
throughput over those per-slot times; the same figures over every sample
are in the info line.  Requests are kept to a few milliseconds so that each
slot is repeated over a hundred times in a run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` sends each round
twice, untraced and then traced, and prints per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's facts (machine, seed, shares, tail percentile, failures).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

SETUP_PROBES = 15
CLI_PROBES = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


class NoLibrary(Exception):
    pass


def load_library():
    """Import mdtds from this checkout's ``src/``, and nothing else."""
    if not (SRC / "mdtds" / "__init__.py").is_file():
        raise NoLibrary(f"no mdtds sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mdtds
    if SRC not in Path(mdtds.__file__).resolve().parents:
        raise NoLibrary(f"imported mdtds from {mdtds.__file__}, not from {SRC}")
    return mdtds


# -- the closed loop ----------------------------------------------------------------


def send_round(requests, order, *, tracer=None) -> tuple:
    """Send one round, each request after the previous answer.

    Returns (latencies in s, failure labels).  A request fails when it
    raises or its check rejects the answer; checks run between requests,
    outside the timed region.
    """
    latencies, failures = [], []
    for slot in order:
        req = requests[slot]
        if tracer is not None:
            tracer.request += 1
            tracer.enabled = True
        error = None
        t0 = perf_counter()
        try:
            answer = req.call()
        except Exception as exc:  # a request that raises has failed
            answer, error = None, exc
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        latencies.append(dt)
        if error is not None or not _check(req, answer):
            failures.append(f"{req.label}: {error!r}" if error else req.label)
        del answer
    return latencies, failures


def run_rounds(requests, seed, seconds, *, rounds=None, between=None) -> tuple:
    """Send whole rounds until ``seconds`` of request time (or ``rounds``).

    ``between(spent)``, if given, is called after each round with the
    request time so far.  Returns (latencies in s of each slot, one per
    round; failure labels; rounds run).
    """
    orders = workloads.round_orders(seed, len(requests))
    per_slot = [[] for _ in requests]
    failures, spent, done = [], 0.0, 0
    while (spent < seconds) if rounds is None else (done < rounds):
        order = next(orders)
        lat, fail = send_round(requests, order)
        for slot, dt in zip(order, lat):
            per_slot[slot].append(dt)
        failures += fail
        spent += sum(lat)
        done += 1
        if between is not None:
            between(spent)
    return per_slot, failures, done


def _check(req, answer) -> bool:
    try:
        return bool(req.check(answer))
    except Exception:  # a malformed answer fails its check
        return False


def tail(latencies) -> tuple:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _wait_line(argv) -> float:
    """Seconds from starting ``argv`` until it prints its first line."""
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"{argv} did not become ready")
    return elapsed


class SetupProbes:
    """Set-up time from fresh interpreters, spread over the run.

    Called between rounds, it starts a probe each time another
    ``1/SETUP_PROBES`` of the run's request time has passed, so the
    median samples the whole run and not one moment of the host's load.
    """

    def __init__(self, workload, seed, seconds):
        self.argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--setup-probe"]
        self.seconds = seconds
        self.samples: list = []

    def __call__(self, spent):
        if len(self.samples) < SETUP_PROBES and \
                spent >= len(self.samples) * self.seconds / SETUP_PROBES:
            self.samples.append(_wait_line(self.argv))

    def finish(self) -> list:
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(_wait_line(self.argv))
        return self.samples


def _timed_run(argv, env) -> float:
    t0 = perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def cli_costs() -> dict:
    """Import and start-up cost of the command line, from fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    py = sys.executable
    imports, starts = [], []
    for _ in range(CLI_PROBES):
        bare = _timed_run([py, "-c", "pass"], env)
        imports.append(_timed_run([py, "-c", "import mdtds.cli"], env) - bare)
        starts.append(_timed_run([py, "-m", "mdtds.cli", "info"], env))
    return {"cli.import_ms": (1e3 * statistics.median(imports), "ms"),
            "cli.startup_ms": (1e3 * statistics.median(starts), "ms")}


# -- the modes ----------------------------------------------------------------------


def facts(m, workload, seed, requests) -> dict:
    n = len(requests)
    return {"workload": workload, "seed": seed, "why": workloads.WORKLOADS[workload].why,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "kernel_backend": m.kernel_backend(), "scan_threads": workloads.SCAN_THREADS,
            "slots_per_round": n,
            "repeat_share": sum(r.repeat for r in requests) / n,
            "approx_share": sum(r.approx for r in requests) / n}


def run_e2e(m, workload, seed, seconds) -> tuple:
    """End-to-end metrics over each slot's fastest repeat in the run.

    ``req_p50_ms`` and ``req_tail_ms`` are the median and the tail of the
    per-slot minimums, and ``requests_per_s`` is one round's slots over
    their sum (see the module docstring for why).
    """
    requests = workloads.build_round(m, workload, seed)
    probes = SetupProbes(workload, seed, seconds)
    per_slot, failures, rounds = run_rounds(requests, seed, seconds, between=probes)
    setups = probes.finish()
    best = [min(samples) for samples in per_slot]
    tail_value, tail_pct = tail(best)
    every = [dt for samples in per_slot for dt in samples]
    attempted = len(every)
    every_tail, every_pct = tail(every)
    info = facts(m, workload, seed, requests)
    info.update(rounds=rounds, samples=attempted, tail_percentile=tail_pct,
                tail_samples_beyond=TAIL_BEYOND, failed_ratio=len(failures) / attempted,
                all_samples_p50_ms=1e3 * statistics.median(every),
                all_samples_tail_ms=1e3 * every_tail, all_samples_tail_percentile=every_pct,
                all_samples_requests_per_s=attempted / sum(every),
                setup_samples_s=setups, failures=failures[:20])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "req_p50_ms": (1e3 * statistics.median(best), "ms"),
        "req_tail_ms": (1e3 * tail_value, "ms"),
        "requests_per_s": (len(best) / sum(best), "1/s"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_SELF), "MB"),
    }
    return info, attempted, failures, metrics


def run_trace(m, workload, seed, seconds) -> tuple:
    """Each round twice, untraced then traced, until ``seconds`` in all.

    Alternating round by round keeps slow drifts of the machine out of the
    overhead figure.
    """
    requests = workloads.build_round(m, workload, seed)
    orders = workloads.round_orders(seed, len(requests))
    tracer = tracing.Tracer(m)
    plain, traced, failures, rounds = [], [], [], 0
    while sum(plain) + sum(traced) < seconds:
        order = next(orders)
        lat, fail = send_round(requests, order)
        plain += lat
        failures += fail
        tracer.install()
        try:
            lat, fail = send_round(requests, order, tracer=tracer)
        finally:
            tracer.uninstall()
        traced += lat
        failures += fail
        rounds += 1
    metrics = tracing.layer_metrics(tracer, rounds)
    metrics.update(cli_costs())
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain) - 1.0, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(spans_path)
    info = facts(m, workload, seed, requests)
    info.update(rounds=rounds, spans=len(tracer.spans),
                spans_file=str(spans_path.relative_to(ROOT)),
                untraced_s=sum(plain), traced_s=sum(traced), failures=failures[:20])
    return info, len(plain) + len(traced), failures, metrics


def result_line(attempted, failures, metrics) -> str:
    return json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def run_all(m, seed, seconds) -> int:
    """Every workload end to end, with all six metrics in one table."""
    rows, correct = [], True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
        info_line, result = proc.stdout.strip().splitlines()[-2:]
        info, result = json.loads(info_line), json.loads(result)
        correct &= result["correct"]
        metrics = dict(result["metrics"])
        metrics["failed_ratio"] = {"value": info["failed_ratio"], "unit": "ratio"}
        for key, metric in metrics.items():
            rows.append((name, key, metric["value"], metric["unit"]))
        for failure in info["failures"]:
            print(f"FAILED {name}: {failure}")
    print(f"{'workload':12} {'metric':16} {'value':>12}  unit")
    for name, key, value, unit in rows:
        print(f"{name:12} {key:16} {value:12.4f}  {unit}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    try:
        m = load_library()
    except (NoLibrary, ImportError) as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(m, args.seed, args.seconds)
    if args.setup_probe:
        workloads.build_round(m, args.workload, args.seed)
        print("ready", flush=True)
        return 0
    mode = run_trace if args.trace else run_e2e
    info, attempted, failures, metrics = mode(m, args.workload, args.seed, args.seconds)
    print(json.dumps(info))
    print(result_line(attempted, failures, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
