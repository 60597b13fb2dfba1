"""Benchmark of the k3pi1 package; run from the repository root:

    python3 perfbench/run.py --workload sweep24 --seed 1 --seconds 60 --trace 0

Every run measures three kinds of work, each unit in a fresh worker
process (perfbench/worker.py), one worker at a time:

* sweep: `trichotomy_sweep(24)` cold, then once more warm,
* meyer: a seeded batch of 126 `meyer_gate` calls,
* analyze: a seeded stream of 3,000 single `analyze` inputs, then
  fresh-process runs of `python -m k3pi1 analyze <fixture> --json`.

Units of the three kinds are interleaved, a fixed number of each, and
then the workload's own kind repeats until `--seconds` is spent.  Sweep
and batch times are medians over units; per-call latencies are pooled
over all units of a run.  `setup_s` (start of a worker until it has
imported the package and built its inputs) and `peak_rss_mb` come from
the workload's own kind.  Every time is given at the reference speed
of perfbench/speed.py: scaled by a fixed probe timed alongside it, so
that runs on a shared host whose speed drifts stay comparable.  Every
answer is checked.  The last line of
stdout is one JSON object with the metrics named in BENCHMARK.json: its
end-to-end metrics with `--trace 0`, its per-layer metrics with
`--trace 1`.  A traced run runs one unit of each kind untraced and then
traced, and writes the spans under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

import speed
from inputs import OVERSIZED_STRIDE as MAX_UNITS  # oversized I_n stay distinct for this many units
from stats import median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
PRIMARY = {"sweep24": "sweep", "analyze": "analyze"}
KINDS = ("sweep", "meyer", "analyze")
# units of each kind per run, before the workload's own kind fills the time
MIN_UNITS = {"sweep24": {"sweep": 3, "meyer": 5, "analyze": 4},
             "analyze": {"sweep": 3, "meyer": 5, "analyze": 4}}
SETUP_SPAWNS = 7
# figures taken as the median over units, and the kind of unit giving them
UNIT_MEDIANS = {"sweep_cold_s": "sweep", "sweep_warm_s": "sweep", "meyer_s": "meyer",
                "analyses_per_s": "analyze"}
# per-call latencies pooled over all units of a kind: (metric, samples, percentile)
POOLED = (("search_ms_p50", "search_ms", 50), ("search_ms_p90", "search_ms", 90),
          ("analyze_us_p50", "analyze_us", 50), ("analyze_us_p99", "analyze_us", 99),
          ("reject_us_p50", "reject_us", 50), ("reject_us_p99", "reject_us", 99),
          ("cli_ms_p50", "cli_ms", 50))
FIXTURES = (("tests/fixtures/kummer.json", "tests/golden/kummer_report.json"),
            ("tests/fixtures/fixture_532.json", "tests/golden/fixture_532_report.json"))
CLI_RUNS = 4
PROBE_RUNS = 9


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env():
    return dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")


def spawn(kind, seed, unit, traced=False, setup_only=False):
    """Run one worker; return its result with the measured set-up time
    (start of the process until it has imported and built its inputs)."""
    job = {"phase": kind, "seed": seed, "unit": unit, "traced": traced, "setup_only": setup_only,
           "spans": os.path.join(".perfbench", f"spans-{kind}-s{seed}-u{unit}.json")}
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                            stdout=subprocess.PIPE, env=_env(), text=True)
    first = proc.stdout.readline()
    setup = perf_counter() - start
    rest = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or first.strip() != "ready":
        raise BenchError(f"{kind} worker failed (exit {proc.returncode})")
    out = json.loads(rest.strip().splitlines()[-1])
    out["setup_s"] = setup
    out["wall_s"] = perf_counter() - start
    return out


def timed_process(argv):
    start = perf_counter()
    proc = subprocess.run(argv, capture_output=True, env=_env())
    return (perf_counter() - start) * 1e3, proc


def scaled_process(argv):
    """A timed process, its time given at the reference speed."""
    (ms, proc), scale = speed.bracket(lambda: timed_process(argv))
    return ms * scale, proc


def setup_spawn(kind, seed):
    """A worker that stops once set up; its set-up time at the reference speed."""
    out, scale = speed.bracket(lambda: spawn(kind, seed, 0, setup_only=True))
    out["setup_s"] *= scale
    return out


def cli_runs(n, first=0, scaled=True):
    """Fresh-process CLI runs on the fixtures, taken in turn from `first`;
    stdout must match the goldens."""
    samples, failed = [], 0
    for i in range(first, first + n):
        fixture, golden = FIXTURES[i % len(FIXTURES)]
        with open(golden, "rb") as handle:
            want = handle.read()
        argv = [sys.executable, "-m", "k3pi1", "analyze", fixture, "--json"]
        ms, proc = scaled_process(argv) if scaled else timed_process(argv)
        samples.append(ms)
        failed += proc.returncode != 0 or proc.stdout != want
    return samples, failed


def unit(kind, seed, index, traced=False):
    out = spawn(kind, seed, index, traced)
    if kind == "analyze":
        out["cli_ms"], cli_failed = cli_runs(CLI_RUNS, scaled=not traced)
        out["attempted"] += CLI_RUNS
        out["failed"] += cli_failed
    return out


def measure(workload, seed, seconds):
    """Units of every kind, interleaved so that repeats of one kind lie
    apart in time; the workload's own kind then fills `seconds`."""
    primary = PRIMARY[workload]
    start = perf_counter()
    setups, units = [], {kind: [] for kind in KINDS}

    def add(kind):
        # set-up spawns go between units, so they sample the whole run
        if len(setups) < SETUP_SPAWNS:
            setups.append(setup_spawn(primary, seed))
        units[kind].append(unit(kind, seed, len(units[kind])))

    wanted = MIN_UNITS[workload]
    while any(len(units[k]) < wanted[k] for k in KINDS):
        for kind in sorted(KINDS, key=lambda k: k != primary):
            if len(units[kind]) < wanted[kind]:
                add(kind)
    while len(units[primary]) < MAX_UNITS:
        last = units[primary][-1]
        if perf_counter() - start + last["wall_s"] > seconds:
            break
        add(primary)
    while len(setups) < SETUP_SPAWNS:
        setups.append(setup_spawn(primary, seed))

    metrics = {
        "setup_s": median([w["setup_s"] for w in setups]),
        "peak_rss_mb": max(w["rss_mb"] for w in setups + units[primary]),
    }
    for name, kind in UNIT_MEDIANS.items():
        metrics[name] = median([u[name] for u in units[kind]])
    for name, samples, p in POOLED:
        pooled = [x for us in units.values() for u in us for x in u.get(samples, ())]
        metrics[name] = tail(pooled, p) if p > 50 else median(pooled)
    return metrics, [u for us in units.values() for u in us]


def trace(seed):
    layers, done, overhead, untraced_s = {}, [], 0.0, 0.0
    for kind in KINDS:
        plain = unit(kind, seed, 0)
        traced = unit(kind, seed, 0, traced=True)
        layers.update(traced["layers"])
        overhead += traced["work_s"] - plain["work_s"]
        untraced_s += plain["work_s"]
        done += [plain, traced]
    # interleaved, so the three medians see the same host load
    interpreter, imported = [], []
    for i in range(PROBE_RUNS):
        interpreter.append(timed_process([sys.executable, "-c", "pass"])[0])
        imported.append(timed_process([sys.executable, "-c", "import k3pi1.cli"])[0])
        cli, cli_failed = cli_runs(1, first=i, scaled=False)
        done.append({"cli_ms": cli, "attempted": 1, "failed": cli_failed, "messages": []})
    interpreter, imported = median(interpreter), median(imported)
    cli = median([ms for u in done[-PROBE_RUNS:] for ms in u["cli_ms"]])
    attempted = sum(u["attempted"] for u in done)
    failed = sum(u["failed"] for u in done)
    layers.update({
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.work_ms": cli - imported,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced_s,
        "failed_share": failed / attempted,
    })
    return layers, done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PRIMARY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        for path in ["BENCHMARK.json", "src/k3pi1/__init__.py"] + [p for f in FIXTURES for p in f]:
            if not os.path.isfile(path):
                raise BenchError(f"{path} not found: run from the root of a k3pi1 checkout")
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        # compile the package once, untimed, so no run pays for it
        if timed_process([sys.executable, "-c", "import k3pi1.cli"])[1].returncode != 0:
            raise BenchError("cannot import k3pi1 from src")
        if args.trace:
            values, units = trace(args.seed)
            wanted = spec["per_layer"]
        else:
            values, units = measure(args.workload, args.seed, args.seconds)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = {m["name"] for m in wanted}
    if set(values) != names:
        print(f"error: metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    for u in units:
        for message in u["messages"]:
            print(f"check failed: {message}", file=sys.stderr)
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
