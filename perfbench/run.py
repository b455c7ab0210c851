"""Benchmark of the extbloch package: relation sweeps and complex-volume files.

    python3 perfbench/run.py --workload sweep-double --seed 1 --seconds 10 --trace 0

``--workload`` names one workload, or ``all`` to run each in its own process.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of a traced run and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
1 when an output check fails and 2 when the package cannot be found.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep-double", "sweep-high", "volume-large")
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
OVERHEAD_SECONDS = 3.0  # untraced rounds a traced run starts with
MAX_ERRORS_SHOWN = 10


def _import_package():
    """Import extbloch from this checkout's src, or exit with status 2."""
    if not (SRC / "extbloch" / "__init__.py").is_file():
        print(f"error: no extbloch package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import extbloch

    if Path(extbloch.__file__).resolve().parent != (SRC / "extbloch").resolve():
        print(f"error: imported extbloch from {extbloch.__file__}", file=sys.stderr)
        raise SystemExit(2)


def measure_setup(wl, seed: int) -> tuple[float, list[str]]:
    """Median time from starting a fresh interpreter to its first checked result.

    Each probe runs the package's command line (``python3 -m extbloch``) on
    a small input of the workload, as a user would, and is timed from spawn
    to exit.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "extbloch", *wl.probe_argv(seed, OUT)]
    times, errors = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            errors.append(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        err = wl.check_probe(proc.stdout)
        if err:
            errors.append(err)
    return statistics.median(times), errors


def run_rounds(wl, seed: int, seconds: float, first_round: int, tracer=None):
    """Run whole rounds of operations until ``seconds`` have passed.

    Only the operation itself is timed; staging its input and checking its
    output happen between operations.
    """
    durations: list[float] = []  # one per operation
    round_walls: list[float] = []  # summed operation time of each round
    round_items: list[int] = []
    attempted = 0
    errors: list[str] = []  # output checks that failed
    failures: list[str] = []  # operations that raised
    t_start = time.perf_counter()
    r = first_round
    while True:
        round_wall = 0.0
        items = 0
        for op in wl.ops(seed, r):
            wl.stage(op)
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.run(op) if tracer is None else tracer.span("op", wl.run, op)
            except Exception as exc:  # an operation that raises counts as failed
                failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            durations.append(dt)
            round_wall += dt
            items += op.items
            errors += wl.check(op, out)
        round_walls.append(round_wall)
        round_items.append(items)
        r += 1
        if time.perf_counter() - t_start >= seconds:
            break
    return {
        "durations": durations, "round_walls": round_walls, "round_items": round_items,
        "attempted": attempted, "failed": len(failures), "errors": errors,
        "failures": failures,
    }


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_s, setup_errors = measure_setup(wl, seed)
    wl.start(seed, OUT)
    try:
        warm = run_rounds(wl, seed, 0.0, first_round=-1)  # lazy tables, caches
        res = run_rounds(wl, seed, seconds, first_round=0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        wl.stop()
    res["errors"] = setup_errors + warm["errors"] + res["errors"]
    round_rates = [n / t for n, t in zip(res["round_items"], res["round_walls"]) if t > 0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (_quartiles(round_rates)[0], "1/s"),
        "op_p75_ms": (_quartiles(res["durations"])[2] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, res


def _quartiles(values: list[float]) -> list[float]:
    """Quartiles as statistics.quantiles gives them; a lone value is all three.

    Rates are reported at their lower and times at their upper quartile: the
    machine alternates between slow stretches, present in every run, and
    fast ones of varying share, so the median flips between the two while
    the slow-side quartile stays put.
    """
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# per-layer metric -> (span or counter, what to take, unit)
PER_LAYER = {
    "dilog.li2.calls": ("dilog.li2", "calls", "count/op"),
    "dilog.li2.self_s": ("dilog.li2", "self_s", "s/op"),
    "dilog.log.calls": ("dilog.log", "calls", "count/op"),
    "dilog.log.self_s": ("dilog.log", "self_s", "s/op"),
    "rogers.l_bar.calls": ("rogers.l_bar", "calls", "count/op"),
    "rogers.l_bar.self_s": ("rogers.l_bar", "self_s", "s/op"),
    "cover.make_ft.self_s": ("cover.make_ft", "self_s", "s/op"),
    "cover.is_ft.self_s": ("cover.is_ft", "self_s", "s/op"),
    "cover.parse.calls": ("cover.parse", "calls", "count/op"),
    "cover.parse.self_s": ("cover.parse", "self_s", "s/op"),
    "prebloch.relation.self_s": ("prebloch.relation", "self_s", "s/op"),
    "prebloch.eval_lhat.calls": ("prebloch.eval_lhat", "calls", "count/op"),
    "prebloch.eval_lhat.terms": ("prebloch.eval_lhat.terms", "counter", "count/op"),
    "prebloch.eval_lhat.self_s": ("prebloch.eval_lhat", "self_s", "s/op"),
    "bloch.nu_hat.self_s": ("bloch.nu_hat", "self_s", "s/op"),
    "bloch.wedge.self_s": ("bloch.wedge", "self_s", "s/op"),
    "bloch.wedge.terms": ("bloch.wedge.terms", "counter", "count/op"),
    "ccs.load.bytes": ("ccs.load.bytes", "counter", "B/op"),
    "ccs.load.self_s": ("ccs.load", "self_s", "s/op"),
    "ccs.volume_report.self_s": ("ccs.volume_report", "self_s", "s/op"),
    "sweeps.run_sweep.self_s": ("sweeps.run_sweep", "self_s", "s/op"),
}


def per_layer(wl, seed: int, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    """A traced run; its first rounds also run untraced to price the tracing."""
    from layertrace import Tracer

    tracer = Tracer()
    wl.start(seed, OUT)
    try:
        warm = run_rounds(wl, seed, 0.0, first_round=-1)
        plain = run_rounds(wl, seed, min(seconds, OVERHEAD_SECONDS), first_round=0)
    finally:
        wl.stop()
    # The workload's own wrappers go on top of the traced functions.
    tracer.install()
    try:
        wl.start(seed, OUT)
        try:
            res = run_rounds(wl, seed, seconds, first_round=0, tracer=tracer)
        finally:
            wl.stop()
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    res["errors"] = warm["errors"] + plain["errors"] + res["errors"]
    summary = tracer.summary()
    ops = summary["op"]["calls"]
    metrics = {}
    for metric, (source, field, unit) in PER_LAYER.items():
        total = tracer.counters[source] if field == "counter" else summary[source][field]
        metrics[metric] = (total / ops, unit)
    n = min(len(plain["round_walls"]), len(res["round_walls"]))
    overhead = sum(res["round_walls"][:n]) / sum(plain["round_walls"][:n]) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return metrics, res


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, res = per_layer(wl, seed, seconds, OUT / f"spans-{tag}.tsv.gz")
    else:
        metrics, res = end_to_end(wl, seed, seconds)
    errors = res["errors"]
    correct = not errors
    print(f"workload: {name}  seed: {seed}  seconds: {seconds}  trace: {int(trace)}")
    print(f"operations: attempted {res['attempted']}, failed {res['failed']}")
    print(f"checks: {wl.samples_checked} results checked, {wl.li2_checked} li2 values "
          f"against mpmath, {len(errors)} problems")
    for e in errors[:MAX_ERRORS_SHOWN]:
        print(f"  CHECK FAILED {e}")
    for e in res["failures"][:MAX_ERRORS_SHOWN]:
        print(f"  OPERATION FAILED {e}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    raw = {k: res[k] for k in ("durations", "round_walls", "round_items")}
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, "raw": raw}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own interpreter, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2:
            return 2
        status = max(status, proc.returncode)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"][name] = last["metrics"]
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
