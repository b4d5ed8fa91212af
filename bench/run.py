#!/usr/bin/env python3
"""Benchmark of the hdecomp command line on seeded graph families.

    python3 bench/run.py --workload chain --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ./src.  Each
op calls `hdecomp.cli.main(argv)` in this process with stdout and stderr
captured, one op at a time (a closed loop with one client).  Whole cycles of
the workload's schedule run until --seconds have passed; every answer is
checked (see check.py).  Ops that raise, exit 1, hit the per-op cap or print
a wrong answer are failed ops and are charged the cap.

Times are reported at a fixed reference speed: a fixed piece of pure-Python
work is timed between ops (see speed_sample), and each op's and each
set-up's wall time is scaled by REF_S over that work's time next to it.
The raw wall-time metrics are printed beside them and kept in the details.

--trace 0 prints the end-to-end metrics; --trace 1 runs the schedule for
half of --seconds, then replays the same ops with each layer's entry
functions wrapped (see tracing.py), and prints per-layer metrics and the
tracing overhead.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Details (every op, digests of every op's output,
probe outcomes, machine info) go to .bench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

OP_CAP_S = 30.0  # per-op time cap, seven times the slowest timed op seen (4.3 s)
SETUPS = 5  # set-ups per run; setup_s is their median
# schedule cycles made at set-up, about what a 20 s run uses; a run that needs
# more makes them between ops (stored cycles are the shortest)
CYCLES = {"chain": 8, "quotient": 7, "klfree": 30, "stored": 20}
# op_tail_s is this percentile in every run of a workload, so that a faster
# program, which fits more ops into a run, is measured at the same percentile.
# Each has at least ten ops beyond it in the fewest ops a 20 s run made (chain
# 100, quotient 95, klfree 150, stored 400).  A workload's cycle is a fixed mix
# of templates whose costs form groups, and a percentile on the border of two
# groups jumps between them from run to run (quotient p89-p90: IQR 0.13-0.16 of
# the median over ten runs), so each is the middle of a range of percentiles
# whose values were steady over ten runs (IQR 0.02-0.07).  A run with too few
# ops falls back to the highest percentile it has.
TAIL_PCT = {"chain": 86, "quotient": 82, "klfree": 92, "stored": 95}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def load_program():
    """Import hdecomp from the checkout's own src, never from elsewhere."""
    if not (SRC / "hdecomp" / "cli.py").is_file():
        sys.exit(f"error: {SRC}/hdecomp not found; run from the root of an hdecomp checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hdecomp

    if Path(hdecomp.__file__).resolve().parent != (SRC / "hdecomp").resolve():
        sys.exit(f"error: imported hdecomp from {hdecomp.__file__}, not from {SRC}")


def run_cli(argv: list[str]):
    """One CLI call: (seconds, exit code or None, error type or None, stdout)."""
    from hdecomp import cli

    out, err = io.StringIO(), io.StringIO()
    code = error = None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = "Timeout"
    except Exception as e:  # a failed op is recorded, the run goes on
        error = type(e).__name__
    elapsed = time.perf_counter() - start
    return elapsed, code, error, out.getvalue()


def op_digest(op, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    if op.out is not None and op.out.exists():
        h.update(op.out.read_bytes())
    return h.hexdigest()


def execute(op, index: int) -> dict:
    from check import check, exit_ok

    elapsed, code, error, stdout = run_cli(op.argv)
    if error is None and not exit_ok(op, code):
        error = f"exit{code}"
    wrong = check(op, stdout) if error is None else None
    return {
        "i": index,
        "label": op.label,
        "seconds": elapsed,
        "exit": code,
        "error": error,
        "wrong": wrong,
        "digest": op_digest(op, stdout),
    }


# -- machine speed ---------------------------------------------------------------
# On the 2-vCPU VM this benchmark was tuned on, speed swings by 1.5-2x in
# phases of a few seconds: over four minutes, the median time of one fixed op
# over 20 s windows had an IQR of 0.18-0.25 of its median (max/min 1.7-1.8),
# more than any useful bound.  Divided by the time of the reference work below,
# run between ops, the same windows had an IQR of 0.03 (max/min 1.13).  So each
# time metric is the wall time scaled to the speed at which that work takes
# REF_S seconds.  The reference work runs no hdecomp code, so a change to the
# program moves the scaled times as it moves the wall times.

_REF_ADJ = [sorted({(v * 7 + 3) % 400, (v * 13 + 5) % 400, (v + 1) % 400, (v - 1) % 400} - {v}) for v in range(400)]
REF_S = 0.005  # about the reference work's median time on a 2-vCPU VM


def speed_sample() -> float:
    """Wall seconds for the reference work: breadth-first searches over a
    fixed graph, the same kind of work (sets, lists, dicts) as hdecomp's."""
    start = time.perf_counter()
    for s in range(30):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for w in _REF_ADJ[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    return time.perf_counter() - start


def scale(records: list[dict], refs: list[float]) -> None:
    """Record i ran between reference samples refs[i] and refs[i+1].  Its
    reference time is the median of the six samples nearest to it (one
    sample alone is often off by a preemption), its scaled time is its wall
    time at reference speed, and a failed op is charged the cap."""
    for i, r in enumerate(records):
        r["ref_sample_s"] = refs[i]
        r["ref_s"] = statistics.median(refs[max(0, i - 2) : i + 4])
        r["scaled_s"] = r["seconds"] * REF_S / r["ref_s"]
        r["charged_s"] = r["scaled_s"] if r["error"] is None and r["wrong"] is None else OP_CAP_S


# -- set-up ------------------------------------------------------------------


def time_import() -> float:
    """Seconds for a fresh interpreter to import the CLI, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hdecomp.cli"], env=env, check=True, cwd=ROOT)
    return time.perf_counter() - start


def setup(workload: str, seed: int, root: Path):
    """Generate the run's inputs (and, for stored, write the decompositions)
    into `root`.  Returns (schedule, probes, seconds, import seconds)."""
    import workloads as W

    start = time.perf_counter()
    imp = time_import()
    files = W.Files(root)
    if workload == "stored":

        def decompose(argv):
            _, code, error, _ = run_cli(argv)
            return code if error is None else 1

        make_cycle = W.stored_cycle_maker(seed, files, W.stored_bases(seed, files, decompose))
    else:
        make_cycle = W.cycle_maker(workload, seed, files)
    schedule = W.Schedule(make_cycle, CYCLES[workload])
    probes = W.build_probes(workload, seed, files)
    return schedule, probes, time.perf_counter() - start, imp


# -- metrics -----------------------------------------------------------------


def tail(times: list[float], pct: int) -> tuple[float, int]:
    """The value at percentile `pct` (nearest rank), or at the highest lower
    whole percentile with at least ten ops beyond it if `pct` has fewer, and
    that percentile.  Fewer than 11 ops: the maximum, as percentile 100."""
    xs = sorted(times)
    n = len(xs)
    for p in range(pct, 0, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], p
    return xs[-1], 100


def end_to_end(charged: list[float], ok: int, setup_times: list[float], tail_pct: int) -> tuple[dict, int]:
    """The end-to-end metrics from each op's charged time, and which
    percentile op_tail_s is."""
    tail_s, pct = tail(charged, tail_pct)
    metrics = {
        "op_p50_s": (statistics.median(charged), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (ok / sum(charged), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, pct


def failures(records: list[dict]) -> dict:
    failed = [r for r in records if r["error"] is not None or r["wrong"] is not None]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records) if records else 0.0,
        "by_type": dict(Counter(r["error"] or "WrongAnswer" for r in failed)),
    }


def machine_info() -> dict:
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    import numpy

    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "recursion_limit": sys.getrecursionlimit(),
        "platform": platform.platform(),
    }


# -- the run -----------------------------------------------------------------


def timed_loop(cycles, seconds: float = math.inf, tracer=None) -> list[dict]:
    """Whole cycles of ops, one op at a time, until `seconds` have passed,
    with a reference sample before the first op and after each op."""
    records, refs = [], [speed_sample()]
    start = time.perf_counter()
    for ops in cycles:
        if time.perf_counter() - start >= seconds:
            break
        for op in ops:
            if tracer is not None:
                tracer.op = len(records)
            records.append(execute(op, len(records)))
            refs.append(speed_sample())
    scale(records, refs)
    return records


def fmt_metrics(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("chain", "quotient", "klfree", "stored"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> int:
    load_program()
    signal.signal(signal.SIGALRM, _alarm)
    OUT.mkdir(exist_ok=True)
    setup_times, setup_wall, import_times = [], [], []
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        for rep in range(SETUPS if args.trace == 0 else 1):
            schedule = probes = None  # each set-up starts from the same state
            gc.collect()
            refs = [speed_sample() for _ in range(3)]
            schedule, probes, took, imp = setup(args.workload, args.seed, work / str(rep))
            refs += [speed_sample() for _ in range(3)]
            setup_times.append(took * REF_S / statistics.median(refs))
            setup_wall.append(took)
            import_times.append(imp)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine_info(),
            "op_cap_s": OP_CAP_S,
            "ref_s": REF_S,
            "setup_s_each": setup_times,
            "setup_wall_s_each": setup_wall,
            "import_s_each": import_times,
        }
        # keep the benchmark's own objects out of the collector's scans during
        # the ops, as in a CLI process that holds only its own
        gc.collect()
        gc.freeze()
        if args.trace == 0:
            records = timed_loop(schedule, args.seconds)
            ok = [r["error"] is None and r["wrong"] is None for r in records]
            pct = TAIL_PCT[args.workload]
            metrics, detail["op_tail_percentile"] = end_to_end([r["charged_s"] for r in records], sum(ok), setup_times, pct)
            wall_charged = [r["seconds"] if k else OP_CAP_S for r, k in zip(records, ok)]
            wall, _ = end_to_end(wall_charged, sum(ok), setup_wall, pct)
            detail["wall_metrics"] = fmt_metrics(wall)
            probe_records = [execute(op, i) for i, op in enumerate(probes)]
            for rec, op in zip(probe_records, probes):
                rec["expected_error"] = op.expect_error
            detail["timed"] = failures(records)
            detail["known_defects"] = failures(probe_records)
            detail["all_ops"] = failures(records + probe_records)
            detail["probes"] = probe_records
        else:
            from tracing import Tracer, layer_metrics

            # the untraced pass first, for half the time, then the same ops traced
            plain = timed_loop(schedule, args.seconds / 2)
            ops = schedule.ops()[: len(plain)]
            tracer = Tracer()
            tracer.install()
            try:
                records = timed_loop([ops], tracer=tracer)
            finally:
                tracer.uninstall()
            traced_s = sum(r["scaled_s"] for r in records)
            plain_s = sum(r["scaled_s"] for r in plain)
            factors = [REF_S / r["ref_s"] for r in records]
            metrics = layer_metrics(tracer, [r["exit"] for r in records], factors, traced_s / plain_s - 1.0)
            tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json.gz")
            detail["timed"] = failures(records)
            detail["untraced"] = failures(plain)
            detail["untraced_s"] = plain_s
            detail["traced_s"] = traced_s
            detail["untraced_records"] = plain
        detail["ops"] = len(records)
        detail["digest_all"] = hashlib.sha256("".join(r["digest"] for r in records).encode()).hexdigest()
        detail["records"] = records
        detail["metrics"] = fmt_metrics(metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    stem.with_suffix(".digests").write_text("".join(f"{r['i']} {r['label']} {r['digest']}\n" for r in records))

    wrong = [r for r in records + detail.get("untraced_records", []) if r["wrong"] is not None]
    wall = detail.get("wall_metrics", {})
    for name, (value, unit) in metrics.items():
        raw = f"  (wall time {wall[name]['value']:.6g})" if name in wall and wall[name]["value"] != value else ""
        print(f"{args.workload:9} {name:34} {value:14.6g} {unit}{raw}")
    if args.trace == 0:
        t, k, a = detail["timed"], detail["known_defects"], detail["all_ops"]
        print(f"{args.workload:9} op_tail_s is p{detail['op_tail_percentile']} of {len(records)} ops")
        print(f"{args.workload:9} {'failed_frac':34} {t['failed_frac']:14.6g} ratio  timed ops {t['failed']}/{t['attempted']} {t['by_type']}")
        print(
            f"{args.workload:9} {'failed_frac_with_probes':34} {a['failed_frac']:14.6g} ratio  "
            f"known-defect probes {k['failed']}/{k['attempted']} {k['by_type']}"
        )
    for r in wrong:
        print(f"WRONG ANSWER op {r['i']} {r['label']}: {r['wrong']}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": detail["timed"]["failed"],
        "metrics": fmt_metrics(metrics),
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
