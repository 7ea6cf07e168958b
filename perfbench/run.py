"""The jumploci benchmark: one workload, oracle-checked, end to end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports jumploci from
``src/`` and writes only under ``.perfbench_runs/``.  Each item drives the
user-facing CLI in process (``jumploci.cli.main(argv)`` with stdout
captured) on a file generated from the seed, and its ``--json`` output is
judged by an independent oracle (see oracles.py).  The loop is closed, with
one client, one process and no threads: the next item starts when the
previous one has returned.  Nothing queues, so there is no wait-time metric.

The timed phase runs whole passes over the item list until ``--seconds``
have gone by and the workload's fewest passes have run.  With ``--trace 0``
the last line of stdout holds the end-to-end metrics; with ``--trace 1``
every pass is run twice, untraced and then traced, and the last line holds
the per-layer metrics (per pass) and the tracing overhead.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
OUT_DIR = ROOT / ".perfbench_runs"
RUN_BUDGET_S = 170  # a run must end within 180 s, whatever the program does
MEMORY_CAP = 2 << 30  # address space; a blow-up fails its item, not the machine

END_TO_END_UNITS = {
    "setup_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "items_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

KNOWN_GAPS = (
    "known gap: `jumploci charvar FILE --torsion-bound N` exits 2 "
    "('tuple' object has no attribute 'torsion_order'); no workload runs "
    "charvar, so fail_frac = 0 does not mean the CLI never fails",
    "known gap: `jumploci cover` with phi entries drawn from all of Z/N can "
    "run for minutes and past 1.9 GB in smith_with_transforms (C6 RAAG, "
    "--phi=17,72,8,32,15,63 --order 88); cover_oracle draws phi from {-1, 0, 1}",
)
LOOP = "closed loop, 1 client, 1 process, no threads; nothing queues, so there is no wait-time metric"


class RunBudgetExceeded(BaseException):
    """Raised from SIGALRM.  Not an Exception, so the CLI cannot swallow it."""


def _on_alarm(signum, frame):
    raise RunBudgetExceeded()


def cap_memory():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_CAP:
        cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def load_program():
    """Import jumploci from the checkout with fresh module state."""
    for name in [m for m in sys.modules if m == "jumploci" or m.startswith("jumploci.")]:
        del sys.modules[name]
    import jumploci.cli

    where = Path(jumploci.cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit("jumploci was imported from %s, not from this checkout" % where)
    return jumploci.cli


def run_item(cli, item, tracer=None):
    """Run one item through the CLI; returns (exit code, stdout, stderr, wall s)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.item(item["id"]) if tracer else contextlib.nullcontext()
    with span:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(item["argv"]))
        wall = time.perf_counter() - t0
    if tracer:
        wall = span.end - span.start
    return rc, out.getvalue(), err.getvalue(), wall


def warmup_items(items):
    """The distinct warm-up items of a workload, in first-use order."""
    seen = {}
    for it in items:
        seen.setdefault(json.dumps(it["warmup"]["argv"]), it["warmup"])
    return list(seen.values())


def write_if_changed(path, text):
    """Write an input file unless it already holds exactly this text.

    Input directories are kept per workload and seed, so a later run of the
    same seed only reads them back; truncating files on some file systems
    costs far more than generating them.
    """
    try:
        with open(path) as fh:
            if fh.read() == text:
                return
    except FileNotFoundError:
        pass
    with open(path, "w") as fh:
        fh.write(text)


def set_up(workload, seed):
    """Fresh import, input generation and warm-up; returns (cli, items, problems)."""
    cli = load_program()
    items = inputs.make_items(workload, seed)
    warmups = warmup_items(items)
    for it in items + warmups:
        for fname, text in it["files"].items():
            write_if_changed(fname, text)
    problems = []
    for it in warmups:
        rc, out, err, _ = run_item(cli, it)
        problems += ["warm-up %s: %s" % (it["id"], p) for p in check(it, rc, out, err)]
    return cli, items, problems


def check(item, rc, out, err):
    problems = oracles.check_item(item["oracle"], rc, out)
    if problems and err.strip():
        problems.append("stderr: " + err.strip().splitlines()[-1])
    return problems


def run_pass(cli, items, tracer=None):
    """Time every item once; returns (records, pass wall s).

    The outputs are checked after the pass, outside the timed interval.
    """
    t0 = time.perf_counter()
    raw = [run_item(cli, it, tracer) for it in items]
    wall = time.perf_counter() - t0
    records = [
        {"id": it["id"], "rc": rc, "wall_s": w, "stdout": out, "problems": check(it, rc, out, err)}
        for it, (rc, out, err, w) in zip(items, raw)
    ]
    return records, wall


def timed_phase(cli, items, seconds, min_passes, traced):
    """Whole passes until `seconds` have passed and at least `min_passes` ran.

    A traced run alternates an untraced and a traced pass and needs one of
    each.  Returns (untraced passes, traced passes, tracer or None).
    """
    tracer = Tracer() if traced else None
    plain, with_trace = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_pass(cli, items))
        if traced:
            with tracer:
                with_trace.append(run_pass(cli, items, tracer))
        if time.perf_counter() >= deadline and (traced or len(plain) >= min_passes):
            return plain, with_trace, tracer


def tail(samples, base):
    """The tail percentile of `samples`: (value, percentile, sample count).

    The percentile is the highest one with ten samples beyond it among
    `base` samples, the count of the workload's fewest passes; a longer run
    keeps the same percentile and has more than ten samples beyond it.
    """
    xs = sorted(samples)
    pct = 100.0 * (base - 10) / base
    rank = max(1, math.ceil(pct * len(xs) / 100.0 - 1e-9))
    return xs[rank - 1], pct, len(xs)


def digest(first_pass):
    h = hashlib.sha256()
    for rec in first_pass:
        h.update(rec["id"].encode() + b"\0" + rec["stdout"].encode() + b"\0")
    return h.hexdigest()


def determinism_problems(passes):
    """Every later pass must print the same bytes as the first."""
    out = []
    for p in passes[1:]:
        for a, b in zip(passes[0], p):
            if a["stdout"] != b["stdout"]:
                b["problems"].append("output differs from the first pass")
                out.append(b["id"])
    return out


def environment():
    import jumploci

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "HAVE_COMPILED_KERNEL": bool(jumploci.HAVE_COMPILED_KERNEL),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def end_to_end(passes, setup_times, elapsed, min_passes):
    """End-to-end metrics of the untraced passes; elapsed excludes the checks."""
    walls = [r["wall_s"] for p in passes for r in p]
    failed = sum(1 for p in passes for r in p if r["problems"])
    value, pct, n = tail(walls, len(passes[0]) * min_passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "item_p50_s": statistics.median(walls),
        "item_tail_s": value,
        "items_per_s": len(walls) / elapsed,
        "ok_frac": 1.0 - failed / len(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "item_tail_s": "p%.1f of %d samples" % (pct, n),
        "fail_frac": "%g (%d of %d items failed)" % (failed / len(walls), failed, len(walls)),
        "setup_s": "median of %d set-ups: %s" % (len(setup_times), ", ".join("%.3f" % t for t in setup_times)),
    }
    return metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jumploci" / "cli.py").is_file():
        print("error: no jumploci sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    # items name their files relative to this directory, so the --json
    # payloads (which echo the file name) do not depend on where it is
    work = OUT_DIR / "inputs" / ("%s-seed%d" % (args.workload, args.seed))
    work.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    cap_memory()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_BUDGET_S)
    try:
        setup_times, problems = [], []
        for i in range(SETUPS):
            t0 = PROCESS_T0 if i == 0 else time.perf_counter()
            cli, items, probs = set_up(args.workload, args.seed)
            setup_times.append(time.perf_counter() - t0)
            problems += probs
        min_passes = inputs.WORKLOADS[args.workload][1]
        plain, with_trace, tracer = timed_phase(cli, items, args.seconds, min_passes, args.trace)
        env = environment()
    except RunBudgetExceeded:
        print("error: the run did not finish within %d s" % RUN_BUDGET_S, file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        os.chdir(cwd)

    plain_recs = [recs for recs, _ in plain]
    traced_recs = [recs for recs, _ in with_trace]
    nondet = determinism_problems(plain_recs) + determinism_problems(traced_recs)
    records = [r for p in plain_recs + traced_recs for r in p]
    failed = sum(1 for r in records if r["problems"])
    untraced_s = sum(wall for _, wall in plain)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": inputs.DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "loop": LOOP,
        "known_gaps": KNOWN_GAPS,
        "items_per_pass": len(items),
        "passes": len(plain),
        "digest_sha256": digest(plain_recs[0]),
        "setup_times_s": setup_times,
        "items": [[r["id"], r["wall_s"], r["rc"]] for r in records],
    }
    if args.trace:
        traced_s = sum(wall for _, wall in with_trace)
        metrics, units, checks = layers.metrics(tracer, len(with_trace), untraced_s, traced_s)
        result["trace_check"] = checks
        spans_path = OUT_DIR / ("%s-spans.tsv.gz" % tag)
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        if checks["max_self_sum_error_s"] > 1e-6:
            problems.append("span self times do not add up to item wall time")
        notes = {}
    else:
        metrics, notes = end_to_end(plain_recs, setup_times, untraced_s, min_passes)
        units = END_TO_END_UNITS
    result["failures"] = [
        {"id": r["id"], "problems": r["problems"]} for r in records if r["problems"]
    ] + [{"id": "run", "problems": problems}] * bool(problems)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["notes"] = notes
    correct = failed == 0 and not problems and not nondet
    result["correct"] = correct
    results_path = OUT_DIR / ("%s.json" % tag)
    results_path.write_text(json.dumps(result, indent=1) + "\n")

    print("workload %s  seed %d  trace %d  (%s)" % (args.workload, args.seed, args.trace, LOOP))
    print("environment: %s" % json.dumps(env, sort_keys=True))
    print("passes %d x %d items; output digest sha256 %s" % (len(plain), len(items), result["digest_sha256"]))
    for name, m in result["metrics"].items():
        note = notes.get(name)
        print("  %-48s %14.6g %-6s%s" % (name, m["value"], m["unit"], "  " + note if note else ""))
    if not args.trace:
        print("  %-48s %s" % ("fail_frac", notes["fail_frac"]))
    for gap in KNOWN_GAPS:
        print(gap)
    for f in result["failures"]:
        print("FAILED %s: %s" % (f["id"], "; ".join(f["problems"])))
    print("results: %s" % results_path.relative_to(ROOT))
    summary = {"correct": correct, "attempted": len(records), "failed": failed}
    print(json.dumps(dict(summary, metrics=result["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
