"""froblab benchmark: time to verdict on four workloads, per-layer counters
from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports froblab from `src/` there and
refuses to run without it. The run is a closed loop on one thread: it makes a
fixed number of passes over the workload's items (about `--seconds` of work on
a 2-core x86 host), one after another, each pass in a fresh interpreter so
that nothing cached by one pass can speed up the next. Every verdict is
checked against perfbench/answers.py and every pass's JSON report stream
against perfbench/digests.json.

The last line is the result. With `--trace 0` its metrics are medians over
the passes: the pass time (the sum of its item times) and the set-up time
(imports and building the inputs), both scaled to a reference host speed
(see REFERENCE_LOOP_S), and the peak resident memory. With `--trace 1` the
passes alternate between untraced and traced and its metrics are the
per-layer ones of perfbench/tracing.py, unscaled. The line before it holds
the run metadata: git sha, Python version, nproc, the raw pass and set-up
times, the host-speed loop, per-item median and tail times with their item
count, and under `--trace 1` the tracing overhead.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("determinantal", "sweep", "thresholds", "script")

# Seconds of one untraced pass on the host the benchmark was written on. The
# pass count follows from these and --seconds alone, so every run of a
# workload has the same number of samples.
NOMINAL_PASS_S = {"determinantal": 5.0, "sweep": 3.3, "thresholds": 4.0, "script": 2.2}
MIN_PASSES = 3
# The host's speed swings up to twofold within a minute, and the pass times
# swing with it (CPU time tracks wall time, so it is the host, not
# scheduling). Each pass therefore samples host_loop_s between items, at
# least SAMPLE_EVERY_S apart, and the gated times are scaled to the speed at
# which the loop takes REFERENCE_LOOP_S, its time on a quiet 2-core x86 host.
# Over eight seeds this cut the spread of sweep pass times from 0.105 to 0.018
# (0.071 with a plain integer loop). The raw times stay in the run metadata.
HOST_LOOP_N = 4_000
REFERENCE_LOOP_S = 0.0051
SAMPLE_EVERY_S = 0.25
# numpy's BLAS starts a thread pool on import; one thread keeps the run on a
# single thread and narrowed the spread of set-up times.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TIME_LIMIT_S = 170  # stop starting passes when the next one would pass this
TAIL_BEYOND = 10

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}  # medians over the plain passes


def import_froblab():
    """Import froblab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "froblab" / "__init__.py").is_file():
        raise ImportError(f"no froblab sources under {src}")
    sys.path.insert(0, str(src))
    import froblab

    if Path(froblab.__file__).resolve().parent != src / "froblab":
        raise ImportError(f"froblab imported from {froblab.__file__}, not from {src}")
    return froblab


def host_loop_s():
    """Host speed: a fixed pure-Python loop that never touches froblab but is
    shaped like its reduction loop (exponent-tuple sums, dict updates)."""
    start = time.perf_counter()
    work = {}
    base = (1, 2, 3, 4)
    for i in range(HOST_LOOP_N):
        m = tuple(x + y for x, y in zip(base, (i & 7, i & 3, i & 1, 0)))
        work[m] = (work.get(m, 0) + i) % 101
    return time.perf_counter() - start


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- one pass (worker process) ----------------------------------------------


def run_pass(workload, seed, traced=False, tiny=False):
    """Build the inputs and run every item once; returns the pass record."""
    import tracing
    import workloads

    spec = workloads.WORKLOADS[workload]
    items = spec.items(spec.build(seed, tiny))
    setup_s = time.perf_counter() - STARTED
    tracer = tracing.Tracer().install() if traced else None
    times, results, errors = [], [], []
    loops = [host_loop_s()]
    sampled = time.perf_counter()
    try:
        for item in items:
            if time.perf_counter() - sampled >= SAMPLE_EVERY_S:
                loops.append(host_loop_s())
                sampled = time.perf_counter()
            t0 = time.perf_counter()
            try:
                results.append(item.call())
                errors.append(None)
            except Exception as exc:  # a failed item is reported, never fatal
                results.append(None)
                errors.append(f"{item.label}: raised {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t0)
        loops.append(host_loop_s())
    finally:
        if tracer:
            tracer.restore()
    lines, problems, failed = [], [], 0
    for item, result, error in zip(items, results, errors):
        found = [error] if error else []
        if not error:
            item_lines, found = item.check(result)
            lines.extend(item_lines)
        failed += bool(found)
        problems.extend(found)
    return {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "loop_s": statistics.mean(loops),
        "item_s": times,
        "attempted": len(items),
        "failed": failed,
        "problems": problems,
        "reports": len(lines),
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": tracer.metrics() if tracer else None,
    }


# --- the run (parent process) -----------------------------------------------


def spawn_pass(args, traced, timeout):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--pass", "traced" if traced else "plain"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
                              env=dict(os.environ, **SINGLE_THREADED))
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {timeout:.0f} s"}
    if done.returncode != 0 or not done.stdout.strip():
        return {"error": f"pass exited {done.returncode}: {done.stderr.strip()[-400:]}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def plan_passes(workload, seconds, trace):
    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    if trace:  # alternate plain and traced; a traced pass costs about two plain ones
        pairs = max(2, round(passes / 3))
        return [False, True] * pairs
    return [False] * passes


def at_reference(record, key):
    """A pass's time scaled to the reference host speed."""
    return record[key] * REFERENCE_LOOP_S / record["loop_s"]


def pooled_item_times(passes):
    """Every item run of the passes, each timed as the median of that item's
    times over the passes: one noisy sample cannot become the tail."""
    if not passes:
        return []
    per_item = [statistics.median(ts) for ts in zip(*(p["item_s"] for p in passes))]
    return per_item * len(passes)


def tail(values):
    """Highest percentile with at least TAIL_BEYOND items beyond it."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run(args):
    import workloads

    cls = args.seed % workloads.SEED_CLASSES
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {}).get(str(cls))
    plan = plan_passes(args.workload, args.seconds, args.trace)
    passes, problems = [], []
    for traced in plan:
        elapsed = time.perf_counter() - STARTED
        longest = max((p["seconds"] for p in passes), default=0.0)
        if passes and elapsed + longest > TIME_LIMIT_S:
            problems.append(f"stopped after {len(passes)} of {len(plan)} passes at the time limit")
            break
        t0 = time.perf_counter()
        record = spawn_pass(args, traced, TIME_LIMIT_S + 5 - elapsed)
        record.update(traced=traced, seconds=time.perf_counter() - t0)
        passes.append(record)
    problems += [p["error"] for p in passes if "error" in p]
    done = [p for p in passes if "error" not in p]
    for p in done:
        problems += p["problems"][:20]
    digests = {p["digest"] for p in done}
    if recorded is None:
        problems.append(f"no recorded digest for seed class {cls}")
    elif digests - {recorded}:
        problems.append(f"report stream digest {sorted(digests)} differs from recorded {recorded}")
    plain = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    layer_counts = {
        json.dumps({k: v for k, v in p["layers"].items() if not isinstance(v, float)}, sort_keys=True)
        for p in traced
    }
    if len(layer_counts) > 1:
        problems.append("traced passes disagree on their counters")

    attempted = sum(p["attempted"] for p in done) or 1
    failed = sum(p["failed"] for p in done) + len(passes) - len(done)
    item_s = pooled_item_times(plain)
    tail_s, tail_pct = tail(item_s) if item_s else (None, None)
    # per-item percentiles spread more between seeds than the largest bound
    # allows on a drifting host, so they are recorded here and not gated
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_class": cls,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(done),
        "pass_wall_s": [round(p["wall_s"], 4) for p in done],
        "pass_setup_s": [round(p["setup_s"], 4) for p in done],
        "pass_host_loop_s": [round(p["loop_s"], 6) for p in done],
        "items_per_pass": done[0]["attempted"] if done else 0,
        "reports_per_pass": done[0]["reports"] if done else 0,
        "item_count": len(item_s),
        "item_p50_s": statistics.median(item_s) if item_s else None,
        "item_tail_s": tail_s,
        "item_tail_percentile": tail_pct,
        "failed_frac": failed / attempted,
        "digest": sorted(digests),
        "problems": problems[:20],
    }
    if args.trace and plain and traced:
        meta["tracing_overhead"] = (
            statistics.median(at_reference(p, "wall_s") for p in traced)
            / statistics.median(at_reference(p, "wall_s") for p in plain) - 1
        )
    print(json.dumps({"meta": meta}, sort_keys=True))

    if args.trace:
        import tracing

        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            values = [p["layers"][name] for p in traced] or [None]
            # counts repeat exactly across traced passes (checked above)
            value = values[0] if unit == "count" else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
    else:
        def median(value):
            return statistics.median(value(p) for p in plain) if plain else None

        values = {
            "wall_s": median(lambda p: at_reference(p, "wall_s")),
            "setup_s": median(lambda p: at_reference(p, "setup_s")),
            "peak_rss_mb": median(lambda p: p["rss_mb"]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = not problems and failed == 0 and bool(done)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="one_pass", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)  # internal: run one pass and print it
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        import_froblab()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.one_pass:
        record = run_pass(args.workload, args.seed, traced=args.one_pass == "traced")
        print(json.dumps(record))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
