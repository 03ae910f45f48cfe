"""The tameapprox benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload certify-cold --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json, measured untraced; with `--trace 1` they
are its per-layer metrics. NOTES.md gives the workloads, the metrics and the
end-to-end metric each layer metric should move.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import reference
import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 9  # import-only children per cold run, so setup_s always has samples
SWEEP_WORKERS = 3  # sweep-warm sets up this many workers in turn, one at a time
TRACE_PASSES = 100  # sweep-warm passes traced in a --trace 1 run
RUN_CAP_S = 170  # a run stops waiting on children after this; the limit is 180 s
PROBES_PER_CHILD = 5  # speed probes the parent runs before starting each cold child


def certify_op(ell, n, p):
    def check(status, output):
        problems = [] if status == 0 else [f"exit status {status}"]
        if output.encode() != reference.golden_certificate(ell, n, p):
            problems.append("canonical JSON differs from the golden file")
        try:
            report = json.loads(output)
        except ValueError:
            return problems + ["output is not JSON"]
        return problems + reference.check_certificate(report, ell)

    return f"certify({ell},{n},{p})", reference.certify_argv(ell, n, p), check


def sha_cyc_op(group, order, exponent):
    expected = reference.sha_cyc_expected(order, exponent)

    def check(status, output):
        problems = [] if status == 0 else [f"exit status {status}"]
        try:
            structure = json.loads(output)["structure"]
        except (ValueError, KeyError):
            return problems + ["output has no JSON structure"]
        if structure != expected:
            problems.append(f"Sha^1_cyc = {structure}, expected {expected}")
        return problems

    return f"sha-cyc {group}", ["sha-cyc", "--group", f"builtin:{group}", "--module", "aug"], check


# Cold workloads: each op runs in a fresh interpreter; a pass runs every op
# once, in an order shuffled by the seed.
COLD = {
    "certify-cold": (certify_op(2, 1, 3), certify_op(2, 2, 5), certify_op(3, 1, 7)),
    "ladder-small": (sha_cyc_op("z8", 8, 8), sha_cyc_op("q8", 8, 4),
                     sha_cyc_op("z3xz3", 9, 3), sha_cyc_op("z2xz2xz2", 8, 2)),
    "ladder-g16": (sha_cyc_op("zlxzln:2:3", 16, 8),),
}
WORKLOADS = tuple(COLD) + ("sweep-warm",)


def spawn(request, run_start):
    """Run child.py on `request`; returns (result dict or None, error or None)."""
    timeout = max(1.0, RUN_CAP_S - (time.monotonic() - run_start))
    try:
        proc = subprocess.run([sys.executable, "-I", CHILD, json.dumps(request)],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, f"timeout after {timeout:.0f} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [""]
        return None, f"exit {proc.returncode}: {lines[-1]}"
    return json.loads(proc.stdout), None


def run_cold(ops, seed, seconds, trace):
    """Cold passes, each op in its own child.

    The parent runs a batch of speed probes before each child and after the
    last one, and each child probes while its op runs; an op's CPU time is
    scaled by its own probes and those on either side of its child.
    """
    rng = random.Random(seed)
    start = time.monotonic()
    out = {"ops": [], "passes": [], "setups": [], "raw_setups": [], "rss_kb": [],
           "pids": [], "stats": {}}
    batches = []  # batches[i]: the probe times taken just before child i
    setups = []  # (child index, raw set-up seconds)

    def child(request):
        batches.append([speed.kernel_time() for _ in range(PROBES_PER_CHILD)])
        result, error = spawn(request, start)
        if result is not None:
            setups.append((len(batches) - 1, result["ready"]))
            out["rss_kb"].append(result["maxrss_kb"])
            out["pids"].append(result["pid"])
            out["version"] = result["version"]
        return result, error

    for _ in range(SETUP_PROBES):
        _, error = child({"mode": "probe"})
        if error:
            sys.exit(f"set-up probe failed: {error}")

    passes = []  # the op records of each pass
    last_wall = 0.0
    while True:
        began = time.monotonic()
        untraced_done = any(not ops_of_pass[0]["traced"] for ops_of_pass in passes)
        if untraced_done and began + last_wall > start + seconds:
            break
        traced = bool(trace) and not passes
        passes.append([])
        for name, argv, check in rng.sample(ops, len(ops)):
            result, error = child({"mode": "cli", "argv": argv, "trace": traced})
            op = {"name": name, "traced": traced, "child": len(batches) - 1}
            if error:
                op["outcome"] = "error: " + error
            else:
                problems = check(result["status"], result["output"])
                op.update(cpu_s=result["cpu_s"], wall_s=result["wall_s"], pid=result["pid"],
                          probes=result["probes"],
                          outcome=("wrong: " + "; ".join(problems)) if problems else "ok")
                if traced:
                    spans = result["stats"]
                    tracer.scale_times(spans, speed.scale(batches[-1] + result["probes"]))
                    tracer.merge(out["stats"], spans)
            out["ops"].append(op)
            passes[-1].append(op)
        last_wall = time.monotonic() - began
    batches.append([speed.kernel_time() for _ in range(PROBES_PER_CHILD)])

    def scale_of(i, probes=()):
        return speed.scale(batches[i] + batches[i + 1] + list(probes))

    for op in out["ops"]:
        if "cpu_s" in op:
            op["op_s"] = op["cpu_s"] * scale_of(op["child"], op["probes"])
    out["passes"] = [(sum(op.get("op_s", 0.0) for op in ops_of_pass), ops_of_pass[0]["traced"])
                     for ops_of_pass in passes]
    out["raw_setups"] = [raw for _, raw in setups]
    out["setups"] = [raw * scale_of(i) for i, raw in setups]
    return out


def run_sweep(seed, seconds, trace):
    start = time.monotonic()
    out = {"ops": [], "passes": [], "setups": [], "raw_setups": [], "rss_kb": [],
           "pids": [], "stats": {}}
    for index in range(SWEEP_WORKERS):
        request = {"mode": "sweep", "seed": seed, "index": index,
                   "deadline": start + seconds * (index + 1) / SWEEP_WORKERS,
                   "trace_passes": TRACE_PASSES if trace and index == 0 else 0}
        result, error = spawn(request, start)
        if error:
            sys.exit(f"sweep worker {index} failed: {error}")
        out["raw_setups"].append(result["ready"])
        out["setups"].append(result["ready"] * result["scale"])
        out["rss_kb"].append(result["maxrss_kb"])
        out["pids"].append(result["pid"])
        out["version"] = result["version"]
        out["ops"] += result["warmup"] + result["ops"]
        if result["large_p_defect"]:
            out["large_p_defect"] = result["large_p_defect"]
        out["passes"] += [tuple(p) for p in result["passes"]]
        if result["stats"]:
            tracer.merge(out["stats"], result["stats"])
    return out


def percentile(values, q):
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    xs = sorted(values)
    k = (len(xs) - 1) * q
    i = int(k)
    if i + 1 >= len(xs):
        return xs[-1]
    return xs[i] + (xs[i + 1] - xs[i]) * (k - i)


def timed_ops(out, traced):
    return [op for op in out["ops"]
            if op["traced"] == traced and not op.get("warmup") and "op_s" in op]


def end_to_end(out):
    """End-to-end values and their sample counts, from the untraced passes."""
    ops = timed_ops(out, False)
    times = [op["op_s"] for op in ops]
    passes = [p for p, traced in out["passes"] if not traced]
    if not times or not passes:
        sys.exit("no untraced operation completed")
    ok = sum(op["outcome"] == "ok" for op in ops)
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op["name"], []).append(op["op_s"])
    kind_medians = {name: statistics.median(v) for name, v in sorted(by_kind.items())}
    values = {
        "setup_s": statistics.median(out["setups"]),
        "pass_s": statistics.median(passes),
        "op_med_ms": 1e3 * statistics.geometric_mean(kind_medians.values()),
        "op_p90_ms": 1e3 * percentile(times, 0.90),
        "ops_per_s": ok / sum(times),
        "peak_rss_mb": max(out["rss_kb"]) / 1024,
        "ok_ratio": sum(op["outcome"] == "ok" for op in out["ops"]) / len(out["ops"]),
    }
    samples = {"setup_s": len(out["setups"]), "pass_s": len(passes),
               "op_med_ms": len(times), "op_p90_ms": len(times), "ops_per_s": len(times),
               "peak_rss_mb": len(out["rss_kb"]), "ok_ratio": len(out["ops"])}
    details = {"op_kind_median_ms": {name: 1e3 * m for name, m in kind_medians.items()},
               "op_p50_ms": 1e3 * percentile(times, 0.50),
               "op_p95_ms": 1e3 * percentile(times, 0.95),
               "op_p99_ms": 1e3 * percentile(times, 0.99)}
    return values, samples, details


def per_layer(out):
    """Per-layer values from the traced work, plus the tracing overhead."""
    values = tracer.layer_values(out["stats"])
    traced = [p for p, t in out["passes"] if t]
    untraced = [p for p, t in out["passes"] if not t]
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.untraced_pass_s"] = statistics.median(untraced)
    values["trace.overhead"] = values["trace.pass_s"] / values["trace.untraced_pass_s"] - 1
    samples = {"traced_passes": len(traced), "untraced_passes": len(untraced),
               "traced_ops": len(timed_ops(out, True))}
    return values, samples, {}


def git_commit():
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tameapprox", "__init__.py")):
        print(f"error: no tameapprox package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # One CPU for this process, its speed probes and every child it starts, so
    # that the probes see the CPU the measured work runs on.
    nproc = len(os.sched_getaffinity(0))
    cpu_used = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu_used})

    if args.workload in COLD:
        out = run_cold(COLD[args.workload], args.seed, args.seconds, args.trace)
    else:
        out = run_sweep(args.seed, args.seconds, args.trace)

    if args.trace:
        values, samples, details = per_layer(out)
        wanted = spec["per_layer"]
    else:
        values, samples, details = end_to_end(out)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    failures = {}
    for op in out["ops"]:
        if op["outcome"] != "ok":
            failures[op["outcome"]] = failures.get(op["outcome"], 0) + 1
    attempted = len(out["ops"])
    failed = sum(failures.values())
    timed = [op for op in out["ops"] if "op_s" in op]
    cpu = sum(op["cpu_s"] for op in timed)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "python": sys.version.split()[0],
        "nproc": nproc, "cpu": cpu_used, "tameapprox": out["version"], "samples": samples, **details,
        "failed_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "failures": failures, "large_p_defect": out.get("large_p_defect"),
        "processes": len(set(out["pids"])),
        "cpu_s": cpu, "scale": sum(op["op_s"] for op in timed) / cpu,
        "wall_over_cpu": sum(op["wall_s"] for op in timed) / cpu,
        "raw_setup_s": statistics.median(out["raw_setups"]),
    }
    for name, metric in metrics.items():
        print(f"{name:48} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not any(op["outcome"].startswith("wrong") for op in out["ops"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
