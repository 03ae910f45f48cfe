"""One benchmark process, started by run.py in a fresh interpreter.

    python3 -I perfbench/child.py '<request JSON>'

The request's "mode" is "probe" (start and import only), "cli" (one
`tameapprox` command through `cli.main`) or "sweep" (the warm certify sweep).
The process prints one JSON object on standard output. Each cold operation
gets a process of its own because tameapprox caches groups, modules and their
H^1 for the life of the process.
"""

import io
import json
import os
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The sweep's parameter families (ell, n) and the warm-up certificate of each.
FAMILIES = ((2, 1), (2, 2), (3, 1))
WARMUP = ((2, 1, 3), (2, 2, 5), (3, 1, 7))

SWEEP_WINDOW = 15  # a sweep pass is scaled by this many latest probes

# Timed p stay below 2**32: certify searches q below 2**32, so p*q stays
# within the 2**64 that is_prime accepts. Above that, certify(2, 1, p) raises
# (the large-p defect); DEFECT_PROBES certificates with p drawn from
# DEFECT_BITS count it, untimed, after the timed sweep.
SWEEP_BITS = 31
DEFECT_BITS = (60, 63)
DEFECT_PROBES = 20


def log_uniform_p(rng, ell, n, low_bits, high_bits, find_p):
    return find_p(ell, n, start=max(2, int(2 ** rng.uniform(low_bits, high_bits))))


def param_stream(seed, index, find_p):
    """Passes of (ell, n, p), one per family in seeded order.

    Each p is find_p's answer from a start drawn log-uniformly up to
    2**SWEEP_BITS.
    """
    rng = random.Random(f"sweep-warm:{seed}:{index}")
    while True:
        yield [(ell, n, log_uniform_p(rng, ell, n, 1, SWEEP_BITS, find_p))
               for ell, n in rng.sample(FAMILIES, len(FAMILIES))]


def large_p_defect(tameapprox, seed):
    """certify(2, 1, p) for DEFECT_PROBES seeded p in DEFECT_BITS, untimed.

    Returns how many raised, by exception type; the same seed gives the same
    p, so the same count.
    """
    rng = random.Random(f"large-p-defect:{seed}")
    raised = {}
    for _ in range(DEFECT_PROBES):
        _, error = attempt_certify(tameapprox, 2, 1,
                                   log_uniform_p(rng, 2, 1, *DEFECT_BITS, tameapprox.find_p))
        if error:
            kind = error.split(":", 1)[0]
            raised[kind] = raised.get(kind, 0) + 1
    return {"certificates": DEFECT_PROBES, "p_bits": list(DEFECT_BITS),
            "raised": sum(raised.values()), "by_type": raised}


def run_cli(tameapprox, argv, tracer, speed, trace):
    """One CLI command, timed in CPU seconds with speed probes taken during it."""
    sampler = speed.Sampler()
    spans = tracer.Tracer(clock=sampler.clock) if trace else None
    if spans is not None:
        spans.install()
    out = io.StringIO()
    wall = time.perf_counter()
    with sampler, redirect_stdout(out):
        start = sampler.clock()
        status = tameapprox.cli.main(argv)
        cpu = sampler.clock() - start
    return {"status": status, "cpu_s": cpu, "probes": sampler.times,
            "wall_s": time.perf_counter() - wall, "output": out.getvalue(),
            "stats": spans and spans.stats}


def attempt_certify(tameapprox, ell, n, p):
    try:
        return tameapprox.certify(ell, n, p), None
    except Exception as exc:  # a failed op is recorded, and the sweep goes on
        return None, f"{type(exc).__name__}: {exc}"


def certify_op(tameapprox, reference, name, ell, n, p, traced):
    """One in-process certificate, timed in CPU seconds and checked.

    Its outcome is "ok", "wrong: <problems>" or "error: <exception>".
    """
    cpu, wall = time.thread_time(), time.perf_counter()
    cert, error = attempt_certify(tameapprox, ell, n, p)
    cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
    if error:
        outcome = "error: " + error
    else:
        problems = reference.check_certificate(cert.to_json_dict(), ell)
        outcome = ("wrong: " + "; ".join(problems)) if problems else "ok"
    return {"name": name, "p": p, "cpu_s": cpu, "wall_s": wall,
            "outcome": outcome, "traced": traced}


def run_sweep(tameapprox, request, tracer, speed):
    import reference

    warmup = [dict(certify_op(tameapprox, reference, f"certify({ell},{n},{p})",
                              ell, n, p, False), warmup=True)
              for ell, n, p in WARMUP]
    ready = time.thread_time()

    stream = param_stream(request["seed"], request["index"], tameapprox.find_p)
    traced_passes = [next(stream) for _ in range(request["trace_passes"])]
    spans = None
    if traced_passes:
        spans = tracer.Tracer()
        spans.install()
    stats = None
    ops, passes, traced_scales, kernel_times = [], [], [], []
    last_wall = 0.0
    while True:
        began = time.monotonic()
        if traced_passes:
            params, traced = traced_passes.pop(0), True
        else:
            if spans is not None:
                spans.uninstall()
                stats, spans = spans.stats, None
                tracer.scale_times(stats, statistics.median(traced_scales))
            if any(not t for _, t in passes) and began + last_wall > request["deadline"]:
                break
            params, traced = next(stream), False
        pass_ops = [certify_op(tameapprox, reference, f"certify({ell},{n},p)",
                               ell, n, p, traced)
                    for ell, n, p in params]
        kernel_times.append(speed.kernel_time())
        scale = speed.scale(kernel_times[-SWEEP_WINDOW:])
        if traced:
            traced_scales.append(scale)
        for op in pass_ops:
            op["op_s"] = op["cpu_s"] * scale
        ops += pass_ops
        passes.append((sum(op["op_s"] for op in pass_ops), traced))
        last_wall = time.monotonic() - began
    defect = large_p_defect(tameapprox, request["seed"]) if request["index"] == 0 else None
    return {"ready": ready, "warmup": warmup, "ops": ops, "passes": passes, "stats": stats,
            "scale": speed.scale(kernel_times), "large_p_defect": defect}


def main():
    request = json.loads(sys.argv[1])
    sys.path[:0] = [SRC, HERE]
    import tameapprox
    import tameapprox.cli

    result = {"ready": time.thread_time()}
    if os.path.dirname(os.path.abspath(tameapprox.__file__)) != os.path.join(SRC, "tameapprox"):
        sys.exit(f"imported tameapprox from {tameapprox.__file__}, not from {SRC}")
    import speed
    import tracer

    mode = request["mode"]
    if mode == "sweep":
        result.update(run_sweep(tameapprox, request, tracer, speed))
    elif mode == "cli":
        result.update(run_cli(tameapprox, request["argv"], tracer, speed, request["trace"]))
    elif mode != "probe":
        sys.exit(f"unknown mode {mode!r}")
    result["pid"] = os.getpid()
    result["version"] = tameapprox.__version__
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
