"""Benchmark harness for chebylift.

    python3 perfbench/run.py --workload {cauchy,isothermal,surface} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One process with one caller runs the
workload's ops back to back (a closed loop).  Inputs are made at set-up
from --seed; every op is judged against an oracle, and an op that errors
or is wrong counts as failed, never as fast.

--trace 0 runs whole blocks of the workload's schedule, as many as its
nominal block time (workloads.BLOCK_SECONDS) fits in --seconds, and prints
the end-to-end metrics.  The count does not depend on the clock, so runs
with the same seed attempt and fail the same ops.
--trace 1 runs one pass of the workload untraced in this process, then the
same pass in a child process that wraps the library's public functions,
and prints the per-layer metrics and the tracing overhead.  Metric names,
units and directions are declared in BENCHMARK.json; the last line of
standard output is the result object.  Run records, per-op logs and the
spans of traced runs are written under perfbench/out/.
"""

import os
import time

T_PROCESS = time.perf_counter()
# Pin BLAS/OpenMP pools to one thread before numpy is imported: the box has
# 2 cores and the benchmark is one caller.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SIZES = (201, 801)
SETUP_REPEATS = 3          # set-ups per run: this process plus two children
CHILD_TIMEOUT = 150        # seconds, for each child process
# Op times are reported at a fixed machine speed.  The 2-core box this was
# built on drifts by up to +-30% over tens of seconds (host contention; CPU
# time drifts too), which no run length here can average out.  A fixed
# probe runs before every op and slows down with it: each op's wall time
# is multiplied by PROBE_NOMINAL_S / (median probe time over the
# PROBE_WINDOW ops around it).  On that box this cut the variation of
# 25-op medians of one solve from 12% to 3%, and the run-to-run spread of
# the end-to-end times about threefold.  Unscaled figures are kept in the
# run record.
PROBE_NOMINAL_S = 0.012
PROBE_WINDOW = 11
# cauchy ops are Python loops of small numpy calls.  Their times follow the
# probe's frame loop alone more closely than the whole probe (log-log
# correlation 0.86 against 0.74 over three minutes on that box), so for
# them the probe is that loop, run FRAME_PROBE_REPEATS times (also ~12 ms).
FRAME_PROBE_WORKLOADS = ("cauchy",)
FRAME_PROBE_REPEATS = 8


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cauchy", "isothermal", "surface"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: what a child process does
    p.add_argument("--role", choices=("main", "setup", "traced"),
                   default="main", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up

class Setup:
    """Imports, inputs made from the seed, and one warm-up op per kind.

    ``seconds`` is the time from process start to the end of the warm-up,
    scaled to the nominal speed of the whole probe."""

    def __init__(self, workload, seed):
        sys.path[:0] = [str(SRC), str(HERE)]
        import workloads
        self.wl = workloads
        self.frames_only = workload in FRAME_PROBE_WORKLOADS
        self.blocks = workloads.build_ops(workload, seed)
        self.warm = {}             # kind name -> (op, result, outcome)
        every_op = [op for block in self.blocks for op in block]
        for op in sorted(every_op, key=lambda o: o.n):
            if op.kind.name not in self.warm:
                result, exc, _ = run_op(op)
                self.warm[op.kind.name] = (op, result,
                                           workloads.judge(op, result, exc))
        raw = time.perf_counter() - T_PROCESS
        probe = Probe()            # set-up is imports and every kind
        self.seconds = raw * PROBE_NOMINAL_S / statistics.median(
            probe() for _ in range(5))

    def gate_self_check(self) -> list:
        """Feed each gate a deliberately spoiled output; list the kinds
        whose gate did not reject it.  Kinds whose warm-up op failed have
        no good output to spoil and are skipped."""
        missed = []
        for name, (op, result, outcome) in self.warm.items():
            if op.kind.expect is not None:
                spoiled = self.wl.judge(op, result=object(), exc=None)
            elif outcome.ok:
                spoiled = self.wl.judge(op, op.kind.perturb(result))
            else:
                continue
            if spoiled.ok:
                missed.append(name)
        return missed


class Probe:
    """Fixed machine-speed probe of about 12 ms that never touches the
    library.  Its three parts have the cost profiles of the three
    workloads: a Python loop of small numpy calls (frame loops), a 5-point
    stencil over a 3.8 MB grid (surface kernels), and a bicubic spline fit
    and evaluation (coordinate changes).  With ``frames_only`` it runs the
    first part FRAME_PROBE_REPEATS times instead."""

    def __init__(self, frames_only=False):
        self.frames_only = frames_only
        import numpy as np
        from scipy.interpolate import RectBivariateSpline
        rng = np.random.default_rng(0)
        self.np, self.spline = np, RectBivariateSpline
        self.small = rng.standard_normal((96, 4))
        self.grid = rng.standard_normal((401, 401, 3))
        self.axis = np.linspace(0.0, 1.0, 101)
        self.surface = np.outer(np.sin(3.0 * self.axis),
                                np.cos(2.0 * self.axis))
        self.points = rng.uniform(0.0, 1.0, (2, 20000))

    def __call__(self) -> float:
        np, g = self.np, self.grid
        t0 = time.perf_counter()
        for _ in range(FRAME_PROBE_REPEATS if self.frames_only else 1):
            for v in self.small:
                w = np.stack([v, v[::-1]], axis=1)
                np.einsum("i,i->", v, v)
                np.linalg.det(w.T @ w)
        if self.frames_only:
            return time.perf_counter() - t0
        d = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / 12.0
        np.cumsum(d, axis=1)
        sp = self.spline(self.axis, self.axis, self.surface, kx=3, ky=3, s=0)
        sp.ev(*self.points)
        return time.perf_counter() - t0


def run_op(op):
    exc = result = None
    t0 = time.perf_counter()
    try:
        result = op.kind.run(op.inputs)
    except Exception as e:          # any error is the op's failure
        exc = e
    return result, exc, time.perf_counter() - t0


class Record:
    __slots__ = ("op", "index", "seconds", "probe", "outcome")

    def __init__(self, op, index, seconds, probe, outcome):
        self.op, self.index, self.seconds = op, index, seconds
        self.probe, self.outcome = probe, outcome


def blocks_for(workload, seconds) -> int:
    """Blocks a run of ``seconds`` measures (see workloads.BLOCK_SECONDS)."""
    import workloads
    return max(1, math.ceil(seconds / workloads.BLOCK_SECONDS[workload]
                            - 1e-9))


def run_loop(setup, n_blocks=None, tracer=None):
    """Run ``n_blocks`` of the schedule's blocks in order, wrapping round;
    with None, run one pass."""
    blocks, records, probe = setup.blocks, [], Probe(setup.frames_only)
    if n_blocks is None:
        n_blocks = len(blocks)
    for b in range(n_blocks):
        for op in blocks[b % len(blocks)]:
            i = len(records)
            probe_s = probe()
            if tracer is not None:
                tracer.op_id, tracer.active = i, True
            result, exc, dt = run_op(op)
            if tracer is not None:
                tracer.active = False
            records.append(Record(op, i, dt, probe_s,
                                  setup.wl.judge(op, result, exc)))
    return records


# ---------------------------------------------------------------------------
# statistics

def scaled_seconds(records) -> list:
    """Each op's wall time at the nominal probe speed (PROBE_NOMINAL_S)."""
    half = PROBE_WINDOW // 2
    probes = [r.probe for r in records]
    return [r.seconds * PROBE_NOMINAL_S
            / statistics.median(probes[max(i - half, 0):i + half + 1])
            for i, r in enumerate(records)]


def latency_stats(records, scaled=True) -> dict:
    """End-to-end figures of one loop; failed ops stay out of latencies."""
    secs = scaled_seconds(records) if scaled else [r.seconds for r in records]
    ok = [(s, r.op.n) for s, r in zip(secs, records) if r.outcome.ok]
    ms = sorted(1e3 * s for s, _ in ok)
    out = {"attempted": len(records), "failed": len(records) - len(ok),
           "ops_per_s": len(ok) / sum(secs),
           "ok_share": len(ok) / len(records)}
    for n in SIZES:
        at_n = [1e3 * s for s, m in ok if m == n]
        out[f"op_ms_p50.n{n}"] = statistics.median(at_n) if at_n else None
    # highest percentile with at least 10 samples beyond it
    k = max(len(ms) - 11, 0)
    out["op_ms_tail"] = ms[k] if ms else None
    out["tail_percentile"] = 100.0 * (k + 1) / len(ms) if ms else None
    out["tail_samples"] = len(ms)
    return out


def per_kind_table(records) -> list:
    """Attempts, failures and the unscaled median time per (kind, n)."""
    rows = {}
    for r in records:
        key = (r.op.kind.name, r.op.n)
        row = rows.setdefault(key, {"kind": key[0], "n": key[1],
                                    "attempted": 0, "failed": 0, "ms": []})
        row["attempted"] += 1
        if r.outcome.ok:
            row["ms"].append(1e3 * r.seconds)
        else:
            row["failed"] += 1
    for row in rows.values():
        row["raw_ms_p50"] = (statistics.median(row["ms"]) if row["ms"]
                             else None)
        del row["ms"]
    return list(rows.values())


def failure_log(records) -> list:
    """Distinct failures with kind, n, error and the op seeds that hit it."""
    seen = {}
    for r in records:
        for err in r.outcome.errors:
            key = (r.op.kind.name, r.op.n, err)
            entry = seen.setdefault(key, {"kind": key[0], "n": key[1],
                                          "error": err, "count": 0,
                                          "seeds": []})
            entry["count"] += 1
            if list(r.op.seed) not in entry["seeds"]:
                entry["seeds"].append(list(r.op.seed))
    return list(seen.values())


def op_log(records) -> list:
    return [{"i": r.index, "kind": r.op.kind.name, "n": r.op.n,
             "seed": list(r.op.seed), "ms": round(1e3 * r.seconds, 4),
             "probe_ms": round(1e3 * r.probe, 4),
             "ok": r.outcome.ok, "errors": r.outcome.errors,
             "accuracy": r.outcome.accuracy} for r in records]


def worst_accuracy(records) -> dict:
    """Max of each accuracy figure over succeeded ops."""
    worst = {}
    for r in records:
        if r.outcome.ok:
            for k, v in r.outcome.accuracy.items():
                worst[k] = max(worst.get(k, 0.0), v)
    return worst


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cores": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "machine": platform.machine()}


def declared_metrics(section) -> list:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)[section]


# ---------------------------------------------------------------------------
# roles

def child(args, role) -> dict:
    """Run this script in a child process and return its last-line JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def role_setup(args):
    setup = Setup(args.workload, args.seed)
    print(json.dumps({"setup_s": setup.seconds}))


def role_traced(args):
    """Set up, install the tracer, run the self-checks and one pass."""
    setup = Setup(args.workload, args.seed)
    import tracer as tracer_mod
    import workloads as wl
    tracer = tracer_mod.Tracer()
    rebound = tracer.install()
    checks = {"unwrapped_names": tracer.unwrapped_names(),
              "rebound_from_imports": sorted(
                  f"{mod}.{attr}" for mod, attr, fn in rebound
                  if fn.__module__ != mod)}
    checks.update(count_self_checks(tracer, wl))
    records = run_loop(setup, None, tracer)
    n_ops = len(records)
    totals = tracer.totals(range(n_ops))
    meta = [f"{r.index}:{r.op.kind.name}:{r.op.n}:{list(r.op.seed)}"
            for r in records]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path, meta)
    stats = latency_stats(records)
    print(json.dumps({"totals": totals, "n_ops": n_ops, "stats": stats,
                      "accuracy": worst_accuracy(records), "checks": checks,
                      "spans": len(tracer.start),
                      "spans_file": str(spans_path.relative_to(ROOT)),
                      "failures": failure_log(records)}))


def count_self_checks(tracer, wl) -> dict:
    """Exact counts on two fixed ops, traced under negative op ids.

    One helix solve at n = 201 builds 2n frames (check_necessary and
    decompose each build n); one isothermal round trip fits 5 splines in
    each direction.  Spans under bjorling that call numerics.diff_samples
    prove the from-import copy bjorling.diff_samples was rebound.
    """
    import numpy as np
    kinds = {k.name: k for k in wl.CAUCHY}
    helix = wl.Op(kinds["helix"], 201, (0, 0, 201, 0),
                  kinds["helix"].make(201, np.random.default_rng(0)))
    iso_kind = wl.ISOTHERMAL[0]
    iso = wl.Op(iso_kind, 201, (0, 0, 201, 0), iso_kind.make(201, None))
    for op_id, op in ((-2, helix), (-3, iso)):
        tracer.op_id, tracer.active = op_id, True
        result, exc, _ = run_op(op)
        tracer.active = False
        if exc is not None:
            return {"self_check_error": f"{type(exc).__name__}: {exc}"}
    t_helix, t_iso = tracer.totals([-2]), tracer.totals([-3])
    return {"helix_build_frame_calls": t_helix["minkowski.build_frame.calls"],
            "iso_spline_fits": t_iso["chebnet.RectBivariateSpline.calls"],
            "diff_samples_from_bjorling": tracer.spans_with_parent_layer(
                "numerics.diff_samples", "bjorling", -2)}


def self_checks_pass(checks) -> bool:
    return (not checks.get("unwrapped_names")
            and "self_check_error" not in checks
            and checks.get("helix_build_frame_calls") == 402
            and checks.get("iso_spline_fits") == 10
            and checks.get("diff_samples_from_bjorling", 0) > 0)


def layer_metrics(traced, untraced_stats) -> dict:
    """Per-layer metrics per op from the traced child, as BENCHMARK.json
    declares them; times are self times."""
    totals, n_ops = traced["totals"], traced["n_ops"]
    stats = traced["stats"]
    out = {}
    for m in declared_metrics("per_layer"):
        name = m["name"]
        if name.startswith("trace.overhead."):
            key = name[len("trace.overhead."):]
            a, b = stats.get(key), untraced_stats.get(key)
            value = a - b if a is not None and b is not None else 0.0
        elif m["unit"] == "1":
            value = traced["accuracy"].get(name, 0.0)
        elif name.endswith(".self_ms"):
            value = 1e3 * totals.get(name[:-len("_ms")] + "_s", 0.0) / n_ops
        else:
            value = totals.get(name, 0) / n_ops
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def layer_table(traced) -> list:
    """Self time per layer and its share of traced op time."""
    totals, n_ops = traced["totals"], traced["n_ops"]
    layers = ("numerics", "minkowski", "chebnet", "lift", "bjorling")
    per_op = {k: 1e3 * totals.get(f"{k}.self_s", 0.0) / n_ops for k in layers}
    busy = sum(per_op.values())
    return [{"layer": k, "self_ms_per_op": per_op[k],
             "share_of_traced_time": per_op[k] / busy if busy else 0.0}
            for k in layers]


def write_record(args, record):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return path


def role_main(args):
    setup = Setup(args.workload, args.seed)
    missed = setup.gate_self_check()
    env = environment()
    print(json.dumps({"environment": env}))
    if args.trace == 0:
        setups = [setup.seconds] + [child(args, "setup")["setup_s"]
                                    for _ in range(SETUP_REPEATS - 1)]
        records = run_loop(setup, blocks_for(args.workload, args.seconds))
        stats = latency_stats(records)
        values = dict(stats, setup_s=statistics.median(setups),
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {}
        for m in declared_metrics("end_to_end"):
            if values.get(m["name"]) is None:
                raise RuntimeError(f"no samples for {m['name']}")
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        report = {"setup_samples_s": setups,
                  "unscaled": latency_stats(records, scaled=False),
                  "tail": {"percentile": stats["tail_percentile"],
                           "samples": stats["tail_samples"]},
                  "kinds": per_kind_table(records),
                  "failures": failure_log(records),
                  "accuracy": worst_accuracy(records)}
        correct = not missed
        attempted, failed = stats["attempted"], stats["failed"]
        record = {"environment": env, "metrics": metrics, "report": report,
                  "gate_self_check_missed": missed, "ops": op_log(records)}
    else:
        records = run_loop(setup, None)
        untraced = latency_stats(records)
        traced = child(args, "traced")
        metrics = layer_metrics(traced, untraced)
        correct = not missed and self_checks_pass(traced["checks"])
        attempted = traced["stats"]["attempted"]
        failed = traced["stats"]["failed"]
        report = {"layers": layer_table(traced),
                  "self_checks": traced["checks"],
                  "untraced": untraced, "traced": traced["stats"],
                  "spans": traced["spans"],
                  "spans_file": traced["spans_file"],
                  "failures": traced["failures"]}
        record = {"environment": env, "metrics": metrics, "report": report,
                  "gate_self_check_missed": missed, "totals": traced["totals"]}
    path = write_record(args, record)
    print(json.dumps(report))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chebylift").is_dir():
        print(f"error: library source {SRC / 'chebylift'} not found; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    {"main": role_main, "setup": role_setup, "traced": role_traced}[
        args.role](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
