"""valnet benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (see README.md beside this file for why each was chosen):

- cli-wildcatter: each op runs ``python -m valnet.cli solve
  problems/wildcatter.vn`` in a fresh subprocess and compares stdout with the
  README's golden lines byte for byte.  The file is fixed; the seed is
  recorded but changes nothing.
- solve-ladder: each op calls ``valnet.cli.main(["solve", "--machine", F])``
  in a worker process on a seeded decision network; the expected value must
  match oracle_solve within rel 1e-6, abs 1e-9.
- marginal-chains: each op calls ``valnet.cli.main(["marginal", "--target",
  X, F])`` on a seeded belief-only network; the marginal must match
  combine_all of every ballooned potential marginalized to X.

Load comes from one client in a closed loop with at most one child process
at a time.  Inputs and references are made once per seed, outside any timed
run, and cached under ``.perfbench_cache/``.  Set-up is measured on
SETUP_WORKERS fresh workers per run (median): from spawning the interpreter
to the worker being ready for its first timed op, covering ``import
valnet``, reading inputs and one warm-up op.  The in-process workloads split
their timed ops over those same workers and end on whole passes over their
inputs.

The end-to-end timings are reported at a reference host speed: a
calibration loop that does not touch valnet is timed after every op (and
before every set-up), and each op's time is scaled by REFERENCE_CALIBRATION_S
over the median of the units timed nearest to it.  The summary lines also
give the timings at the host's speed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from tracer.py, measured on
ops that each also run untraced, which gives ``trace.overhead_pct``.  Lines
before it are a human-readable summary, with the machine fingerprint and a
calibration loop timed before and after the run; the same record is
appended to ``.perfbench_cache/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from tracer import TRACE_PREFIX, layer_metrics, merge  # noqa: E402
from worker import calibration_unit, new_result, record  # noqa: E402

CACHE = ROOT / ".perfbench_cache"
WORKLOADS = ("cli-wildcatter", "solve-ladder", "marginal-chains")
SETUP_WORKERS = 5
MIN_OPS = 100  # so that op_ms.p90 has at least ten samples above it
IMPORT_SAMPLES = 5
# Timings are reported at the host speed at which one calibration unit
# (worker.calibration_unit) takes this long; see speed_factor.
REFERENCE_CALIBRATION_S = 0.002
SETUP_CALIBRATION_UNITS = 5
# An op is scaled by the median of the units timed up to this many ops
# before and after it; one unit alone is noisier than the host's drift.
CALIBRATION_WINDOW = 2
OP_TIMEOUT_S = 60
WILDCATTER = "problems/wildcatter.vn"
GOLDEN = (
    "lambda 0.5\n"
    "expected value 27500\n"
    "Psi[T]: t\n"
    "Psi[D]: gr -> d; nr -> d; re -> ~d; ye -> ~d\n"
    "strategy: T = t; D(gr) = d; D(nr) = d; D(re) = ~d; D(ye) = ~d\n"
)
# Hooks that must fire on every traced run of a workload; a hook that no
# longer fires would otherwise read as a zero.
COMMON_HOOKS = (
    "valnet.cli.main", "valnet.cli.parse_problem", "valnet.problemfile.conditional",
    "valnet.cli.validate", "valnet.network.is_conditional",
    "valnet.calculus.combine_all_traced",
)
SOLVE_HOOKS = COMMON_HOOKS + (
    "valnet.cli.solve", "valnet.solver.elimination_order", "valnet.solver.build_strategy",
    "valnet.solver.combine_all_traced", "valnet.solver.combine_all", "valnet.solver.marginalize",
)
REQUIRED_HOOKS = {
    "cli-wildcatter": SOLVE_HOOKS,
    "solve-ladder": SOLVE_HOOKS,
    "marginal-chains": COMMON_HOOKS + (
        "valnet.cli.propagate_marginal", "valnet.solver.combine_all_traced",
        "valnet.solver.combine_all", "valnet.solver.marginalize",
    ),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(hash_seed="0"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def fingerprint():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
    }


def calibration_s():
    """Seconds for 15 calibration units in a row; the best of three."""
    return min(sum(calibration_unit() for _ in range(15)) for _ in range(3))


def speed_factor(calibration):
    """Multiplier that turns times taken at the host's speed into times at
    the reference speed.

    The shared host's speed drifts by up to 1.8x, within seconds, and every
    workload drifts with it.  The calibration loop, timed between the ops,
    drifts alike; scaling by it keeps that drift out of the reported figures
    while any change in valnet's own cost shows in full.
    """
    return REFERENCE_CALIBRATION_S / statistics.median(calibration)


def scaled_latencies(result):
    """A worker's op times at the reference speed, each scaled by the units
    timed nearest to it (unit i is timed right after op i)."""
    calibration = result["calibration"]
    return [
        elapsed * speed_factor(calibration[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1])
        for i, elapsed in enumerate(result["latencies"])
    ]


def percentiles_ms(latencies):
    """(p50, p90) of op times in seconds, in ms."""
    return (statistics.median(latencies) * 1000.0,
            statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000.0)


def _source_key(workload, seed):
    h = hashlib.sha256(("%s:%d" % (workload, seed)).encode())
    for path in sorted([*BENCH.glob("*.py"), *(ROOT / "src" / "valnet").glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _run_child(cmd, env, timeout=170):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (cmd[2:4], proc.returncode, proc.stderr[-2000:]))
    return proc.stdout


def prepare(workload, seed):
    """Write inputs and references for a seed once; return the manifest path."""
    directory = CACHE / ("%s-%d-%s" % (workload, seed, _source_key(workload, seed)))
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        return manifest_path
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    ops = []
    if workload == "cli-wildcatter":
        cmd = [sys.executable, "-m", "valnet.cli", "solve", WILDCATTER]
        outputs = {_run_child(cmd, child_env(h)) for h in ("1", "2")}
        if outputs != {GOLDEN}:
            raise BenchError("wildcatter output differs from the golden lines: %r" % outputs)
        ops.append({"argv": ["solve", WILDCATTER], "golden": GOLDEN})
    else:
        if workload == "solve-ladder":
            files = [(name, text, ["solve", "--machine"]) for name, text in gen.solve_ladder(seed)]
        else:
            files = [
                (name, text, ["marginal", "--target", target])
                for name, text, target in gen.marginal_chains(seed)
            ]
        for name, text, argv in files:
            (directory / name).write_text(text)
            rel = str((directory / name).relative_to(ROOT))
            ops.append({"argv": argv + [rel], "file": rel})
        draft = directory / "draft.json"
        draft.write_text(json.dumps({"ops": ops}))
        worker = [sys.executable, str(BENCH / "worker.py"), "reference", str(draft)]
        first = json.loads(_run_child(worker + ["--oracle"], child_env("1")))
        second = json.loads(_run_child(worker, child_env("2")))
        for op, a, b in zip(ops, first, second):
            if a["rc"] != 0:
                raise BenchError("valnet rejects generated input %s (exit %d)" % (op["file"], a["rc"]))
            op["digest"] = a["digest"]
            op["stable"] = a["digest"] == b["digest"]
            op["reference"] = {k: v for k, v in a.items() if k in ("value", "focals")}
    tmp = directory / "manifest.tmp"
    tmp.write_text(json.dumps({"workload": workload, "seed": seed, "ops": ops}))
    tmp.replace(manifest_path)
    return manifest_path


def _spawn_worker(manifest, seconds, start, min_ops, align, trace):
    """Run one fresh worker; return (set-up seconds, its result)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "run", str(manifest),
        "--seconds", repr(seconds), "--start", str(start),
        "--min-ops", str(min_ops), "--align", str(align), "--trace", str(trace),
    ]
    with open(CACHE / "worker.stderr", "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait(timeout=OP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError("worker failed (%r): %s" % (proc.returncode, err.read()[-2000:]))
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_workers(manifest, seconds, trace, ops_per_worker):
    """SETUP_WORKERS fresh workers in turn, each timing its share of the ops.

    The last worker runs on until the ops of the run make whole passes over
    the manifest, so that every op weighs alike in the percentiles and a
    run's mix of ops does not depend on where its time ran out.

    Returns the set-up times at the host's speed, the same at the reference
    speed (each scaled by calibration units timed just before its spawn),
    and the workers' results.
    """
    setups, scaled, results = [], [], []
    start = 0
    pass_ops = len(json.loads(manifest.read_text())["ops"])
    for k in range(SETUP_WORKERS):
        factor = speed_factor([calibration_unit() for _ in range(SETUP_CALIBRATION_UNITS)])
        align = pass_ops if ops_per_worker and k == SETUP_WORKERS - 1 else 1
        setup_s, result = _spawn_worker(
            manifest, seconds / SETUP_WORKERS if ops_per_worker else 0.0,
            start, ops_per_worker, align, trace)
        setups.append(setup_s)
        scaled.append(setup_s * factor)
        results.append(result)
        start += len(result["latencies"])
    return setups, scaled, results


def _cli_op(cmd, env, err):
    """One subprocess op: (seconds, error or None, stdout, stderr, child ru_maxrss KB)."""
    err.seek(0)
    err.truncate()
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode("utf-8", "replace")
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        error = "exit code %d" % proc.returncode
    elif out != GOLDEN:
        error = "output differs from the golden lines"
    else:
        error = None
    elapsed = perf_counter() - start
    err.seek(0)
    return elapsed, error, out, err.read(), usage.ru_maxrss


def _import_ms(stderr):
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.split("|")[-1].strip() == "valnet.cli":
            return int(line.split("|")[1]) / 1000.0
    raise BenchError("-X importtime reported no valnet.cli line")


def run_cli(seconds, trace):
    """Closed loop of CLI subprocesses; with trace, alternate plain and launcher runs.

    A calibration unit is timed in this process after every plain op.
    """
    plain = [sys.executable, "-m", "valnet.cli", "solve", WILDCATTER]
    traced = [sys.executable, "-X", "importtime", str(BENCH / "tracer.py"), "solve", WILDCATTER]
    result = dict(new_result(), maxrss_kb=0, imports=[], snaps=[])
    env = child_env()
    with open(CACHE / "cli.stderr", "w+") as err:
        start = perf_counter()
        i = 0
        while perf_counter() - start < seconds or i < MIN_OPS:
            if perf_counter() - start > seconds * 4:
                break
            order = (plain, traced) if i % 2 else (traced, plain)
            for cmd in (order if trace else (plain,)):
                elapsed, error, out, stderr, rss_kb = _cli_op(cmd, env, err)
                if cmd is plain:
                    result["latencies"].append(elapsed)
                    result["calibration"].append(calibration_unit())
                    result["untraced_s"] += elapsed
                    result["maxrss_kb"] = max(result["maxrss_kb"], rss_kb)
                else:
                    result["traced_s"] += elapsed
                    snaps = [line for line in stderr.splitlines() if line.startswith(TRACE_PREFIX)]
                    if error is None and len(snaps) != 1:
                        error = "traced launcher printed no trace"
                    if error is None:
                        result["snaps"].append(json.loads(snaps[0][len(TRACE_PREFIX):]))
                        result["imports"].append(_import_ms(stderr))
                record(result, error)
            i += 1
        result["wall_s"] = perf_counter() - start
    return result


def import_samples():
    cmd = [sys.executable, "-X", "importtime", str(BENCH / "tracer.py"), "--import-only"]
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("import of valnet.cli failed: %s" % proc.stderr[-2000:])
        samples.append(_import_ms(proc.stderr))
    return samples


def run_workload(workload, seed, seconds, trace):
    manifest = prepare(workload, seed)
    # Compile valnet's bytecode before any timed set-up.
    _run_child([sys.executable, "-c", "import valnet.cli"], child_env())
    if workload == "cli-wildcatter":
        setups, scaled_setups, _ = run_workers(manifest, seconds, 0, 0)
        result = run_cli(seconds, trace)
        results = [result]
        snaps, imports = result["snaps"], result["imports"]
        wall = result["wall_s"]
        rss_kb = result["maxrss_kb"]
    else:
        setups, scaled_setups, results = run_workers(
            manifest, seconds, trace, -(-MIN_OPS // SETUP_WORKERS))
        snaps = [r["trace"] for r in results if r["trace"]]
        imports = import_samples() if trace else []
        wall = sum(r["wall_s"] for r in results)
        rss_kb = max(r["maxrss_kb"] for r in results)
    latencies = [x for r in results for x in r["latencies"]]
    calibration = [x for r in results for x in r["calibration"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]][:5]
    summary = {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "errors": errors,
        "samples": len(latencies),
    }
    if not trace:
        # The timed loop's wall time, less the calibration units between ops.
        busy = wall - sum(calibration)
        p50, p90 = percentiles_ms(latencies)
        host = {"op_ms.p50": p50, "op_ms.p90": p90, "ops_per_s": len(latencies) / busy,
                "setup_s": statistics.median(setups)}
        scaled = [x for r in results for x in scaled_latencies(r)]
        p50, p90 = percentiles_ms(scaled)
        # The whole loop is scaled by the mean factor of its ops.
        busy_scaled = busy * sum(scaled) / sum(latencies)
        metrics = {
            "op_ms.p50": (p50, "ms"),
            "op_ms.p90": (p90, "ms"),
            "ops_per_s": (len(scaled) / busy_scaled, "1/s"),
            "setup_s": (statistics.median(scaled_setups), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        summary["host_speed"] = host
        summary["calibration_median_s"] = statistics.median(calibration)
    else:
        merged = merge(snaps)
        missing = [h for h in REQUIRED_HOOKS[workload] if not merged["calls"].get(h)]
        if missing:
            raise BenchError("traced run never reached %s" % ", ".join(missing))
        traced_s = sum(r["traced_s"] for r in results)
        untraced_s = sum(r["untraced_s"] for r in results)
        metrics = {name: (value, _layer_unit(name)) for name, value in layer_metrics(merged).items()}
        metrics["process.import_ms"] = (statistics.median(imports), "ms")
        metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
        summary["traced_ops"] = merged["ops"]
    summary["setup_samples"] = setups
    return metrics, summary


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description="valnet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/valnet/__init__.py", WILDCATTER) if not (ROOT / p).is_file()]
    if missing:
        print("error: not a valnet checkout (missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    CACHE.mkdir(exist_ok=True)
    run_record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint(),
              "calibration_before_s": calibration_s()}
    try:
        metrics, summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    run_record["calibration_after_s"] = calibration_s()
    run_record["summary"] = summary
    run_record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(CACHE / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(run_record) + "\n")

    print("# %s seed %d trace %d: %d ops attempted, %d failed (failed_ratio %.6g)"
          % (args.workload, args.seed, args.trace, summary["attempted"], summary["failed"],
             summary["failed_ratio"]))
    for error in summary["errors"]:
        print("#   failure: %s" % error)
    print("# op_ms samples %d; setup samples %s s" % (
        summary["samples"], ", ".join("%.4f" % s for s in summary["setup_samples"])))
    print("# fingerprint %s" % json.dumps(run_record["fingerprint"]))
    print("# calibration loop %.4f s before, %.4f s after"
          % (run_record["calibration_before_s"], run_record["calibration_after_s"]))
    if "host_speed" in summary:
        print("# calibration unit median %.6f s between ops; reference %.6f s"
              % (summary["calibration_median_s"], REFERENCE_CALIBRATION_S))
        for name, value in summary["host_speed"].items():
            print("# %-34s %14.6g at the host's speed" % (name, value))
    for name, (value, unit) in metrics.items():
        print("# %-34s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in turn, each in its own harness process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
