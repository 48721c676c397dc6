"""Benchmark worker: a fresh interpreter that imports valnet and runs ops.

    python perfbench/worker.py run MANIFEST --seconds S --start I --min-ops M --align A --trace 0|1
    python perfbench/worker.py reference MANIFEST [--oracle]

``run`` imports valnet from the checkout, reads its inputs, runs one warm-up
op, prints ``ready`` (the harness times set-up up to that line), then runs
ops in a closed loop for S seconds and at least M ops, timing a calibration
loop after each, and prints one JSON result line.  The loop starts at op I
of the manifest and stops only where the next op's index is a multiple of
A, so that the harness can end a run on a whole number of passes.  With ``--trace 1`` every op runs twice, untraced and traced in
alternating order, so that the trace overhead is measured on the same ops.

``reference`` computes what each op must print, outside any timed run:
oracle_solve for solve-ladder, combine_all and marginalize_belief for
marginal-chains (with ``--oracle``), and a digest of valnet's own output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracer import ROOT, Tracer

# Criterion 4's tolerance for expected values (rel 1e-6, abs 1e-9).
VALUE_RTOL = 1e-6
VALUE_ATOL = 1e-9
# `valnet marginal` prints masses with %.6g: half a unit in the sixth
# significant digit is at most 5e-6 of the value.
PRINTED_RTOL = 5e-6
# A worker that cannot reach its minimum op count stops after this many
# times its time budget, so a slow build still ends in time.
HARD_LIMIT_FACTOR = 4
# Iterations of the three loops of one calibration unit; about 2 ms.
CALIBRATION_ITERATIONS = (10_000, 2_000, 3_000)


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def step(self, other):
        return _Pair((self.x + other.y) & 0xFFFF, self.y ^ other.x)


def calibration_unit():
    """Seconds for a fixed pure-Python loop that does not touch valnet.

    The shared host's speed drifts by up to 1.8x within seconds.  Timed
    between ops, this loop tells the harness how fast the host ran while
    the ops did.  It mixes integer arithmetic, method calls with object
    creation, and dict updates with tuple keys, because valnet's ops do all
    three: on the same trace, that mix followed valnet's speed more closely
    than integer arithmetic alone.
    """
    arithmetic, calls, updates = CALIBRATION_ITERATIONS
    start = perf_counter()
    acc = 0
    for i in range(arithmetic):
        acc = (acc * 31 + i) & 0xFFFF
    p, q = _Pair(1, 2), _Pair(3, 4)
    for _ in range(calls):
        p = q.step(p)
    table = {}
    for i in range(updates):
        key = (i & 31, (i >> 5) & 7)
        table[key] = table.get(key, 0) + i
    return perf_counter() - start


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _import_valnet():
    sys.path.insert(0, str(ROOT / "src"))
    import valnet.cli

    if not Path(valnet.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("valnet was imported from %s, not from this checkout" % valnet.cli.__file__)
    return valnet.cli


def _capture(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _close(a, b, rtol, atol):
    return abs(a - b) <= max(atol, rtol * abs(b))


def _printed_marginal(text):
    """{members: mass} from `valnet marginal` output."""
    focals = {}
    for line in text.splitlines()[1:]:
        mass, members = line.split("  ", 1)
        labels = sorted(m.strip() for m in members.strip("{}").split(","))
        focals["|".join(labels)] = float(mass)
    return focals


def check(op, rc, out, err):
    """None if the op's output is correct, else the reason it is not."""
    if rc != 0:
        return "exit code %r: %s" % (rc, err.strip()[:200])
    if "golden" in op:
        return None if out == op["golden"] else "output differs from the golden lines"
    if not op["stable"]:
        return "valnet output differs between PYTHONHASHSEED=1 and =2"
    if digest(out) != op["digest"]:
        return "output differs from the reference run's"
    ref = op["reference"]
    if "value" in ref:
        values = [line.split("\t")[-1] for line in out.splitlines() if line.startswith("value\t")]
        if len(values) != 1 or not _close(float(values[0]), ref["value"], VALUE_RTOL, VALUE_ATOL):
            return "expected value %r, oracle %r" % (values, ref["value"])
        return None
    got = _printed_marginal(out)
    want = ref["focals"]
    if set(got) != set(want) or not all(
        _close(got[k], want[k], PRINTED_RTOL, 1e-12) for k in want
    ):
        return "marginal %r, reference %r" % (got, want)
    return None


def new_result():
    """Counters and timings that a run of ops accumulates."""
    return {"attempted": 0, "failed": 0, "errors": [], "latencies": [],
            "calibration": [], "traced_s": 0.0, "untraced_s": 0.0}


def record(result, error):
    """Count one op, failed if error is not None; keep the first few errors."""
    result["attempted"] += 1
    if error is not None:
        result["failed"] += 1
        if len(result["errors"]) < 5:
            result["errors"].append(error)


def run_op(cli, op):
    """(seconds from the call to the checked output, error or None, output)."""
    start = perf_counter()
    try:
        rc, out, err = _capture(cli, op["argv"])
        error = check(op, rc, out, err)
    except (Exception, SystemExit) as exc:  # one failed op, counted; the loop goes on
        out, error = "", "raised %s: %s" % (type(exc).__name__, exc)
    return perf_counter() - start, error, out


def run(args):
    cli = _import_valnet()
    manifest = json.loads(Path(args.manifest).read_text())
    ops = manifest["ops"]
    for op in ops:
        if "file" in op:
            (ROOT / op["file"]).read_bytes()
    tracer = Tracer() if args.trace else None
    warm = ops[0]  # the same op on every worker, so set-up time does not depend on --start
    run_op(cli, warm)
    if tracer:
        tracer.install()
        run_op(cli, warm)
        tracer.uninstall()
        tracer.reset()
    print("ready", flush=True)

    result = new_result()
    start = perf_counter()
    limit = max(args.seconds, 1.0) * HARD_LIMIT_FACTOR
    i = 0
    while True:
        now = perf_counter() - start
        done = now >= args.seconds and i >= args.min_ops and (args.start + i) % args.align == 0
        if done or now >= limit:
            break
        op = ops[(args.start + i) % len(ops)]
        if tracer is None:
            elapsed, error, _ = run_op(cli, op)
            result["latencies"].append(elapsed)
            result["calibration"].append(calibration_unit())
            record(result, error)
        else:
            runs = {}
            for traced in ((False, True) if i % 2 else (True, False)):
                if traced:
                    tracer.install()
                    tracer.begin_op()
                runs[traced] = run_op(cli, op)
                if traced:
                    tracer.end_op()
                    tracer.uninstall()
            (plain_s, plain_error, plain_out), (traced_s, traced_error, traced_out) = (
                runs[False], runs[True])
            if traced_error is None and traced_out != plain_out:
                traced_error = "traced output differs from the untraced output"
            result["latencies"].append(plain_s)
            result["untraced_s"] += plain_s
            result["traced_s"] += traced_s
            record(result, plain_error)
            record(result, traced_error)
        i += 1
    result["wall_s"] = perf_counter() - start
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["trace"] = tracer.snapshot() if tracer else None
    print(json.dumps(result), flush=True)


def reference(args):
    cli = _import_valnet()
    from valnet import combine_all, marginalize_belief, oracle_solve, parse_problem

    manifest = json.loads(Path(args.manifest).read_text())
    out = []
    for op in manifest["ops"]:
        rc, text, _ = _capture(cli, op["argv"])
        entry = {"rc": rc, "digest": digest(text)}
        if args.oracle:
            problem = parse_problem((ROOT / op["file"]).read_text())
            if op["argv"][0] == "solve":
                entry["value"] = oracle_solve(problem.network, problem.lam).expected_value
            else:
                target = op["argv"][op["argv"].index("--target") + 1]
                joint = combine_all([p.ballooned for p in problem.network.potentials])
                for name in sorted(joint.domain - {target}):
                    joint = marginalize_belief(joint, name)
                entry["focals"] = {
                    "|".join(sorted(dict(x)[target] for x in f.support)): f.mass
                    for f in joint.focals
                }
        out.append(entry)
    print(json.dumps(out))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("manifest")
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--start", type=int, default=0)
    p_run.add_argument("--min-ops", type=int, default=0)
    p_run.add_argument("--align", type=int, default=1)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_ref = sub.add_parser("reference")
    p_ref.add_argument("manifest")
    p_ref.add_argument("--oracle", action="store_true")
    args = parser.parse_args()
    run(args) if args.mode == "run" else reference(args)


if __name__ == "__main__":
    main()
