"""Solve and propagation results must not depend on PYTHONHASHSEED.

Sets and dicts of configurations iterate in an order that changes with the
hash seed, so each seed runs in its own interpreter.  The digest sorts every
set and dict, so it changes only when a value, a choice or a record does.
"""

import hashlib
import os
import pathlib
import random
import subprocess
import sys

from valnet import (
    Network,
    conditional,
    decision,
    make_config,
    make_utility,
    propagate_marginal,
    random_var,
    solve,
)

from netgen import random_network, random_propagation

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def canonical(obj):
    """A form of ``obj`` whose repr does not depend on iteration order."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return sorted((repr(canonical(k)), canonical(v)) for k, v in obj.items())
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(canonical(x)) for x in obj)
    if hasattr(obj, "_fields"):
        return [type(obj).__name__] + [(f, canonical(getattr(obj, f))) for f in obj._fields]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    return obj


def tied_network():
    """All acts tie everywhere, so only the frame order can pick one."""
    d = decision("D", ("a", "b", "c", "d", "e"))
    x = random_var("X", ("x", "y"))
    u = make_utility([d, x], {make_config({"D": a, "X": b}): 1.0 for a in d.frame for b in x.frame})
    p = conditional(x, [d], {(a,): [({"x", "y"}, 1.0)] for a in d.frame})
    return Network([d, x], [u], [p], [("D", "X")])


def results_digest(count=50, lams=(0.0, 0.3, 1.0)):
    """Digest of ``solve(..., trace=True)`` on the first acceptance-suite networks
    and of ``propagate_marginal`` to every variable of belief-only networks."""
    rng = random.Random(20260823)
    digest = hashlib.sha256()
    for net in [random_network(rng) for _ in range(count)] + [tied_network()]:
        for lam in lams:
            r = solve(net, lam, trace=True)
            steps = [
                (i, s.variable, s.combined, s.provenance, s.result, s.contributions, s.solution)
                for i, s in enumerate(r.trace, 1)
            ]
            record = (r.expected_value, r.solutions, r.strategy.tables, steps)
            digest.update(repr(canonical(record)).encode())
    rng = random.Random(20261018)
    for net in [random_propagation(rng) for _ in range(count)]:
        for v in net.variables:
            marginal = propagate_marginal(net, v.name)
            record = [(f.support, f.mass) for f in marginal.focals]
            digest.update(repr(canonical(record)).encode())
    return digest.hexdigest()


def test_solve_digest_is_independent_of_the_hash_seed():
    digests = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
        proc = subprocess.run(
            [sys.executable, "-c", "import test_determinism as t; print(t.results_digest())"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
    assert digests[0] == results_digest()
