"""Random generation of valid networks, independent brute-force evaluators,
and near-equality of valuations."""

from valnet import (
    Network,
    all_configs,
    conditional,
    decision,
    make_config,
    make_utility,
    random_var,
    validate,
)

DECISION = "decision"
RANDOM = "random"


def _kinds(rng, n):
    """Variable kinds along a chronological chain; a decision separates randoms."""
    kinds = []
    random_open = False
    for _ in range(n):
        if random_open:
            kind = DECISION
        else:
            kind = RANDOM if rng.random() < 0.5 else DECISION
        kinds.append(kind)
        random_open = kind == RANDOM
    return kinds


def _frame(rng, i, max_frame):
    size = 1 if rng.random() < 0.1 else rng.randint(2, max_frame)
    return tuple("%s%d" % (chr(ord("a") + i), j) for j in range(size))


def random_subsets(rng, frame, singleton_only=False, max_focals=3):
    """A random bpa over a frame, as (subset, mass) pairs summing to one."""
    if singleton_only:
        pool = [frozenset([v]) for v in frame]
    else:
        pool = []
        for _ in range(8):
            members = frozenset(v for v in frame if rng.random() < 0.5)
            if members:
                pool.append(members)
        pool.append(frozenset(frame))
    pool = list(dict.fromkeys(pool))
    rng.shuffle(pool)
    count = rng.randint(1, min(max_focals, len(pool)))
    chosen = pool[:count]
    weights = [rng.uniform(0.1, 1.0) for _ in chosen]
    total = sum(weights)
    return [(s, w / total) for s, w in zip(chosen, weights)]


def _conditional_tables(rng, parents, frame, singleton_only=False, budget=48):
    """Per-parent-config bpas whose ballooned focal count stays under a budget.

    Ballooning takes a Cartesian product over parent configurations, so the
    focal count is the product of the per-table counts; cap that product.
    """
    frames = {p.name: p.frame for p in parents}
    tables = {}
    product = 1
    for cfg in all_configs([p.name for p in parents], frames):
        allowed = max(1, min(3, budget // product))
        entries = random_subsets(rng, frame, singleton_only, max_focals=allowed)
        product *= len(entries)
        tables[cfg] = entries
    return tables


def _random_utility(rng, variables, label):
    frames = {v.name: v.frame for v in variables}
    table = {
        cfg: round(rng.uniform(-100.0, 100.0), 3)
        for cfg in all_configs([v.name for v in variables], frames)
    }
    return make_utility(variables, table, label=label)


def random_network(rng, max_vars=4, max_frame=3, singleton_only=False):
    """A valid chain-ordered network with one conditional potential per random."""
    n = rng.randint(1, max_vars)
    kinds = _kinds(rng, n)
    variables = []
    for i, kind in enumerate(kinds):
        name = "X%d" % i
        frame = _frame(rng, i, max_frame)
        variables.append(
            decision(name, frame) if kind == DECISION else random_var(name, frame)
        )
    arcs = [(variables[i].name, variables[i + 1].name) for i in range(n - 1)]

    potentials = []
    for i, v in enumerate(variables):
        if v.kind != RANDOM:
            continue
        parents = [p for p in variables[:i] if rng.random() < 0.6]
        tables = _conditional_tables(rng, parents, v.frame, singleton_only)
        potentials.append(conditional(v, parents, tables, label="pot_%s" % v.name))

    utilities = []
    for v in variables:
        if v.kind != DECISION:
            continue
        scope = [v] + [w for w in variables if w is not v and rng.random() < 0.35]
        utilities.append(_random_utility(rng, scope, "u_%s" % v.name))
    if rng.random() < 0.3 or not utilities:
        scope = [v for v in variables if rng.random() < 0.5] or [variables[0]]
        utilities.append(_random_utility(rng, scope, "u_extra"))

    net = Network(variables, utilities, potentials, arcs)
    report = validate(net)
    assert report.ok, report.lines()
    return net


def random_canonical(rng, max_frame=3):
    """One decision, one random conditioned on it, one joint utility."""
    d = decision("D", _frame(rng, 0, max_frame))
    r = random_var("R", _frame(rng, 1, max_frame))
    tables = {
        make_config({"D": a}): random_subsets(rng, r.frame)
        for a in d.frame
    }
    pot = conditional(r, [d], tables, label="rho")
    util = _random_utility(rng, [d, r], "pi")
    net = Network([d, r], [util], [pot], [("D", "R")])
    assert validate(net).ok
    return net


def random_propagation(rng, max_vars=3, max_frame=3):
    """Randoms only: a chain of conditional belief functions, no utilities."""
    n = rng.randint(1, max_vars)
    variables = [random_var("R%d" % i, _frame(rng, i, max_frame)) for i in range(n)]
    arcs = []
    potentials = []
    for i, v in enumerate(variables):
        parents = [p for p in variables[:i] if rng.random() < 0.6]
        arcs.extend((p.name, v.name) for p in parents)
        tables = _conditional_tables(rng, parents, v.frame)
        potentials.append(conditional(v, parents, tables, label="pot_%s" % v.name))
    net = Network(variables, (), potentials, arcs)
    assert validate(net).ok
    return net


def rollback_value(net):
    """Exhaustive decision-tree rollback for singleton-potential networks.

    Walks the variables in chronological (declaration) order, maximizing over
    decisions and taking probability-weighted expectations over randoms.
    """
    order = [v.name for v in net.variables]
    by_head = {p.head.name: p for p in net.potentials}

    def utilities_at(assign):
        total = 0.0
        for u in net.utilities:
            cfg = make_config({n: assign[n] for n in u.domain})
            total += u.focals[0].values[cfg]
        return total

    def walk(i, assign):
        if i == len(order):
            return utilities_at(assign)
        v = net.by_name[order[i]]
        if v.kind == DECISION:
            return max(walk(i + 1, {**assign, v.name: act}) for act in v.frame)
        pot = by_head[v.name]
        key = make_config({p.name: assign[p.name] for p in pot.parents})
        total = 0.0
        for subset, mass in pot.tables[key]:
            (value,) = tuple(subset)
            total += mass * walk(i + 1, {**assign, v.name: value})
        return total

    return walk(0, {})


def exhaustive_max(net):
    """Brute-force maximum of the summed utilities over all decision configs.

    Only meaningful for networks without random variables.
    """
    frames = {v.name: v.frame for v in net.variables}
    best = None
    for cfg in all_configs([v.name for v in net.variables], frames):
        assign = dict(cfg)
        total = 0.0
        for u in net.utilities:
            key = make_config({n: assign[n] for n in u.domain})
            total += u.focals[0].values[key]
        best = total if best is None else max(best, total)
    return best


def decision_chain(n):
    """Problem text D1 -> R1 -> D2 -> ... -> Dn -> Rn, each utility on {D(k-1), R(k-1), Dk}.

    Every fusion step is small, but Dk's strategy map ranges over R1 ... R(k-1),
    so the strategy holds 2^n - 1 entries.
    """
    rows = "; ".join(
        "%s %s %s = %d" % (d0, r, d, (i * 7) % 5 - 2)
        for i, (d0, r, d) in enumerate((d0, r, d) for d0 in "ab" for r in "xy" for d in "ab")
    )
    declarations = []
    statements = ["utility u1 on {D1} { a = 1; b = 0 }"]
    for k in range(1, n + 1):
        declarations += ["decision D%d { a, b }" % k, "random R%d { x, y }" % k]
        statements += [
            "prec D%d -> R%d" % (k, k),
            "bpa p%d on {R%d | D%d} { a : {x} = 0.5; a : {x, y} = 0.5; b : {y} = 1 }" % (k, k, k),
        ]
        if k > 1:
            statements += [
                "prec R%d -> D%d" % (k - 1, k),
                "utility u%d on {D%d, R%d, D%d} { %s }" % (k, k - 1, k - 1, k, rows),
            ]
    return "\n".join(declarations + statements + ["lambda = 0.5", ""])


def decision_fan(k):
    """Problem text with decisions D0 ... D(k-1) on 10 acts, all preceding R.

    R has a vacuous bpa, and each utility ui on {Di, R} has 100 rows.  R is
    eliminated first, which joins every utility into one focal over 10^(k+1)
    configurations.
    """
    values = ["v%d" % j for j in range(10)]
    frame = "{ %s }" % ", ".join(values)
    lines = ["random R %s" % frame, "bpa p on {R} { %s = 1 }" % frame]
    for i in range(k):
        rows = "; ".join(
            "%s %s = %d" % (d, r, (a * 7 + b * 3 + i) % 11 - 5)
            for a, d in enumerate(values) for b, r in enumerate(values)
        )
        lines += [
            "decision D%d %s" % (i, frame),
            "prec D%d -> R" % i,
            "utility u%d on {D%d, R} { %s }" % (i, i, rows),
        ]
    return "\n".join(lines + ["lambda = 0.5", ""])


def utility_fan(k):
    """Problem text with decisions D0 ... D(k-1) and E on 10 acts, every Di preceding E.

    Each utility ui on {Di, E} has 100 rows, and there is no belief.  E is
    eliminated first, which joins every utility into one focal over 10^(k+1)
    configurations.
    """
    values = ["v%d" % j for j in range(10)]
    frame = "{ %s }" % ", ".join(values)
    lines = ["decision E %s" % frame]
    for i in range(k):
        rows = "; ".join(
            "%s %s = %d" % (d, e, (a * 3 + b * 7 + i) % 13 - 6)
            for a, d in enumerate(values) for b, e in enumerate(values)
        )
        lines += [
            "decision D%d %s" % (i, frame),
            "prec D%d -> E" % i,
            "utility u%d on {D%d, E} { %s }" % (i, i, rows),
        ]
    return "\n".join(lines + ["lambda = 0.5", ""])


VALUE_RTOL = 1e-6


def values_close(a, b, rtol=VALUE_RTOL, atol=1e-9):
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


def valuations_close(u, v, rtol=VALUE_RTOL, atol=1e-9):
    """Structural near-equality: same domains and supports, close values."""
    if u.domain != v.domain or len(u.focals) != len(v.focals):
        return False
    for fu, fv in zip(u.focals, v.focals):
        if fu.support != fv.support:
            return False
        if not all(values_close(fu.values[x], fv.values[x], rtol, atol) for x in fu.values):
            return False
    return True
