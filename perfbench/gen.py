"""Seeded generators for the benchmark's problem files.

The generators write problem-file text directly and never import valnet, so
neither edits to valnet nor edits to the test suite's generators can change
what a given seed produces.  Every generated file follows the file format's
rules; in particular a random variable preceded by a decision always gets at
least one parent, because the parser rejects an unconditional bpa there.

Each workload is a fixed list of shapes (variables, frame sizes, parents,
focal subset sizes per table, utility scopes), drawn once from a constant seed and
sized by structure alone, never by timing.  The run's seed draws everything
else: focal members, masses, utility values and lambda.  Fixing the shapes
keeps every rung of a ladder at the same step frames and focal products on
every seed, so the seed changes what is computed but not how much.
"""

from __future__ import annotations

import math
import random

# solve-ladder rungs: (lowest, highest) largest elimination-step frame, i.e.
# the product of the frame sizes in the largest fusion domain.  Step frames
# above 256 take seconds per solve, so the ladder stops there.
LADDER_RUNGS = ((8, 24), (25, 48), (49, 96), (97, 160), (161, 256))
LADDER_PER_RUNG = 8
# oracle_solve combines everything into one joint valuation and then
# marginalizes with a cost quadratic in the joint frame; this bound on
# (product of ballooned focal counts) * (joint frame)^2 keeps the reference
# for one seed within seconds.
ORACLE_BUDGET = 600_000

# marginal-chains rungs: (lowest, highest) largest product of ballooned focal
# counts touched by one fusion step of `valnet marginal`.  The median op
# falls in the middle rung; a narrow one keeps it from moving with the seed.
CHAIN_RUNGS = ((4, 24), (30, 50), (73, 160))
CHAIN_PER_RUNG = 8
# The reference combines every ballooned potential at once, so the product
# of all focal counts is bounded as well.
CHAIN_REFERENCE_BUDGET = 1_000

# Each shape is rendered this many times per seed with independent values,
# so that a percentile rests on many networks, not on the draw of a few.
# The chains' op times depend more on the draw, and their references are
# cheap, so they get more draws; the ladder's oracle references are not.
LADDER_DRAWS_PER_SHAPE = 4
CHAIN_DRAWS_PER_SHAPE = 8

MAX_CANDIDATES = 20_000


def _configs(frames):
    out = [()]
    for frame in frames:
        out = [c + (v,) for c in out for v in frame]
    return out


class Shape:
    """Variables in chronological order plus valuation scopes and focal counts."""

    def __init__(self):
        self.kinds = []
        self.sizes = []
        self.arcs = []
        self.bpas = []  # (head, parents, focal subset sizes per parent configuration)
        self.utilities = []  # sorted scopes
        self.target = None

    def add_variable(self, kind, size):
        self.kinds.append(kind)
        self.sizes.append(size)

    def add_bpa(self, rng, head, parents, focal_cap):
        """Subset sizes of the focals of each per-parent table.

        Focal counts are capped so that their product (the ballooned focal
        count) stays within focal_cap; sizes are fixed here, members by the
        seed, because support sizes drive the cost of combination.
        """
        size = self.sizes[head]
        tables = []
        product = 1
        for _ in range(math.prod(self.sizes[p] for p in parents)):
            count = rng.randint(1, min(3, 2 ** size - 1, max(1, focal_cap // product)))
            while True:
                sizes = tuple(rng.randint(1, size) for _ in range(count))
                if all(sizes.count(k) <= math.comb(size, k) for k in sizes):
                    break
            tables.append(sizes)
            product *= count
        self.bpas.append((head, tuple(parents), tuple(tables)))

    def frame_product(self, indices):
        return math.prod(self.sizes[i] for i in indices)

    def potentials(self):
        """(scope, ballooned focal count) per bpa."""
        return [(frozenset([h, *ps]), math.prod(map(len, t))) for h, ps, t in self.bpas]


def _names(shape):
    return ["%s%d" % ("D" if k == "decision" else "R", i) for i, k in enumerate(shape.kinds)]


def _frames(shape):
    return [
        tuple("%s%d" % (chr(ord("a") + i), j) for j in range(size))
        for i, size in enumerate(shape.sizes)
    ]


def _masses(rng, frame, sizes):
    """Distinct subsets of a frame with the given sizes, masses summing to one."""
    subsets = []
    for size in sizes:
        while True:
            picked = set(rng.sample(frame, size))
            members = tuple(v for v in frame if v in picked)
            if members not in subsets:
                break
        subsets.append(members)
    weights = [rng.randint(1, 9) for _ in subsets]
    total = sum(weights)
    return [(s, w / total) for s, w in zip(subsets, weights)]


def render(shape, rng, lam=None):
    """Problem-file text for a shape, with values drawn from rng."""
    names, frames = _names(shape), _frames(shape)
    lines = [
        "%s %s { %s }" % (kind, name, ", ".join(frame))
        for kind, name, frame in zip(shape.kinds, names, frames)
    ]
    lines += ["prec %s -> %s" % (names[x], names[y]) for x, y in shape.arcs]
    for head, parents, tables in shape.bpas:
        rows = []
        for cfg, sizes in zip(_configs([frames[p] for p in parents]), tables):
            prefix = " ".join(cfg) + " : " if parents else ""
            for subset, mass in _masses(rng, frames[head], sizes):
                rows.append("  %s{%s} = %r" % (prefix, ", ".join(subset), mass))
        scope = names[head]
        if parents:
            scope += " | " + ", ".join(names[p] for p in parents)
        lines.append("bpa p_%s on {%s} {\n%s\n}" % (names[head], scope, ";\n".join(rows)))
    for k, scope in enumerate(shape.utilities):
        rows = [
            "  %s = %r" % (" ".join(cfg), round(rng.uniform(-100.0, 100.0), 2))
            for cfg in _configs([frames[i] for i in scope])
        ]
        lines.append(
            "utility u%d on {%s} {\n%s\n}"
            % (k, ", ".join(names[i] for i in scope), ";\n".join(rows))
        )
    if lam is not None:
        lines.append("lambda = %r" % lam)
    return "\n".join(lines) + "\n"


def _ladder_candidate(rng, rung):
    """A chain-ordered decision network sized towards one rung of the ladder."""
    s = Shape()
    n = rng.randint(3, 4 + rung)
    random_open = False
    for i in range(n):
        # A decision must separate any two randoms (precedence condition p5).
        kind = "decision" if random_open or rng.random() < 0.5 else "random"
        s.add_variable(kind, rng.randint(2, 3 + rung // 2))
        random_open = kind == "random"
        if i:
            s.arcs.append((i - 1, i))
    if "decision" not in s.kinds:
        return None
    for i, kind in enumerate(s.kinds):
        if kind != "random":
            continue
        parents = [j for j in range(i) if rng.random() < 0.5][:2]
        decisions_before = [j for j in range(i) if s.kinds[j] == "decision"]
        if not parents and decisions_before:
            # The file format forbids an unconditional bpa after a decision.
            parents = [decisions_before[-1]]
        s.add_bpa(rng, i, parents, focal_cap=12)
    for i, kind in enumerate(s.kinds):
        if kind == "decision":
            others = [j for j in range(n) if j != i and rng.random() < 0.35][:2]
            s.utilities.append(tuple(sorted([i, *others])))
    return s


def ladder_max_step(shape):
    """Largest fusion-domain frame product when eliminating in reverse order.

    The chain arcs make precedence total, so the solver's elimination order
    is the reverse declaration order.
    """
    pool = [scope for scope, _ in shape.potentials()] + [frozenset(u) for u in shape.utilities]
    largest = 0
    for v in reversed(range(len(shape.kinds))):
        touched = [d for d in pool if v in d]
        if not touched:
            continue
        union = frozenset().union(*touched)
        largest = max(largest, shape.frame_product(union))
        pool = [d for d in pool if v not in d] + [union - {v}]
    return largest


def _fill_rungs(name, rungs, per_rung, candidate, size):
    """[(rung, shape)]: the first per_rung candidates whose size falls in each rung.

    The candidates come from a constant seed, so every run gets the same
    shapes.  ``candidate`` may return None, and ``size`` returns None for a
    shape over the reference budget.
    """
    rng = random.Random("%s shapes" % name)
    shapes = []
    for rung, (lo, hi) in enumerate(rungs):
        found = 0
        for _ in range(MAX_CANDIDATES):
            s = candidate(rng, rung)
            value = None if s is None else size(s)
            if value is not None and lo <= value <= hi:
                shapes.append((rung, s))
                found += 1
                if found == per_rung:
                    break
        else:
            raise RuntimeError("%s: rung %r cannot be filled" % (name, (lo, hi)))
    return shapes


def _ladder_size(s):
    joint = s.frame_product(range(len(s.kinds)))
    focals = math.prod(count for _, count in s.potentials())
    return ladder_max_step(s) if focals * joint * joint <= ORACLE_BUDGET else None


def ladder_shapes():
    """LADDER_PER_RUNG shapes per rung of LADDER_RUNGS."""
    return _fill_rungs("solve-ladder", LADDER_RUNGS, LADDER_PER_RUNG, _ladder_candidate,
                       _ladder_size)


def solve_ladder(seed):
    """The solve-ladder files for a seed: [(file name, text)]."""
    rng = random.Random("solve-ladder:%d" % seed)
    out = []
    for k, (rung, shape) in enumerate(ladder_shapes()):
        for draw in range(LADDER_DRAWS_PER_SHAPE):
            text = render(shape, rng, lam=round(rng.uniform(0.0, 1.0), 2))
            out.append(("ladder-r%d-%02d-%d.vn" % (rung, k, draw), text))
    return out


def _chain_candidate(rng, rung):
    """Random variables only, each conditioned on at most two earlier ones."""
    s = Shape()
    n = rng.randint(3, 4 + rung)
    for i in range(n):
        s.add_variable("random", rng.randint(2, 3))
    for i in range(n):
        parents = [j for j in range(i) if rng.random() < 0.6][-2:]
        if i and not parents:
            parents = [i - 1]
        s.arcs.extend((j, i) for j in parents)
        s.add_bpa(rng, i, parents, focal_cap=6 + 6 * rung)
    s.target = rng.randrange(n)
    return s


def chain_max_step(shape):
    """Largest product of focal counts touched by one step of `valnet marginal`.

    Mirrors propagate_marginal: eliminate every other variable in declaration
    order, counting a fused result's focals as the product of its inputs'.
    """
    pool = shape.potentials()
    largest = 0
    for v in range(len(shape.kinds)):
        if v == shape.target:
            continue
        touched = [(d, c) for d, c in pool if v in d]
        if not touched:
            continue
        product = math.prod(c for _, c in touched)
        largest = max(largest, product)
        union = frozenset().union(*(d for d, _ in touched))
        pool = [(d, c) for d, c in pool if v not in d] + [(union - {v}, product)]
    return largest


def _chain_size(s):
    total = math.prod(count for _, count in s.potentials())
    return chain_max_step(s) if total <= CHAIN_REFERENCE_BUDGET else None


def chain_shapes():
    """CHAIN_PER_RUNG shapes per rung of CHAIN_RUNGS."""
    return _fill_rungs("marginal-chains", CHAIN_RUNGS, CHAIN_PER_RUNG, _chain_candidate,
                       _chain_size)


def marginal_chains(seed):
    """The marginal-chains files for a seed: [(file name, text, target)]."""
    rng = random.Random("marginal-chains:%d" % seed)
    return [
        ("chain-r%d-%02d-%d.vn" % (rung, k, draw), render(shape, rng), _names(shape)[shape.target])
        for k, (rung, shape) in enumerate(chain_shapes())
        for draw in range(CHAIN_DRAWS_PER_SHAPE)
    ]
