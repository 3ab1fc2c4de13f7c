"""Input pools, operations and result digests of the symfrob benchmark.

Every pool is fixed. A run's seed only orders the operations of its
passes (within each degree for the cold workloads; all of them for the
CLI sweep) or the request stream of its sessions (the warm workload);
every pass of a run repeats the same operations in the same order. An operation is an ``(id, thunk)`` pair;
the thunk looks every library function up on the ``symfrob`` module at
call time, so the layer wrappers of a traced pass are the ones called.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import re
import time
from fractions import Fraction

WORKLOADS = ("transform-cold", "basis-cold", "cli-sweep", "session-warm")

# The summary line of `symfrob verify`, read by the benchmark and by the
# golden generator.
VERIFY_LINE = re.compile(r"^suite \S+: (\d+) checks, (\d+) failures$", re.M)

# A cold pass must stay short enough for many passes per run, or a
# run's medians rest on few passes. Degree 13 would
# double a transform pass; degree 12 would double a conversion pass and
# its Gauss-Jordan working set. The traced run's baseline ladder covers
# degrees 12 and 14 in fresh processes instead.
TRANSFORM_DEGREES = range(6, 13)
BASIS_DEGREES = range(6, 12)

SESSION_STREAM = 1500
SESSION_ZIPF = 1.0
# A warmed session times its stream this many times, so that a run has
# many timed passes without paying the warm-up once per pass.
SESSION_REPEATS = 8

# A pass takes a calibration sample before an operation when this long
# has gone by since its last one.
CALIBRATE_EVERY_S = 0.05
# The calibration times that timings are scaled to. They only set the
# unit: each is about the median of its sample on the machine the
# figures in README.md come from (Intel Xeon, 2 CPUs, Python 3.11.7).
CALIBRATION_NOMINAL_MS = 2.5
SPAWN_CALIBRATION_NOMINAL_MS = 90.0
# The CLI sweep's calibration sample: an interpreter that starts and
# imports the standard modules the CLI's own imports pull in, and
# nothing of symfrob. A CLI command is mostly such a start, and slows
# with the machine as the start does.
SPAWN_CALIBRATION = "import argparse, fractions, json"


def calibrate() -> float:
    """Milliseconds for a fixed loop of tuple-keyed dictionary and Fraction arithmetic.

    This is the kind of work symfrob does, so the loop slows with the
    machine as symfrob does. The loop calls nothing of symfrob, so a
    change to the program leaves it alone.
    """
    start = time.perf_counter()
    terms = {}
    for i in range(1, 600):
        key = (i % 23, i % 7, i % 3)
        terms[key] = terms.get(key, 0) + Fraction(i % 17 + 1, i % 29 + 1)
    return (time.perf_counter() - start) * 1e3


def _ids(lam) -> str:
    return ",".join(str(p) for p in lam)


def _transform_shapes(n):
    return [(n,), (n - 1, 1), (n - 3, 1, 1, 1), (n - 2, 1, 1), (n - 2, 2), (1,) * n]


def _basis_shapes(n):
    return [(n,), (n - 1, 1), (n - 2, 1, 1), (n - 2, 2), (1,) * n]


def _transform_op(S, op, basis, lam):
    return getattr(S, op)(S.from_basis(basis, lam))


def _basis_op(S, src, dst, lam):
    return S.to_basis(S.from_basis(src, lam), dst)


def _session_transform_op(S, op, lam):
    return S.to_basis(getattr(S, op)(S.from_basis("s", lam)), "s")


def transform_pool(S):
    """fsur and fsurinv on a degree ladder, several shapes and bases; results stay in p."""
    return [
        (f"{op}:{basis}:{_ids(lam)}", lambda op=op, b=basis, lam=lam: _transform_op(S, op, b, lam))
        for n in TRANSFORM_DEGREES
        for lam in _transform_shapes(n)
        for basis in ("s", "h", "e", "p")
        for op in ("fsur", "fsurinv")
    ]


def basis_pool(S):
    """from_basis then to_basis, from s/p/h/e into s/h/e/m."""
    return [
        (f"{src}>{dst}:{_ids(lam)}", lambda s=src, d=dst, lam=lam: _basis_op(S, s, d, lam))
        for n in BASIS_DEGREES
        for lam in _basis_shapes(n)
        for src in ("s", "p", "h", "e")
        for dst in ("s", "h", "e", "m")
    ]


def session_pool(S):
    """Coefficients with |lam| <= 6, |mu| <= 4, and s-basis transforms with |lam| <= 9."""
    small = S.partitions_up_to(6)
    modules = S.partitions_up_to(4)
    pool = [
        (f"coeff:{kind}:{_ids(lam)}|{_ids(mu)}", lambda k=kind, lam=lam, mu=mu: S.coeff(k, lam, mu))
        for kind in ("r", "t", "u", "a", "b")
        for lam in small
        for mu in modules
    ]
    pool += [
        (f"{op}>s:{_ids(lam)}", lambda op=op, lam=lam: _session_transform_op(S, op, lam))
        for lam in S.partitions_up_to(9)
        for op in ("fsur", "fsurinv")
    ]
    return pool


LADDER = {
    "transform-cold": [(op, n) for op in ("fsur", "fsurinv") for n in (10, 12, 14)],
    "basis-cold": [(f"to_basis_{dst}", n) for dst in ("h", "s") for n in (10, 12)],
}


def ladder_op(S, label: str, n: int):
    """One baseline-ladder row on s[n-2,1,1]: (golden id, input, timed call).

    Only the call is timed; building the input is not.
    """
    lam = (n - 2, 1, 1)
    f = S.from_basis("s", lam)
    if label.startswith("to_basis_"):
        dst = label[len("to_basis_"):]
        return f"s>{dst}:{_ids(lam)}", f, lambda f: S.to_basis(f, dst)
    return f"{label}:s:{_ids(lam)}", f, lambda f: getattr(S, label)(f)


def cli_commands():
    """The CLI sweep: README examples, every table kind, every verify suite."""
    return [
        ["coeff", "--kind", "r", "--lam", "[2]", "--mu", "[2]"],
        ["transform", "--op", "fsur", "--expr", "h[2,2]", "--basis", "h"],
        ["transform", "--op", "f", "--expr", "p[3]^2 - 2*e[1,1]", "--basis", "s", "--cutoff", "8"],
        ["table", "--kind", "a", "--maxdeg", "4", "--format", "csv"],
        ["verify", "--suite", "oracle", "--maxdeg", "5"],
        ["lyndon", "--word", "21212121111"],
        ["table", "--kind", "r", "--maxdeg", "6", "--format", "json"],
        ["table", "--kind", "t", "--maxdeg", "6", "--format", "csv"],
        ["table", "--kind", "u", "--maxdeg", "6", "--format", "json"],
        ["table", "--kind", "a", "--maxdeg", "6", "--format", "json"],
        # maxdeg <= 6 cross-checks b against the inverse of the a table.
        ["table", "--kind", "b", "--maxdeg", "6", "--format", "json"],
        ["table", "--kind", "b", "--maxdeg", "5", "--format", "json"],
        ["verify", "--suite", "kronecker", "--maxdeg", "4"],
        ["verify", "--suite", "routes", "--maxdeg", "4"],
        ["verify", "--suite", "routes", "--maxdeg", "5"],
        ["verify", "--suite", "vanishing", "--maxdeg", "5"],
        ["verify", "--suite", "durfee", "--maxdeg", "6"],
        ["verify", "--suite", "genfunc", "--maxdeg", "5"],
        ["verify", "--suite", "oracle", "--maxdeg", "4"],
        ["transform", "--op", "fsur", "--expr", "s[3,2,1]", "--basis", "s"],
        ["transform", "--op", "fsurinv", "--expr", "s[5,2,1]", "--basis", "s"],
        ["transform", "--op", "fsurinv", "--expr", "e[2,2,1]", "--basis", "e"],
        ["transform", "--op", "f", "--expr", "h[3,1]", "--basis", "h"],
        ["transform", "--op", "fsur", "--expr", "e[3,1]*p[2] - 3*h[2]^2", "--basis", "m"],
        ["transform", "--op", "fsur", "--expr", "s[4,4]", "--basis", "p"],
        ["transform", "--op", "fsurinv", "--expr", "p[2,2,1] + s[3]", "--basis", "h", "--cutoff", "4"],
        ["transform", "--op", "fsur", "--expr", "h[1,3]", "--basis", "h", "--sort-indices"],
        ["coeff", "--kind", "t", "--lam", "[3,2,1]", "--mu", "[2,1]"],
        ["coeff", "--kind", "u", "--lam", "[4,2]", "--mu", "[3]"],
        ["coeff", "--kind", "a", "--lam", "[4,3]", "--mu", "[2,1]"],
        ["coeff", "--kind", "b", "--lam", "[3,2,1]", "--mu", "[2,1]"],
        ["coeff", "--kind", "r", "--lam", "[6,2]", "--mu", "[3,1]"],
        ["lyndon", "--word", "1121212"],
        ["lyndon", "--word", "3213211"],
    ]


def cli_id(argv) -> str:
    return "cli:" + " ".join(argv)


def pass_order(items, seed: int) -> list:
    """The items of a pass, shuffled by the run seed; every pass of a run has this order."""
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


def degree_order(items, seed: int) -> list:
    """Degrees ascending, the items of each degree shuffled by the run seed.

    A cold operation pays for the memo entries no earlier operation
    filled. In a full shuffle, a high-degree operation that comes early
    also pays for the tables of the degrees below it, and which one does
    so changes with the seed; climbing the degrees keeps that cost in
    the same place for every seed.
    """
    rng = random.Random(seed)
    order = []
    for _, group in itertools.groupby(items, key=lambda item: _degree(item[0])):
        group = list(group)
        rng.shuffle(group)
        order += group
    return order


def _degree(op_id: str) -> int:
    return sum(int(part) for part in op_id.rsplit(":", 1)[1].split(","))


def session_stream(pool, seed: int) -> list:
    """A Zipf stream of repeats over the pool, in an order drawn by the seed.

    Popularity ranks are a fixed shuffle of the pool. The stream holds
    each request as often as a Zipf draw would on average: its i-th
    request is the one at the (i + 1/2) / SESSION_STREAM quantile of the
    distribution. So every seed times the same work, and the seed draws
    only its order.
    """
    ranked = list(pool)
    random.Random(0).shuffle(ranked)
    weights = [1.0 / (rank + 1) ** SESSION_ZIPF for rank in range(len(ranked))]
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]
    stream = [ranked[bisect.bisect_left(cumulative, (i + 0.5) / SESSION_STREAM * total)]
              for i in range(SESSION_STREAM)]
    random.Random(seed).shuffle(stream)
    return stream


# -- digests -------------------------------------------------------------------


def _canonical_terms(pairs) -> str:
    rows = sorted(pairs, key=lambda t: (sum(t[0]), tuple(-p for p in t[0])))
    return "\n".join(
        f"{_ids(lam)}:{Fraction(c).numerator}/{Fraction(c).denominator}" for lam, c in rows
    )


def canonical(result) -> str:
    """Exact canonical text: sorted partitions with num/den strings."""
    if isinstance(result, int) and not isinstance(result, bool):
        return f"int:{result}"
    if isinstance(result, dict):
        return "dict\n" + _canonical_terms(result.items())
    if hasattr(result, "terms") and hasattr(result, "cutoff"):
        return f"p cutoff={result.cutoff}\n" + _canonical_terms(result.terms())
    raise TypeError(f"no canonical form for {type(result).__name__}")


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(result) -> str:
    return digest_text(canonical(result))


def cli_digest(returncode: int, stdout: str) -> str:
    return digest_text(f"exit {returncode}\n{stdout}")
