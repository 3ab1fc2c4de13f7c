"""Command line front end: coefficient queries, transforms, tables,
verification sweeps, and Lyndon factorization.

Exit codes: 0 success, 1 validation or parse error, 2 verification
failure, 3 internal consistency violation. All numbers print exactly
(decimal strings, rationals as num/den), never as floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import frobenius as frob
from .lyndon import format_factorization, parse_word, pi_of_word
from .oracles import frobenius_via_roots
from .partitions import (
    _count,
    as_partition,
    format_partition,
    parse_partition,
    partition_from_composition,
    partitions_of,
    partitions_up_to,
)
from .symfunc import (
    BASES,
    InternalCheckError,
    PrecisionError,
    SymFunc,
    from_basis,
    kronecker,
    to_serializable,
)


# -- expression language -----------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ('^' uint)? | '(' expr ')' | int
# atom   := basis '[' uint (',' uint)* ']' | basis '[]'
#
# The syntax tree is made of tagged tuples, which compare by tag and
# fields, hash, pickle and stay immutable as they are:
#   ("int", value)             ("atom", basis, index)
#   ("pow", atom, exponent)    ("prod", factors)
#   ("sum", ((sign, node), ...))
# A prod has at least two factors, and a sum at least two terms, the
# first signed "+". Parentheses only group: "(x)" parses to the node of x.


class ExprError(ValueError):
    """Syntax or validation error in an expression, with a position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _ExprParser:
    def __init__(self, text, sort_indices=False):
        self.text = text
        self.pos = 0
        self.sort_indices = sort_indices

    def error(self, message):
        raise ExprError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def uint(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected an unsigned integer")
        return int(self.text[start : self.pos])

    def parse(self):
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return node

    def expr(self):
        terms = [("+", self.term())]
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            terms.append((op, self.term()))
        return terms[0][1] if len(terms) == 1 else ("sum", tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ("prod", tuple(factors))

    def factor(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.expect(")")
            return inner
        if "0" <= ch <= "9":
            return ("int", self.uint())
        if ch in BASES:
            atom = self.atom()
            if self.peek() == "^":
                self.pos += 1
                return ("pow", atom, self.uint())
            return atom
        self.error("expected a factor")

    def atom(self):
        basis = self.peek()
        self.pos += 1
        self.expect("[")
        parts = []
        if self.peek() != "]":
            parts.append(self.uint())
            while self.peek() == ",":
                self.pos += 1
                parts.append(self.uint())
        self.expect("]")
        if self.sort_indices and basis in ("e", "h"):
            index = partition_from_composition(parts)
        else:
            try:
                index = as_partition(parts)
            except ValueError as exc:
                raise ExprError(str(exc), self.pos) from None
        return ("atom", basis, index)


def parse_expr(text: str, sort_indices: bool = False):
    """Parse an expression into its syntax tree of tagged tuples; nesting
    deeper than the interpreter's recursion limit raises ExprError."""
    parser = _ExprParser(text, sort_indices)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprError("expression nests too deeply", parser.pos) from None


def evaluate_expr(node) -> SymFunc:
    """Evaluate a syntax tree to an exact symmetric function."""
    match node:
        case ("int", value):
            return SymFunc.one() * value
        case ("atom", basis, index):
            return from_basis(basis, index)
        case ("pow", atom, exponent):
            return evaluate_expr(atom) ** exponent
        case ("prod", factors):
            out = SymFunc.one()
            for factor in factors:
                out = out * evaluate_expr(factor)
            return out
        case ("sum", terms):
            out = SymFunc.zero()
            for sign, term in terms:
                value = evaluate_expr(term)
                out = out + (value if sign == "+" else -value)
            return out
    raise TypeError(f"not an expression node: {node!r}")


# -- verification suites -----------------------------------------------------
#
# Each suite is a generator over --maxdeg: it runs its checks in order and
# yields (name, result) for each one as it runs, the result a bool.


def _suite_kronecker(maxdeg):
    parts = partitions_up_to(maxdeg)
    series = {lam: frob.frobenius_series(from_basis("s", lam), maxdeg) for lam in parts}
    for lam in parts:
        for mu in parts:
            if lam > mu:
                continue
            left = frob.frobenius_series(from_basis("s", lam) * from_basis("s", mu), maxdeg)
            right = kronecker(series[lam], series[mu])
            yield f"product rule {format_partition(lam)} {format_partition(mu)}", left == right


# The paper's closed forms for fsur of a basis element, one row per basis.
_DIRECT_FORMULAS = (
    ("h", frob.fsur_h_direct),
    ("e", frob.fsur_e_direct),
    ("p", frob.fsur_p_direct),
)


def _suite_routes(maxdeg):
    for lam in partitions_up_to(maxdeg):
        label, s_lam = format_partition(lam), from_basis("s", lam)
        yield f"expansion route s{label}", frob.fsur(s_lam) == frob.fsur_expansion(s_lam)
        for basis, direct in _DIRECT_FORMULAS:
            yield f"{basis} formula {label}", frob.fsur(from_basis(basis, lam)) == direct(lam)
        for basis in BASES:
            yield f"inverse round-trip {basis}{label}", _roundtrip(basis, lam)


def _roundtrip(basis, lam):
    f = from_basis(basis, lam)
    inverse = frob.fsurinv(f)
    if frob.fsurinv(frob.fsur(f)) != f or frob.fsur(inverse) != f:
        return False
    return frob.fsurinv_iterative(f) == inverse


def _suite_vanishing(maxdeg):
    for kind, coeff_kind in (("r-bound", "r"), ("t-bound", "t"), ("a-bound", "a")):
        index, matrix = frob.coeff_table(coeff_kind, maxdeg)
        yield f"{kind} sweep through degree {maxdeg}", all(
            frob.vanishing_check(kind, lam, mu)
            for mu, row in zip(index, matrix)
            for lam, value in zip(index, row)
            if value > 0
        )


def _suite_durfee(maxdeg):
    for k in (1, 2):
        yield f"durfee criterion k={k} through degree {maxdeg}", all(
            (frob.witness_search(mu, k) is not None) == frob.durfee_criterion(mu, k)
            for n in range(maxdeg + 1)
            for mu in partitions_of(n)
        )


def _suite_genfunc(maxdeg):
    jobs = [(1, max(1, maxdeg), "reciprocal"), (1, max(1, maxdeg), "product")]
    if maxdeg >= 2:
        jobs.append((2, min(maxdeg, 4), "reciprocal"))
    for num_vars, bound, which in jobs:
        yield (
            f"{which} identity in {num_vars} variables through degree {bound}",
            frob.genfunc_identity_check(num_vars, bound, which),
        )


def _suite_oracle(maxdeg):
    for basis in BASES:
        for lam in partitions_up_to(maxdeg):
            f = from_basis(basis, lam)
            ok = frobenius_via_roots(f, maxdeg) == frob.frobenius_series(f, maxdeg)
            yield f"roots route {basis}{format_partition(lam)}", ok


SUITES = {
    "kronecker": _suite_kronecker,
    "routes": _suite_routes,
    "vanishing": _suite_vanishing,
    "durfee": _suite_durfee,
    "genfunc": _suite_genfunc,
    "oracle": _suite_oracle,
}


# -- subcommands --------------------------------------------------------------


def _cmd_coeff(args):
    value = frob.coeff(args.kind, parse_partition(args.lam), parse_partition(args.mu))
    print(value)
    return 0


def _cmd_transform(args):
    tree = parse_expr(args.expr, sort_indices=args.sort_indices)
    f = evaluate_expr(tree)
    if args.op == "f":
        cutoff = args.cutoff if args.cutoff is not None else f.degree + 4
        result = frob.frobenius_series(f, cutoff)
    else:
        result = frob.fsur(f) if args.op == "fsur" else frob.fsurinv(f)
        if args.cutoff is not None:
            result = result.truncate(args.cutoff)
    print(json.dumps(to_serializable(result, args.basis)))
    return 0


def _cmd_table(args):
    if args.kind in ("a", "b"):
        index, matrix = frob.stable_matrix(args.kind, args.maxdeg)
    else:
        index, matrix = frob.coeff_table(args.kind, args.maxdeg)
    labels = [format_partition(lam) for lam in index]
    if args.format == "csv":
        print("," + ",".join(labels))
        for label, row in zip(labels, matrix):
            print(label + "," + ",".join(str(x) for x in row))
    else:
        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "maxdeg": args.maxdeg,
                    "index": labels,
                    "matrix": matrix,
                }
            )
        )
    return 0


def _cmd_verify(args):
    checks, failures = 0, []
    for name, ok in SUITES[args.suite](args.maxdeg):
        checks += 1
        if not ok:
            failures.append(name)
    print(f"suite {args.suite}: {checks} checks, {len(failures)} failures")
    for name in failures:
        print(f"FAIL {name}", file=sys.stderr)
    if not checks:
        print(f"FAIL suite {args.suite} ran no checks", file=sys.stderr)
    return 2 if failures or not checks else 0


def _cmd_lyndon(args):
    word = parse_word(args.word)
    print(format_factorization(word))
    print(format_partition(pi_of_word(word)))
    return 0


def _nonnegative_int(text: str) -> int:
    """argparse type for degree bounds, read by the library's count rule.

    The text is parsed exactly as a Fraction, so "2.0" gives 2 as
    ``coeff_table("a", 2.0)`` does, while "2.5", "-1" and "x" are rejected,
    as are "1_0" and non-ASCII digits, which Fraction would read.
    """
    try:
        if text.isascii() and "_" not in text:
            return _count(Fraction(text))
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symfrob",
        description="Exact Frobenius transform computations on symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="print one restriction-style coefficient")
    p_coeff.add_argument("--kind", required=True, choices=frob.COEFF_KINDS)
    p_coeff.add_argument("--lam", required=True, help='partition, e.g. "[2,1]"')
    p_coeff.add_argument("--mu", required=True, help='partition, e.g. "[3]"')
    p_coeff.set_defaults(func=_cmd_coeff)

    p_tr = sub.add_parser("transform", help="apply a transform to an expression")
    p_tr.add_argument("--op", required=True, choices=("f", "fsur", "fsurinv"))
    p_tr.add_argument("--expr", required=True, help='e.g. "p[3]^2 - 2*e[1,1]"')
    p_tr.add_argument(
        "--cutoff",
        type=_nonnegative_int,
        help="series degree bound; for --op f the default is deg(expr) + 4",
    )
    p_tr.add_argument("--basis", required=True, choices=BASES)
    p_tr.add_argument(
        "--sort-indices",
        action="store_true",
        help="accept unsorted e/h indices and sort them (s, m, p stay strict)",
    )
    p_tr.set_defaults(func=_cmd_transform)

    p_tab = sub.add_parser("table", help="export a coefficient matrix")
    p_tab.add_argument("--kind", required=True, choices=frob.COEFF_KINDS)
    p_tab.add_argument("--maxdeg", required=True, type=_nonnegative_int)
    p_tab.add_argument("--format", default="csv", choices=("csv", "json"))
    p_tab.set_defaults(func=_cmd_table)

    p_ver = sub.add_parser("verify", help="run a verification sweep")
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_ver.add_argument("--maxdeg", required=True, type=_nonnegative_int)
    p_ver.set_defaults(func=_cmd_verify)

    p_lyn = sub.add_parser("lyndon", help="factor a word and print its pi partition")
    p_lyn.add_argument("--word", required=True, help='digit string, e.g. "21211"')
    p_lyn.set_defaults(func=_cmd_lyndon)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
