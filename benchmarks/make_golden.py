"""Write benchmarks/golden.json: the digest of every benchmark result.

    PYTHONPATH=src python3 benchmarks/make_golden.py

Each result is computed once and, where one exists, cross-checked by an
independent route before its digest is written:

- fsur: evaluation at roots of unity times Emin, cut at the input degree;
- fsurinv: fsur of the result gives the input back (and the iterative
  inverse agrees);
- to_basis: expanding the coefficients back with from_basis gives the input;
- coeff r: evaluation over cycle types (restriction_coeff_eval);
- CLI: transforms as above on the parsed output, the r table entry by
  entry, every verify reports checks and no failures, and every Lyndon
  factorization multiplies back to its word.

The other coefficient kinds have no independent route in the library;
their digests pin the values at the commit that generated them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import symfrob as S
from symfrob import cli

import workloads

BENCH = Path(__file__).resolve().parent


class CrossCheckError(Exception):
    pass


def expect(ok, what):
    if not ok:
        raise CrossCheckError(what)


def check_fsur(f, result):
    n = f.degree
    via_roots = S.frobenius_via_roots(f, n) * S.standard_series("Emin", n)
    expect(via_roots == result.truncate(n), "fsur differs from the roots-of-unity route")


def check_fsurinv(f, result):
    expect(S.fsur(result) == f, "fsur(fsurinv(f)) != f")
    expect(S.fsurinv_iterative(f) == result, "fsurinv differs from the iterative inverse")


def check_expansion(f, basis, coeffs):
    back = S.SymFunc.zero()
    for lam, c in coeffs.items():
        back = back + S.from_basis(basis, lam) * c
    expect(back == f, f"from_basis round trip in {basis} does not give the input back")


def library_goldens(golden):
    for op_id, thunk in workloads.transform_pool(S) + workloads.session_pool(S):
        golden[op_id] = workloads.digest(checked(op_id, thunk()))
    for op_id, thunk in workloads.basis_pool(S):
        result = thunk()
        src, dst, lam = parse_basis_id(op_id)
        check_expansion(S.from_basis(src, lam), dst, result)
        golden[op_id] = workloads.digest(result)
    for rows in workloads.LADDER.values():
        for label, n in rows:
            op_id, f, call = workloads.ladder_op(S, label, n)
            result = call(f)
            if label.startswith("to_basis_"):
                check_expansion(f, label[-1], result)
            else:
                checked(op_id, result)
            golden[op_id] = workloads.digest(result)


def parse_lam(text):
    return tuple(int(p) for p in text.split(",")) if text else ()


def parse_basis_id(op_id):
    pair, lam = op_id.split(":")
    src, dst = pair.split(">")
    return src, dst, parse_lam(lam)


def checked(op_id, result):
    """Cross-check one transform or coefficient result by its id."""
    kind, rest = op_id.split(":", 1)
    if kind == "coeff":
        coeff_kind, pair = rest.split(":")
        lam, mu = (parse_lam(t) for t in pair.split("|"))
        if coeff_kind == "r":
            expect(S.restriction_coeff_eval(lam, mu) == result, "r differs from evaluation")
        return result
    if kind in ("fsur>s", "fsurinv>s"):
        op, lam = kind.split(">")[0], parse_lam(rest)
        f = S.from_basis("s", lam)
        value = getattr(S, op)(f)
        check_expansion(value, "s", result)
        (check_fsur if op == "fsur" else check_fsurinv)(f, value)
        return result
    basis, lam = rest.split(":")
    f = S.from_basis(basis, parse_lam(lam))
    (check_fsur if kind == "fsur" else check_fsurinv)(f, result)
    return result


def check_cli(argv, stdout):
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if command == "verify":
        match = workloads.VERIFY_LINE.search(stdout)
        expect(match and int(match.group(1)) > 0 and match.group(2) == "0",
               "verify did not report checks without failures")
    elif command == "lyndon":
        factors = [S.lyndon.parse_word(w) for w in stdout.splitlines()[0][1:-1].split(")(")]
        expect(sum(factors, ()) == S.lyndon.parse_word(opts["--word"]),
               "factors do not multiply back to the word")
        expect(all(S.is_lyndon(w) for w in factors), "a factor is not Lyndon")
        expect(factors == sorted(factors, reverse=True), "factors are not nonincreasing")
    elif command == "coeff" and opts["--kind"] == "r":
        value = S.restriction_coeff_eval(S.parse_partition(opts["--lam"]),
                                         S.parse_partition(opts["--mu"]))
        expect(int(stdout) == value, "coeff r differs from evaluation")
    elif command == "table" and opts["--kind"] == "r":
        data = json.loads(stdout)
        index = [S.parse_partition(label) for label in data["index"]]
        for i, mu in enumerate(index):
            for j, lam in enumerate(index):
                expect(data["matrix"][i][j] == S.restriction_coeff_eval(lam, mu),
                       f"r table entry {lam}, {mu} differs from evaluation")
    elif command == "transform":
        f = cli.evaluate_expr(cli.parse_expr(opts["--expr"], "--sort-indices" in argv))
        result = S.from_serializable(json.loads(stdout))
        cutoff = result.cutoff
        if opts["--op"] == "f":
            expect(S.frobenius_via_roots(f, cutoff) == result, "f differs from the roots route")
        elif opts["--op"] == "fsur":
            n = f.degree
            m = n if cutoff is None else min(n, cutoff)
            via_roots = S.frobenius_via_roots(f, n) * S.standard_series("Emin", n)
            expect(via_roots.truncate(m) == result.truncate(m), "fsur differs from the roots route")
        else:
            inverse = S.fsurinv_iterative(f)
            expect((inverse if cutoff is None else inverse.truncate(cutoff)) == result,
                   "fsurinv differs from the iterative inverse")


def cli_goldens(golden):
    env = {"PYTHONPATH": str(BENCH.parent / "src"), "PYTHONHASHSEED": "0", "PATH": ""}
    for argv in workloads.cli_commands():
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "cli", "-", *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        expect(proc.returncode == 0, f"{argv} exited {proc.returncode}: {proc.stderr}")
        check_cli(argv, proc.stdout)
        golden[workloads.cli_id(argv)] = workloads.cli_digest(proc.returncode, proc.stdout)


def main():
    golden = {}
    library_goldens(golden)
    cli_goldens(golden)
    with open(BENCH / "golden.json", "w") as fh:
        json.dump(dict(sorted(golden.items())), fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(golden)} cross-checked digests to {BENCH / 'golden.json'}")


if __name__ == "__main__":
    main()
