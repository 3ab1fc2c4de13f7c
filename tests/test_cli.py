import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfrob.cli import ExprError, evaluate_expr, format_expr, main, parse_expr
from symfrob.frobenius import fsur
from symfrob.symfunc import BASES, from_basis, from_serializable, to_serializable

from helpers import partition_up_to


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expression language ------------------------------------------------------


def test_parse_atom():
    assert parse_expr("h[2,2]") == ("atom", "h", (2, 2))
    assert parse_expr("s[]") == ("atom", "s", ())


def test_parse_precedence():
    tree = parse_expr("p[3]^2 - 2*e[1,1]")
    assert tree == (
        "sum",
        (
            ("+", ("pow", ("atom", "p", (3,)), 2)),
            ("-", ("prod", (("int", 2), ("atom", "e", (1, 1))))),
        ),
    )
    value = evaluate_expr(tree)
    assert value == from_basis("p", (3,)) ** 2 - 2 * from_basis("e", (1, 1))


def test_parse_parentheses():
    tree = parse_expr("(h[1] + h[2]) * h[1]")
    assert tree[0] == "prod"
    assert tree[1][0][0] == "paren"
    value = evaluate_expr(tree)
    want = (from_basis("h", (1,)) + from_basis("h", (2,))) * from_basis("h", (1,))
    assert value == want


def test_parse_rejects_non_partition():
    with pytest.raises(ExprError):
        parse_expr("s[1,2]")
    # flagged sorting applies to e and h only
    assert parse_expr("e[1,2]", sort_indices=True) == ("atom", "e", (2, 1))
    with pytest.raises(ExprError):
        parse_expr("s[1,2]", sort_indices=True)


def test_parse_error_positions():
    with pytest.raises(ExprError) as info:
        parse_expr("h[2,]")
    assert "position" in str(info.value)
    with pytest.raises(ExprError):
        parse_expr("h[2] +")
    with pytest.raises(ExprError):
        parse_expr("q[2]")
    with pytest.raises(ExprError):
        parse_expr("2 2")


def test_format_round_trip():
    for text in (
        "h[2,2]",
        "p[3]^2 - 2*e[1,1]",
        "(h[1] + h[2])*h[1]",
        "1 + s[]",
        "m[4,1]*p[2]^3 - 7",
    ):
        tree = parse_expr(text)
        assert parse_expr(format_expr(tree)) == tree


_ATOMS = st.tuples(st.just("atom"), st.sampled_from(BASES), partition_up_to(4))
_PLAIN_FACTORS = st.one_of(
    st.tuples(st.just("int"), st.integers(0, 99)),
    _ATOMS,
    st.tuples(st.just("pow"), _ATOMS, st.integers(0, 9)),
)


def _expressions(inner):
    """Trees in the shape the parser builds: sums of products of factors."""
    factor = st.one_of(_PLAIN_FACTORS, st.tuples(st.just("paren"), inner))
    term = st.one_of(
        factor, st.lists(factor, min_size=2, max_size=3).map(lambda fs: ("prod", tuple(fs)))
    )
    signed = st.tuples(st.sampled_from("+-"), term)
    return st.one_of(
        term,
        st.tuples(term, st.lists(signed, min_size=1, max_size=3)).map(
            lambda t: ("sum", (("+", t[0]),) + tuple(t[1]))
        ),
    )


@settings(max_examples=60, deadline=None)
@given(tree=st.recursive(_PLAIN_FACTORS, _expressions, max_leaves=12))
def test_format_round_trip_property(tree):
    assert parse_expr(format_expr(tree)) == tree


def test_node_value_semantics():
    # Nodes with different tags never compare equal, even with equal fields.
    assert ("int", 2) != ("paren", 2)
    assert ("prod", (("int", 2),)) != ("sum", (("int", 2),))
    assert ("int", 2) != 2
    # Equal nodes hash equal, so nodes work as dict keys and set members.
    tree = parse_expr("p[3]^2 - 2*(e[1,1] + 3)")
    again = parse_expr("p[3]^2 - 2*(e[1,1] + 3)")
    assert tree == again and tree is not again
    assert hash(tree) == hash(again)
    assert len({tree, again, ("atom", "p", (3,))}) == 2
    assert pickle.loads(pickle.dumps(tree)) == tree


# -- subcommands ---------------------------------------------------------------


def test_coeff_command(capsys):
    code, out, err = run_cli(capsys, "coeff", "--kind", "r", "--lam", "[2]", "--mu", "[2]")
    assert code == 0
    assert out.strip() == "2"


def test_coeff_command_rejects_bad_partition(capsys):
    code, out, err = run_cli(capsys, "coeff", "--kind", "r", "--lam", "[1,2]", "--mu", "[2]")
    assert code == 1
    assert "error" in err


def test_transform_command_golden(capsys):
    code, out, err = run_cli(
        capsys, "transform", "--op", "fsur", "--expr", "h[2,2]", "--basis", "h"
    )
    assert code == 0
    data = json.loads(out)
    assert data == to_serializable(fsur(from_basis("h", (2, 2))), "h")
    assert from_serializable(data) == fsur(from_basis("h", (2, 2)))
    # stable key order and exact strings
    assert list(data) == ["basis", "terms", "cutoff"]
    assert {"partition": [1, 1], "num": "3", "den": "1"} in data["terms"]


def test_transform_full_series_default_cutoff(capsys):
    code, out, err = run_cli(
        capsys, "transform", "--op", "f", "--expr", "e[2]", "--basis", "h"
    )
    assert code == 0
    data = json.loads(out)
    assert data["cutoff"] == 2 + 4


def test_transform_sort_indices_flag(capsys):
    code, out, err = run_cli(
        capsys,
        "transform",
        "--op",
        "fsur",
        "--expr",
        "e[1,2]",
        "--basis",
        "e",
        "--sort-indices",
    )
    assert code == 0
    code2, out2, err2 = run_cli(
        capsys, "transform", "--op", "fsur", "--expr", "e[2,1]", "--basis", "e"
    )
    assert out == out2


def test_transform_parse_error_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "transform", "--op", "fsur", "--expr", "s[1,2]", "--basis", "s"
    )
    assert code == 1
    assert err


def test_lyndon_command(capsys):
    code, out, err = run_cli(capsys, "lyndon", "--word", "21212121111")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(2)(12)(12)(12)(1)(1)(1)(1)"
    assert lines[1] == "[4,3,1]"


def test_table_csv(capsys):
    code, out, err = run_cli(
        capsys, "table", "--kind", "a", "--maxdeg", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",[],[1],[2],[1,1]"
    assert lines[1].startswith("[],1,1,")


def test_table_json(capsys):
    code, out, err = run_cli(
        capsys, "table", "--kind", "b", "--maxdeg", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "b"
    assert data["index"][0] == "[]"
    n = len(data["index"])
    assert all(len(row) == n for row in data["matrix"])
    assert all(data["matrix"][i][i] == 1 for i in range(n))


def test_verify_suites_pass(capsys):
    for suite, maxdeg in (
        ("kronecker", 2),
        ("routes", 3),
        ("vanishing", 3),
        ("durfee", 4),
        ("genfunc", 3),
        ("oracle", 3),
    ):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--maxdeg", str(maxdeg)
        )
        assert code == 0, (suite, err)
        assert "0 failures" in out


def test_verify_deterministic(capsys):
    first = run_cli(capsys, "verify", "--suite", "routes", "--maxdeg", "2")
    second = run_cli(capsys, "verify", "--suite", "routes", "--maxdeg", "2")
    assert first == second


def test_verify_failure_exits_two(capsys, monkeypatch):
    import symfrob.cli as cli_module

    monkeypatch.setitem(
        cli_module.SUITES,
        "broken",
        lambda maxdeg: [("passes", lambda: True), ("fails", lambda: False)],
    )
    code, out, err = run_cli(capsys, "verify", "--suite", "broken", "--maxdeg", "1")
    assert code == 2
    assert "1 failures" in out
    assert "FAIL fails" in err


def test_verify_zero_checks_exits_two(capsys, monkeypatch):
    import symfrob.cli as cli_module

    monkeypatch.setitem(cli_module.SUITES, "empty", lambda maxdeg: [])
    code, out, err = run_cli(capsys, "verify", "--suite", "empty", "--maxdeg", "1")
    assert code == 2
    assert "0 checks" in out
    assert "ran no checks" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--kind", "r", "--maxdeg", "-1"),
        ("verify", "--suite", "kronecker", "--maxdeg", "-2"),
        ("verify", "--suite", "durfee", "--maxdeg", "-2"),
    ],
)
def test_negative_maxdeg_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "nonnegative" in err


def test_maxdeg_follows_the_library_count_rule(capsys):
    # "2.0" is read as 2, as coeff_table("a", 2.0) reads it; the text is
    # parsed exactly, so a decimal just above 2 is not rounded down.
    want = run_cli(capsys, "table", "--kind", "a", "--maxdeg", "2")
    assert want[0] == 0
    assert run_cli(capsys, "table", "--kind", "a", "--maxdeg", "2.0") == want
    for text in ("2.5", "2.0000000000000001", "1/0"):
        code, out, err = run_cli(capsys, "table", "--kind", "a", "--maxdeg", text)
        assert (code, out) == (1, ""), text
        assert "nonnegative" in err, text


@pytest.mark.parametrize("cutoff", ["-1", "x"])
def test_bad_cutoff_exits_one(capsys, cutoff):
    code, out, err = run_cli(
        capsys, "transform", "--op", "fsur", "--expr", "h[2]", "--basis", "h", "--cutoff", cutoff
    )
    assert code == 1
    assert out == ""
    assert "argument --cutoff" in err
    assert "nonnegative" in err


def test_unknown_flag_exits_one(capsys):
    assert main(["coeff", "--bogus"]) == 1


def test_unknown_suite_exits_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "nope", "--maxdeg", "2")
    assert code == 1
    assert err


def test_help_mentions_default_cutoff(capsys):
    code, out, err = run_cli(capsys, "transform", "--help")
    assert code == 0
    assert "deg(expr) + 4" in out


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "symfrob", "coeff", "--kind", "t", "--lam", "[2]", "--mu", "[2]"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"
