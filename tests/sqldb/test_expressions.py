"""Unit tests for expression evaluation and three-valued logic."""

import pytest

from repro.errors import ExecutionError, TypeMismatchError
from repro.sqldb.expressions import (
    EvalContext,
    collect_columns,
    collect_variables,
    evaluate,
    is_true,
)
from repro.sqldb.functions import builtin_scalar_functions
from repro.sqldb.parser import parse_expression


def run(text, columns=None, variables=None):
    context = EvalContext(
        columns=columns or {},
        variables=variables or {},
        functions=builtin_scalar_functions(),
    )
    return evaluate(parse_expression(text), context)


class TestArithmetic:
    def test_basic(self):
        assert run("1 + 2 * 3") == 7
        assert run("10 - 4") == 6
        assert run("2.5 * 4") == 10.0

    def test_integer_division_truncates_toward_zero(self):
        assert run("7 / 2") == 3
        assert run("-7 / 2") == -3

    def test_float_division(self):
        assert run("7.0 / 2") == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError, match="division by zero"):
            run("1 / 0")

    def test_modulo(self):
        assert run("7 % 3") == 1
        # The remainder of the truncating division: sign follows the dividend.
        assert run("-7 % 3") == -1
        assert run("7 % -3") == 1
        assert run("-7 % -3") == -1
        assert run("(-7 / 3) * 3 + -7 % 3") == -7
        assert run("-7.5 % 2") == -1.5
        with pytest.raises(ExecutionError, match="modulo by zero"):
            run("1 % 0")

    def test_null_propagates(self):
        assert run("1 + NULL") is None
        assert run("NULL * 2") is None

    def test_text_arithmetic_rejected(self):
        with pytest.raises(TypeMismatchError):
            run("'a' + 1")

    def test_unary_minus(self):
        assert run("-(2 + 3)") == -5
        assert run("-NULL") is None


class TestComparisons:
    def test_numbers(self):
        assert run("1 < 2") is True
        assert run("2 <= 2") is True
        assert run("3 > 4") is False
        assert run("1 = 1.0") is True
        assert run("1 <> 2") is True

    def test_text(self):
        assert run("'a' < 'b'") is True

    def test_null_comparison_is_null(self):
        assert run("NULL = NULL") is None
        assert run("1 < NULL") is None

    def test_mixed_types_rejected(self):
        with pytest.raises(TypeMismatchError):
            run("1 < 'a'")


class TestKleeneLogic:
    def test_and_truth_table(self):
        assert run("TRUE AND TRUE") is True
        assert run("TRUE AND FALSE") is False
        assert run("FALSE AND NULL") is False  # short-circuit to FALSE
        assert run("NULL AND TRUE") is None
        assert run("NULL AND NULL") is None

    def test_or_truth_table(self):
        assert run("FALSE OR TRUE") is True
        assert run("NULL OR TRUE") is True
        assert run("NULL OR FALSE") is None
        assert run("FALSE OR FALSE") is False

    def test_not(self):
        assert run("NOT TRUE") is False
        assert run("NOT NULL") is None

    def test_is_true_helper(self):
        assert is_true(True)
        assert not is_true(None)
        assert not is_true(False)

    def test_non_boolean_logic_rejected(self):
        with pytest.raises(TypeMismatchError):
            run("1 AND TRUE")


class TestCase:
    def test_first_matching_branch(self):
        assert run("CASE WHEN 1 < 2 THEN 'a' WHEN TRUE THEN 'b' END") == "a"

    def test_else(self):
        assert run("CASE WHEN FALSE THEN 1 ELSE 2 END") == 2

    def test_no_match_no_else_is_null(self):
        assert run("CASE WHEN FALSE THEN 1 END") is None

    def test_null_condition_skips_branch(self):
        assert run("CASE WHEN NULL THEN 1 ELSE 2 END") == 2

    def test_figure2_overload_expression(self):
        text = "CASE WHEN capacity < demand THEN 1 ELSE 0 END"
        assert run(text, columns={"capacity": 10.0, "demand": 12.0}) == 1
        assert run(text, columns={"capacity": 12.0, "demand": 10.0}) == 0


class TestPredicates:
    def test_in(self):
        assert run("2 IN (1, 2, 3)") is True
        assert run("5 IN (1, 2)") is False
        assert run("5 NOT IN (1, 2)") is True

    def test_in_with_null_semantics(self):
        assert run("NULL IN (1)") is None
        assert run("2 IN (1, NULL)") is None  # not found, NULL present
        assert run("1 IN (1, NULL)") is True  # found despite NULL

    def test_between(self):
        assert run("2 BETWEEN 1 AND 3") is True
        assert run("0 BETWEEN 1 AND 3") is False
        assert run("0 NOT BETWEEN 1 AND 3") is True
        assert run("NULL BETWEEN 1 AND 3") is None

    def test_between_null_bound_is_kleene_and(self):
        # ``x >= low AND x <= high``: a FALSE side decides despite a NULL bound.
        assert run("5 NOT BETWEEN NULL AND 3") is True
        assert run("5 BETWEEN NULL AND 3") is False
        assert run("1 BETWEEN NULL AND 3") is None
        assert run("1 NOT BETWEEN 2 AND NULL") is True

    def test_is_null(self):
        assert run("NULL IS NULL") is True
        assert run("1 IS NULL") is False
        assert run("1 IS NOT NULL") is True

    def test_like(self):
        assert run("'hello' LIKE 'h%'") is True
        assert run("'hello' LIKE 'h_llo'") is True
        assert run("'hello' LIKE 'x%'") is False
        assert run("'hello' NOT LIKE 'x%'") is True
        assert run("NULL LIKE 'x'") is None

    def test_like_escapes_regex_chars(self):
        assert run("'a.c' LIKE 'a.c'") is True
        assert run("'abc' LIKE 'a.c'") is False  # dot is literal


class TestContextLookups:
    def test_column_lookup(self):
        assert run("x + 1", columns={"x": 2}) == 3

    def test_qualified_lookup(self):
        assert run("t.x", columns={"t.x": 5}) == 5

    def test_qualified_falls_back_to_bare(self):
        assert run("t.x", columns={"x": 5}) == 5

    def test_bare_finds_unique_qualified(self):
        assert run("x", columns={"t.x": 5}) == 5

    def test_ambiguous_bare_raises(self):
        with pytest.raises(ExecutionError, match="ambiguous"):
            run("x", columns={"t.x": 5, "u.x": 6})

    def test_unknown_column(self):
        with pytest.raises(ExecutionError, match="unknown column"):
            run("nope")

    def test_variable_binding(self):
        assert run("@p + 1", variables={"p": 41}) == 42

    def test_unbound_variable(self):
        with pytest.raises(ExecutionError, match="unbound variable"):
            run("@missing")

    def test_unknown_function(self):
        with pytest.raises(ExecutionError, match="unknown function"):
            run("nosuchfn(1)")

    def test_concat_operator(self):
        assert run("'a' || 'b'") == "ab"
        assert run("'a' || NULL") is None


class TestCollectors:
    def test_collect_columns(self):
        expression = parse_expression(
            "CASE WHEN t.a < b THEN c + 1 ELSE COALESCE(d, 0) END"
        )
        assert collect_columns(expression) == {"t.a", "b", "c", "d"}

    def test_collect_variables(self):
        expression = parse_expression("@x + ROUND(@y, 2) BETWEEN @lo AND @hi")
        assert collect_variables(expression) == {"x", "y", "lo", "hi"}

    def test_collect_empty(self):
        assert collect_columns(parse_expression("1 + 2")) == set()
        assert collect_variables(parse_expression("a + b")) == set()
