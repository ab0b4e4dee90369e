import math

import numpy as np
import pytest

from femspde.expr import (
    BinOp,
    Call,
    EvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    Var,
    depends_on_t,
    evaluate,
    eval_many,
    parse,
    to_source,
    validate_dimension,
)
from femspde.problem import ProblemFormatError, parse_problem_text


class TestParse:
    def test_example_ast(self):
        ast = parse("1 + 0.5*sin(x1)")
        assert ast == BinOp("+", Num(1.0), BinOp("*", Num(0.5), Call("sin", Var("x1", 1))))

    def test_trailing_operator_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1*")
        assert err.value.offset == 3

    def test_power_binds_tighter_than_mul(self):
        assert evaluate(parse("2^3*x1"), (1.0,), 0.0) == pytest.approx(8.0)

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse("-2^2"), (0.0,), 0.0) == pytest.approx(-4.0)

    def test_left_associative_subtraction(self):
        assert evaluate(parse("4 - 2 - 1"), (0.0,), 0.0) == pytest.approx(1.0)

    def test_parentheses(self):
        assert evaluate(parse("(1 + 2) * 3"), (0.0,), 0.0) == pytest.approx(9.0)

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            parse("2*y1")

    def test_function_needs_argument(self):
        with pytest.raises(ExprSyntaxError, match="needs one argument"):
            parse("sin + 1")

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError, match="integer"):
            parse("x1^2.5")

    def test_negative_integer_exponent(self):
        assert evaluate(parse("2^-2"), (0.0,), 0.0) == pytest.approx(0.25)

    def test_unexpected_character_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1 + @")
        assert err.value.offset == 5

    def test_byte_offset_utf8(self):
        # non-ASCII bytes before the error shift the byte offset
        with pytest.raises(ExprSyntaxError):
            parse("x1 + µ")


class TestEval:
    def test_sum_of_variables(self):
        assert evaluate(parse("x1+x2"), (1.0, 2.0), 0.0) == pytest.approx(3.0)

    def test_exp_zero(self):
        assert evaluate(parse("exp(0)"), (0.0,), 0.0) == pytest.approx(1.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse("1/(x1-1)"), (1.0,), 0.0)

    def test_sqrt_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(x1)"), (-1.0,), 0.0)

    def test_overflow_reported(self):
        with pytest.raises(EvalError):
            evaluate(parse("exp(x1)^9"), (400.0,), 0.0)

    def test_time_variable(self):
        assert evaluate(parse("t*x1"), (3.0,), 2.0) == pytest.approx(6.0)

    def test_vectorized_matches_scalar(self, rng):
        ast = parse("sin(x1)*cos(x2) + t*x1^2")
        pts = rng.normal(size=(50, 2))
        vec = eval_many(ast, pts, 0.7)
        scalars = [evaluate(ast, p, 0.7) for p in pts]
        np.testing.assert_allclose(vec, scalars, rtol=1e-15)


class TestAnalysis:
    def test_validate_dimension(self):
        validate_dimension(parse("x1 + x2"), 2)
        with pytest.raises(ValueError, match="x3"):
            validate_dimension(parse("x3"), 2)

    def test_depends_on_t(self):
        assert depends_on_t(parse("t + x1"))
        assert not depends_on_t(parse("x1^2"))


def random_ast(rng, d, depth):
    roll = rng.integers(0, 7 if depth > 0 else 2)
    if roll == 0:
        return Num(float(np.round(rng.uniform(0, 10), 3)))
    if roll == 1:
        axis = int(rng.integers(0, d + 1))
        return Var("t", 0) if axis == 0 else Var(f"x{axis}", axis)
    if roll == 2:
        return Neg(random_ast(rng, d, depth - 1))
    if roll == 3:
        fn = ("sin", "cos", "exp", "sqrt")[rng.integers(0, 4)]
        return Call(fn, random_ast(rng, d, depth - 1))
    if roll == 4:
        return Pow(random_ast(rng, d, depth - 1), int(rng.integers(0, 4)))
    op = "+-*/"[rng.integers(0, 4)]
    return BinOp(op, random_ast(rng, d, depth - 1), random_ast(rng, d, depth - 1))


def reference_eval(ast, x, t, stats):
    """Independent recursive evaluator on Python floats via the math module.

    Tracks the largest intermediate magnitude in stats[0]; beyond ~1e6 the
    libm flavours underneath numpy and math may legitimately diverge in trig
    argument reduction, so such samples are skipped by the caller.
    """
    if isinstance(ast, Num):
        value = ast.value
    elif isinstance(ast, Var):
        value = t if ast.axis == 0 else x[ast.axis - 1]
    elif isinstance(ast, Neg):
        value = -reference_eval(ast.arg, x, t, stats)
    elif isinstance(ast, Call):
        arg = reference_eval(ast.arg, x, t, stats)
        if ast.fn == "sqrt" and arg < 0:
            raise EvalError("sqrt domain")
        value = getattr(math, ast.fn)(arg)
    elif isinstance(ast, Pow):
        base = reference_eval(ast.base, x, t, stats)
        if ast.exponent < 0 and base == 0:
            raise EvalError("0^negative")
        value = base**ast.exponent
    else:
        left = reference_eval(ast.left, x, t, stats)
        right = reference_eval(ast.right, x, t, stats)
        if ast.op == "+":
            value = left + right
        elif ast.op == "-":
            value = left - right
        elif ast.op == "*":
            value = left * right
        else:
            if right == 0:
                raise EvalError("division by zero")
            value = left / right
    if math.isfinite(value):
        stats[0] = max(stats[0], abs(value))
    return value


class TestRoundTripAndReference:
    def test_print_parse_round_trip(self, rng):
        for _ in range(400):
            ast = random_ast(rng, 3, 4)
            assert parse(to_source(ast)) == ast

    def test_eval_matches_reference_on_random_asts(self, rng):
        agreements = 0
        for _ in range(10_000):
            ast = random_ast(rng, 2, 3)
            x = tuple(rng.uniform(-3, 3, size=2))
            t = float(rng.uniform(0, 2))
            stats = [0.0]
            try:
                expected = reference_eval(ast, x, t, stats)
                if not math.isfinite(expected):
                    raise EvalError("non-finite")
            except (EvalError, OverflowError, ValueError):
                with pytest.raises(EvalError):
                    evaluate(ast, x, t)
                continue
            if stats[0] > 1e3:
                continue
            got = evaluate(ast, x, t)
            # ulp-scale agreement: relative 1e-15, except near trig zero
            # crossings where the bound is one ulp of the largest operand
            assert got == pytest.approx(expected, rel=1e-15, abs=1e-13 * max(stats[0], 1.0))
            agreements += 1
        assert agreements > 5000  # most random trees evaluate cleanly


PROBLEM_TEXT = '''
# sample problem file
d = 1
a.1.1 = "1 + 0.25*cos(x1)"
b.1 = "0.1"
c = "-0.2"
sigma.1.1 = "0.2"
f = "sin(x1)"
g.1 = "0.1"
phi = "sin(x1)"
'''


class TestProblemFiles:
    def test_parse_example(self):
        problem = parse_problem_text(PROBLEM_TEXT)
        assert problem.d == 1
        assert problem.rho_max == 1
        assert problem.has_noise
        assert problem.active_rhos() == [1]
        pts = np.array([[0.0], [np.pi]])
        np.testing.assert_allclose(problem.eval_a(pts, 0.0)[:, 0, 0], [1.25, 0.75])
        np.testing.assert_allclose(eval_many(problem.phi, pts, 0.0), [0.0, np.sin(np.pi)])

    def test_defaults_are_zero(self):
        problem = parse_problem_text('a.1.1 = "1"')
        assert problem.b == {}
        assert problem.c is None
        assert problem.f is None
        assert problem.phi is None
        assert not problem.has_noise

    def test_a_required(self):
        with pytest.raises(ProblemFormatError, match="required"):
            parse_problem_text('phi = "sin(x1)"')

    def test_unquoted_values(self):
        problem = parse_problem_text("a.1.1 = 2\nphi = sin(x1)")
        assert problem.eval_a(np.array([[0.0]]), 0.0)[0, 0, 0] == 2.0

    def test_mirror_of_off_diagonal(self):
        problem = parse_problem_text('a.1.1="1"\na.2.2="1"\na.1.2="0.5"\nd = 2')
        amat = problem.eval_a(np.array([[0.1, 0.2]]), 0.0)[0]
        assert amat[0, 1] == amat[1, 0] == 0.5

    def test_conflicting_mirror_rejected(self):
        with pytest.raises(ProblemFormatError, match="symmetric"):
            parse_problem_text('a.1.1="1"\na.2.2="1"\na.1.2="0.5"\na.2.1="0.6"\nd=2')

    def test_unknown_key_rejected(self):
        with pytest.raises(ProblemFormatError, match="unknown key"):
            parse_problem_text('a.1.1="1"\nzeta = "3"')

    def test_syntax_error_carries_key(self):
        with pytest.raises(ProblemFormatError, match="'phi'"):
            parse_problem_text('a.1.1="1"\nphi = "sin(x1"')

    def test_rho_truncation(self):
        problem = parse_problem_text(
            'a.1.1="1"\nsigma.1.1="0.1"\nsigma.1.2="0.2"\ng.3="1"', rho_max=1
        )
        assert problem.rho_max == 1
        assert problem.active_rhos() == [1]

    @pytest.mark.parametrize("text, rho_max", [
        ('a.1.1="1"\nsigma.1.1="0.3"', 0),
        ('a.1.1="1"\nsigma.1.1="0.3"', -1),
        ('a.1.1="1"\nsigma.1.1="0.3"\nrho_max = 0', None),
    ])
    def test_rho_max_below_one_rejected(self, text, rho_max):
        # truncating at rho_max < 1 would drop every sigma, nu and g term
        with pytest.raises(ProblemFormatError, match="rho_max"):
            parse_problem_text(text, rho_max=rho_max)

    def test_dimension_inferred_from_keys(self):
        problem = parse_problem_text('a.1.1="1"\na.2.2="1"\nphi="x2"')
        assert problem.d == 2

    def test_expression_beyond_dimension_rejected(self):
        with pytest.raises(ValueError, match="x3"):
            parse_problem_text('a.1.1="1"\nphi="x3"\nd = 1')
