import itertools
import math

import numpy as np
import pytest

from femspde.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    EvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    Var,
    _tokenize,
    depends_on_t,
    eval_many,
    parse,
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
        assert eval_many(parse("2^3*x1"), (1.0,), 0.0) == pytest.approx(8.0)

    def test_power_binds_tighter_than_unary_minus(self):
        assert eval_many(parse("-2^2"), (0.0,), 0.0) == pytest.approx(-4.0)

    def test_left_associative_subtraction(self):
        assert eval_many(parse("4 - 2 - 1"), (0.0,), 0.0) == pytest.approx(1.0)

    def test_parentheses(self):
        assert eval_many(parse("(1 + 2) * 3"), (0.0,), 0.0) == pytest.approx(9.0)

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
        assert eval_many(parse("2^-2"), (0.0,), 0.0) == pytest.approx(0.25)

    def test_unexpected_character_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1 + @")
        assert err.value.offset == 5

    @pytest.mark.parametrize("source, offset", [("1e999", 0), ("x1 + 2e400*t", 5)])
    def test_overflowing_literal_rejected_at_its_offset(self, source, offset):
        with pytest.raises(ExprSyntaxError, match="overflows") as err:
            parse(source)
        assert err.value.offset == offset

    def test_byte_offset_utf8(self):
        # non-ASCII bytes before the error shift the byte offset
        with pytest.raises(ExprSyntaxError):
            parse("x1 + µ")

    @pytest.mark.parametrize("name", ["x²", "x1²", "x١"])
    def test_variable_is_x_and_ascii_digits(self, name):
        # a superscript or a non-ASCII decimal digit makes no variable, nor a
        # second name for x1
        with pytest.raises(ExprSyntaxError) as err:
            parse(f"1 + {name}")
        assert str(err.value) == f"bad variable {name!r} (byte offset 4)"

    def test_variable_digits_start_with_one_to_nine(self):
        # x01 would be a second spelling of x1, and x0 names no axis
        for name in ("x0", "x01", "x007"):
            with pytest.raises(ExprSyntaxError) as err:
                parse(name)
            assert str(err.value) == f"bad variable {name!r} (byte offset 0)"
        assert parse("x10") == Var("x10", 10)

    @pytest.mark.parametrize("source, offset", [
        ("(" * 1000 + "x1" + ")" * 1000, MAX_DEPTH),
        ("sin(" * 1000 + "x1" + ")" * 1000, 4 * MAX_DEPTH),
        ("-" * 1000 + "1", MAX_DEPTH),
        ("1" + "+0*x1" * 1999, 1 + 5 * (MAX_DEPTH - 1)),
    ], ids=["parentheses", "calls", "unary-minus", "long-sum"])
    def test_deep_expression_is_a_syntax_error(self, source, offset):
        # refused at the token that passes the bound, before the parser (or a
        # walk of the tree) reaches the interpreter's recursion limit
        with pytest.raises(ExprSyntaxError) as err:
            parse(source)
        assert str(err.value) == (
            f"expression nested deeper than {MAX_DEPTH} levels (byte offset {offset})")

    def test_depth_bound_is_inclusive(self):
        # MAX_DEPTH levels of each shape parse to the usual tree; one more is refused
        negs, calls, total = Num(1.0), Var("x1", 1), Num(1.0)
        for _ in range(MAX_DEPTH):
            negs, calls, total = Neg(negs), Call("sin", calls), BinOp("+", total, Num(1.0))
        assert parse("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH) == Var("x1", 1)
        assert parse("-" * MAX_DEPTH + "1") == negs
        assert parse("sin(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH) == calls
        assert parse("+".join(["1"] * (MAX_DEPTH + 1))) == total
        for source in ("(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1),
                       "-" * (MAX_DEPTH + 1) + "1", "+".join(["1"] * (MAX_DEPTH + 2)),
                       "(" + "-" * MAX_DEPTH + "x1)^2"):
            with pytest.raises(ExprSyntaxError, match="nested deeper"):
                parse(source)

    def test_short_strings_parse_or_raise_syntax_error(self):
        alphabet = "x1t0.e+-*/^() ²١µ"
        for size in range(4):
            for chars in itertools.product(alphabet, repeat=size):
                try:
                    parse("".join(chars))
                except ExprSyntaxError:
                    pass


@pytest.mark.parametrize("source, expected", [
    ("1.2.3", "bad number literal '1.2.3' (byte offset 0)"),
    ("1e", [("num", "1", 0), ("ident", "e", 1), ("end", "", 2)]),
    (".5e-3*x1", [("num", ".5e-3", 0), ("op", "*", 5), ("ident", "x1", 6), ("end", "", 8)]),
    ("1_000", [("num", "1", 0), ("ident", "_000", 1), ("end", "", 5)]),
    ("2e+", [("num", "2", 0), ("ident", "e", 1), ("op", "+", 2), ("end", "", 3)]),
    ("x1 + @", "unexpected character '@' (byte offset 5)"),
    ("x1 + µ", [("ident", "x1", 0), ("op", "+", 3), ("ident", "µ", 5), ("end", "", 7)]),
    ("", [("end", "", 0)]),
    ("\t x1\n", [("ident", "x1", 2), ("end", "", 5)]),
])
def test_token_corpus(source, expected):
    # each token's kind, text and byte offset, or the tokenizer's error
    try:
        got = [(tok.kind, tok.text, tok.offset) for tok in _tokenize(source)]
    except ExprSyntaxError as exc:
        got = str(exc)
    assert got == expected


class TestEval:
    def test_sum_of_variables(self):
        assert eval_many(parse("x1+x2"), (1.0, 2.0), 0.0) == pytest.approx(3.0)

    def test_exp_zero(self):
        assert eval_many(parse("exp(0)"), (0.0,), 0.0) == pytest.approx(1.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            eval_many(parse("1/(x1-1)"), (1.0,), 0.0)

    def test_sqrt_negative(self):
        with pytest.raises(EvalError):
            eval_many(parse("sqrt(x1)"), (-1.0,), 0.0)

    def test_overflow_reported(self):
        with pytest.raises(EvalError):
            eval_many(parse("exp(x1)^9"), (400.0,), 0.0)

    def test_time_variable(self):
        assert eval_many(parse("t*x1"), (3.0,), 2.0) == pytest.approx(6.0)

    def test_vectorized_matches_scalar(self, rng):
        ast = parse("sin(x1)*cos(x2) + t*x1^2")
        pts = rng.normal(size=(50, 2))
        vec = eval_many(ast, tuple(pts.T), 0.7)
        scalars = [eval_many(ast, tuple(p), 0.7) for p in pts]
        np.testing.assert_allclose(vec, scalars, rtol=1e-15)


class TestCoordinateArrays:
    """eval_many on a tuple of per-axis coordinate arrays that broadcast together."""

    @staticmethod
    def coords(n=6, p=3):
        # x_k along axis k (size 1 on the other), plus a trailing point axis
        a = np.linspace(0.0, 6.0, n)
        z = np.linspace(0.0, 0.9, p)
        return (a[:, None, None] + z, a[None, :, None] + 0.5 * z)

    def test_matches_point_array(self):
        x = self.coords()
        pts = np.stack([c.ravel() for c in np.broadcast_arrays(*x)], axis=1)
        for source in ("1", "t", "cos(x1)", "sin(x2) * t", "sin(x1)*cos(x2) + x1^2", "x2 / 3"):
            ast = parse(source)
            out = eval_many(ast, x, 0.7)
            full = np.broadcast_to(out, (6, 6, 3)).reshape(-1)
            points = np.broadcast_to(eval_many(ast, tuple(pts.T), 0.7), (len(pts),))
            np.testing.assert_array_equal(full, points)

    def test_result_spans_referenced_axes_only(self):
        x = self.coords()
        assert eval_many(parse("2"), x, 0.0).shape == (1, 1, 1)
        assert eval_many(parse("t + 1"), x, 0.5).shape == (1, 1, 1)
        assert eval_many(parse("cos(x1)"), x, 0.0).shape == (6, 1, 3)
        assert eval_many(parse("t*sin(x2)"), x, 0.5).shape == (1, 6, 3)
        assert eval_many(parse("x1*x2"), x, 0.0).shape == (6, 6, 3)

    @pytest.mark.parametrize("source", ["1/(x1 - x1)", "sqrt(sin(x1))", "exp(x1)^200",
                                        "x2^-1", "cos(x1) + sqrt(x2 - 10)"])
    def test_domain_errors_raise(self, source):
        with pytest.raises(EvalError):
            eval_many(parse(source), self.coords(), 0.0)

    def test_variable_beyond_coordinates_rejected(self):
        with pytest.raises(EvalError):
            eval_many(parse("x3"), self.coords(), 0.0)


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
                    eval_many(ast, x, t)
                continue
            if stats[0] > 1e3:
                continue
            got = eval_many(ast, x, t)
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
        np.testing.assert_allclose(problem.eval_a(tuple(pts.T), 0.0)[:, 0, 0], [1.25, 0.75])
        np.testing.assert_allclose(eval_many(problem.phi, tuple(pts.T), 0.0), [0.0, np.sin(np.pi)])

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
        assert problem.eval_a((0.0,), 0.0)[0, 0] == 2.0

    def test_mirror_of_off_diagonal(self):
        problem = parse_problem_text('a.1.1="1"\na.2.2="1"\na.1.2="0.5"\nd = 2')
        amat = problem.eval_a((0.1, 0.2), 0.0)
        assert amat[0, 1] == amat[1, 0] == 0.5
        # a mirror given explicitly is accepted when it parses to the same tree
        problem = parse_problem_text('a.1.1="1"\na.2.2="1"\na.1.2="2*x1"\na.2.1="2.0 * (x1)"')
        amat = problem.eval_a((0.1, 0.2), 0.0)
        assert amat[0, 1] == amat[1, 0] == 0.2

    def test_conflicting_mirror_rejected(self):
        with pytest.raises(ProblemFormatError, match="symmetric"):
            parse_problem_text('a.1.1="1"\na.2.2="1"\na.1.2="0.5"\na.2.1="0.6"\nd=2')
        # the same values written as a different tree are rejected too
        with pytest.raises(ProblemFormatError, match="symmetric"):
            parse_problem_text('a.1.1="1"\na.2.2="1"\na.1.2="2*x1"\na.2.1="x1*2"')

    def test_zero_led_variable_rejected(self):
        # x01 is no second spelling of x1, so this is not a symmetry conflict
        with pytest.raises(ProblemFormatError) as err:
            parse_problem_text('a.1.1="1"\na.2.2="1"\na.1.2="0.1*cos(x1)"\n'
                               'a.2.1="0.1*cos(x01)"')
        assert str(err.value) == "key 'a.2.1': bad variable 'x01' (byte offset 8)"

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

    @pytest.mark.parametrize("text, key", [
        ('d = 2\na.1.1="1"\na.2.2="1"\nb.0="0.3"', "b.0"),
        ('d = 2\na.1.1="1"\na.2.2="1"\nb.3="0.3"', "b.3"),
        ('d = 1\na.1.1="1"\na.1.2="1"', "a.1.2"),
        ('a.1.1="1"\nsigma.0.1="0.3"', "sigma.0.1"),
        ('rho_max = 2\na.1.1="1"\ng.0="0.3"\ng.2="0.1"', "g.0"),
        ('a.1.1="1"\nnu.0="0.2"', "nu.0"),
        # a zero term, or one above rho_max, is dropped only after its key is checked
        ('a.1.1="1"\nb.0="0"', "b.0"),
        ('rho_max = 1\na.1.1="1"\nsigma.2.3="0.1"', "sigma.2.3"),
    ], ids=["b.0", "b.3", "a.1.2", "sigma.0.1", "g.0", "nu.0", "zero-b.0", "truncated-sigma.2.3"])
    def test_index_out_of_range_rejected(self, text, key):
        with pytest.raises(ProblemFormatError, match=f"key '{key}' is out of range"):
            parse_problem_text(text)

    @pytest.mark.parametrize("text, message", [
        ('a.1.1="1"\nb.1="0.1"\nb.1="0.2"', "line 3: duplicate key 'b.1'"),
        ('a.1.1="1"\nb.1="0.1"\nb.01="0.2"', "key 'b.01' repeats the index"),
        ('d = 2\na.1.1="1"\na.2.2="1"\na.1.2="0.5"\na.1.02="0.7"', "key 'a.1.02' repeats"),
    ], ids=["same-key", "b.01", "a.1.02"])
    def test_repeated_index_rejected(self, text, message):
        with pytest.raises(ProblemFormatError, match=message):
            parse_problem_text(text)

    def test_dimension_inferred_from_keys(self):
        problem = parse_problem_text('a.1.1="1"\na.2.2="1"\nphi="x2"')
        assert problem.d == 2

    def test_expression_beyond_dimension_rejected(self):
        with pytest.raises(ValueError, match="x3"):
            parse_problem_text('a.1.1="1"\nphi="x3"\nd = 1')
