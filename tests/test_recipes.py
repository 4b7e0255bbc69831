import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tzlab import RecipeError, build_grid, field_from_recipe, parse_recipe
from tzlab.cli import EXIT_OK, main


# Recipes drawn from the documented grammar, each paired with a reference
# evaluation of the tree the text denotes (constants broadcast like x).
_WS = st.sampled_from(["", " ", "\n", "\t "])
_NUMBER = st.from_regex(r"(0|[1-9][0-9]{0,3})(\.[0-9]{0,3})?([eE][+-]?[0-9])?"
                        r"|\.[0-9]{1,3}([eE][+-]?[0-9])?", fullmatch=True)
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _constant(v):
    return lambda x, y: np.full_like(x, v)


def _fold(first, rest):
    text, ref = first
    for ws1, op, ws2, (t, f) in rest:
        text = f"{text}{ws1}{op}{ws2}{t}"
        ref = (lambda a, b, fn: lambda x, y: fn(a(x, y), b(x, y)))(ref, f, _OPS[op])
    return text, ref


def _negate(case):
    signs, ws, (text, ref) = case
    for _ in range(signs):
        text, ref = "-" + ws + text, (lambda f: lambda x, y: -f(x, y))(ref)
    return text, ref


def _call(case):
    name, ws, (text, ref) = case
    return f"{name}{ws}({text})", lambda x, y: getattr(np, name)(ref(x, y))


_LEAF = st.one_of(
    _NUMBER.map(lambda t: (t, _constant(float(t)))),
    st.sampled_from([("x", lambda x, y: x), ("y", lambda x, y: y),
                     ("pi", _constant(np.pi))]),
)
_EXPR = st.deferred(lambda: st.tuples(
    _TERM, st.lists(st.tuples(_WS, st.sampled_from("+-"), _WS, _TERM), max_size=3)
).map(lambda c: _fold(*c)))
_TERM = st.deferred(lambda: st.tuples(
    _UNARY, st.lists(st.tuples(_WS, st.just("*"), _WS, _UNARY), max_size=2)
).map(lambda c: _fold(*c)))
_UNARY = st.deferred(lambda: st.tuples(st.integers(0, 2), _WS, _ATOM).map(_negate))
_ATOM = st.deferred(lambda: st.one_of(
    _LEAF,
    st.tuples(st.sampled_from(["sin", "cos"]), _WS, _EXPR).map(_call),
    _EXPR.map(lambda c: (f"({c[0]})", c[1])),
))


class TestParse:
    def test_sampled_expression(self):
        fn = parse_recipe("1+0.5*cos(2*pi*x)")
        x = np.linspace(0, 1, 7)
        y = np.zeros_like(x)
        assert np.allclose(fn(x, y), 1 + 0.5 * np.cos(2 * np.pi * x))

    def test_both_coordinates(self):
        fn = parse_recipe("sin(2*pi*x)*cos(2*pi*y)+y")
        x = np.array([0.1, 0.4])
        y = np.array([0.3, 0.9])
        assert np.allclose(fn(x, y), np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + y)

    def test_precedence_and_associativity(self):
        assert parse_recipe("2*3+4*5")(0.0, 0.0) == 26
        assert parse_recipe("2-3-4")(0.0, 0.0) == -5
        assert parse_recipe("2*(3+4)")(0.0, 0.0) == 14
        assert parse_recipe("-2*3")(0.0, 0.0) == -6
        assert parse_recipe("--2")(0.0, 0.0) == 2

    def test_scientific_numbers(self):
        assert parse_recipe("1e-2+.5")(0.0, 0.0) == pytest.approx(0.51)

    @pytest.mark.parametrize("bad", ["", "   ", "x/y", "foo(x)", "1+", "(1", "1 2", "x^2", "1..2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(RecipeError):
            parse_recipe(bad)


class TestGrammar:
    @settings(max_examples=200, deadline=None, database=None)
    @given(_EXPR)
    def test_grammar_strings_evaluate_like_reference(self, case):
        text, ref = case
        x = np.linspace(0.0, 1.0, 5)
        y = np.linspace(0.3, -0.7, 5)
        with np.errstate(all="ignore"):
            got, want = parse_recipe(text)(x, y), ref(x, y)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", ["x**2", "x/2", "1_000", "0x10", "1j", "True", "+x",
                                     "sin(x,y)", "x.real", "[x]", "__import__('os')",
                                     "1 # comment", "sin()", "sin(*x)", "sin(**x)", "pi(x)",
                                     "sin"])
    def test_rejects_python_outside_grammar(self, bad):
        with pytest.raises(RecipeError):
            parse_recipe(bad)

    def test_line_breaks_are_whitespace(self):
        assert parse_recipe("1+\n2")(0.0, 0.0) == 3.0
        assert parse_recipe("\t -x")(0.5, 0.0) == -0.5

    def test_ini_continuation_line(self, tmp_path):
        cfg = tmp_path / "tz.ini"
        cfg.write_text("[solve]\nrho1 = 4\nrho2 = 2\nn = 16\n"
                       "h1 = 1+\n    0.5*cos(2*pi*x)\n")
        assert main(["--config", str(cfg), "solve", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["solve", "--rho1", "4", "--rho2", "2", "--n", "16",
                     "--h1", "1+0.5*cos(2*pi*x)", "--out", str(tmp_path / "b")]) == EXIT_OK
        assert ((tmp_path / "a" / "solution.csv").read_bytes()
                == (tmp_path / "b" / "solution.csv").read_bytes())

    def test_nesting_past_the_depth_limit_is_rejected(self):
        with pytest.raises(RecipeError, match="nested"):
            parse_recipe("-" * 250 + "x")


class TestFieldFromRecipe:
    def test_matches_direct_sampling(self):
        grid = build_grid(32)
        f = field_from_recipe("1+0.5*cos(2*pi*x)", grid)
        expected = 1 + 0.5 * np.cos(2 * np.pi * grid.X)
        assert np.allclose(f.values, expected)

    def test_constant_broadcasts(self):
        grid = build_grid(16)
        f = field_from_recipe("2", grid)
        assert f.values.shape == (16, 16)
        assert np.all(f.values == 2.0)

    def test_constants_are_float64_whatever_the_input_dtype(self):
        x, y = np.array([1, 2]), np.array([0, 0])
        assert parse_recipe("x*0.5")(x, y).tolist() == [0.5, 1.0]
        assert parse_recipe("0.5+x")(x, y).tolist() == [1.5, 2.5]
        assert parse_recipe("pi")(x, y).dtype == np.float64
        xf = x.astype(np.float64)
        assert np.array_equal(parse_recipe("x*0.5")(xf, y), xf * 0.5)
        assert np.array_equal(parse_recipe("0.5+x")(xf, y), 0.5 + xf)
