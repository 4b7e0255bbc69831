import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tzlab import (RecipeError, build_grid, field_from_function, field_from_recipe,
                   parse_recipe)
from tzlab.cli import EXIT_OK, main

from conftest import node_coordinates

# the workloads' weights, then mixed x/y terms and a subnormal constant
SAMPLED_RECIPES = ["1", "1+0.5*cos(2*pi*x)", "1+0.5*sin(2*pi*y)",
                   "cos(2*pi*x)*sin(4*pi*y) - 0.3*x*y",
                   "2 + sin(2*pi*(x+y))*cos(6*pi*(x-y))", "1e-320"]


# Recipes drawn from the documented grammar, each paired with a reference
# evaluation of the tree the text denotes (constants broadcast like x).  A
# node is (text, reference, level), the level that of the grammar rule its
# text parses as: 0 expr, 1 term, 2 unary, 3 atom.  An operand below the
# level its place needs is parenthesized, so the text parses as the tree:
# the left operand of + - takes an expr, of * a term, a right operand one
# level more (left associativity), and a unary minus takes a unary.
_WS = st.sampled_from(["", " ", "\n", "\t "])
_NUMBER = st.from_regex(r"(0|[1-9][0-9]{0,3})(\.[0-9]{0,3})?([eE][+-]?[0-9])?"
                        r"|\.[0-9]{1,3}([eE][+-]?[0-9])?", fullmatch=True)
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _constant(v):
    return lambda x, y: np.full_like(x, v)


def _operand(node, level):
    text, ref, at = node
    return (text, ref) if at >= level else (f"({text})", ref)


def _binary(case):
    left, ws1, op, ws2, right = case
    level, fn = int(op == "*"), _OPS[op]
    (a, f), (b, g) = _operand(left, level), _operand(right, level + 1)
    return f"{a}{ws1}{op}{ws2}{b}", lambda x, y: fn(f(x, y), g(x, y)), level


def _negate(case):
    ws, node = case
    text, ref = _operand(node, 2)
    return f"-{ws}{text}", lambda x, y: -ref(x, y), 2


def _call(case):
    """sin(...) or cos(...), or plain parentheses with an empty name."""
    name, ws, (text, ref, _) = case
    fn = getattr(np, name) if name else (lambda v: v)
    return f"{name}{ws}({text})", lambda x, y: fn(ref(x, y)), 3


_LEAF = st.one_of(
    _NUMBER.map(lambda t: (t, _constant(float(t)), 3)),
    st.sampled_from([("x", lambda x, y: x, 3), ("y", lambda x, y: y, 3),
                     ("pi", _constant(np.pi), 3)]),
)
# st.recursive bounds the tree by its leaves, so a draw stays small
_EXPR = st.recursive(_LEAF, lambda nodes: st.one_of(
    st.tuples(nodes, _WS, st.sampled_from("+-*"), _WS, nodes).map(_binary),
    st.tuples(_WS, nodes).map(_negate),
    st.tuples(st.sampled_from(["sin", "cos", ""]), _WS, nodes).map(_call),
), max_leaves=16)


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
        text, ref, _ = case
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
        expected = 1 + 0.5 * np.cos(2 * np.pi * node_coordinates(grid)[0])
        assert np.allclose(f.values, expected)

    @pytest.mark.parametrize("text", SAMPLED_RECIPES)
    def test_same_bytes_as_field_from_function(self, text):
        grid = build_grid(64)
        f = field_from_recipe(text, grid)
        assert f.values.tobytes() == field_from_function(grid, parse_recipe(text)).values.tobytes()

    @pytest.mark.parametrize("n", [8, 64, 256])
    @pytest.mark.parametrize("text", SAMPLED_RECIPES)
    def test_axis_sampling_matches_mesh_sampling_bitwise(self, text, n):
        # the row/column call sees, node by node, the float operations of a
        # call on the full coordinate meshes
        grid = build_grid(n)
        X, Y = node_coordinates(grid)
        ref = np.broadcast_to(np.asarray(parse_recipe(text)(X, Y), dtype=np.float64), (n, n))
        assert field_from_recipe(text, grid).values.tobytes() == ref.tobytes()

    def test_constant_broadcasts(self):
        grid = build_grid(16)
        f = field_from_recipe("2", grid)
        assert f.values.shape == (16, 16)
        assert np.all(f.values == 2.0)

    @pytest.mark.parametrize("n", [8, 256])
    def test_terms_keep_the_shape_of_the_axes_they_read(self, n):
        # the sampler's call: x the (1, n) row, y the (n, 1) column
        axis = build_grid(n).axis_points
        row, col = axis[None, :], axis[:, None]
        for text, shape in (("1+0.5*sin(2*pi*y)", (n, 1)), ("cos(4*pi*y)*y", (n, 1)),
                            ("1+0.5*cos(2*pi*x)", (1, n)), ("-x*pi", (1, n)),
                            ("x*y", (n, n)), ("sin(2*pi*x)+y", (n, n))):
            assert np.shape(parse_recipe(text)(row, col)) == shape, text
        for text in ("2", "pi", "-sin(0.5)*3e-2", "1e-320"):
            value = parse_recipe(text)(row, col)
            assert np.ndim(value) == 0 and value.dtype == np.float64, text

    def test_constants_are_float64_whatever_the_input_dtype(self):
        x, y = np.array([1, 2]), np.array([0, 0])
        assert parse_recipe("x*0.5")(x, y).tolist() == [0.5, 1.0]
        assert parse_recipe("0.5+x")(x, y).tolist() == [1.5, 2.5]
        assert parse_recipe("pi")(x, y).dtype == np.float64
        xf = x.astype(np.float64)
        assert np.array_equal(parse_recipe("x*0.5")(xf, y), xf * 0.5)
        assert np.array_equal(parse_recipe("0.5+x")(xf, y), 0.5 + xf)
