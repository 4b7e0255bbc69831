"""Tiny arithmetic recipes for weight fields.

Grammar (whitespace ignored):

    expr  := term (('+' | '-') term)*
    term  := unary ('*' unary)*
    unary := '-' unary | atom
    atom  := NUMBER | 'pi' | 'x' | 'y'
           | 'sin' '(' expr ')' | 'cos' '(' expr ')'
           | '(' expr ')'

Numbers are decimal literals (optional fraction and exponent; as in
Python, a plain integer takes no leading zero).  The text is parsed by
Python's ``ast`` module and checked against this grammar node by node,
down to a fixed nesting depth; it is never executed.  The checked tree
becomes a callable evaluated vectorized over coordinate arrays, so recipes
stay declarative without embedding a scripting runtime.
"""

from __future__ import annotations

import ast
import operator
import re

import numpy as np

from .surface import ScalarField, TorusGrid, field_from_function


class RecipeError(ValueError):
    """Malformed recipe text."""


_STRAY = re.compile(r"[^0-9A-Za-z_.+\-*()\s]")
_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}
_FUNCS = {"sin": np.sin, "cos": np.cos}
_MAX_DEPTH = 200
_TOO_DEEP = f"recipe nested deeper than {_MAX_DEPTH} levels"


def _constant(v):
    # float64 whatever the dtype of x: an int grid must not truncate 0.5
    return lambda x, y: np.full(np.shape(x), v) if hasattr(x, "shape") else v


_NAMES = {"x": lambda x, y: x, "y": lambda x, y: y, "pi": _constant(np.pi)}


def _build(node, source: str, depth: int):
    """The callable of a grammar node; RecipeError for anything else."""
    if depth > _MAX_DEPTH:
        raise RecipeError(_TOO_DEEP)
    depth += 1
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        a, b = _build(node.left, source, depth), _build(node.right, source, depth)
        return lambda x, y: op(a(x, y), b(x, y))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _build(node.operand, source, depth)
        return lambda x, y: -inner(x, y)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        literal = ast.get_source_segment(source, node)
        if _NUMBER.fullmatch(literal):
            return _constant(float(literal))
        raise RecipeError(f"not a decimal literal: {literal!r}")
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
        fn, inner = _FUNCS[node.func.id], _build(node.args[0], source, depth)
        return lambda x, y: fn(inner(x, y))
    raise RecipeError(f"not in the recipe grammar: {ast.get_source_segment(source, node)!r} "
                      "(allowed: numbers, x, y, pi, sin, cos, + - *, parentheses)")


def parse_recipe(text: str):
    """Compile recipe text into a callable f(x, y) vectorized over arrays."""
    if not text or not text.strip():
        raise RecipeError("empty recipe")
    stray = _STRAY.search(text)
    if stray:
        raise RecipeError(f"unexpected character {stray.group()!r} at position {stray.start()}")
    # one line: Python would reject line breaks and leading indentation
    source = " ".join(text.split())
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise RecipeError(f"malformed recipe: {exc.msg}") from None
    except RecursionError:
        raise RecipeError(_TOO_DEEP) from None
    return _build(tree.body, source, 0)


def field_from_recipe(text: str, grid: TorusGrid) -> ScalarField:
    """Sample a recipe onto a grid (see surface.field_from_function)."""
    return field_from_function(grid, parse_recipe(text))
