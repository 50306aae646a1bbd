import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from jetgauge import series
from jetgauge._multiindex import context
from jetgauge.expr import (
    Bin, Call, ExprMap, Neg, Num, ParseError, PolyMap, Pow, Var,
)
from jetgauge.series import DomainError


def ev(text, **vals):
    # ExprMap needs a variable: a constant text gets the dummy "_"
    names = sorted(vals) or ["_"]
    point = [vals.get(n, 0.0) for n in names]
    return float(ExprMap.parse(text, names).eval(point)[0])


def test_precedence_and_associativity():
    assert ev("1 - 2 - 3") == -4.0
    assert ev("2*3 + 4/8") == 6.5
    assert ev("12 / 2 / 3") == 2.0
    assert ev("2^3") == 8.0
    assert ev("2*x^2", x=3.0) == 18.0


def test_unary_minus_binds_before_power():
    # the grammar hangs '^' on a factor, so -x^2 reads as (-x)^2
    assert ev("-x^2", x=3.0) == 9.0
    assert ev("-(x^2)", x=3.0) == -9.0
    assert ev("0 - x^2", x=3.0) == -9.0


def test_scientific_notation():
    assert ev("1.5e-3 + 2E2") == 200.0015


def test_functions():
    x = 0.37
    assert abs(ev("sin(x)^2 + cos(x)^2", x=x) - 1.0) < 1e-15
    assert abs(ev("log(exp(x))", x=x) - x) < 1e-15
    assert abs(ev("sqrt(x^2)", x=x) - x) < 1e-15
    assert ev("neg(x)", x=2.0) == -2.0


@pytest.mark.parametrize("bad", [
    "x +",
    "sin(",
    "sin()",
    "foo(x)",
    "(x",
    "x ^ y",
    "2 ** 3",
    "",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        ExprMap.parse(bad, ["x", "y"])


def test_undeclared_variable():
    with pytest.raises(ParseError) as err:
        ExprMap.parse("x + z", ["x", "y"])
    assert "z" in str(err.value)


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        ExprMap.parse("x1 +\n  * 3", ["x1"])
    assert (err.value.line, err.value.column) == (2, 3)   # unexpected token


@pytest.mark.parametrize("text,line,column", [
    ("x +\n  y $ 1", 2, 5),              # unexpected character
    ("sin(x\n  + y", 2, 6),              # expected ')', found end of input
    ("x +\n y ^ x", 2, 6),               # exponent must be a literal
    ("x +\n  foo(y)", 2, 3),             # unknown function
    ("x +\n\n   z", 3, 4),               # undeclared variable
    ("x + y\n  y", 2, 3),                # trailing input
])
def test_parse_error_line_and_column(text, line, column):
    with pytest.raises(ParseError) as err:
        ExprMap.parse(text, ["x", "y"])
    assert (err.value.line, err.value.column) == (line, column)


def test_map_trailing_input_line_and_column():
    with pytest.raises(ParseError) as err:
        ExprMap.parse("x, y\n\t)", ["x", "y"])
    assert (err.value.line, err.value.column) == (2, 2)


@pytest.mark.parametrize("text,vals", [
    ("1/x", {"x": 0.0}),
    ("log(x)", {"x": -1.0}),
    ("sqrt(x)", {"x": -2.0}),
])
def test_eval_domain_errors(text, vals):
    with pytest.raises(DomainError):
        ExprMap.parse(text, list(vals)).eval(list(vals.values()))


def test_negative_power_only_programmatic():
    # the grammar keeps '^' exponents as unsigned literals
    with pytest.raises(ParseError):
        ExprMap.parse("x^-1", ["x"])
    m = ExprMap(["x"], [Pow(Var("x"), -1.0)])
    assert m.eval([4.0])[0] == 0.25
    with pytest.raises(DomainError):
        m.eval([0.0])


def test_expr_map_eval_and_variables():
    m = ExprMap.parse("x1 + x2, x1*x2", ["x1", "x2"])
    assert len(m) == 2
    assert np.allclose(m.eval([2.0, 3.0]), [5.0, 6.0])
    with pytest.raises(ValueError):
        ExprMap.parse("x1, x2", ["x1", "x1"])


def test_taylor_lift_cube_anchor():
    m = ExprMap.parse("(1 + x)^3", ["x"])
    tm = m.taylor_lift(np.array([0.0]), 3)
    assert np.allclose(tm.coeffs[0], [1.0, 3.0, 3.0, 1.0], atol=1e-14)


def test_taylor_lift_jacobian_matches_fd():
    m = ExprMap.parse("sin(x1*x2), exp(x1) - x2^2", ["x1", "x2"])
    x = np.array([0.4, -0.7])
    jac = m.taylor_lift(x, 1).jacobian()
    h = 1e-6
    for i in range(2):
        dx = np.zeros(2)
        dx[i] = h
        fd = (m.eval(x + dx) - m.eval(x - dx)) / (2 * h)
        assert np.max(np.abs(jac[:, i] - fd)) < 1e-9


def test_taylor_lift_raw_second_derivatives():
    m = ExprMap.parse("x1^2*x2", ["x1", "x2"])
    tm = m.taylor_lift(np.array([3.0, 5.0]), 2)
    assert abs(tm.raw(0, (1, 1)) - 2 * 3.0) < 1e-12      # d2/dx1 dx2 = 2 x1
    assert abs(tm.raw(0, (2, 0)) - 2 * 5.0) < 1e-12      # d2/dx1^2  = 2 x2


def _loop_derivative(lift, k):
    """The multi-index loop that derivative(k) replaced: every slot looked
    up by hand and scaled by mu!."""
    ctx = lift.ctx
    out = np.zeros(lift.coeffs.shape[:-1] + (lift.nin,) * k)
    for axes in itertools.product(range(lift.nin), repeat=k):
        mu = [0] * lift.nin
        for a in axes:
            mu[a] += 1
        pos = ctx.pos(tuple(mu))
        out[(...,) + axes] = lift.coeffs[..., pos] * ctx.factorial[pos]
    return out


DERIVATIVE_MAP = ExprMap.parse(
    "exp(x1) * x2^3 - sin(x3) * x1^2, x1 * x2 * x3 + cos(x2 * x3) / (2 + x1)",
    ["x1", "x2", "x3"])


@pytest.mark.parametrize("batch", [(), (5,), (2, 3), (0,)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivative_matches_the_multi_index_loop(k, batch):
    points = np.random.default_rng(k).uniform(-0.7, 0.7, batch + (3,))
    for order in range(k, k + 3):
        lift = DERIVATIVE_MAP.taylor_lift(points, order)
        got = lift.derivative(k)
        assert got.shape == batch + (2,) + (3,) * k
        assert got.flags["C_CONTIGUOUS"]
        assert _same_bits(got, _loop_derivative(lift, k))
        for perm in itertools.permutations(range(k)):
            axes = tuple(range(got.ndim - k)) + tuple(got.ndim - k + q
                                                      for q in perm)
            assert _same_bits(np.transpose(got, axes), got)
        if k == 1:
            assert _same_bits(got, lift.jacobian())
    for bad in (0, k + 3):
        with pytest.raises(ValueError, match="derivative order"):
            lift.derivative(bad)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def _reference_lift(node, ctx, env):
    # the recursive one-point lift that the tape replaced
    if isinstance(node, Num):
        return series.const(ctx, node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Bin):
        a = _reference_lift(node.lhs, ctx, env)
        b = _reference_lift(node.rhs, ctx, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return series.mul(ctx, a, b)
        return series.div(ctx, a, b)
    if isinstance(node, Pow):
        return series.powc(ctx, _reference_lift(node.base, ctx, env),
                           node.exponent)
    if isinstance(node, Call):
        return series.analytic(ctx, node.func,
                               _reference_lift(node.arg, ctx, env))
    return -_reference_lift(node.arg, ctx, env)


_XY = ["x", "y"]
# every node kind, on a box where each one is defined: [0.2, 0.9]^2
ALL_KINDS = ExprMap(_XY, [
    *ExprMap.parse("sin(x) * cos(y) - exp(x * y) / (1 + x^2), "
                   "log(x + y) + sqrt(y)^3 - (1 + x)^2.5 * neg(y) - -x", _XY),
    Pow(Bin("+", Var("x"), Var("y")), -2.0),
    Bin("+", Num(-0.0), Bin("*", Var("x"), Num(0.0))),
    Num(2.0),
])


@pytest.mark.parametrize("order", [0, 1, 2, 3, 9])
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_block_lift_matches_point_lifts_bitwise(order, batch):
    rng = np.random.default_rng(order)
    base = rng.uniform(0.2, 0.9, size=batch + (2,))
    block = ALL_KINDS.taylor_lift(base, order)
    ctx = context(2, order)
    assert block.coeffs.shape == batch + (len(ALL_KINDS), ctx.count)
    for idx in np.ndindex(*batch):
        point = base[idx]
        alone = ALL_KINDS.taylor_lift(point, order).coeffs
        env = {name: series.coordinate(ctx, k, point[k])
               for k, name in enumerate(_XY)}
        ref = np.vstack([_reference_lift(e, ctx, env) for e in ALL_KINDS])
        assert _same_bits(block.coeffs[idx], alone)
        assert _same_bits(alone, ref)


@pytest.mark.parametrize("order", [0, 1, 3])
@pytest.mark.parametrize("shape", [(0, 2), (2, 0, 2)])
def test_empty_block_lifts_to_empty_map(order, shape):
    # every node kind, one map per kind, on a block of no points
    ctx = context(2, order)
    for expr in ALL_KINDS.exprs[:3] + (Num(2.0), Var("y"),
                                       Neg(Var("x")),
                                       Pow(Var("x"), 2.5),
                                       Pow(Var("x"), 3.0)):
        lift = ExprMap(_XY, [expr, expr]).taylor_lift(np.zeros(shape), order)
        assert lift.coeffs.shape == shape[:-1] + (2, ctx.count)
        assert lift.coeffs.dtype == np.float64
        assert lift.value().shape == shape[:-1] + (2,)
        assert lift.jacobian().shape == shape[:-1] + (2, min(order, 1) * 2)
    sin_map = ExprMap.parse("sin(x), y", _XY)
    assert sin_map.taylor_lift(np.zeros(shape), order).coeffs.size == 0


@pytest.mark.parametrize("shape", [(3, 2), (1, 3, 2)])
def test_block_lift_raises_the_first_failing_points_error(shape):
    m = ExprMap.parse("log(x) + sqrt(y), 1 / (x - y)", _XY)
    # the second point fails at sqrt, the third one earlier, at log
    base = np.array([[1.0, 1.5], [2.0, -3.0], [-1.0, 0.5]]).reshape(shape)
    with pytest.raises(DomainError) as alone:
        for point in base.reshape(-1, 2):
            m.taylor_lift(point, 2)
    with pytest.raises(DomainError) as block:
        m.taylor_lift(base, 2)
    assert str(block.value) == str(alone.value) == "sqrt of negative value -3.0"
    with pytest.raises(DomainError, match="division by a series"):
        m.taylor_lift(np.array([[1.0, 1.0], [2.0, 2.0]]), 1)


def test_tape_shares_repeated_subtrees_but_not_signed_zeros():
    m = ExprMap.parse("sin(x*y) + sin(x*y), x*y - 2", _XY)
    tape, outputs, dead = m._tape
    kinds = [kind for kind, _, _ in tape]
    assert kinds.count("*") == 1 and kinds.count("call") == 1
    # every slot but the outputs is dropped once, after its last reader
    dropped = [slot for done in dead for slot in done]
    assert sorted(dropped) == sorted(set(range(len(tape))) - set(outputs))
    readers = [[e for e, (_, _, kids) in enumerate(tape) if slot in kids]
               for slot in range(len(tape))]
    assert all(readers[slot][-1] == e
               for e, done in enumerate(dead) for slot in done)
    # Num(0.0) == Num(-0.0) as nodes, but the slots stay apart
    zeros = ExprMap(["x"], [Bin("+", Num(0.0), Var("x")),
                            Bin("+", Num(-0.0), Var("x"))])
    tape, outputs, _ = zeros._tape
    assert [kind for kind, _, _ in tape].count("num") == 2
    lift = zeros.taylor_lift(np.array([-0.0]), 0)
    assert not np.signbit(lift.coeffs[0, 0]) and np.signbit(lift.coeffs[1, 0])


def test_compiling_a_tape_never_hashes_nodes(monkeypatch):
    def refuse(self):
        raise AssertionError(f"hashed a {type(self).__name__}")

    for cls in (Num, Var, Bin, Pow, Call, Neg):
        monkeypatch.setattr(cls, "__hash__", refuse)
    m = ExprMap.parse("sin(x*y) + sin(x*y) - (x*y)^2.5, exp(neg(x)) / y",
                      _XY)
    assert np.isfinite(m.taylor_lift(np.array([[0.3, 0.4]]), 2).coeffs).all()


@pytest.mark.parametrize("shape", [(3, 4, 2), (0, 2)])
def test_block_eval_matches_point_evals_bitwise(shape):
    rng = np.random.default_rng(7)
    points = rng.uniform(0.2, 0.9, size=shape)
    block = ALL_KINDS.eval(points)
    assert block.shape == shape[:-1] + (len(ALL_KINDS),)
    alone = [ALL_KINDS.eval(points[idx]) for idx in np.ndindex(*shape[:-1])]
    assert _same_bits(block.reshape(-1, len(ALL_KINDS)),
                      np.array(alone).reshape(-1, len(ALL_KINDS)))


def test_eval_is_the_value_slot_of_a_lift():
    points = np.random.default_rng(3).uniform(0.2, 0.9, size=(6, 2))
    assert _same_bits(ALL_KINDS.eval(points),
                      ALL_KINDS.taylor_lift(points, 2).value())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_overflows_to_inf():
    m = ExprMap.parse("exp(1000*x), 0*exp(1000*x)", ["x"])
    value = m.eval([1.0])
    assert value[0] == np.inf and np.isnan(value[1])


@pytest.mark.parametrize("text", ["sqrt(x)", "x^0.5"])
def test_sqrt_at_zero_leaves_the_domain(text):
    m = ExprMap.parse(text, ["x"])
    with pytest.raises(DomainError):
        m.eval([0.0])
    with pytest.raises(DomainError):
        m.taylor_lift(np.array([0.0]), 2)


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def test_no_eval_call_inside_a_loop():
    # a value comes from one block call, never from a per-point loop
    found = []
    src = Path(__file__).resolve().parent.parent / "src" / "jetgauge"
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for loop in ast.walk(tree):
            if not isinstance(loop, _LOOPS):
                continue
            for node in ast.walk(loop):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "eval"):
                    found.append(f"{path.name}:{node.lineno}")
    assert sorted(set(found)) == []


def _attribute_reads(tree, names, skip_function=None):
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == skip_function:
            skipped.update(map(id, ast.walk(node)))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names
            and id(node) not in skipped]


def test_derivatives_are_read_through_taylor_map():
    # the graded slot layout and the mu! scaling stay behind
    # TaylorMap.derivative; spencer_from_action alone scales its generator
    # lifts by mu! to read their whole raw tables in slot order, and takes
    # the raised slots from the shared table
    src = Path(__file__).resolve().parent.parent / "src" / "jetgauge"
    found = []
    for name in ("dynamics.py", "elasticity.py", "groups.py"):
        tree = ast.parse((src / name).read_text())
        found += [f"{name}:{line}" for line in _attribute_reads(
            tree, ("pos", "shifted", "raw"))]
        found += [f"{name}:{line}" for line in _attribute_reads(
            tree, ("factorial",), "spencer_from_action")]
    assert found == []
    # the derivative is one gather over a whole table; only series, where
    # the Spencer operator takes it in each direction, calls it in a loop
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_loops = {node.lineno for loop in ast.walk(tree)
                    if isinstance(loop, _LOOPS) for node in ast.walk(loop)
                    if isinstance(node, ast.Call) and "dvar" in (
                        getattr(node.func, "attr", None),
                        getattr(node.func, "id", None))}
        assert path.name == "series.py" or not in_loops, path.name
    # dynamics, elasticity and pseudogroups lift each call site as one
    # block; groups stays out, as spencer_from_action lifts one generator
    # at a time
    lifts = ("taylor_lift", "raw_series")
    for name in ("dynamics.py", "elasticity.py", "pseudogroups.py"):
        tree = ast.parse((src / name).read_text())
        in_loops = {line for loop in ast.walk(tree) if isinstance(loop, _LOOPS)
                    for line in _attribute_reads(loop, lifts)}
        assert sorted(in_loops) == [], name


_BLAS_CALLS = ("dot", "matmul", "inner", "vdot", "ascontiguousarray")


def test_residual_contractions_are_einsum():
    # np.einsum, unlike @ and np.dot, never calls BLAS, so no residual
    # follows the BLAS core
    src = Path(__file__).resolve().parent.parent / "src" / "jetgauge"
    found = []
    for name in ("dynamics.py", "elasticity.py", "groups.py"):
        tree = ast.parse((src / name).read_text())
        for node in ast.walk(tree):
            matmul = isinstance(getattr(node, "op", None), ast.MatMult)
            call = (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and node.func.attr in _BLAS_CALLS)
            if matmul or call:
                found.append(f"{name}:{node.lineno}")
    assert found == []


_NODES = {"Bin", "Num", "Neg", "Var", "Pow", "Call"}


def test_only_expr_builds_tree_nodes():
    # polynomial data stays coefficients (PolyMap), never a tree; other
    # modules build trees only through ExprMap.parse
    src = Path(__file__).resolve().parent.parent / "src" / "jetgauge"
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "expr.py"]
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None)
                if name in _NODES:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _shipped_maps() -> dict[str, ExprMap]:
    """Every ExprMap the package ships: suite constants, the builtin
    systems, the bundled group laws and the motion families."""
    from jetgauge import (_suite_dynamics, _suite_elasticity, _suite_group,
                          _suite_pseudogroup, _suite_swell)
    from jetgauge._fixtures import SWELL, validate
    from jetgauge.dynamics import MotionFamily, swell_family
    from jetgauge.elasticity import DisplacementSection, StressState
    from jetgauge.groups import builtin_group
    from jetgauge.pseudogroups import BUILTIN_SYSTEMS, builtin_system

    parts = {MotionFamily: ("forward", "inverse", "variation"),
             StressState: ("sigma", "mu"), DisplacementSection: ("xi", "jet")}
    maps = {}
    for mod in (_suite_dynamics, _suite_elasticity, _suite_group,
                _suite_pseudogroup, _suite_swell):
        suite = mod.__name__.rsplit("_", 1)[1]
        for name, obj in vars(mod).items():
            found = {name: obj}
            if isinstance(obj, dict):
                found = {f"{name}.{k}": v for k, v in obj.items()}
            elif type(obj) in parts:
                found = {f"{name}.{p}": getattr(obj, p)
                         for p in parts[type(obj)]}
            maps.update({f"{suite}.{k}": v for k, v in found.items()
                         if isinstance(v, ExprMap)})
    for name in BUILTIN_SYSTEMS:
        system = builtin_system(name)
        maps[f"system.{name}.equations"] = system.equations
        maps[f"system.{name}.linearization"] = system.linearization
    for name in ("affine", "e2"):
        spec = builtin_group(name)
        maps[f"law.{name}.compose"] = spec.compose
        maps[f"law.{name}.inverse"] = spec.inverse
        for k, gen in enumerate(spec.action.generators):
            maps[f"law.{name}.generator{k}"] = gen
    swell = swell_family(**validate({}, SWELL, "swell"), nlabels=1)[0]
    maps["swell.family.forward"] = swell.forward
    return maps


SHIPPED = _shipped_maps()
# an inf times a structural zero, and an inf that a ladder of zeros hides:
# exp(-inf) expands to zeros, which times the NaNs of the full tables give
# NaN, and times the cut tables' zeros would give 0.0
SHIPPED.update({f"extra.{text}": ExprMap.parse(text, ["x", "y"]) for text in (
    "0*exp(1000*x), y", "1e400*x + y", "exp((x - 1e400)*2) * y",
    "1/((x - 1e400)*y)", "sqrt(exp(1000*x)) + log(y)")})


def _lift_bits(m, points, order, full):
    """The lift's coefficients as int64 bits, or its DomainError's text."""
    try:
        if full:
            return m._run(context(len(m.variables), order), points).view(
                np.int64)
        return m.taylor_lift(points, order).coeffs.view(np.int64)
    except DomainError as exc:
        return str(exc)


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_cut_tables_give_the_full_tables_bits(name):
    # finite, wide, NaN, inf and overflowing blocks, each lifted on the
    # cut tables and on the full ones; a block that leaves the domain is
    # compared point by point
    m = SHIPPED[name]
    n = len(m.variables)
    rng = np.random.default_rng(7)
    blocks = [rng.uniform(-1.5, 1.5, (6, n)), rng.uniform(-60.0, 60.0, (4, n)),
              np.full((3, n), 1e200)]
    for bad in (np.nan, np.inf, -np.inf):
        block = rng.uniform(0.2, 1.2, (n, n))
        np.fill_diagonal(block, bad)
        blocks.append(block)
    for order in range(3 if n > 8 else 4):
        for block in blocks:
            if isinstance(_lift_bits(m, block, order, True), str):
                assert all(_same(_lift_bits(m, p, order, False),
                                 _lift_bits(m, p, order, True)) for p in block)
            else:
                assert _same(_lift_bits(m, block, order, False),
                             _lift_bits(m, block, order, True))


def test_nodes_and_maps_compare_by_type_and_value_and_stay_frozen():
    assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
    assert Num(1.0) != Var(1.0) and Var("x") != Call("x", Var("x"))
    tree = ExprMap.parse("sin(x*y) - x^2, -y", ["x", "y"]).exprs
    assert tree == ExprMap.parse("sin(x*y) - x^2, -y", ["x", "y"]).exprs
    assert len({*tree, *ExprMap.parse("-y", ["x", "y"]).exprs}) == 2
    assert repr(tree[1]) == "Neg(arg=Var(name='y'))"
    assert repr(Bin("+", Num(1.0), Pow(Var("x"), 2.0))) == (
        "Bin(op='+', lhs=Num(value=1.0), rhs=Pow(base=Var(name='x'), "
        "exponent=2.0))")
    poly = PolyMap(("x",), 1, np.array([[0.0, 2.0]]))
    lift = poly.taylor_lift(np.array([0.5]), 1)
    assert repr(poly) == ("PolyMap(variables=('x',), degree=1, "
                          "coeffs=array([[0., 2.]]))")
    assert repr(context(1, 1)).startswith("MultiIndexContext(nvars=1, "
                                          "order=1, midx=array(")
    assert repr(context(1, 1)).endswith(", count=2)")
    for obj, name in ((tree[0], "op"), (tree[1], "arg"), (Num(1.0), "value"),
                      (poly, "coeffs"), (poly, "_rows"), (lift, "order"),
                      (context(1, 1), "count")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
