import numpy as np
import pytest

from slidim.errors import ExpressionSyntaxError, NonFinite, UnknownIdentifier
from slidim.bench import BENCH_G, BENCH_X, BENCH_Y
from slidim.expressions import SwitchingFunction, parse_field
from slidim.filippov import make_system


def _at(text, point, params=None):
    """The scalar ``text`` evaluated at one point (x, y, z)."""
    return SwitchingFunction(text, params)(np.array(point, dtype=float))


def test_parse_basic_arithmetic():
    assert _at("a*x - b*y", (3.0, 1.0, 0.0), {"a": 1, "b": 2}) == 1.0


def test_parse_power_and_builtin():
    assert _at("x^2 + sin(0)", (2.0, 0.0, 0.0)) == 4.0


@pytest.mark.parametrize("text, offset", [
    ("x*(", 3),
    # a literal beyond the float range would compile to the bare name inf
    ("2*1e400*x", 2),
], ids=["unbalanced-paren", "overflowing-literal"])
def test_a_syntax_error_names_its_offset(text, offset):
    with pytest.raises(ExpressionSyntaxError) as err:
        SwitchingFunction(text)
    assert err.value.offset == offset


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        SwitchingFunction("x + w")
    assert err.value.name == "w"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_parameter_is_refused_when_the_system_is_built(value):
    # it would compile to the bare name nan or inf, undefined in the kernel
    with pytest.raises(NonFinite, match="parameter a "):
        make_system("a*x, y, z", "0, 0, -1", "z", params={"a": value})


def test_operator_precedence():
    assert _at("2 + 3 * 4 ^ 2 / 8", (0.0, 0.0, 0.0)) == 2 + 3 * 16 / 8


def test_unary_minus_binds_before_power():
    # the grammar parses -x^2 as (-x)^2
    assert _at("-2^2", (0.0, 0.0, 0.0)) == 4.0


def test_whitespace_insignificant():
    a = _at("x + 2*y", (1.0, 3.0, 0.0))
    b = _at("x+2 * y", (1.0, 3.0, 0.0))
    assert a == b == 7.0


@pytest.mark.parametrize("fn,arg,want", [
    ("sin", 0.7, np.sin(0.7)),
    ("cos", 0.7, np.cos(0.7)),
    ("exp", 0.3, np.exp(0.3)),
    ("log", 2.0, np.log(2.0)),
    ("sqrt", 2.0, np.sqrt(2.0)),
    ("tanh", 0.5, np.tanh(0.5)),
])
def test_builtins(fn, arg, want):
    assert _at(f"{fn}(x)", (arg, 0.0, 0.0)) == pytest.approx(want, abs=1e-15)


def test_scientific_numbers():
    assert _at("1.5e-3 + .5", (0, 0, 0)) == pytest.approx(0.5015)


def test_field_takes_per_row_parameters():
    # a and b as 4th and 5th state components: each point carries its own
    # values, and their field is 0
    f = parse_field("a*x, y, b*z", {"a": 1.0, "b": 2.0})
    wide = f.with_constants(("a", "b"))
    assert wide.variables == ("x", "y", "z", "a", "b") and wide.params == {}
    pts = np.array([[1.0, 2.0, 3.0, 10.0, 2.0], [4.0, 5.0, 6.0, 20.0, 2.0]])
    assert np.array_equal(wide(pts), [[10, 2, 6, 0, 0], [80, 5, 12, 0, 0]])
    assert np.array_equal(wide(pts[1]), [80, 5, 12, 0, 0])
    assert np.array_equal(f(pts[:, :3]), [[1, 2, 6], [4, 5, 12]])


def test_field_needs_three_components():
    with pytest.raises(ExpressionSyntaxError):
        parse_field("x, y")
    f = parse_field("x, y, x*y")
    assert np.allclose(f(np.array([2.0, 3.0, 0.0])), [2, 3, 6])


def test_field_commas_respect_parens():
    f = parse_field("x*(1 + 2), y, z")
    assert np.allclose(f(np.array([1.0, 1.0, 1.0])), [3, 1, 1])


def test_vectorized_matches_scalar():
    e = SwitchingFunction("sin(x)*exp(-y) + z^3 / (1 + x^2)")
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 3))
    batch = e(pts)
    single = np.array([e(p) for p in pts])
    assert np.array_equal(batch, single)


CORPUS = [
    "x^2 + y*z",
    "sin(x)*cos(y) - exp(z/4)",
    "sqrt(1 + x^2 + y^2)",
    "tanh(3*x) + log(2 + z^2)",
    "a*x - b*y + a*b*(z*exp(-z))",
    "(1 + x^2)^y + 2^x - a*x^3",
    "sqrt(1 + x^2)/(2 + y) - log(2 + z^2)/(b + x*y)",
]


@pytest.mark.parametrize("src", CORPUS)
def test_dual_gradient_matches_central_differences(src):
    g = SwitchingFunction(src, {"a": 0.7, "b": 1.3})
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.8, 0.8, size=(25, 3))
    _, grad = g.value_and_gradient(pts)
    h = 1e-6
    for k in range(3):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, k] += h
        dm[:, k] -= h
        fd = (g(dp) - g(dm)) / (2 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad[:, k] - fd) / scale) < 1e-6


PARAMS = {"a": 0.7, "b": 1.3}


def _field_and_components(k):
    """Three consecutive CORPUS entries as one field kernel and as three
    separately compiled scalars."""
    srcs = [CORPUS[(k + i) % len(CORPUS)] for i in range(3)]
    return (parse_field(", ".join(srcs), PARAMS),
            [SwitchingFunction(s, PARAMS) for s in srcs])


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_field_kernel_equals_per_component_evaluation(k):
    field, comps = _field_and_components(k)

    def each(u):
        return np.stack([c(u) for c in comps], axis=-1)

    pts = np.random.default_rng(k).uniform(-0.8, 0.8, size=(7, 3))
    assert np.array_equal(field(pts[0]), each(pts[0]))
    assert np.array_equal(field(pts), each(pts))


def test_bench_field_kernel_evaluates_shared_subtrees_once():
    source = parse_field(BENCH_X, {"al": 0.4, "be": 1.0, "u1": 0.0, "u2": 0.0}).stages.source
    assert source.count("_tanh(") == source.count("_tanh((50.0 * z))") == 1
    assert source.count("_exp(") == source.count("(z * _exp((-z)))") == 1


def test_stage_kernel_skips_constant_components_and_hoists_their_subtrees():
    # on g = z the bench sliding field's z-component folds to 0: z keeps its
    # start value over a step, so tanh(50 z) and z exp(-z) are evaluated once
    # per step, before the stage function, and the stages take (x, y) only
    sys = make_system(BENCH_X, BENCH_Y, BENCH_G,
                      params={"al": 0.4, "be": 1.0, "u1": 0.3, "u2": -0.2})
    sliding = sys.sliding
    assert sliding.varying == (0, 1)
    prelude, stage_source = sliding.stages.source.split("def _stage(_v):")
    for call in ("_tanh(", "_exp("):
        assert prelude.count(call) == 1 and call not in stage_source
    rng = np.random.default_rng(3)
    u = np.column_stack([rng.uniform(-0.5, 0.5, (20, 2)), rng.uniform(-1e-3, 1e-3, 20)])
    v = u[:, :2] + rng.uniform(-0.01, 0.01, (20, 2))   # a stage state of (x, y)
    stage = sliding.stages(u.T)
    want = sliding(np.column_stack([v, u[:, 2]]))
    assert np.array_equal(stage(v.T).T, want[:, :2])


def test_stage_kernel_takes_parameters_row_by_row():
    # the bench shooting's field over (x, y, z, u1, u2): u1 and u2 are read
    # once per step from each row's start state, and a row's stages are
    # the bits of the field with that row's (u1, u2) bound as parameters
    params = {"al": 0.4, "be": 1.0}
    field = parse_field(BENCH_X, {**params, "u1": 0.0, "u2": 0.0}).with_constants(("u1", "u2"))
    assert field.varying == (0, 1, 2)
    rng = np.random.default_rng(5)
    u = np.column_stack([rng.uniform(-0.5, 0.5, (9, 3)), rng.uniform(-99, -98, 9),
                         rng.uniform(-9, -8, 9)])
    v = u[:, :3] + rng.uniform(-0.01, 0.01, (9, 3))    # a stage state of (x, y, z)
    got = field.stages(u.T)(v.T).T
    assert np.array_equal(got, field(np.column_stack([v, u[:, 3:]]))[:, :3])
    for k in range(9):
        bound = parse_field(BENCH_X, {**params, "u1": u[k, 3], "u2": u[k, 4]})
        assert np.array_equal(got[k], bound(v[k]))


def test_gradient_of_constant_independent_component():
    g = SwitchingFunction("z")
    u = np.array([4.0, 5.0, 6.0])
    assert np.allclose(g.value_and_gradient(u)[1], [0, 0, 1])


def test_symbolic_second_derivative_closed_form():
    f = SwitchingFunction("x^3")
    assert f.diff("x").diff("x")(np.array([2.0, 0.0, 0.0])) == 12.0
    assert f.diff("y").tree == ("num", 0.0)
