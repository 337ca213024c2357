import json
import math
from dataclasses import fields
from fractions import Fraction as F

import pytest
from conftest import measure_spec, quadrature_mixed_moment, table_of
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtmoments.cli import EXIT_NUMERIC, main, parse_measure_arg
from dtmoments.errors import CapExceededError, WordParseError
from dtmoments.exact import ComplexRational as CQ
from dtmoments.exact import format_rational
from dtmoments.measures import (
    Atomic,
    MomentTable,
    ScaledMeasure,
    UniformAnnulus,
    UniformDisk,
    UniformEllipse,
    conjugate,
    measure_from_json,
    mixed_moment,
    scale,
)

DELTA0 = Atomic.delta(0)


def test_point_mass_at_zero():
    assert mixed_moment(DELTA0, 0, 0).value == 1
    for r, s in [(1, 0), (0, 1), (2, 3), (4, 4)]:
        assert mixed_moment(DELTA0, r, s).value == 0


def test_atomic_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        Atomic(((CQ(F(1)), F(1, 2)),))


def test_a_non_integer_float_location_is_refused():
    for make in (lambda: Atomic.delta(0.1), lambda: Atomic(((0.1, 1),))):
        with pytest.raises(TypeError, match="not exact"):
            make()


def test_locations_are_read_by_the_one_exactness_rule():
    assert Atomic.delta("1/3") == Atomic.delta(CQ(F(1, 3)))
    assert Atomic(((F(1, 2), 1),)) == Atomic.delta(CQ(F(1, 2)))
    assert Atomic.delta(2.0) == Atomic.delta(CQ(F(2)))


def test_atomic_matches_direct_power_sums():
    atoms = ((CQ(F(1, 2), F(1, 3)), F(1, 4)), (CQ(F(-1), F(2)), F(3, 4)))
    mu = Atomic(atoms)
    for r in range(4):
        for s in range(4):
            direct = sum(
                complex(w) * loc.to_complex() ** r * loc.to_complex().conjugate() ** s
                for loc, w in atoms
            )
            assert abs(mixed_moment(mu, r, s).as_complex() - direct) < 1e-12


class TestDisk:
    def test_unit_disk_rule(self):
        mu = UniformDisk(1)
        assert mixed_moment(mu, 1, 1).value == F(1, 2)
        for r in range(5):
            assert mixed_moment(mu, r, r).value == F(1, r + 1)

    def test_general_radius_rule(self):
        mu = UniformDisk(F(3, 2))
        for r in range(5):
            for s in range(5):
                want = F(3, 2) ** (2 * r) / (r + 1) if r == s else 0
                assert mixed_moment(mu, r, s).value == want

    def test_against_quadrature(self):
        got = mixed_moment(UniformDisk(1), 2, 2).as_complex()
        oracle = quadrature_mixed_moment(0.0, 1.0, 2, 2)
        assert abs(got - oracle) < 1e-9


class TestAnnulus:
    def test_diagonal_closed_form(self):
        for c in (F(1), F(3, 2), F(2)):
            mu = UniformAnnulus(c)
            for p in range(5):
                assert mixed_moment(mu, p, p).value == (
                    c ** (p + 1) - (c - 1) ** (p + 1)
                ) / (p + 1)

    def test_off_diagonal_zero(self):
        mu = UniformAnnulus(F(3, 2))
        for r in range(4):
            for s in range(4):
                if r != s:
                    assert mixed_moment(mu, r, s).value == 0

    def test_against_quadrature(self):
        c = 2.0
        got = mixed_moment(UniformAnnulus(F(2)), 1, 1).as_complex()
        oracle = quadrature_mixed_moment(math.sqrt(c - 1), math.sqrt(c), 1, 1)
        assert abs(got - oracle) < 1e-9


class TestEllipse:
    def test_circle_case_reduces_to_disk(self):
        # a = b collapses the two semi-axes; same moments as a disk of
        # radius a*sqrt(2), whose square is rational
        mu = UniformEllipse(F(1), F(1))
        for r in range(5):
            for s in range(5):
                want = F(2) ** r / (r + 1) if r == s else 0
                assert mixed_moment(mu, r, s).value == want

    def test_centered(self):
        assert mixed_moment(UniformEllipse(F(1), F(1, 2)), 1, 0).value == 0

    def test_frozen_quadrature_value(self):
        # E[z^2] for (a, b) = (1, 1/2); quadrature over the ellipse region
        # froze this at 3/4 before the closed form was written
        got = mixed_moment(UniformEllipse(F(1), F(1, 2)), 2, 0)
        assert got.value == F(3, 4)
        a2, b2 = 1.0, 0.25
        half_x = 2 * a2 / math.sqrt(a2 + b2)
        half_y = 2 * b2 / math.sqrt(a2 + b2)
        # the boundary at angle t lies at radius 1/sqrt(cos^2 t/half_x^2 + sin^2 t/half_y^2)
        oracle = quadrature_mixed_moment(
            0.0, lambda t: 1 / math.hypot(math.cos(t) / half_x, math.sin(t) / half_y), 2, 0
        )
        assert abs(got.as_complex() - oracle) < 1e-9

    def test_second_mixed_moment_closed_form(self):
        # E|z|^2 = (a^4 + b^4) / (a^2 + b^2)
        for a, b in [(F(1), F(1, 2)), (F(2), F(3)), (F(1, 3), F(1, 5))]:
            want = (a**4 + b**4) / (a**2 + b**2)
            assert mixed_moment(UniformEllipse(a, b), 1, 1).value == want

    def test_float_parameters_give_float_backend(self):
        mv = mixed_moment(UniformEllipse(math.cos(1.0), math.sin(1.0)), 1, 1)
        assert not mv.exact
        a2, b2 = math.cos(1.0) ** 2, math.sin(1.0) ** 2
        assert abs(mv.as_complex() - (a2 * a2 + b2 * b2) / (a2 + b2)) < 1e-12


def test_hermitian_symmetry_all_models():
    models = [
        Atomic(((CQ(F(1, 2), F(1, 3)), F(1, 2)), (CQ(F(0), F(-1)), F(1, 2)))),
        UniformDisk(F(5, 4)),
        UniformAnnulus(F(7, 4)),
        UniformEllipse(F(2), F(1, 2)),
        scale(UniformDisk(1), CQ(F(1), F(2))),
    ]
    for mu in models:
        for r in range(7):
            for s in range(7):
                if r + s > 12:
                    continue
                assert mu.moment(r, s) == mu.moment(s, r).conjugate()


def _positive(max_value):
    return st.fractions(min_value=F(1, 10), max_value=max_value, max_denominator=12)


@st.composite
def float_twins(draw):
    """A measure model with rational parameters and its float-parameter twin,
    both scaled by one rational lam or neither."""
    model = draw(st.sampled_from([UniformDisk, UniformAnnulus, UniformEllipse]))
    if model is UniformAnnulus:
        params = [draw(st.fractions(min_value=1, max_value=3, max_denominator=12))]
    else:
        params = [draw(_positive(F(3, 2))) for _ in range(2 if model is UniformEllipse else 1)]
    exact, inexact = model(*params), model(*map(float, params))
    if draw(st.booleans()):
        lam = CQ(draw(_positive(F(3, 2))), draw(st.fractions(-1, 1, max_denominator=12)))
        exact, inexact = scale(exact, lam), scale(inexact, lam)
    return exact, inexact


@given(twins=float_twins())
@example(twins=(UniformEllipse(F(11, 12), F(10, 11)), UniformEllipse(11 / 12, 10 / 11)))
@settings(max_examples=100, deadline=None)
def test_float_twin_agrees_with_the_rational_model(twins):
    exact, inexact = twins
    for r in range(11):
        for s in range(11):
            want = mixed_moment(exact, r, s)
            assert want.exact
            got = mixed_moment(inexact, r, s)
            assert not got.exact, (r, s)
            assert abs(got.as_complex() - want.as_complex()) <= 1e-12 * abs(want.as_complex()), (r, s)


def test_rotation_invariant_models_vanish_off_diagonal():
    for mu in (UniformDisk(F(2)), UniformAnnulus(F(3, 2))):
        for r in range(5):
            for s in range(5):
                if r != s:
                    assert mu.moment(r, s) == 0


class TestScaleConjugate:
    def test_scale_moves_atoms(self):
        w = CQ(F(1, 2), F(1, 3))
        lam = CQ(F(0), F(2))
        assert scale(Atomic.delta(w), lam) == Atomic.delta(lam * w)

    def test_scale_disk_by_two(self):
        assert mixed_moment(scale(UniformDisk(1), CQ(F(2))), 1, 1).value == 2

    def test_scale_rule_holds_for_complex_scalars(self):
        lam = CQ(F(1), F(-1))
        mu = UniformAnnulus(F(3, 2))
        scaled = scale(mu, lam)
        for r in range(4):
            for s in range(4):
                assert scaled.moment(r, s) == lam**r * lam.conjugate() ** s * mu.moment(r, s)

    def test_scale_by_zero_rejected(self):
        with pytest.raises(ValueError):
            scale(UniformDisk(1), CQ(F(0)))

    def test_scaled_measure_reads_its_factor_as_scale_does(self):
        # ScaledMeasure kept the int 2, which the sampler could not read, and
        # took 0.5, which scale refuses, with a float tag
        mu = ScaledMeasure(UniformDisk(1), 2)
        assert mu == scale(UniformDisk(1), 2) and mu.lam == CQ(F(2))
        for make in (ScaledMeasure, scale):
            with pytest.raises(TypeError, match="not exact"):
                make(UniformDisk(1), 0.5)

    def test_conjugate_rotation_invariant(self):
        assert conjugate(UniformDisk(F(2))) == UniformDisk(F(2))
        assert conjugate(UniformEllipse(F(1), F(2))) == UniformEllipse(F(1), F(2))

    def test_conjugate_swaps_orders(self):
        mu = Atomic.delta(CQ(F(1, 3), F(2, 5)))
        nu = conjugate(mu)
        for r in range(4):
            for s in range(4):
                assert nu.moment(r, s) == mu.moment(s, r)


@pytest.mark.parametrize(
    "make",
    [
        lambda: UniformDisk(math.nan),
        lambda: UniformAnnulus(math.nan),
        lambda: UniformEllipse(math.nan, 1.0),
        lambda: UniformEllipse(1.0, math.nan),
        lambda: UniformDisk(math.inf),
        lambda: UniformAnnulus(math.inf),
        lambda: UniformEllipse(math.inf, 1.0),
        lambda: UniformEllipse(1.0, math.inf),
    ],
    ids=["disk", "annulus", "ellipse-a", "ellipse-b",
         "disk-inf", "annulus-inf", "ellipse-a-inf", "ellipse-b-inf"],
)
def test_a_nan_parameter_is_refused(make):
    # nan passed each `<=` check, and every moment came back nan tagged float
    with pytest.raises(ValueError):
        make()


class TestMixedMomentOrders:
    @pytest.mark.parametrize("mu", [UniformDisk(1), UniformAnnulus(2)], ids=["disk", "annulus"])
    def test_a_non_integer_order_is_refused(self, mu):
        # M(1.5, 0) of the disk was an exact 0, and M(1.5, 1.5) of the
        # annulus a float 1.8627
        for r, s in ((1.5, 0), (1.5, 1.5)):
            with pytest.raises(TypeError, match="1.5"):
                mixed_moment(mu, r, s)
        with pytest.raises(ValueError, match="not an integer"):
            mixed_moment(mu, F(1, 2), F(1, 2))

    def test_an_integer_float_order_is_exact(self):
        # the float orders reached the radius's power and tagged 2 as float
        got = mixed_moment(UniformDisk(2), 1.0, 1.0)
        assert got.exact and got.value == 2

    def test_a_boolean_order_is_refused(self):
        with pytest.raises(TypeError, match="boolean"):
            mixed_moment(UniformDisk(1), True, True)


class TestMomentTable:
    @pytest.mark.parametrize(
        "degree, entries",
        [(-1, ()), (2, (((-1, 0), CQ(1)),)), (2, (((3, 3), CQ(1)),))],
        ids=["negative-degree", "negative-order", "over-degree"],
    )
    def test_a_table_that_serves_no_entry_is_refused(self, degree, entries):
        # each was accepted: MomentTable(-1, ()) cannot serve M(0, 0), and
        # these entries were never served
        with pytest.raises(ValueError, match="max_degree"):
            MomentTable(degree, entries)

    def test_a_fractional_order_is_refused(self):
        # M(3/2, 0) was stored and served as 1
        with pytest.raises(ValueError, match="not an integer"):
            MomentTable(2, (((F(3, 2), 0), CQ(1)),))

    def test_a_rational_value_is_read_exactly(self):
        # a Fraction value raised AttributeError at construction
        table = MomentTable(2, (((1, 1), F(1, 2)),))
        assert table == MomentTable(2, (((1, 1), CQ(F(1, 2))),))
        assert table.moment(1, 1) == CQ(F(1, 2))

    @pytest.mark.parametrize("r, s, error", [(2, -1, ValueError), (-1, 2, ValueError),
                                             (1.5, 0.5, TypeError)],
                             ids=["negative-s", "negative-r", "non-integer"])
    def test_moment_reads_its_orders(self, r, s, error):
        # only r + s was read, so each of these came back as 0
        with pytest.raises(error):
            MomentTable(2, (((1, 1), "1/2"),)).moment(r, s)

    def test_degree_cap(self):
        table = MomentTable(3, (((1, 1), CQ(F(1, 2))),))
        assert table.moment(1, 1) == F(1, 2)
        with pytest.raises(CapExceededError):
            table.moment(2, 2)

    def test_conjugate_fallback(self):
        table = MomentTable(4, (((2, 1), CQ(F(1, 3), F(1, 5))),))
        assert table.moment(1, 2) == CQ(F(1, 3), F(-1, 5))

    def test_equality_hash_and_repr_read_the_two_fields(self):
        # the lookup that moment reads is built with the table and is no
        # field, so tables of the same entries in any order are one value
        entries = (((1, 1), CQ(F(1, 2))), ((2, 1), CQ(F(1, 3), F(1, 5))))
        table = MomentTable(4, entries)
        assert [f.name for f in fields(table)] == ["max_degree", "entries"]
        assert table == MomentTable(4, entries[::-1]) and hash(table) == hash(MomentTable(4, entries[::-1]))
        assert repr(table) == f"MomentTable(max_degree=4, entries={entries!r})"
        assert [table.moment(r, s) for r, s in ((0, 0), (1, 2), (3, 0))] == [1, CQ(F(1, 3), F(-1, 5)), 0]

    def test_conjugate_pair_given_twice_must_agree(self):
        pair = (((2, 1), CQ(F(1, 3), F(1, 5))), ((1, 2), CQ(F(1, 3), F(-1, 5))))
        assert MomentTable(4, pair).moment(1, 2) == CQ(F(1, 3), F(-1, 5))
        with pytest.raises(ValueError, match="conjugates"):
            MomentTable(4, (pair[0], ((1, 2), CQ(F(1, 3), F(1, 5)))))

    @pytest.mark.parametrize("value", [CQ(F(-3)), CQ(F(0), F(1)), CQ(F(1, 2), F(-1, 4))])
    def test_diagonal_must_be_real_and_nonnegative(self, value):
        # M(r, r) is the mean of |z|^(2r); these were served as moments
        with pytest.raises(ValueError, match=r"M\(1, 1\)"):
            MomentTable(2, (((1, 1), value),))
        assert MomentTable(2, (((1, 1), CQ(F(0))),)).moment(1, 1) == 0

    @pytest.mark.parametrize("entry, word", [
        ({"r": 1, "s": 1, "re": "-3"}, "Z Z*"),
        ({"r": 1, "s": 1, "re": "1", "im": "1"}, "D D*"),
    ])
    def test_cli_refuses_a_table_no_measure_has(self, capsys, entry, word):
        # printed -5/2 and i with exit 0; a well-formed spec outside its
        # model's domain exits 4, as a shorthand does
        spec = json.dumps({"type": "table", "max_degree": 2, "entries": [entry]})
        assert main(["moment", "--word", word, "--measure", spec]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == "" and "M(1, 1)" in err

    @pytest.mark.parametrize(
        "twin",
        [
            Atomic.delta(CQ(F(0), F(1))),
            Atomic(((CQ(F(1, 2), F(1, 3)), F(1, 3)), (CQ(F(-1), F(1, 4)), F(2, 3)))),
        ],
    )
    def test_conjugate_matches_the_atomic_twin(self, twin):
        # conjugate(table) used to conjugate each entry as well as swap its
        # orders, which gave back the table's own law
        degree = 5
        table, want = conjugate(table_of(twin, degree)), conjugate(twin)
        for r in range(degree + 1):
            for s in range(degree + 1 - r):
                assert table.moment(r, s) == want.moment(r, s), (r, s)


def _gaussian_rational(draw):
    part = st.fractions(min_value=-2, max_value=2, max_denominator=12)
    return CQ(draw(part), draw(part))


@st.composite
def exact_models(draw):
    """A model with random exact parameters, of each kind that has a JSON form."""
    kinds = [Atomic, UniformDisk, UniformAnnulus, UniformEllipse, MomentTable]
    kind = draw(st.sampled_from(kinds))
    if kind is Atomic:
        weights = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        return Atomic(tuple((_gaussian_rational(draw), F(w, sum(weights))) for w in weights))
    if kind is UniformAnnulus:
        return UniformAnnulus(draw(st.fractions(min_value=1, max_value=4, max_denominator=12)))
    if kind is MomentTable:
        # each off-diagonal pair once, in either order, and a real diagonal >= 0,
        # as a measure's moments are
        degree = draw(st.integers(1, 4))
        orders = st.tuples(st.integers(0, degree), st.integers(0, degree))
        keys = draw(st.sets(orders.filter(lambda rs: rs[0] >= rs[1] and 0 < sum(rs) <= degree),
                            max_size=5))
        entries = {}
        for r, s in keys:
            if r == s:
                entries[r, s] = CQ(draw(st.fractions(min_value=0, max_value=2, max_denominator=12)))
            else:
                entries[(r, s) if draw(st.booleans()) else (s, r)] = _gaussian_rational(draw)
        return MomentTable(degree, tuple(sorted(entries.items())))
    return kind(*(draw(_positive(F(3))) for _ in range(2 if kind is UniformEllipse else 1)))


@st.composite
def shorthand_models(draw):
    """An exact model of each kind a CLI shorthand writes: a disk, annulus or
    ellipse, or a point mass anywhere in the plane."""
    kind = draw(st.sampled_from([Atomic, UniformDisk, UniformAnnulus, UniformEllipse]))
    if kind is Atomic:
        return Atomic.delta(_gaussian_rational(draw))
    if kind is UniformAnnulus:
        return UniformAnnulus(draw(st.fractions(min_value=1, max_value=4, max_denominator=12)))
    return kind(*(draw(_positive(F(3))) for _ in range(2 if kind is UniformEllipse else 1)))


def shorthand(mu) -> str:
    """The CLI shorthand of a model from ``shorthand_models``."""
    if isinstance(mu, Atomic):
        (loc, _), = mu.atoms
        params = (loc.re, loc.im)
    else:
        params = vars(mu).values()
    kind = {Atomic: "delta", UniformDisk: "disk", UniformAnnulus: "annulus", UniformEllipse: "ellipse"}
    return f"{kind[type(mu)]}:" + ",".join(map(format_rational, params))


class TestJsonSpec:
    def test_roundtrip(self):
        specs = [
            {"type": "atomic", "atoms": [{"re": "1/2", "im": "1/3", "w": "1/4"},
                                         {"re": -1, "im": 2, "w": "3/4"}]},
            {"type": "disk", "radius": "3/2"},
            {"type": "annulus", "c": "2"},
            {"type": "ellipse", "a": "1", "b": "1/2"},
            {"type": "table", "max_degree": 2,
             "entries": [{"r": 1, "s": 1, "re": "1/2", "im": "0"}]},
        ]
        for spec in specs:
            mu = measure_from_json(spec)
            again = measure_from_json(measure_spec(mu))
            assert again == mu

    def test_parses_json_text(self):
        mu = measure_from_json('{"type": "disk", "radius": "1"}')
        assert mu == UniformDisk(1)

    def test_bad_specs_raise(self):
        for bad in ("not json", '{"type": "nope"}', '{"radius": 1}',
                    '{"type": "disk", "radius": "1/0"}'):
            with pytest.raises(WordParseError):
                measure_from_json(bad)
        # well-formed but outside the annulus's domain: the model's own error
        with pytest.raises(ValueError, match="c >= 1") as info:
            measure_from_json('{"type": "annulus", "c": "1/2"}')
        assert not isinstance(info.value, WordParseError)

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "ellipse", "a": "1", "b": "1", "c": "7"},
            {"type": "disk", "radius": "1", "R": "2"},
            {"type": "atomic", "atoms": [{"re": "0", "w": "1"}], "weights": ["1"]},
            {"type": "atomic", "atoms": [{"re": "0", "w": "1", "weight": "1/2"}]},
            {"type": "table", "max_degree": 2, "entries": [], "degree": 3},
            {"type": "table", "max_degree": 2, "entries": [{"r": 1, "s": 1, "re": "1/2", "i": "1"}]},
        ],
        ids=["ellipse", "disk", "atomic", "atom", "table", "table-entry"],
    )
    def test_an_unread_key_is_refused(self, spec):
        # each extra key was ignored: the ellipse read as UniformEllipse(1, 1)
        with pytest.raises(WordParseError):
            measure_from_json(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "table", "max_degree": 2.9, "entries": [{"r": 1.5, "s": 0.2, "re": "1/2"}]},
            {"type": "table", "max_degree": 2.9, "entries": []},
            {"type": "table", "max_degree": "5/2", "entries": []},
            {"type": "table", "max_degree": 2, "entries": [{"r": 1.5, "s": 0, "re": "1/2"}]},
            {"type": "table", "max_degree": 2, "entries": [{"r": 1, "s": "1/2", "re": "1/2"}]},
        ],
        ids=["all", "float-degree", "string-degree", "float-order", "string-order"],
    )
    def test_a_fractional_order_is_refused(self, spec):
        # int() truncated them: the first read as MomentTable(2, (((1, 0), 1/2),))
        with pytest.raises(WordParseError):
            measure_from_json(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "table", "max_degree": 2, "entries": [{"r": 1, "s": 1}]},
            {"type": "atomic", "atoms": [{"w": "1"}]},
            {"type": "atomic", "atoms": [{"re": "0", "w": "1/2"}, {"im": "1", "w": "1/2"}]},
        ],
        ids=["table-entry", "atom", "second-atom"],
    )
    def test_a_value_without_re_is_refused(self, spec):
        # re defaulted to 0: the entry read as M(1, 1) = 0 and the atom as delta0
        with pytest.raises(WordParseError, match="'re'"):
            measure_from_json(spec)

    def test_integer_orders_read_in_any_spelling(self):
        spec = {"type": "table", "max_degree": "2",
                "entries": [{"r": 1.0, "s": "1", "re": "1/2"}]}
        assert measure_from_json(spec) == MomentTable(2, (((1, 1), CQ(F(1, 2))),))

    @given(mu=exact_models())
    @settings(max_examples=60, deadline=None)
    def test_exact_models_round_trip(self, mu):
        spec = measure_spec(mu)
        assert measure_from_json(spec) == mu
        assert parse_measure_arg(json.dumps(spec)) == mu

    @given(mu=shorthand_models())
    @settings(max_examples=60, deadline=None)
    def test_shorthand_json_spec_and_model_agree(self, mu):
        assert parse_measure_arg(shorthand(mu)) == parse_measure_arg(json.dumps(measure_spec(mu))) == mu


def test_a_table_whose_total_mass_is_not_one_is_refused():
    for mass in (CQ(F(1, 2)), CQ(0), CQ(1, 1)):
        with pytest.raises(ValueError, match=r"^M\(0, 0\) must be 1$"):
            MomentTable(2, (((0, 0), mass),))


def test_the_conjugate_of_a_scaled_measure_swaps_its_orders():
    mu = ScaledMeasure(UniformEllipse(F(1), F(1, 2)), CQ(F(1, 2), F(-1, 3)))
    nu = conjugate(mu)
    assert isinstance(nu, ScaledMeasure) and nu.lam == mu.lam.conjugate()
    for r in range(4):
        for s in range(4):
            assert nu.moment(r, s) == mu.moment(s, r)
