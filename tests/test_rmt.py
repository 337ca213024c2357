import gc
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction as F
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtmoments import rmt
from dtmoments.exact import ComplexRational as CQ
from dtmoments.errors import CapExceededError, WordParseError
from dtmoments.measures import (
    Atomic,
    MomentTable,
    ScaledMeasure,
    UniformAnnulus,
    UniformDisk,
    UniformEllipse,
    mixed_moment,
    scale,
)
from dtmoments.moments import ZWord, t_word_moment, z_word_moment
from dtmoments.ncpair import ONE, STAR, StarWord
from dtmoments.rmt import (
    DEFAULT_SIZE_CAP,
    DEFAULT_SWEEP_LEN_CAP,
    _rng,
    deterministic_diagonal_run,
    estimate_elliptic_moment,
    estimate_word_moment,
    pure_t_word_sweep,
    sample_measure,
)


def utgrm(rng, n, sigma_sq):
    """One strictly upper triangular draw of entry variance sigma_sq: the
    n(n-1)/2 real parts, then as many imaginary parts, each row by row."""
    parts = math.sqrt(sigma_sq / 2) * rng.standard_normal(n * (n - 1))
    rows, cols = np.triu_indices(n, k=1)
    m = np.zeros((n, n), dtype=complex)
    m.real[rows, cols], m.imag[rows, cols] = np.split(parts, 2)
    return m


def sgrm(rng, n, sigma_sq):
    """One self-adjoint draw: ``utgrm`` plus its adjoint, then sqrt(sigma_sq)
    times the next n normals on the diagonal."""
    m = utgrm(rng, n, sigma_sq)
    m += m.conj().T
    m[np.diag_indices(n)] = math.sqrt(sigma_sq) * rng.standard_normal(n)
    return m


def triangular(seed, n, size=1):
    """Trials 0 to size - 1 of ``seed`` as the triangular block draw makes them."""
    return rmt._triangular(_rng(seed), size, ~np.tri(n, dtype=bool))[0]


@pytest.fixture
def elliptic_block(monkeypatch):
    """``block(theta, n, size, seed)`` gives the Z, H1 and H2 stacks of trials 0
    to size - 1 of ``seed`` as the elliptic estimator's draw makes them.  The
    draw is taken from the estimator's call to ``_run_trials``, and H1 and H2
    from its two calls to ``_with_diagonal``."""
    draws, filled = [], []
    run, with_diagonal = rmt._run_trials, rmt._with_diagonal

    def capture(draw, *args):
        draws.append(draw)
        return run(draw, *args)

    def recording(m, d):
        filled.append(with_diagonal(m, d))
        return filled[-1]

    monkeypatch.setattr(rmt, "_run_trials", capture)
    monkeypatch.setattr(rmt, "_with_diagonal", recording)

    def block(theta, n, size, seed):
        estimate_elliptic_moment(theta, StarWord((ONE,)), n, 2, seed)
        filled.clear()
        z = draws[-1](_rng(seed), size)["Z"]
        assert len(filled) == 2
        return z, *filled

    return block


class TestSamplers:
    def test_triangular_shape(self):
        for m in triangular(1, 6, size=3):
            assert np.array_equal(np.tril(m), np.zeros((6, 6)))
            assert np.all(m[np.triu_indices(6, k=1)] != 0)

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_triangular_fills_the_upper_triangle_row_by_row(self, n):
        # n(n-1)/2 real parts, then as many imaginary parts, each scaled by
        # sqrt(1 / 2n), placed row by row above the diagonal, trial by trial
        count, size = n * (n - 1) // 2, 3
        block, rng = triangular(29, n, size), _rng(29)
        for t in range(size):
            re, im = rng.standard_normal(count), rng.standard_normal(count)
            scale = math.sqrt(1.0 / n / 2)
            want = np.zeros((n, n), dtype=complex)
            k = 0
            for i in range(n):
                for j in range(i + 1, n):
                    want[i, j] = complex(scale * re[k], scale * im[k])
                    k += 1
            assert np.array_equal(block[t], want)

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_elliptic_pair_is_hermitian_with_a_real_diagonal(self, elliptic_block, n):
        # a block of 7 trials, so H1 and H2 are strided views of one buffer
        _, h1, h2 = elliptic_block(math.pi / 3, n, 7, 1)
        for h in (h1, h2):
            assert h.shape == (7, n, n)
            assert np.array_equal(h, h.conj().swapaxes(1, 2))
            assert not np.diagonal(h, axis1=1, axis2=2).imag.any()

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_elliptic_diagonals_are_the_next_normals(self, elliptic_block, n):
        # H1's upper parts, then its n diagonal normals, then H2's, from one stream
        size = 7
        _, h1, h2 = elliptic_block(math.pi / 3, n, size, 31)
        rng = _rng(31)
        for t in range(size):
            for h in (h1, h2):
                assert np.triu(h[t], k=1).tobytes() == utgrm(rng, n, 1.0 / n).tobytes()
                want = math.sqrt(1.0 / n) * rng.standard_normal(n)
                assert np.diagonal(h[t]).tobytes() == want.astype(complex).tobytes()

    def test_reproducible_across_calls(self):
        a = triangular(42, 8, size=5)
        assert np.array_equal(a, triangular(42, 8, size=5))
        assert not np.array_equal(a[3], a[4])

    def test_entry_second_moment(self):
        # one large draw gives ~10^5 independent entries of variance 1/n
        n = 450
        m = triangular(9, n)[0]
        entries = m[np.triu_indices(n, k=1)]
        values = np.abs(entries) ** 2
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - 1.0 / n) < 3 * stderr

    def test_point_mass_diagonal_is_constant(self):
        w = CQ(F(1, 2), F(-1, 3))
        d = sample_measure(Atomic.delta(w), 5, _rng(0))
        assert np.allclose(d, complex(w.to_complex()))

    def test_disk_and_annulus_supports(self):
        d = sample_measure(UniformDisk(F(3, 2)), 4000, _rng(5))
        assert np.all(np.abs(d) <= 1.5 + 1e-12)
        ann = sample_measure(UniformAnnulus(F(2)), 4000, _rng(5))
        assert np.all(np.abs(ann) >= 1.0 - 1e-12)
        assert np.all(np.abs(ann) <= math.sqrt(2) + 1e-12)

    def test_sampled_second_moments_match_models(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
        for mu in (
            UniformDisk(F(3, 2)),
            UniformAnnulus(F(2)),
            UniformEllipse(F(1), F(1, 2)),
            scale(UniformDisk(1), CQ(F(1), F(1))),
            Atomic(((CQ(F(1)), F(1, 4)), (CQ(F(0), F(2)), F(3, 4)))),
        ):
            draws = sample_measure(mu, 200_000, rng)
            # M(2, 0) tells an ellipse from its rotation by 90 degrees
            for (r, s), values in (((1, 1), np.abs(draws) ** 2), ((2, 0), draws**2)):
                want = mixed_moment(mu, r, s).as_complex()
                for part in (np.real, np.imag):
                    stderr = np.std(part(values), ddof=1) / math.sqrt(values.size)
                    assert abs(np.mean(part(values)) - part(want)) <= 4 * stderr, (mu, r, s)

    def test_ellipse_rejection_stays_inside(self):
        mu = UniformEllipse(F(1), F(1, 2))
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
        d = sample_measure(mu, 5000, rng)
        a2, b2 = 1.0, 0.25
        hx = 2 * a2 / math.sqrt(a2 + b2)
        hy = 2 * b2 / math.sqrt(a2 + b2)
        assert np.all((d.real / hx) ** 2 + (d.imag / hy) ** 2 <= 1 + 1e-12)

    def test_a_scaled_measure_with_an_int_factor_samples(self):
        # the factor stayed an int, and sampling raised AttributeError
        got = sample_measure(ScaledMeasure(UniformDisk(1), 2), 16, _rng(0))
        np.testing.assert_array_equal(got, 2 * sample_measure(UniformDisk(1), 16, _rng(0)))

    def test_moment_table_not_sampleable(self):
        table = MomentTable(2, (((1, 1), CQ(F(1, 2))),))
        with pytest.raises(ValueError):
            sample_measure(table, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("mu, error, match", [
        (MomentTable(2, (((1, 1), CQ(F(1, 2))),)), ValueError, "moment tables expose no sampler"),
        (ScaledMeasure(MomentTable(2, (((1, 1), CQ(F(1, 2))),)), 2), ValueError,
         "moment tables expose no sampler"),
        ("disk:1", TypeError, "cannot sample measure model"),
    ], ids=["table", "scaled-table", "not-a-model"])
    def test_an_unsampleable_measure_is_refused_before_a_draw(self, monkeypatch, mu, error, match):
        # the estimator filled a 2048 x 2048 block before it reached the refusal
        def fill(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(rmt, "_fill_upper", fill)
        with pytest.raises(error, match=match):
            estimate_word_moment(["Z*", "Z"], 64, 2, 0, mu=mu)
        with pytest.raises(error, match=match):
            estimate_word_moment(["D", "T"], 64, 2, 0, mu=mu)
        with pytest.raises(error, match=match):
            sample_measure(mu, 3, SimpleNamespace(random=fill))

    def test_elliptic_theta_domain(self):
        for theta in (0.0, math.pi / 2):
            with pytest.raises(ValueError, match="theta"):
                estimate_elliptic_moment(theta, StarWord((ONE,)), n=8, trials=2, seed=0)


SAMPLED = {
    "disk": UniformDisk(F(3, 2)),
    "annulus": UniformAnnulus(F(3, 2)),
    "ellipse": UniformEllipse(F(1), F(1, 2)),
    "atomic": Atomic(((CQ(F(1)), F(1, 4)), (CQ(F(1, 3), F(2)), F(3, 4)))),
    "scaled-ellipse": scale(UniformEllipse(F(1), F(1, 3)), CQ(F(1, 2), F(-1))),
    "no-measure": None,
}


@pytest.mark.parametrize("n", [1, 2, 5, 17])
@pytest.mark.parametrize("kind", list(SAMPLED))
def test_a_block_equals_its_trials_drawn_one_by_one(kind, n):
    # a block makes one standard_normal call, then scales, places and
    # transforms the whole block; trial t must still equal, bit for bit,
    # sample_measure and then utgrm, trial by trial on one _rng(seed)
    mu, seed, size = SAMPLED[kind], 61, 7
    t, d = rmt._triangular(_rng(seed), size, ~np.tri(n, dtype=bool), mu)
    assert t.shape == (size, n, n)
    rng = _rng(seed)
    for k in range(size):
        if mu is not None:
            assert d[k].tobytes() == sample_measure(mu, n, rng).tobytes()
        assert t[k].tobytes() == utgrm(rng, n, 1.0 / n).tobytes()


@pytest.mark.parametrize("kind", [kind for kind, mu in SAMPLED.items() if mu is not None])
def test_two_zero_normals_draw_a_point_of_the_support(kind):
    # their direction (x + iy)/|x + iy| is 0/0, which filterwarnings = error
    # would fail; it is taken as 1, and u = exp(0) = 1 puts disk and annulus
    # draws on their outer circle
    d = rmt._from_normals(SAMPLED[kind], np.zeros((2, 3)))
    assert np.isfinite(d).all() and len(set(d)) == 1
    outer = {"disk": 1.5, "annulus": math.sqrt(1.5)}
    if kind in outer:
        assert d[0] == outer[kind]


class CallLog:
    """A generator that logs the name of each method called on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


@pytest.mark.parametrize("kind", list(SAMPLED))
def test_a_block_makes_one_standard_normal_call(monkeypatch, kind):
    # a trial with a diagonal made one random and one standard_normal call
    # of its own; n = 8 stacks 64 trials a block, so 100 trials take two
    mu, logs = SAMPLED[kind], []

    def logged(seed):
        logs.append(CallLog(_rng(seed)))
        return logs[-1]

    monkeypatch.setattr(rmt, "_rng", logged)
    letters = ["T*", "T"] if mu is None else ["Z*", "Z"]
    estimate_word_moment(letters, 8, 100, 3, mu=mu)
    assert [log.calls for log in logs] == [["standard_normal"] * 2]
    if mu is not None:
        rng = CallLog(_rng(3))
        sample_measure(mu, 8, rng)
        assert rng.calls == ["standard_normal"]


@pytest.mark.parametrize("n", [1, 2, 5, 17])
@pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 3, 0.3], ids=["pi/4", "pi/3", "0.3"])
def test_an_elliptic_block_equals_its_trials_drawn_one_by_one(elliptic_block, theta, n):
    # an elliptic block makes one standard_normal call and fills H1 and H2 at
    # once; trial t must still equal, bit for bit, cos(theta) sgrm + i
    # sin(theta) sgrm, trial by trial on one _rng(seed)
    seed, size = 67, 7
    z, _, _ = elliptic_block(theta, n, size, seed)
    assert z.shape == (size, n, n)
    rng = _rng(seed)
    for t in range(size):
        h1, h2 = sgrm(rng, n, 1.0 / n), sgrm(rng, n, 1.0 / n)
        assert z[t].tobytes() == (math.cos(theta) * h1 + 1j * math.sin(theta) * h2).tobytes()


# one-letter words and two trials: an unchecked path allocates a few
# matrices of the oversize n and returns, so the tests fail fast
EVERY_ESTIMATOR = pytest.mark.parametrize(
    "run",
    [
        lambda n, seed=0: estimate_word_moment(["T"], n, 2, seed),
        lambda n, seed=0: estimate_elliptic_moment(math.pi / 4, StarWord((ONE,)), n, 2, seed),
        lambda n, seed=0: deterministic_diagonal_run(
            lambda m: [0.0] * m, 1.0, StarWord((ONE,)), n, 2, seed
        ),
        lambda n, seed=0: pure_t_word_sweep(1, n, 2, seed),
    ],
    ids=["word", "elliptic", "fixed", "sweep"],
)


def same_stream(a, b):
    """Equal draws of every kind the samplers use, odd lengths included."""
    assert np.array_equal(a.standard_normal(7), b.standard_normal(7))
    assert np.array_equal(a.random(3), b.random(3))
    u32 = dict(size=5, dtype=np.uint32)
    assert np.array_equal(a.integers(2**32, **u32), b.integers(2**32, **u32))
    assert np.array_equal(a.standard_normal((4, 5)), b.standard_normal((4, 5)))


class TestStream:
    def test_trial_t_takes_the_t_th_draws_of_one_generator(self):
        # n = 16 stacks 16 trials a block, so 20 trials take a full and a partial block;
        # each trial's odd-length draws leave the stream part used for the next
        seed, seen, sizes = 2**64 - 11, [], []
        replay = _rng(seed)

        def draw(rng, size):
            for _ in range(size):
                same_stream(rng, replay)
                seen.append(len(seen))
            sizes.append(size)
            return {"T": np.zeros((size, 16, 16))}

        rmt._run_trials(draw, [("T", "T*")], 16, 20, seed)
        assert seen == list(range(20))
        assert sizes == [16, 4]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_a_run_goes_on_from_what_the_seed_and_trial_0_key_drew(self, seed):
        # earlier versions keyed trial t by (seed, t): trial 0 draws as it did
        # then, and trial 1 takes the next draws of the same stream
        old = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        trials = [utgrm(old, 5, 1 / 5) for _ in range(2)]
        values = np.array([np.trace(m.conj().T @ m) / 5 for m in trials])
        assert_agrees(estimate_word_moment(["T*", "T"], 5, 2, seed), values, "T* T")

    @EVERY_ESTIMATOR
    @pytest.mark.parametrize("seed, error, match", [
        (-1, ValueError, "seed must be >= 0"),
        (-(2**64), ValueError, "seed must be >= 0"),
        (2**64, CapExceededError, "seed 18446744073709551616 exceeds the cap of 18446744073709551615"),
    ], ids=["minus-one", "minus-2**64", "2**64"])
    def test_every_estimator_refuses_a_seed_outside_64_bits(self, run, seed, error, match):
        # seed s and s + 2**64 gave one estimate under two reported seeds
        with pytest.raises(error, match=match):
            run(8, seed)

    @EVERY_ESTIMATOR
    def test_every_estimator_takes_the_largest_seed(self, run):
        est = run(8, 2**64 - 1)
        for e in est.values() if isinstance(est, dict) else [est]:
            assert e.seed == 2**64 - 1


class TestEstimators:
    def test_estimates_are_reproducible(self):
        kw = dict(n=16, trials=200, seed=77)
        assert estimate_word_moment(["T", "T*"], **kw) == estimate_word_moment(
            ["T", "T*"], **kw
        )

    def test_finite_size_second_moment(self):
        n = 8
        est = estimate_word_moment(["T", "T*"], n=n, trials=4000, seed=3)
        exact = (n - 1) / (2 * n)
        assert abs(est.mean - exact) < 3 * est.stderr

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            estimate_word_moment(["T", "T*"], n=4096, trials=2, seed=0)

    def test_d_word_needs_measure(self):
        with pytest.raises(WordParseError):
            estimate_word_moment(["D", "T"], n=8, trials=2, seed=0)

    @pytest.mark.parametrize("letters", [("Q",), ("T", "Z"), ("Z*", "D"), ("T T*",)])
    def test_letters_are_checked_by_the_word_rule(self, letters):
        # ("Q",) raised KeyError, and ("T", "Z") gave an estimate for a word
        # that the exact engine refuses
        with pytest.raises(WordParseError):
            estimate_word_moment(letters, n=8, trials=2, seed=0, mu=UniformDisk(1))

    def test_the_empty_word_is_exactly_one(self):
        # dividing every row of trial values by n gave 1/n = 0.125 here
        est = estimate_word_moment([], 8, 4, 0)
        assert (est.mean, est.stderr) == (1 + 0j, 0.0)
        assert est.mean.imag.hex() == est.stderr.hex() == "0x0.0p+0"

    def test_mean_of_point_mass_word(self):
        w = CQ(F(1, 3), F(2, 3))
        est = estimate_word_moment(
            ["Z"], n=32, trials=10, seed=1, mu=Atomic.delta(w), c=1.0
        )
        assert abs(est.mean - w.to_complex()) < 1e-12

    def test_circular_second_moment(self):
        est = estimate_word_moment(
            ["Z*", "Z"], n=256, trials=60, seed=12, mu=UniformDisk(1), c=1.0
        )
        assert abs(est.mean - 1.0) < 3 * est.stderr + 10 / 256

    def test_record_round_trips_through_json(self):
        est = estimate_word_moment(["T", "T*"], n=8, trials=10, seed=0)
        rec = est.to_record("T T*", target=0.5)
        parsed = json.loads(json.dumps(rec))
        assert parsed["word"] == "T T*"
        assert parsed["target_re"] == 0.5

    def test_record_matches_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as resources

        schema = json.loads(
            resources.files("dtmoments").joinpath("schemas/mc_record.schema.json").read_text()
        )
        est = estimate_word_moment(["T", "T*"], n=8, trials=10, seed=2**64 - 1)
        jsonschema.validate(est.to_record("T T*", target=0.5), schema)
        jsonschema.validate(est.to_record("T T*"), schema)
        for seed in (-1, 2**64):  # no estimator draws with these
            with pytest.raises(jsonschema.ValidationError, match="seed"):
                jsonschema.validate(rmt.Estimate(0j, 0.0, 8, 10, seed).to_record("T T*"), schema)


class TestScaleAndLength:
    def test_c_on_a_word_without_z_letters_is_refused(self):
        # c scales T inside Z; T* T at c = 5 gave about 0.44, the c = 1 value
        with pytest.raises(WordParseError, match="Z letters"):
            estimate_word_moment(["T*", "T"], 8, 400, 0, c=5.0)
        with pytest.raises(WordParseError, match="Z letters"):
            estimate_word_moment(["D*", "T"], 8, 2, 0, mu=UniformDisk(1), c=2.0)

    def test_measure_on_a_word_without_d_or_z_letters_is_refused(self):
        # mu is the law of D; T* T on a disk of radius 2 equalled the call without mu
        with pytest.raises(WordParseError, match="D or Z letters"):
            estimate_word_moment(["T*", "T"], 8, 400, 0, mu=UniformDisk(2))

    @pytest.mark.parametrize("kw", [dict(c="1"), dict(mu=Atomic.delta(0)),
                                    dict(mu=Atomic.delta("0"), c=F(1))], ids=repr)
    def test_a_t_word_reads_c_and_mu_as_dtmoment_does(self, kw):
        # c = "1" and the point mass at 0 were refused, which dtmoment mc accepts
        want = estimate_word_moment(["T", "T*"], 8, 50, 3)
        assert estimate_word_moment(["T", "T*"], 8, 50, 3, **kw) == want

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, "-1/2"])
    def test_scale_must_be_positive(self, c):
        # ZWord refuses these; both estimators sampled them (inf gave a nan
        # estimate)
        with pytest.raises(ValueError, match="the scale c must be positive"):
            estimate_word_moment(["Z*", "Z"], 8, 2, 0, mu=UniformDisk(1), c=c)
        with pytest.raises(ValueError, match="the scale c must be positive"):
            deterministic_diagonal_run(lambda n: [0.0] * n, c, StarWord((STAR, ONE)), 8, 2, 0)

    def test_a_boolean_scale_is_refused(self):
        # True sampled c = 1
        with pytest.raises(TypeError, match="boolean"):
            estimate_word_moment(["Z*", "Z"], 8, 2, 0, mu=UniformDisk(1), c=True)
        with pytest.raises(TypeError, match="boolean"):
            deterministic_diagonal_run(lambda n: [0.0] * n, True, StarWord((STAR, ONE)), 8, 2, 0)

    def test_an_exact_scale_samples_as_its_float(self, monkeypatch):
        # a Fraction c made object arrays, 25 times slower at n = 16
        original, dtypes = rmt._with_diagonal, set()
        monkeypatch.setattr(rmt, "_with_diagonal", lambda m, d: dtypes.add(m.dtype) or original(m, d))
        word, eps = ["Z*", "Z"], StarWord((STAR, ONE))
        for c in (F(1, 2), "1/2"):
            assert estimate_word_moment(word, 16, 50, 0, mu=UniformDisk(1), c=c) == \
                estimate_word_moment(word, 16, 50, 0, mu=UniformDisk(1), c=0.5)
            assert deterministic_diagonal_run(lambda n: [0.5] * n, c, eps, 16, 50, 0) == \
                deterministic_diagonal_run(lambda n: [0.5] * n, 0.5, eps, 16, 50, 0)
        assert dtypes == {np.dtype(complex)}

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_sweep_needs_a_letter(self, max_len):
        # returned {} where no word was asked for
        with pytest.raises(ValueError, match="max_len"):
            pure_t_word_sweep(max_len, n=8, trials=2, seed=0)

    def test_sweep_length_is_capped_before_the_plan(self, monkeypatch):
        # 14 letters made 32,766 words and 1,371 classes before the first trial
        def plan(words):
            raise AssertionError("the sweep was planned")

        monkeypatch.setattr(rmt, "_classes", plan)
        with pytest.raises(CapExceededError, match="max_len 13 exceeds the cap of 12"):
            pure_t_word_sweep(DEFAULT_SWEEP_LEN_CAP + 1, n=8, trials=2, seed=0)

    @pytest.mark.parametrize(
        "run",
        [
            lambda n: estimate_word_moment(["T"], n, 2, 0, c=5.0),
            lambda n: estimate_word_moment(["T"], n, 2, 0, mu=UniformDisk(1)),
            lambda n: estimate_word_moment(["Z"], n, 2, 0, mu=UniformDisk(1), c=0.0),
            lambda n: deterministic_diagonal_run(
                lambda m: [0.0] * m, -1.0, StarWord((ONE,)), n, 2, 0
            ),
            lambda n: pure_t_word_sweep(0, n, 2, 0),
        ],
        ids=["word-c", "word-measure", "word-scale", "fixed-scale", "sweep-length"],
    )
    def test_size_is_checked_first(self, run):
        with pytest.raises(ValueError, match="cap"):
            run(DEFAULT_SIZE_CAP + 1)
        with pytest.raises(ValueError, match="matrix size must be >= 1"):
            run(0)


class TestElliptic:
    def test_quarter_turn_is_circular(self):
        est = estimate_elliptic_moment(
            math.pi / 4, StarWord((STAR, ONE)), n=128, trials=80, seed=21
        )
        assert abs(est.mean - 1.0) < 3 * est.stderr + 10 / 128

    def test_quarter_turn_unstarred_square_vanishes(self):
        est = estimate_elliptic_moment(
            math.pi / 4, StarWord((ONE, ONE)), n=128, trials=80, seed=22
        )
        assert abs(est.mean) < 3 * est.stderr + 10 / 128

    def test_theta_is_read_by_elliptic_dt(self):
        # True sampled theta = 1 rad, and "1/2" raised TypeError from the comparison
        with pytest.raises(TypeError, match="boolean"):
            estimate_elliptic_moment(True, StarWord((ONE,)), 4, 3, 0)
        assert estimate_elliptic_moment("1/2", StarWord((STAR, ONE)), 4, 3, 0) == \
            estimate_elliptic_moment(0.5, StarWord((STAR, ONE)), 4, 3, 0)

    def test_third_turn_against_engine_target(self):
        theta = math.pi / 3
        a, b = math.cos(theta), math.sin(theta)
        eps = StarWord((ONE, ONE))
        target = z_word_moment(
            ZWord(eps, 2 * a * b / math.hypot(a, b)), UniformEllipse(a, b)
        ).as_complex()
        assert abs(target - (a * a - b * b)) < 1e-12  # engine agrees with cos(2 theta)
        est = estimate_elliptic_moment(theta, eps, n=128, trials=80, seed=23)
        assert abs(est.mean - target) < 3 * est.stderr + 10 / 128


class TestDeterministicDiagonal:
    def test_zero_entries_reduce_to_pure_t(self):
        eps = StarWord((STAR, ONE))
        det = deterministic_diagonal_run(
            lambda n: [0.0] * n, 1.0, eps, n=64, trials=30, seed=4
        )
        pure = estimate_word_moment(["T*", "T"], n=64, trials=30, seed=4)
        assert det == pure

    def test_unit_circle_diagonal(self):
        eps = StarWord((STAR, ONE))
        est = deterministic_diagonal_run(
            lambda n: np.exp(2j * math.pi * np.arange(n) / n),
            1.0, eps, n=256, trials=60, seed=6,
        )
        assert abs(est.mean - 1.5) < 3 * est.stderr + 10 / 256

    def test_uniform_grid_mean(self):
        # trace of Z itself: the triangular part has zero trace, so every
        # trial returns the grid mean exactly
        est = deterministic_diagonal_run(
            lambda n: (np.arange(n) + 0.5) / n, 1.0, StarWord((ONE,)),
            n=128, trials=5, seed=0,
        )
        assert abs(est.mean - 0.5) < 1e-12

    @pytest.mark.parametrize("length", [1, 15, 17])
    def test_diagonal_of_the_wrong_length_is_refused(self, length):
        # a one-entry diagonal used to broadcast onto every entry of Z
        with pytest.raises(ValueError, match=f"16 diagonal entries, got {length}"):
            deterministic_diagonal_run(
                lambda n: [0.5] * length, 1.0, StarWord((STAR, ONE)), n=16, trials=2, seed=0
            )

    @pytest.mark.parametrize(
        "entries",
        [lambda n: [True] * n, lambda n: ["1"] * n, lambda n: [0.5] * (n - 1) + [np.bool_(True)],
         lambda n: [True] * (n + 1)],
        ids=["bool", "string", "numpy-bool", "before-the-length"],
    )
    def test_a_diagonal_of_non_numbers_is_refused(self, entries):
        # np.asarray(..., dtype=complex) read each of True and "1" as 1, and sampled
        with pytest.raises(TypeError, match="diagonal entries must be numbers"):
            deterministic_diagonal_run(entries, 1, StarWord((STAR, ONE)), 4, 10, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
    def test_a_non_finite_diagonal_is_refused(self, bad):
        # a nan or inf entry gave the mean nan+nanj and the stderr nan
        with pytest.raises(ValueError, match="finite"):
            deterministic_diagonal_run(
                lambda n: [0.5] * (n - 1) + [bad], 1.0, StarWord((ONE, STAR)), 4, 3, 0
            )


def test_pure_t_sweep_against_limits():
    sweep = pure_t_word_sweep(4, n=64, trials=120, seed=31)
    assert len(sweep) == 2 + 4 + 8 + 16
    for letters, est in sweep.items():
        eps = StarWord(tuple(ONE if tok == "T" else STAR for tok in letters))
        limit = t_word_moment(eps).as_complex()
        assert abs(est.mean - limit) < 3 * est.stderr + 10 / 64, letters


def direct_values(draw, words, n, trials, seed):
    """Per-trial normalized traces of each word, each by its own multi_dot of
    the letters ``draw(rng)`` returns and their adjoints, trial by trial on one
    ``rng = _rng(seed)``: no halves, no classes and no plan."""
    values = {w: np.empty(trials, dtype=complex) for w in words}
    rng = _rng(seed)
    for t in range(trials):
        mats = draw(rng)
        mats.update({x + "*": m.conj().T for x, m in list(mats.items())})
        for w in words:
            prod = np.linalg.multi_dot([mats[tok] for tok in w]) if len(w) > 1 else mats[w[0]]
            values[w][t] = np.trace(prod) / n
    return values


def assert_agrees(est, values, word):
    trials = values.size
    mean = values.mean()
    stderr = max(values.real.std(ddof=1), values.imag.std(ddof=1)) / math.sqrt(trials)
    tol = 1e-12 * max(abs(mean), stderr)
    assert abs(est.mean - mean) <= tol, word
    assert abs(est.stderr - stderr) <= tol, word


def test_sweep_agrees_with_direct_traces():
    trials = 8
    sweep = pure_t_word_sweep(6, n=16, trials=trials, seed=13)
    words = [w for k in range(1, 7) for w in itertools.product(("T", "T*"), repeat=k)]
    direct = direct_values(lambda rng: {"T": utgrm(rng, 16, 1 / 16)}, words, 16, trials, 13)
    assert set(sweep) == set(direct)
    zeros = 0
    for letters, values in direct.items():
        est = sweep[letters]
        assert_agrees(est, values, letters)
        if not values.any():
            zeros += 1
            assert est.mean == 0 and est.stderr == 0, letters
    assert zeros == 2 * 6  # T^k and T*^k are nilpotent


def draw_dz(mu, c, n):
    """D, T and Z = D + c T, in the order the word estimator draws them."""

    def draw(rng):
        d = np.diag(sample_measure(mu, n, rng))
        tm = utgrm(rng, n, 1.0 / n)
        return {"D": d, "T": tm, "Z": d + c * tm}

    return draw


DT_WORDS = [
    ("D", "T", "D*", "T*"),
    ("D*", "D", "T"),
    ("T*", "D", "T", "D*", "D"),
    ("D", "T", "T", "D*", "T*", "T*"),
    ("T", "D*", "T*", "D", "T*", "T", "D*"),
]
Z_WORDS = [
    ("Z",),
    ("Z*", "Z"),
    ("Z", "Z", "Z*"),
    ("Z*", "Z", "Z", "Z*", "Z*"),
    ("Z", "Z*", "Z*", "Z", "Z*", "Z", "Z"),
]


@pytest.mark.parametrize(
    "mu, c, words",
    [
        (UniformDisk(1), 1.0, DT_WORDS),
        (UniformDisk(1), 1.0, Z_WORDS),
        (UniformAnnulus(F(3, 2)), 0.5, Z_WORDS),
    ],
    ids=["dt-disk", "z-disk", "z-annulus"],
)
def test_word_estimates_agree_with_direct_traces(mu, c, words):
    n, trials, seed = 12, 6, 41
    direct = direct_values(draw_dz(mu, c, n), words, n, trials, seed)
    for w in words:
        est = estimate_word_moment(list(w), n, trials, seed, mu=mu, c=c)
        assert_agrees(est, direct[w], w)


STAR_WORDS = [
    StarWord((ONE,)),
    StarWord((STAR, ONE)),
    StarWord((ONE, ONE, STAR)),
    StarWord((ONE, STAR, ONE, ONE, STAR)),
    StarWord((STAR, STAR, ONE, STAR, ONE, ONE)),
]


def z_word(eps):
    return tuple("Z" if sym == ONE else "Z*" for sym in eps.symbols)


def draw_elliptic(theta, n):
    """Z = cos(theta) H1 + i sin(theta) H2, as the elliptic estimator draws it."""

    def draw(rng):
        h1 = sgrm(rng, n, 1.0 / n)
        h2 = sgrm(rng, n, 1.0 / n)
        return {"Z": math.cos(theta) * h1 + 1j * math.sin(theta) * h2}

    return draw


def test_elliptic_estimates_agree_with_direct_traces():
    n, trials, seed, theta = 12, 6, 43, math.pi / 3
    direct = direct_values(
        draw_elliptic(theta, n), [z_word(eps) for eps in STAR_WORDS], n, trials, seed
    )
    for eps in STAR_WORDS:
        est = estimate_elliptic_moment(theta, eps, n, trials, seed)
        assert_agrees(est, direct[z_word(eps)], eps)


def test_fixed_diagonal_estimates_agree_with_direct_traces():
    n, trials, seed, c = 12, 6, 47, 0.5
    entries = np.exp(2j * math.pi * np.arange(n) / n)

    def draw(rng):
        return {"Z": np.diag(entries) + c * utgrm(rng, n, 1.0 / n)}

    direct = direct_values(draw, [z_word(eps) for eps in STAR_WORDS], n, trials, seed)
    for eps in STAR_WORDS:
        est = deterministic_diagonal_run(lambda m: entries, c, eps, n, trials, seed)
        assert_agrees(est, direct[z_word(eps)], eps)


@pytest.mark.parametrize("x_side, y_side", itertools.product((1, -1, 0), repeat=2))
@pytest.mark.parametrize("n", [127, 128, 200, 512], ids=lambda n: f"n{n}")
def test_a_product_in_panels_equals_the_plain_product(n, x_side, y_side):
    # n = 127 is one panel, 128 two, 200 three of 66, 67 and 67 columns and
    # 512 eight; a lower factor is an upper one's adjoint, as the runner holds it
    rng = np.random.default_rng(n)

    def stack(side):
        m = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        return m if side == 0 else np.triu(m) if side == 1 else np.triu(m).conj().swapaxes(1, 2)

    x, y = stack(x_side), stack(y_side)
    got, want = rmt._product(x, y, x_side, y_side), x @ y
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    if x_side == y_side == 1:
        assert not np.tril(got, -1).any()
    if n == 127 or not x_side | y_side:
        assert got.tobytes() == want.tobytes()


def panel_run(kind, n):
    """The estimates and direct values of ``kind``'s words at size n, two trials."""
    trials, seed, mu = 2, 71, UniformDisk(1)
    entries = np.exp(2j * math.pi * np.arange(n) / n)

    def draw_t(rng):
        return {"T": utgrm(rng, n, 1.0 / n)}

    def draw_fixed(rng):
        return {"Z": np.diag(entries) + 0.5 * utgrm(rng, n, 1.0 / n)}

    if kind == "sweep":
        words = [w for k in range(1, 5) for w in itertools.product(("T", "T*"), repeat=k)]
        draw, est = draw_t, pure_t_word_sweep(4, n, trials, seed)
    elif kind == "fixed":
        words, draw = [z_word(eps) for eps in STAR_WORDS], draw_fixed
        est = {z_word(eps): deterministic_diagonal_run(lambda m: entries, 0.5, eps, n, trials, seed)
               for eps in STAR_WORDS}
    elif kind == "t":
        words = [("T", "T", "T*"), ("T", "T*", "T*", "T", "T"), ("T*", "T", "T", "T*", "T*", "T")]
        draw = draw_t
        est = {w: estimate_word_moment(list(w), n, trials, seed) for w in words}
    else:
        words, c = (DT_WORDS, 1.0) if kind == "dt" else (Z_WORDS, 0.5)
        draw = draw_dz(mu, c, n)
        est = {w: estimate_word_moment(list(w), n, trials, seed, mu=mu, c=c) for w in words}
    return est, direct_values(draw, words, n, trials, seed)


@pytest.mark.parametrize("n", [128, 256], ids=lambda n: f"n{n}")  # two panels and four
def test_panel_estimates_agree_with_direct_traces(monkeypatch, n):
    sides, product = set(), rmt._product

    def recording(x, y, x_side, y_side):
        sides.add((x_side, y_side))
        return product(x, y, x_side, y_side)

    monkeypatch.setattr(rmt, "_product", recording)
    for kind in ["t", "dt", "z", "fixed", "sweep"]:
        est, direct = panel_run(kind, n)
        assert set(est) == set(direct)
        for w, values in direct.items():
            assert_agrees(est[w], values, w)
    # each right factor is a letter, upper (1) or lower (-1); each left one is
    # upper, lower or, where its letters mix the two, full (0)
    assert sides == set(itertools.product((1, -1, 0), (1, -1)))


@pytest.fixture
def products(monkeypatch):
    """What a run forms, counted on the matrices themselves: the letters each
    block draws are Counting stacks, from which every product derives.

    ``trials`` gets, for each product, the number of trials its block covers;
    ``right_not_letter`` counts the products whose right factor is not a drawn
    letter or its adjoint, and ``conjugated`` the conjugates taken of a product."""
    seen = SimpleNamespace(trials=[], right_not_letter=0, conjugated=0)

    class Counting(np.ndarray):
        letter = True

        def __array_finalize__(self, obj):
            self.letter = getattr(obj, "letter", True)  # a view keeps its source's kind

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
            out = getattr(ufunc, method)(*plain, **kwargs).view(Counting)
            out.letter = ufunc is np.conjugate and inputs[0].letter  # a letter's adjoint
            if ufunc is np.matmul:
                seen.trials.append(len(out))
                seen.right_not_letter += not inputs[1].letter
            if ufunc is np.conjugate:
                seen.conjugated += not inputs[0].letter
            return out

    run = rmt._run_trials

    def counting(draw, *args):
        return run(lambda *a: {x: m.view(Counting) for x, m in draw(*a).items()}, *args)

    monkeypatch.setattr(rmt, "_run_trials", counting)
    return seen


def test_sweep_forms_one_product_per_class_prefix(products):
    # n = 16 stacks 16 trials a block: 20 trials take blocks of 16 and 4
    trials = 20
    sweep = pure_t_word_sweep(6, n=16, trials=trials, seed=0)
    # the classes' halves of 2 or 3 letters and their prefixes, a second half
    # as the lesser of it and its adjoint, are TT, TT*, TTT, TTT* and TT*T
    assert sorted(products.trials) == [4] * 5 + [16] * 5
    assert sum(products.trials) == 5 * trials
    # the prefixes of length 2 to 5 over all 126 words number 4 + 8 + 16 + 32
    prefixes = {w[:k] for w in sweep for k in range(2, len(w))}
    assert len(prefixes) == 60


def test_equal_halves_form_one_product(products):
    # Z* Z Z* Z is traced as Z Z* Z Z*: its two halves share the product Z Z*
    trials = 3
    estimate_word_moment(["Z*", "Z", "Z*", "Z"], n=4, trials=trials, seed=0, mu=UniformDisk(1))
    assert products.trials == [trials]


def test_sweep_to_eight_letters_forms_thirteen_products(products):
    # n = 6 stacks all 3 trials in one block
    pure_t_word_sweep(8, n=6, trials=3, seed=0)
    assert products.trials == [3] * 13
    assert products.right_not_letter == products.conjugated == 0


@pytest.mark.parametrize("word, count", [
    (("Z", "Z", "Z", "Z", "Z*"), 2),  # Z Z times Z Z Z*, where Z Z Z times Z Z* forms 3
    (("Z*", "Z", "Z*", "Z", "Z*", "Z*"), 3),  # Z Z* times Z Z* Z Z, where 4
    (("D*", "T", "T*", "D"), 1),  # vdot(T* D, T* D), where D D* times T T* forms 2
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_a_one_word_run_forms_the_fewest_products(products, word, count):
    trials = 3
    estimate_word_moment(list(word), n=4, trials=trials, seed=0, mu=UniformDisk(1))
    assert products.trials == [trials] * count


def fewest_products(word):
    """The fewest products over every rotation of ``word`` and of its adjoint,
    every split into two halves and each half held as itself or its adjoint."""
    rotations = [w[r:] + w[:r] for w in (word, rmt._adjoint(word)) for r in range(len(w))]
    return min(
        len({h[:k] for h in halves for k in range(2, len(h) + 1)})
        for w in rotations for split in range(1, len(w))
        for halves in itertools.product(*[(h, rmt._adjoint(h)) for h in (w[:split], w[split:])])
    ) if len(word) > 1 else 0


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(("D", "D*", "T", "T*")), min_size=1, max_size=8),
    st.lists(st.sampled_from(("Z", "Z*")), min_size=1, max_size=8),
))
def test_a_one_word_plan_forms_the_brute_force_minimum(letters):
    with pytest.MonkeyPatch.context() as monkeypatch:
        formed = []
        monkeypatch.setattr(rmt, "_product", lambda x, y, *sides: formed.append(None) or x @ y)
        mu = None if set(letters) <= {"T", "T*"} else UniformDisk(1)
        estimate_word_moment(letters, n=3, trials=2, seed=0, mu=mu)
    assert len(formed) == fewest_products(tuple(letters)), letters


def test_a_word_past_the_sweep_cap_keeps_its_canonical_halves(products):
    # Z^12 Z* is canonically Z^7 times Z^5 Z*, 7 products; the search would
    # find Z^6 Z* times Z^6, 6 products.  A 200-letter word would search
    # 2 * 200 * 199 plans; it is planned without the search, in milliseconds
    word = ("Z",) * 12 + ("Z*",)
    assert fewest_products(word) == 6
    estimate_word_moment(list(word), n=4, trials=3, seed=0, mu=UniformDisk(1))
    assert products.trials == [3] * 7
    long_word = tuple(itertools.islice(itertools.cycle(("Z", "Z*", "Z", "Z")), 200))
    start = time.perf_counter()
    assert rmt._plan(long_word, True) == rmt._plan(long_word, False)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize(
    "word",
    [("D", "D", "D", "T", "D", "T"), ("D", "D", "D", "T", "D*", "T*")],
    ids=" ".join,
)
def test_flagged_prefix_is_not_conjugated(products, word):
    # the second word's halves are D D D and, as the lesser of T D* T* and its
    # adjoint, T D T*, which starts with T D, held as the plain product T @ D
    # although its adjoint D* T* is the lesser; its trace reads T D T* through
    # np.vdot.  The first word is traced as D T times D T D D, 3 products
    n, trials, seed, mu = 8, 70, 51, UniformDisk(1)
    est = estimate_word_moment(list(word), n, trials, seed, mu=mu)
    assert_agrees(est, direct_values(draw_dz(mu, 1.0, n), [word], n, trials, seed)[word], word)
    assert products.right_not_letter == 0  # every product is a prefix times a letter
    assert products.conjugated == 0


@pytest.mark.parametrize("n, trials", [(8, 70), (16, 5)], ids=["64+6", "5-of-16"])
@pytest.mark.parametrize("kind", ["dt", "z", "elliptic"])
def test_partial_blocks_agree_with_direct_traces(kind, n, trials):
    # n = 8 stacks 64 trials a block and n = 16 stacks 16
    seed, mu, theta = 53, UniformAnnulus(F(3, 2)), math.pi / 3
    if kind == "elliptic":
        draw, words = draw_elliptic(theta, n), [z_word(eps) for eps in STAR_WORDS]
        run = {z_word(eps): partial(estimate_elliptic_moment, theta, eps) for eps in STAR_WORDS}
    else:
        c = 0.5 if kind == "z" else 1.0  # c scales T inside Z only
        draw, words = draw_dz(mu, c, n), DT_WORDS if kind == "dt" else Z_WORDS
        run = {w: partial(estimate_word_moment, list(w), mu=mu, c=c) for w in words}
    direct = direct_values(draw, words, n, trials, seed)
    for w in words:
        assert_agrees(run[w](n=n, trials=trials, seed=seed), direct[w], w)


def traced_growth(run):
    """Peak and retained growth of traced memory over a second ``run()``."""
    started = not tracemalloc.is_tracing()
    gc.collect()
    gc.disable()
    try:
        run()  # warm imports and free lists
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
        gc.enable()
    return peak - base, now - base


def test_block_memory_is_bounded_and_freed():
    # n = 16 stacks 16 trials: a block holds T, T* and at most four products,
    # and the run's per-word bookkeeping (126 estimates, 22 x 32 trial values)
    # takes under half a block at this size
    n = 16
    block = 16 * n * n * np.dtype(complex).itemsize
    peak, kept = traced_growth(lambda: pure_t_word_sweep(6, n=n, trials=32, seed=0))
    assert peak / block < 7
    assert kept / block < 0.5


def test_sweep_memory_is_bounded_and_freed():
    # n = 128 stacks one trial: a trial holds T, T* and at most four products
    n = 128
    matrix = n * n * np.dtype(complex).itemsize
    peak, kept = traced_growth(lambda: pure_t_word_sweep(6, n=n, trials=2, seed=0))
    assert peak / matrix < 6.5
    assert kept / matrix < 0.5


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([UniformDisk(1), UniformAnnulus(F(3, 2))]),
    st.one_of(
        st.lists(st.sampled_from(("D", "D*", "T", "T*")), min_size=1, max_size=8),
        st.lists(st.sampled_from(("Z", "Z*")), min_size=1, max_size=8),
    ),
)
def test_random_words_agree_with_direct_traces(mu, letters):
    # words of up to 8 letters reach every plan whose second half is held as its adjoint
    n, trials, seed = 6, 3, 59
    word, c = tuple(letters), 0.5 if letters[0].startswith("Z") else 1.0
    plain = all(tok in ("T", "T*") for tok in word)  # no diagonal is drawn
    draw = (lambda rng: {"T": utgrm(rng, n, 1 / n)}) if plain else draw_dz(mu, c, n)
    est = estimate_word_moment(letters, n, trials, seed, mu=None if plain else mu, c=c)
    assert_agrees(est, direct_values(draw, [word], n, trials, seed)[word], word)


def test_sweep_to_eight_letters_agrees_with_direct_traces():
    n, trials, seed = 6, 3, 61
    sweep = pure_t_word_sweep(8, n, trials, seed)
    words = [w for k in range(1, 9) for w in itertools.product(("T", "T*"), repeat=k)]
    direct = direct_values(lambda rng: {"T": utgrm(rng, n, 1 / n)}, words, n, trials, seed)
    assert set(sweep) == set(direct)
    for letters, values in direct.items():
        assert_agrees(sweep[letters], values, letters)


T_ADJOINT = {"T": "T*", "T*": "T"}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((ONE, STAR)), min_size=1, max_size=8))
def test_runner_is_exactly_invariant(eps):
    kw = dict(n=6, trials=3, seed=17)
    letters = ["T" if sym == ONE else "T*" for sym in eps]
    est = estimate_word_moment(letters, **kw)
    # a zero diagonal leaves Z = T on the same stream, and 1/* words plan as T/T* words
    zero = deterministic_diagonal_run(lambda n: [0.0] * n, 1.0, StarWord(tuple(eps)), **kw)
    assert zero == est
    rotations = [letters[i:] + letters[:i] for i in range(len(letters))]
    for rotation in rotations:
        assert estimate_word_moment(rotation, **kw) == est
    adjoint = [T_ADJOINT[tok] for tok in reversed(letters)]
    adj = estimate_word_moment(adjoint, **kw)
    if adjoint in rotations:  # the same class: tr(w) is real, up to rounding
        assert adj == est
    else:
        assert adj.mean == est.mean.conjugate()
        assert adj.stderr == est.stderr


# (mean re, mean im, stderr) as float.hex, recorded from the runner when each
# run became one Philox stream keyed by its seed, with n(n-1)/2 real then
# n(n-1)/2 imaginary normals per triangular draw; the runner must reproduce
# them to 1e-12 of max(|mean|, stderr).  "dt" and "z" were re-recorded when
# measures came to be drawn from 2n normals each, after they agreed with
# direct_values to 1e-12.
FROZEN = {
    "dt": ("0x1.227d907423758p-11", "0x1.24714f3047f5ep-8", "0x1.3054659d57c27p-7"),
    "z": ("0x1.ddba818baa9ccp-1", "0x0.0p+0", "0x1.9ad51fb72d7a8p-5"),
    "elliptic": ("0x1.19945286ccf08p-7", "0x1.bd97f7a836428p-6", "0x1.0981518200cb7p-2"),
    "fixed": ("0x1.363eab65c3100p+0", "0x0.0p+0", "0x1.ba1a3376217ebp-8"),
}
FROZEN_SWEEP = {
    "T": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "T T": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "T T T": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "T T T T": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "T T T T*": ("-0x1.7eb146f3faba0p-14", "0x1.0ea3e93b64da4p-8", "0x1.4e733383e0cd2p-9"),
    "T T T*": ("0x1.a1445159c44b7p-9", "-0x1.1645be9df591bp-8", "0x1.f005f25aeb087p-8"),
    "T T T* T": ("-0x1.7eb146f3faba0p-14", "0x1.0ea3e93b64da4p-8", "0x1.4e733383e0cd2p-9"),
    "T T T* T*": ("0x1.fdba9c07f7f44p-4", "0x0.0p+0", "0x1.21f7bc56f865fp-7"),
    "T T*": ("0x1.decea0953b13fp-2", "0x0.0p+0", "0x1.d58033e038553p-7"),
    "T T* T": ("0x1.a1445159c44b7p-9", "-0x1.1645be9df591bp-8", "0x1.f005f25aeb087p-8"),
    "T T* T T": ("-0x1.7eb146f3faba0p-14", "0x1.0ea3e93b64da4p-8", "0x1.4e733383e0cd2p-9"),
    "T T* T T*": ("0x1.4848ef14a538ap-1", "0x0.0p+0", "0x1.8558beb9d17ffp-5"),
    "T T* T*": ("0x1.a1445159c44b7p-9", "0x1.1645be9df591bp-8", "0x1.f005f25aeb087p-8"),
    "T T* T* T": ("0x1.fdba9c07f7f44p-4", "0x0.0p+0", "0x1.21f7bc56f865fp-7"),
    "T T* T* T*": ("-0x1.7eb146f3faba0p-14", "-0x1.0ea3e93b64da4p-8", "0x1.4e733383e0cd2p-9"),
    "T*": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "T* T": ("0x1.decea0953b13fp-2", "0x0.0p+0", "0x1.d58033e038553p-7"),
    "T* T T": ("0x1.a1445159c44b7p-9", "-0x1.1645be9df591bp-8", "0x1.f005f25aeb087p-8"),
    "T* T T T": ("-0x1.7eb146f3faba0p-14", "0x1.0ea3e93b64da4p-8", "0x1.4e733383e0cd2p-9"),
    "T* T T T*": ("0x1.fdba9c07f7f44p-4", "0x0.0p+0", "0x1.21f7bc56f865fp-7"),
    "T* T T*": ("0x1.a1445159c44b7p-9", "0x1.1645be9df591bp-8", "0x1.f005f25aeb087p-8"),
    "T* T T* T": ("0x1.4848ef14a538ap-1", "0x0.0p+0", "0x1.8558beb9d17ffp-5"),
    "T* T T* T*": ("-0x1.7eb146f3faba0p-14", "-0x1.0ea3e93b64da4p-8", "0x1.4e733383e0cd2p-9"),
    "T* T*": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "T* T* T": ("0x1.a1445159c44b7p-9", "0x1.1645be9df591bp-8", "0x1.f005f25aeb087p-8"),
    "T* T* T T": ("0x1.fdba9c07f7f44p-4", "0x0.0p+0", "0x1.21f7bc56f865fp-7"),
    "T* T* T T*": ("-0x1.7eb146f3faba0p-14", "-0x1.0ea3e93b64da4p-8", "0x1.4e733383e0cd2p-9"),
    "T* T* T*": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "T* T* T* T": ("-0x1.7eb146f3faba0p-14", "-0x1.0ea3e93b64da4p-8", "0x1.4e733383e0cd2p-9"),
    "T* T* T* T*": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
}

FROZEN_CALLS = {
    "dt": lambda: estimate_word_moment(
        ["D", "T", "D*", "T*"], n=12, trials=16, seed=5, mu=UniformDisk(1)
    ),
    "z": lambda: estimate_word_moment(
        ["Z*", "Z", "Z", "Z*"], n=12, trials=16, seed=6, mu=UniformDisk(1), c=1.0
    ),
    "elliptic": lambda: estimate_elliptic_moment(
        math.pi / 3, StarWord((ONE, STAR, ONE, ONE, STAR)), n=12, trials=16, seed=7
    ),
    "fixed": lambda: deterministic_diagonal_run(
        lambda n: np.exp(2j * math.pi * np.arange(n) / n), 0.5,
        StarWord((STAR, ONE, ONE, STAR)), n=12, trials=16, seed=8,
    ),
}


# (mean re, mean im, stderr) as float.hex at n = 3, recorded from the runner
# when each run became one stream; it divides the traced rows by n part by
# part, as a Python complex does, where a one-step numpy complex division by n
# changes the last bit of each, so they must match exactly.  "dt" was
# re-recorded when its one-class plan went from 2 products to 1, after it
# agreed with direct_values to 1e-12: D* T T* D is now traced as
# vdot(T* D, T* D), whose imaginary part is exactly 0.  "dt", "z", "atomic" and
# "scaled-ellipse" were re-recorded, likewise checked, when measures came to be
# drawn from 2n normals each
FROZEN_N3 = {
    "dt": ("0x1.bfd961150ba8dp-3", "0x0.0p+0", "0x1.3ca8c2f8f1d16p-5"),
    "z": ("0x1.10b6ecdf7fc1ep-2", "-0x1.ef74b7073169cp-3", "0x1.9440263c4e2a8p-3"),
    "atomic": ("0x1.a6ac9ec962ac7p-4", "0x1.7b546e197c0f2p+0", "0x1.519dcce59bcdep-2"),
    "scaled-ellipse": ("-0x1.aea8dd622dd2dp-6", "0x1.cc9757ed6b0a7p-7", "0x1.588d5bd2d7819p-2"),
    "elliptic": ("0x1.20aeb33dda942p-5", "0x1.8d6119bcb06ecp-4", "0x1.0a01976151d62p-3"),
}
FROZEN_N3_CALLS = {
    "dt": lambda: estimate_word_moment(["D*", "T", "T*", "D"], n=3, trials=20, seed=0, mu=UniformDisk(1)),
    "z": lambda: estimate_word_moment(["Z", "Z*", "Z"], n=3, trials=20, seed=1, mu=UniformAnnulus(F(3, 2))),
    "atomic": lambda: estimate_word_moment(["D", "T", "D*", "T*", "D"], n=3, trials=20, seed=2, mu=SAMPLED["atomic"]),
    "scaled-ellipse": lambda: estimate_word_moment(["Z*", "Z", "Z"], n=3, trials=20, seed=3, mu=SAMPLED["scaled-ellipse"]),
    "elliptic": lambda: estimate_elliptic_moment(math.pi / 3, StarWord((ONE, STAR, ONE)), n=3, trials=20, seed=4),
}


def assert_frozen(est, frozen):
    re, im, se = (float.fromhex(x) for x in frozen)
    tol = 1e-12 * max(abs(complex(re, im)), se)
    assert abs(est.mean - complex(re, im)) <= tol
    assert abs(est.stderr - se) <= tol


class TestFrozenEstimates:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_estimator_matches_frozen_value(self, name):
        assert_frozen(FROZEN_CALLS[name](), FROZEN[name])

    @pytest.mark.parametrize("name", sorted(FROZEN_N3))
    def test_n3_estimate_is_bit_identical(self, name):
        est = FROZEN_N3_CALLS[name]()
        assert (est.mean.real.hex(), est.mean.imag.hex(), est.stderr.hex()) == FROZEN_N3[name]

    def test_sweep_matches_frozen_values(self):
        sweep = pure_t_word_sweep(4, n=12, trials=16, seed=9)
        assert {" ".join(w) for w in sweep} == set(FROZEN_SWEEP)
        for letters, est in sweep.items():
            assert_frozen(est, FROZEN_SWEEP[" ".join(letters)])


class TestSizeCap:
    @EVERY_ESTIMATOR
    def test_every_estimator_enforces_the_cap(self, run):
        with pytest.raises(ValueError, match="cap"):
            run(DEFAULT_SIZE_CAP + 1)

    @EVERY_ESTIMATOR
    @pytest.mark.parametrize("n", [0, -3])
    def test_every_estimator_refuses_an_empty_matrix(self, run, n):
        with pytest.raises(ValueError, match="matrix size must be >= 1"):
            run(n)

    def test_sweep_needs_two_trials(self):
        with pytest.raises(ValueError, match="trials must be >= 2"):
            pure_t_word_sweep(2, n=4, trials=1, seed=0)
