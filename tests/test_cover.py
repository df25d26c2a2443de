import random
from fractions import Fraction

import pytest

from parastrata import (
    CoverSpec,
    ParabolicDatum,
    PointWeights,
    covering_genus,
    galois_twist,
    par_degree,
    par_slope,
    pullback,
    pushforward,
    pushforward_point,
)

from util import random_base_datum, random_cover, random_total_datum


def pw(weights, mults):
    return PointWeights.of([Fraction(w) for w in weights], mults)


# --- worked examples -----------------------------------------------------------


def test_pushforward_two_distinct_fiber_weights():
    cov = CoverSpec.of(2, {"p": ["q1", "q2"]})
    f = ParabolicDatum.of(1, 0, {"q1": pw(["1/4"], [1]), "q2": pw(["1/2"], [1])})
    e = pushforward(cov, f)
    assert e.rank == 2
    assert e.degree == 0
    assert e.point_map() == {"p": pw(["1/4", "1/2"], [1, 1])}


def test_pushforward_identity_cover():
    cov = CoverSpec.of(1, {"p": ["q"]})
    f = ParabolicDatum.of(3, 2, {"q": pw(["1/4", "1/2"], [1, 2])})
    e = pushforward(cov, f)
    assert e.rank == 3 and e.degree == 2
    assert e.weights_at("p") == f.weights_at("q")


def test_pushforward_merges_equal_weights():
    cov = CoverSpec.of(2, {"p": ["q1", "q2"]})
    f = ParabolicDatum.of(1, 0, {"q1": pw(["1/3"], [1]), "q2": pw(["1/3"], [1])})
    e = pushforward(cov, f)
    assert e.point_map() == {"p": pw(["1/3"], [2])}


def test_pushforward_point_rule_with_gaps():
    # one fiber is entirely below the other's weights: its subspaces hit zero
    merged = pushforward_point([pw(["1/8"], [2]), pw(["1/2", "3/4"], [1, 1])])
    assert merged == pw(["1/8", "1/2", "3/4"], [2, 1, 1])


def test_pullback_copies_base_data():
    cov = CoverSpec.of(2, {"p": ["q1", "q2"]})
    e = ParabolicDatum.of(2, 0, {"p": pw(["1/4", "1/2"], [1, 1])})
    f = pullback(cov, e)
    assert f.rank == 2 and f.degree == 0
    assert f.weights_at("q1") == f.weights_at("q2") == e.weights_at("p")


def test_pullback_degree_multiplies():
    cov = CoverSpec.of(3, {"p": ["q1", "q2", "q3"]})
    e = ParabolicDatum.of(2, 2, {"p": pw(["1/4", "1/2"], [1, 1])})
    f = pullback(cov, e)
    assert f.degree == 6
    assert par_degree(f) == 3 * par_degree(e)


def test_galois_twist_identity_powers():
    cov = CoverSpec.of(2, {"p": ["q1", "q2"]})
    f = ParabolicDatum.of(1, 1, {"q1": pw(["1/4"], [1]), "q2": pw(["1/2"], [1])})
    assert galois_twist(cov, f, 0) == f
    assert galois_twist(cov, f, 2) == f


def test_galois_twist_swaps_two_fibers():
    cov = CoverSpec.of(2, {"p": ["q1", "q2"]})
    a, b = pw(["1/4"], [1]), pw(["1/2"], [1])
    f = ParabolicDatum.of(1, 0, {"q1": a, "q2": b})
    t = galois_twist(cov, f, 1)
    assert t.point_map() == {"q1": b, "q2": a}


def test_covering_genus():
    assert covering_genus(2, 2) == 3
    assert covering_genus(2, 3) == 4
    assert covering_genus(5, 1) == 5


# --- validation -----------------------------------------------------------------


def test_cover_validation():
    with pytest.raises(ValueError):
        CoverSpec.of(2, {"p": ["q1"]})  # wrong fiber size
    with pytest.raises(ValueError):
        CoverSpec.of(2, {"p": ["q1", "q1"]})  # repeated fiber point
    with pytest.raises(ValueError):
        CoverSpec.of(2, {"p": ["q1", "q2"], "s": ["q2", "q3"]})  # shared fiber point
    with pytest.raises(ValueError):
        CoverSpec.of(True, {"p": ["q"]})  # bool degree


def test_point_set_mismatch_rejected():
    cov = CoverSpec.of(2, {"p": ["q1", "q2"]})
    bad = ParabolicDatum.of(1, 0, {"q1": pw(["1/4"], [1])})
    with pytest.raises(ValueError):
        pushforward(cov, bad)
    with pytest.raises(ValueError):
        galois_twist(cov, bad, 1)
    with pytest.raises(ValueError):
        pullback(cov, ParabolicDatum.of(1, 0, {"x": pw(["1/4"], [1])}))


# --- randomized invariants --------------------------------------------------------


def test_pushforward_invariants_randomized():
    rng = random.Random(41)
    for _ in range(300):
        d = rng.choice([1, 2, 3, 4])
        cov = random_cover(rng, d, rng.randint(1, 2))
        f = random_total_datum(rng, cov, rng.randint(1, 4))
        e = pushforward(cov, f)
        assert par_degree(e) == par_degree(f)
        assert e.rank == d * f.rank
        i = rng.randrange(-2, d + 2)
        tw = galois_twist(cov, f, i)
        assert par_slope(tw) == par_slope(f)
        assert pushforward(cov, tw).rank == e.rank
        assert par_degree(pushforward(cov, tw)) == par_degree(e)


def test_pushforward_pullback_roundtrip_randomized():
    rng = random.Random(42)
    for _ in range(200):
        d = rng.choice([1, 2, 3, 4])
        cov = random_cover(rng, d, rng.randint(1, 2))
        e = random_base_datum(rng, cov, rng.randint(1, 4))
        f = pullback(cov, e)
        assert par_degree(f) == d * par_degree(e)
        back = pushforward(cov, f)
        assert par_degree(back) == d * par_degree(e)
        assert back.rank == d * e.rank
        for p in cov.base_points:
            orig = e.weights_at(p)
            merged = back.weights_at(p)
            assert merged.weights == orig.weights
            assert merged.multiplicities == tuple(d * m for m in orig.multiplicities)


def test_pushforward_point_matches_weight_merge_oracle():
    # independent oracle: merge weights as a multiset and add multiplicities
    rng = random.Random(43)
    for _ in range(200):
        d = rng.choice([1, 2, 3, 4])
        cov = random_cover(rng, d, 1)
        f = random_total_datum(rng, cov, rng.randint(1, 4))
        merged = pushforward(cov, f).weights_at(cov.base_points[0])
        tally = {}
        for q in cov.fiber_points:
            for w, m in f.weights_at(q).entries:
                tally[w] = tally.get(w, 0) + m
        expected = PointWeights.of(sorted(tally), [tally[w] for w in sorted(tally)])
        assert merged == expected
