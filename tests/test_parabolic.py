import itertools
import random
from fractions import Fraction

import pytest

from parastrata import (
    GenericityWitness,
    ParabolicDatum,
    PointWeights,
    genericity_witness,
    is_generic,
    par_degree,
    par_slope,
)

from util import random_point_weights


def pw(weights, mults):
    return PointWeights.of([Fraction(w) for w in weights], mults)


# --- parabolic degree and slope ----------------------------------------------


def test_degree_without_points():
    d = ParabolicDatum.of(2, 3, {})
    assert par_degree(d) == 3
    assert par_slope(d) == Fraction(3, 2)


def test_degree_with_two_weights():
    d = ParabolicDatum.of(2, 0, {"p": pw(["1/4", "1/2"], [1, 1])})
    assert par_degree(d) == Fraction(3, 4)
    assert par_slope(d) == Fraction(3, 8)


def test_degree_negative():
    d = ParabolicDatum.of(2, -1, {"p": pw(["1/3"], [2])})
    assert par_degree(d) == Fraction(-1, 3)


def test_slope_rank_four():
    d = ParabolicDatum.of(4, 2, {"p": pw(["1/2"], [4])})
    assert par_slope(d) == 1


def test_degree_additive_over_point_sets():
    rng = random.Random(8)
    for _ in range(60):
        r = rng.randint(1, 5)
        pa = {f"a{i}": random_point_weights(rng, r) for i in range(rng.randint(0, 2))}
        pb = {f"b{i}": random_point_weights(rng, r) for i in range(rng.randint(0, 2))}
        ea, eb = rng.randint(-4, 4), rng.randint(-4, 4)
        da = ParabolicDatum.of(r, ea, pa)
        db = ParabolicDatum.of(r, eb, pb)
        both = ParabolicDatum.of(r, ea + eb, {**pa, **pb})
        assert par_degree(both) == par_degree(da) + par_degree(db)


def test_degree_shift_by_rank_multiples():
    rng = random.Random(9)
    for _ in range(60):
        r = rng.randint(2, 5)
        points = {f"p{i}": random_point_weights(rng, r) for i in range(rng.randint(0, 2))}
        e = rng.randint(-4, 4)
        k = rng.randint(-3, 3)
        d0 = ParabolicDatum.of(r, e, points)
        d1 = ParabolicDatum.of(r, e + k * r, points)
        assert par_slope(d1) == par_slope(d0) + k
        assert is_generic(d1) == is_generic(d0)


# --- validation ----------------------------------------------------------------


def test_point_weights_validation():
    with pytest.raises(ValueError):
        PointWeights.of([], [])
    with pytest.raises(ValueError):
        pw(["1/2", "1/4"], [1, 1])  # not increasing
    with pytest.raises(ValueError):
        pw(["1/2", "1/2"], [1, 1])  # not strict
    with pytest.raises(ValueError):
        pw(["1"], [1])  # weight at 1
    with pytest.raises(ValueError):
        pw(["1/2"], [0])  # zero multiplicity
    with pytest.raises(ValueError):
        PointWeights.of(["1/4"], [2.7])  # non-integer multiplicity
    with pytest.raises(ValueError):
        PointWeights.of(["1/4"], ["2"])
    # weight zero is allowed
    assert pw(["0", "1/2"], [1, 1]).weights[0] == 0


def test_point_weights_reject_float_weights():
    with pytest.raises(TypeError):
        PointWeights.of([0.1], [1])
    assert PointWeights.of(["1/10"], [1]).weights == (Fraction(1, 10),)


def test_point_weights_are_their_two_columns_in_repr_eq_and_hash():
    a = pw(["1/4", "1/2"], [2, 1])
    assert a.weights == (Fraction(1, 4), Fraction(1, 2))
    assert a.multiplicities == (2, 1)
    assert repr(a) == "PointWeights(weights=(Fraction(1, 4), Fraction(1, 2)), multiplicities=(2, 1))"
    b = PointWeights(a.weights, a.multiplicities)
    assert a == b and hash(a) == hash(b) == hash((a.weights, a.multiplicities))
    with pytest.raises(AttributeError):
        a.multiplicities = (3,)


def test_datum_multiplicity_sum_checked():
    with pytest.raises(ValueError):
        ParabolicDatum.of(3, 0, {"p": pw(["1/2"], [2])})
    with pytest.raises(ValueError):
        ParabolicDatum.of(True, 0, {})  # bool rank
    with pytest.raises(ValueError):
        ParabolicDatum.of(1, False, {})  # bool degree


# --- genericity ------------------------------------------------------------------


def test_non_generic_single_weight_mult_two():
    d = ParabolicDatum.of(2, 0, {"p": pw(["1/4"], [2])})
    w = genericity_witness(d)
    assert w == GenericityWitness(1, 0, (("p", (1,)),))
    assert not is_generic(d)


def test_generic_odd_degree_single_weight():
    d = ParabolicDatum.of(2, 1, {"p": pw(["1/4"], [2])})
    assert is_generic(d)


def test_generic_two_distinct_weights():
    d = ParabolicDatum.of(2, 0, {"p": pw(["1/4", "1/2"], [1, 1])})
    assert is_generic(d)


def test_rank_one_vacuously_generic():
    d = ParabolicDatum.of(1, 0, {"p": pw(["1/3"], [1])})
    assert is_generic(d)


def test_witness_slope_equality():
    rng = random.Random(12)
    found = 0
    for _ in range(300):
        r = rng.randint(2, 5)
        points = {f"p{i}": random_point_weights(rng, r) for i in range(rng.randint(0, 2))}
        d = ParabolicDatum.of(r, rng.randint(-3, 3), points)
        w = genericity_witness(d)
        if w is None:
            continue
        found += 1
        wsum = Fraction(0)
        for pid, vec in w.sub_multiplicities:
            for weight, n in zip(d.weights_at(pid).weights, vec):
                wsum += n * weight
        sub_slope = (w.sub_degree + wsum) / w.sub_rank
        assert sub_slope == par_slope(d)
        for pid, vec in w.sub_multiplicities:
            mults = d.weights_at(pid).multiplicities
            assert sum(vec) == w.sub_rank
            assert all(0 <= n <= m for n, m in zip(vec, mults))
    assert found > 20


# Brute-force wall oracle: recursively walk every admissible sub-datum
# and test integrality of the induced degree; structured differently
# from the library path (recursion instead of product iterators).


def brute_force_verdict(d):
    slope = par_slope(d)
    points = list(d.points)

    def admissible(sub_rank):
        def rec(idx, chosen):
            if idx == len(points):
                yield list(chosen)
                return
            _, point = points[idx]
            for vec in itertools.product(*(range(m + 1) for m in point.multiplicities)):
                if sum(vec) == sub_rank:
                    chosen.append(vec)
                    yield from rec(idx + 1, chosen)
                    chosen.pop()
        yield from rec(0, [])

    for sub_rank in range(1, d.rank):
        for combo in admissible(sub_rank):
            wsum = Fraction(0)
            for (_, point), vec in zip(points, combo):
                for weight, n in zip(point.weights, vec):
                    wsum += n * weight
            e_sub = sub_rank * slope - wsum
            if e_sub.denominator == 1:
                return False
    return True


def test_brute_force_oracle_agreement():
    rng = random.Random(23)
    for _ in range(250):
        r = rng.randint(1, 6)
        points = {f"p{i}": random_point_weights(rng, r) for i in range(rng.randint(0, 3))}
        d = ParabolicDatum.of(r, rng.randint(-4, 4), points)
        assert is_generic(d) == brute_force_verdict(d)


def test_brute_force_oracle_exhaustive_small():
    # every multiplicity system of rank <= 3 at one point with a fixed weight menu
    menus = {
        1: [Fraction(1, 5)],
        2: [Fraction(1, 5), Fraction(1, 2)],
        3: [Fraction(1, 5), Fraction(1, 2), Fraction(2, 3)],
    }
    for r in (2, 3):
        for length in range(1, r + 1):
            for mults in itertools.product(range(1, r + 1), repeat=length):
                if sum(mults) != r:
                    continue
                for e in range(-2, 3):
                    d = ParabolicDatum.of(
                        r, e, {"p": PointWeights.of(menus[length], mults)}
                    )
                    assert is_generic(d) == brute_force_verdict(d)
