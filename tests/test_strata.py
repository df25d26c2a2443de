import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hs

from parastrata import (
    CodimReport,
    CoverSpec,
    ModuliSpec,
    MultiplicityMatrix,
    ParabolicDatum,
    PointWeights,
    codim_report,
    enumerate_matrices,
    enumerate_strata,
    enumerate_stratum_indices,
    flag_dimension,
    margin_tables,
    matrix_flag_term,
    matrix_to_multiplicity_system,
    moduli_dimension,
    point_survey,
    point_systems,
    pushforward,
    stratum_dimension,
    subset_count,
    weight_subsets,
)

from util import random_composition, random_weights


def pw(weights, mults):
    return PointWeights.of([Fraction(w) for w in weights], mults)


PW2 = pw(["1/4", "1/2"], [1, 1])
PW42 = pw(["1/4", "1/2"], [2, 2])


def brute_force_margin_matrices(mults, r, d):
    """Oracle: iterate every entry assignment in [0, r/d] and keep the
    ones with the prescribed row and column sums."""
    q = r // d
    width = len(mults)
    out = []
    if (q + 1) ** (d * width) <= 100000:
        source = itertools.product(range(q + 1), repeat=d * width)
        candidates = (
            [flat[j * width : (j + 1) * width] for j in range(d)] for flat in source
        )
    else:
        all_rows = [
            row for row in itertools.product(range(q + 1), repeat=width) if sum(row) == q
        ]
        candidates = itertools.product(all_rows, repeat=d)
    for rows in candidates:
        ok = all(sum(row) == q for row in rows) and all(
            sum(rows[j][k] for j in range(d)) == mults[k] for k in range(width)
        )
        if ok:
            out.append(tuple(tuple(row) for row in rows))
    return out


def support_matches(entries, t):
    for j, row in enumerate(entries):
        for k, v in enumerate(row):
            if (v == 0) != (k not in t[j]):
                return False
    return True


# --- enumeration cardinalities ----------------------------------------------------


def test_index_count_two_weights_rank_two():
    spec = ModuliSpec.of(2, 2, {"p": PW2})
    assert len(weight_subsets(PW2, 1)) == 2
    assert len(list(enumerate_stratum_indices(spec, 2))) == 4


def test_index_count_two_weights_rank_four():
    spec = ModuliSpec.of(2, 4, {"p": PW42})
    assert len(weight_subsets(PW42, 2)) == 3
    assert len(list(enumerate_stratum_indices(spec, 2))) == 9


def test_index_count_single_weight():
    spec = ModuliSpec.of(2, 2, {"p": pw(["1/3"], [2])})
    assert len(list(enumerate_stratum_indices(spec, 2))) == 1


def test_index_enumeration_requires_divisibility():
    spec = ModuliSpec.of(2, 3, {"p": pw(["1/3"], [3])})
    with pytest.raises(ValueError):
        list(enumerate_stratum_indices(spec, 2))
    with pytest.raises(ValueError):
        list(point_systems(spec.weights_at("p"), 3, 2))


def test_multi_point_indices_are_products():
    spec = ModuliSpec.of(2, 2, {"a": PW2, "b": pw(["1/3"], [2])})
    assert len(list(enumerate_stratum_indices(spec, 2))) == 4 * 1


# --- matrix enumeration -------------------------------------------------------------


def test_matrices_distinct_singletons():
    mats = list(enumerate_matrices(((0,), (1,)), PW2, 2, 2))
    assert [m.entries for m in mats] == [((1, 0), (0, 1))]


def test_matrices_conflicting_singletons_empty():
    assert list(enumerate_matrices(((0,), (0,)), PW2, 2, 2)) == []


def test_matrices_full_support_rank_four():
    mats = list(enumerate_matrices(((0, 1), (0, 1)), PW42, 4, 2))
    assert [m.entries for m in mats] == [((1, 1), (1, 1))]


def test_matrix_oracle_agreement_battery():
    for d in (2, 3):
        for width in (1, 2, 3):
            for q in (1, 2, 3, 4):
                r = q * d
                compositions = [
                    c
                    for c in itertools.product(range(1, r + 1), repeat=width)
                    if sum(c) == r
                ]
                if len(compositions) > 12:
                    compositions = compositions[:6] + compositions[-6:]
                weights = [Fraction(k, width + 1) for k in range(1, width + 1)]
                for mults in compositions:
                    point = PointWeights.of(weights, mults)
                    margin_valid = brute_force_margin_matrices(mults, r, d)
                    listed = 0
                    for t, mats in point_systems(point, r, d):
                        got = [m.entries for m in mats]
                        expected = [m for m in margin_valid if support_matches(m, t)]
                        assert got == expected
                        assert len(set(got)) == len(got)
                        listed += len(got)
                    assert listed == len(margin_valid)


def test_matrix_enumeration_is_deterministic_row_major():
    point = pw(["1/5", "2/5", "3/5"], [2, 2, 2])
    t = ((0, 1), (1, 2), (0, 2))
    seq = [m.entries for m in enumerate_matrices(t, point, 6, 3)]
    assert seq == sorted(seq)


# --- multiplicity systems -------------------------------------------------------------


def test_system_from_permutation_matrix():
    mat = MultiplicityMatrix(((1, 0), (0, 1)))
    sysd = matrix_to_multiplicity_system(mat, PW2)
    assert sysd[0].entries == ((Fraction(1, 4), 1),)
    assert sysd[1].entries == ((Fraction(1, 2), 1),)


def test_system_from_full_matrix():
    mat = MultiplicityMatrix(((1, 1), (1, 1)))
    sysd = matrix_to_multiplicity_system(mat, PW2)
    assert sysd[0] == sysd[1] == PW2


def test_system_single_column():
    mat = MultiplicityMatrix(((2,), (2,)))
    sysd = matrix_to_multiplicity_system(mat, pw(["1/3"], [4]))
    assert sysd[0] == sysd[1] == pw(["1/3"], [2])


def test_system_rejects_zero_row():
    mat = MultiplicityMatrix(((1, 1), (0, 0)))
    with pytest.raises(ValueError):
        matrix_to_multiplicity_system(mat, PW2)


def test_system_pushforward_consistency():
    # pushing the per-fiber data down recovers the column sums
    rng = random.Random(31)
    for _ in range(80):
        d = rng.choice([2, 3])
        q = rng.randint(1, 3)
        r = q * d
        width = rng.randint(1, min(3, r))
        mults = random_composition(rng, r, width)
        point = PointWeights.of(random_weights(rng, width), mults)
        subs = weight_subsets(point, q)
        t = tuple(rng.choice(subs) for _ in range(d))
        for mat in enumerate_matrices(t, point, r, d):
            fibers = matrix_to_multiplicity_system(mat, point)
            cov = CoverSpec.of(d, {"p": [f"q{j}" for j in range(1, d + 1)]})
            datum = ParabolicDatum.of(
                q, 0, {f"q{j}": f for j, f in enumerate(fibers, 1)}
            )
            merged = pushforward(cov, datum).weights_at("p")
            expected_weights = tuple(
                sorted({point.weights[k] for sub in t for k in sub})
            )
            assert merged.weights == expected_weights
            tally = {w: 0 for w in expected_weights}
            for j, row in enumerate(mat.entries):
                for k, v in enumerate(row):
                    if v:
                        tally[point.weights[k]] += v
            assert merged.multiplicities == tuple(tally[w] for w in expected_weights)
            break


# --- dimension formulas ---------------------------------------------------------------


def test_flag_dimension_values():
    assert flag_dimension([1, 1, 1]) == 3
    assert flag_dimension([5]) == 0
    assert flag_dimension([2, 1]) == 2


def test_flag_dimension_complement_formula():
    rng = random.Random(4)
    for _ in range(50):
        parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        r = sum(parts)
        assert flag_dimension(parts) == (r * r - sum(m * m for m in parts)) // 2


def test_moduli_dimension_values():
    assert moduli_dimension(ModuliSpec.of(2, 2, {"p": PW2})) == 4
    full3 = pw(["1/4", "1/2", "3/4"], [1, 1, 1])
    assert moduli_dimension(ModuliSpec.of(2, 3, {"p": full3})) == 11
    assert moduli_dimension(ModuliSpec.of(3, 2, {})) == 6


def test_stratum_dimension_values():
    spec = ModuliSpec.of(2, 2, {"p": PW2})
    assert stratum_dimension(spec, 2, {"p": MultiplicityMatrix(((1, 0), (0, 1)))}) == 1
    spec42 = ModuliSpec.of(2, 4, {"p": PW42})
    assert stratum_dimension(spec42, 2, {"p": MultiplicityMatrix(((1, 1), (1, 1)))}) == 9
    assert stratum_dimension(spec42, 2, {"p": MultiplicityMatrix(((2, 0), (0, 2)))}) == 7


def test_stratum_dimension_genus_identity():
    # the closed form equals (r/d)^2 (genus(Y) - 1) + 1 - g + flag terms
    from parastrata import covering_genus

    spec42 = ModuliSpec.of(3, 4, {"p": PW42})
    mat = MultiplicityMatrix(((1, 1), (1, 1)))
    got = stratum_dimension(spec42, 2, {"p": mat})
    g, r, d = 3, 4, 2
    gy = covering_genus(g, d)
    flag_terms = sum(flag_dimension([v for v in row if v]) for row in mat.entries)
    assert got == (r * r // (d * d)) * (gy - 1) + 1 - g + flag_terms


def test_stratum_dimension_invariant_under_row_shift():
    spec = ModuliSpec.of(2, 6, {"p": pw(["1/5", "2/5", "3/5"], [2, 2, 2])})
    for mat in enumerate_matrices(((0, 1), (1, 2), (0, 2)), spec.weights_at("p"), 6, 3):
        shifted = MultiplicityMatrix(mat.entries[1:] + mat.entries[:1])
        assert stratum_dimension(spec, 3, {"p": mat}) == stratum_dimension(
            spec, 3, {"p": shifted}
        )


def test_stratum_dimension_validates_margins():
    spec = ModuliSpec.of(2, 2, {"p": PW2})
    with pytest.raises(ValueError):
        stratum_dimension(spec, 2, {"p": MultiplicityMatrix(((1, 1), (0, 0)))})


# --- codimension reports -----------------------------------------------------------------


def test_codim_report_full_flag_rank_two():
    rep = codim_report(ModuliSpec.of(2, 2, {"p": PW2}), 2)
    assert rep.dim_moduli == 4
    assert rep.max_stratum_dim == 1
    assert rep.codim == 3
    assert rep.bound == 2
    assert rep.meets_bound and rep.codim_at_least_three
    assert rep.num_indices == 4
    assert rep.num_systems == 2


def test_codim_report_public_contract():
    """Field names and order, README's repr, equality and hash by value
    (the hash of the field tuple, as for a frozen dataclass), attribute
    access and immutability."""
    fields = ("genus", "rank", "cover_degree", "dim_moduli", "num_indices", "num_systems",
              "max_stratum_dim", "codim", "bound", "meets_bound", "codim_at_least_three")
    assert CodimReport._fields == fields
    rep = codim_report(ModuliSpec.of(2, 2, {"p": PW2}, xi_degree=3), 2)
    assert repr(rep) == (
        "CodimReport(genus=2, rank=2, cover_degree=2, dim_moduli=4, num_indices=4, num_systems=2, "
        "max_stratum_dim=1, codim=3, bound=Fraction(2, 1), meets_bound=True, codim_at_least_three=True)"
    )
    assert (rep.dim_moduli, rep.max_stratum_dim, rep.codim, rep.bound) == (4, 1, 3, Fraction(2, 1))
    assert type(rep.bound) is Fraction and type(rep.meets_bound) is bool
    again = codim_report(ModuliSpec.of(2, 2, {"p": pw(["1/4", "1/2"], [1, 1])}), 2)
    assert again is not rep and again == rep and hash(again) == hash(rep)
    assert hash(rep) == hash(tuple(getattr(rep, f) for f in fields))
    assert CodimReport(**{f: getattr(rep, f) for f in fields}) == rep
    assert codim_report(ModuliSpec.of(3, 2, {"p": PW2}), 2) != rep
    assert len({rep, again}) == 1
    with pytest.raises(AttributeError):
        rep.codim = 4


def test_codim_report_rank_four():
    rep = codim_report(ModuliSpec.of(2, 4, {"p": PW42}), 2)
    assert rep.dim_moduli == 19
    assert rep.max_stratum_dim == 9
    assert rep.codim == 10
    assert rep.bound == 8


def test_codim_report_no_points():
    rep = codim_report(ModuliSpec.of(3, 3, {}), 3)
    assert rep.dim_moduli == 16
    assert rep.max_stratum_dim == 4
    assert rep.codim == 12
    assert rep.bound == 12
    assert rep.meets_bound


def test_codim_report_agrees_with_direct_enumeration():
    rng = random.Random(55)
    cases = [
        ModuliSpec.of(2, 2, {"p": PW2}),
        ModuliSpec.of(2, 4, {"p": PW42}),
        ModuliSpec.of(3, 4, {"p": pw(["1/4"], [4])}),
        ModuliSpec.of(2, 2, {"a": PW2, "b": pw(["1/3"], [2])}),
        ModuliSpec.of(2, 4, {"a": pw(["1/4", "1/2"], [1, 3]), "b": pw(["2/5"], [4])}),
    ]
    for spec in cases:
        for d in [d for d in (2, 4) if spec.rank % d == 0]:
            rep = codim_report(spec, d)
            dims = []
            count = 0
            for t, mats in enumerate_strata(spec, d):
                count += 1
                dims.append(stratum_dimension(spec, d, mats))
            assert count == rep.num_systems
            assert max(dims) == rep.max_stratum_dim


def test_codim_report_delta_carried():
    spec = ModuliSpec.of(2, 4, {"p": PW42}, xi_degree=6)
    assert spec.delta == 2
    # dimensions do not depend on the determinant degree
    assert codim_report(spec, 2) == codim_report(ModuliSpec.of(2, 4, {"p": PW42}), 2)

    for rank in (1, 2, 3, 4, 6):
        for xi_degree in (-7, -1, 0, 1, 5, 12):
            spec = ModuliSpec.of(2, rank, {"p": pw(["1/3"], [rank])}, xi_degree=xi_degree)
            assert (spec.degree, spec.delta) == (xi_degree, xi_degree % rank)


# --- the moduli spec is a parabolic datum ------------------------------------------------


def test_moduli_spec_is_a_parabolic_datum():
    single = pw(["1/3"], [2])
    spec = ModuliSpec.of(3, 2, {"b": PW2, "a": single}, xi_degree=1)
    assert isinstance(spec, ParabolicDatum)
    assert (spec.genus, spec.rank, spec.degree) == (3, 2, 1)
    assert spec.points == (("a", single), ("b", PW2))
    assert spec.weights_at("b") == PW2


@pytest.mark.parametrize(
    "args",
    [
        (1, 2, {"p": PW2}),  # genus below 2
        (0, 2, {}),
        (2, 3, {"p": PW2}),  # multiplicities sum to 2, not the rank 3
        (2, 2.0, {}),  # non-integer rank
        (2, 0, {}),
        (2, True, {}),  # bool rank
        (2, 1, {}, False),  # bool determinant degree
    ],
)
def test_moduli_spec_rejects_invalid_data(args):
    with pytest.raises(ValueError):
        ModuliSpec.of(*args)


# --- the per-point survey -----------------------------------------------------------------


def test_point_systems_lists_every_subset_tuple():
    for pw_, r, d in [(PW2, 2, 2), (PW42, 4, 2), (pw(["1/5", "2/5", "3/5"], [2, 2, 2]), 6, 3)]:
        subs = weight_subsets(pw_, r // d)
        got = [(t, [m.entries for m in mats]) for t, mats in point_systems(pw_, r, d)]
        assert [t for t, _ in got] == list(itertools.product(subs, repeat=d))
        for t, mats in got:
            assert mats == [m.entries for m in enumerate_matrices(t, pw_, r, d)]


def test_margin_tables_match_oracle_on_acceptance_grid():
    # every per-point key (m, r/d, d) of the acceptance sweep; the flag
    # term of a row v summing to q is (q^2 - sum v^2) / 2
    keys = 0
    for r in (2, 3, 4, 6):
        for d in (d for d in range(2, r + 1) if r % d == 0):
            q = r // d
            for width in (1, 2, 3):
                for mults in itertools.product(range(1, r + 1), repeat=width):
                    if sum(mults) != r:
                        continue
                    expected = brute_force_margin_matrices(mults, r, d)
                    assert [m.entries for m in margin_tables(mults, q, d)] == expected, (mults, d)
                    point = PointWeights.of([Fraction(k, width + 1) for k in range(1, width + 1)], mults)
                    rep = codim_report(ModuliSpec.of(2, r, {"p": point}), d)
                    assert rep.num_systems == len(expected)
                    assert rep.num_indices == len(weight_subsets(point, q)) ** d
                    best = max(sum(q * q - sum(v * v for v in row) for row in m) // 2 for m in expected)
                    assert rep.max_stratum_dim == r * r // d - 1 + best
                    keys += 1
    assert keys == 68


def test_point_survey_matches_margin_tables():
    # every key with r <= 8, at most four weights and d | r, d >= 2
    keys = 0
    for r in range(2, 9):
        for width in range(1, 5):
            for cuts in itertools.combinations(range(1, r), width - 1):
                mults = tuple(b - a for a, b in zip((0, *cuts), (*cuts, r)))
                for d in (d for d in range(2, r + 1) if r % d == 0):
                    terms = [matrix_flag_term(m) for m in margin_tables(mults, r // d, d)]
                    assert point_survey(mults, r // d, d) == (len(terms), max(terms)), (mults, d)
                    keys += 1
    assert keys == 349


def test_point_survey_counts_beyond_enumeration():
    assert point_survey((10, 10, 10, 10), 10, 4)[0] == 5045326
    assert point_survey((2,) * 12, 4, 6)[0] == 3536978063850


def test_point_survey_accepts_zero_columns():
    # margin_tables takes a zero column sum; the survey keeps that domain
    for mults, q, d in [((0, 4), 2, 2), ((2, 0, 2), 2, 2), ((0, 3, 0, 3), 2, 3), ((4,), 2, 2)]:
        terms = [matrix_flag_term(mat) for mat in margin_tables(mults, q, d)]
        assert point_survey(mults, q, d) == (len(terms), max(terms)), mults


def test_point_survey_rejects_wrong_margin():
    with pytest.raises(ValueError, match="multiplicities sum to 3, expected 2 \\* 2"):
        point_survey((1, 2), 2, 2)


def test_subset_count_is_the_number_of_weight_subsets():
    for length in range(1, 8):
        point = PointWeights.of([Fraction(k, length + 1) for k in range(1, length + 1)], [1] * length)
        for max_size in range(0, 9):
            assert subset_count(length, max_size) == len(weight_subsets(point, max_size))


def test_slack_lower_bound_on_every_composition():
    # slack = flag dimension - largest flag term of one point; with the
    # genus terms, codim = bound + the points' slacks (codim_report)
    keys = 0
    for r in range(2, 10):
        for width in range(1, r + 1):
            for cuts in itertools.combinations(range(1, r), width - 1):
                mults = tuple(b - a for a, b in zip((0, *cuts), (*cuts, r)))
                for d in (d for d in range(2, r + 1) if r % d == 0):
                    slack = flag_dimension(mults) - point_survey(mults, r // d, d)[1]
                    assert 2 * d * slack >= (d - 1) * (r * r - sum(m * m for m in mults)), (mults, d)
                    assert (slack == 0) == (width == 1), (mults, d)
                    keys += 1
    assert keys == 1094


@hs.composite
def codim_configurations(draw):
    r = draw(hs.integers(2, 12))
    d = draw(hs.sampled_from([d for d in range(2, r + 1) if r % d == 0]))
    points = {}
    for i in range(draw(hs.integers(0, 3))):
        cuts = draw(hs.sets(hs.integers(1, r - 1), max_size=3))
        mults = [b - a for a, b in zip((0, *sorted(cuts)), (*sorted(cuts), r))]
        points[f"p{i + 1}"] = PointWeights.of([Fraction(k, len(mults) + 1) for k in range(1, len(mults) + 1)], mults)
    return ModuliSpec.of(draw(hs.integers(2, 6)), r, points), d


@settings(max_examples=60)
@given(codim_configurations())
def test_codim_is_bound_plus_slack_beyond_the_grid(config):
    spec, d = config
    rep = codim_report(spec, d)
    slacks = [flag_dimension(pw.multiplicities) - point_survey(pw.multiplicities, spec.rank // d, d)[1]
              for _, pw in spec.points]
    assert rep.dim_moduli == moduli_dimension(spec)
    assert rep.meets_bound == (Fraction(rep.codim) >= rep.bound)
    assert rep.codim == rep.bound + sum(slacks)
    assert rep.meets_bound
    single = all(pw.length == 1 for _, pw in spec.points)
    assert rep.codim_at_least_three == ((spec.genus, spec.rank, d) != (2, 2, 2) or not single)
