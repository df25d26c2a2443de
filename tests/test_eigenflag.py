import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from parastrata import (
    CoverSpec,
    ExactMatrix,
    FlagAutomorphism,
    ParabolicDatum,
    PointWeights,
    WeightedFlag,
    charpoly,
    check_parabolic_morphism,
    cyclotomic_field,
    descend,
    fixed_point_shape,
    inverse,
    kernel,
    matrix_to_multiplicity_system,
    nested_eigenbasis,
    pushforward,
    pushforward_point,
    reduced_row_basis,
)

from parastrata.eigenflag import _extend_basis
from parastrata.exact import _root_exponents, eigen_nullities, residue_rows
from util import is_identity, matrix_power, random_flag_automorphism, random_invertible, random_weights


def swap_flag():
    return WeightedFlag.of(
        2,
        [[[1, 0], [0, 1]], [[1, 1]]],
        [Fraction(1, 4), Fraction(1, 2)],
    )


def descended_fibers(table, flag):
    """The fibers that carry data: the nonzero rows of a descent table
    read against the flag's weights, as the rows of a strata table are."""
    return matrix_to_multiplicity_system(tuple(row for row in table if any(row)), flag.point_weights())


def assert_valid_nested_eigenbasis(phi, flag, neb):
    field = flag.field
    for level, vecs in enumerate(neb):
        # spanning: |B_i| = dim V_i and every vector lies in V_i
        assert len(vecs) == flag.dims[level]
        basis = flag.canonical_basis(level)
        span = reduced_row_basis(field, list(basis) + [ev.vector for ev in vecs])
        assert len(span) == len(basis)
        assert len(reduced_row_basis(field, [ev.vector for ev in vecs])) == len(vecs)
        # exact eigenvectors with the tagged eigenvalue
        for ev in vecs:
            assert ev.eigenvalue == field.zeta(ev.exponent)
            image = phi.matrix.apply(ev.vector)
            assert image == tuple(ev.eigenvalue * c for c in ev.vector)
    # nesting: B_{i+1} is a subset of B_i
    for shallow, deep in zip(neb, neb[1:]):
        assert set(deep) <= set(shallow)


# --- nested eigenbasis examples -------------------------------------------------


def test_nested_eigenbasis_swap():
    phi = FlagAutomorphism.of(2, [[0, 1], [1, 0]])
    flag = swap_flag()
    neb = nested_eigenbasis(phi, flag)
    field = flag.field
    one = field.one
    assert neb[1] == ((( one, one), 0, field.zeta(0)),)
    vectors = {ev.vector for ev in neb[0]}
    assert vectors == {(one, one), (one, -one)}
    assert_valid_nested_eigenbasis(phi, flag, neb)


def test_nested_eigenbasis_identity_map():
    phi = FlagAutomorphism.of(1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    flag = WeightedFlag.of(
        1,
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 2, 0], [0, 0, 1]], [[0, 0, 1]]],
        [Fraction(0), Fraction(1, 3), Fraction(2, 3)],
    )
    neb = nested_eigenbasis(phi, flag)
    assert all(ev.exponent == 0 for lvl in neb for ev in lvl)
    assert_valid_nested_eigenbasis(phi, flag, neb)


def test_nested_eigenbasis_diagonal_sign_flip():
    phi = FlagAutomorphism.of(2, [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    flag = WeightedFlag.of(
        2,
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1]]],
        [Fraction(1, 4), Fraction(1, 2)],
    )
    neb = nested_eigenbasis(phi, flag)
    field = flag.field
    one = field.one
    assert [ev.vector for ev in neb[1]] == [(one, field.zero, one)]
    assert_valid_nested_eigenbasis(phi, flag, neb)


def test_nested_eigenbasis_rejects_non_invariant_flag():
    phi = FlagAutomorphism.of(2, [[0, 1], [1, 0]])
    flag = WeightedFlag.of(
        2,
        [[[1, 0], [0, 1]], [[1, 0]]],  # span{(1,0)} is not swap-invariant
        [Fraction(1, 4), Fraction(1, 2)],
    )
    with pytest.raises(ValueError, match="^automorphism does not preserve the flag$"):
        nested_eigenbasis(phi, flag)


def test_weighted_flag_rejects_float_weights():
    with pytest.raises(TypeError):
        WeightedFlag.of(1, [[[1]]], [0.3])
    assert WeightedFlag.of(1, [[[1]]], ["3/10"]).weights == (Fraction(3, 10),)


@pytest.mark.parametrize(
    "weights, message",
    [
        (["1/4", "1"], "weight 1 outside [0, 1)"),
        (["1/2", "1/2"], "weights must be strictly increasing"),
        (["1/2", "1/4"], "weights must be strictly increasing"),
    ],
    ids=["out-of-range", "repeated", "decreasing"],
)
def test_point_weights_and_flag_share_the_weight_check(weights, message):
    """A point's weights and a flag's weights are checked by one check,
    so both reject the same bad sequences with the same message."""
    with pytest.raises(ValueError) as point_err:
        PointWeights.of(weights, [1, 1])
    with pytest.raises(ValueError) as flag_err:
        WeightedFlag.of(1, [[[1, 0], [0, 1]], [[1, 0]]], weights)
    assert str(point_err.value) == str(flag_err.value) == message


def preserves_flag(phi, subspaces):
    """Oracle: phi preserves each subspace when adding its images to a
    spanning set does not enlarge the span."""
    field = phi.matrix.field
    for rows in subspaces:
        images = [phi.matrix.apply(v) for v in rows]
        if len(reduced_row_basis(field, list(rows) + images)) > len(reduced_row_basis(field, rows)):
            return False
    return True


def error_of(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_flag_preservation_matches_span_oracle():
    rng = random.Random(31)
    outcomes = set()
    for i in range(120):
        d = 1 + i % 6
        r = 1 + (i // 6) % 4
        phi, invariant_flag = random_flag_automorphism(rng, r, d)
        field = phi.matrix.field
        # mostly not invariant: nested prefixes of random integer rows
        q = random_invertible(rng, field, r, -2, 2)
        length = rng.randint(1, min(3, r))
        dims = [r] + sorted(rng.sample(range(1, r), length - 1), reverse=True)
        subspaces = [[q.row(s) for s in range(k)] for k in dims]
        flag = WeightedFlag.of(d, subspaces, random_weights(rng, length))
        invariant = preserves_flag(phi, subspaces)
        outcomes.add(invariant)
        if invariant:
            assert_valid_nested_eigenbasis(phi, flag, nested_eigenbasis(phi, flag))
        else:
            with pytest.raises(ValueError, match="^automorphism does not preserve the flag$"):
                nested_eigenbasis(phi, flag)
        # descend counts by rank and rejects the same flags, with the same message
        other_field = WeightedFlag.of(d + 1, [[[1]]], [0])
        wider = WeightedFlag.of(d, [ExactMatrix.identity(field, r + 1).iter_rows()], [0])
        for f in (flag, invariant_flag, other_field, wider):
            assert error_of(descend, phi, f) == error_of(nested_eigenbasis, phi, f)
    assert outcomes == {True, False}


def test_automorphism_order_checked():
    """Matrices whose d-th power is not the identity, including ones whose
    characteristic polynomial has no d-th root of unity as a root, so
    that every kernel is skipped."""
    z3 = cyclotomic_field(3).zeta()
    cases = [
        (2, [[1, 1], [0, 1]]),  # unipotent, not order 2
        (3, [[0, 1], [1, 0]]),  # order 2, not 3
        (2, [[0, -1], [1, 0]]),  # order 4; x^2 + 1 has no rational root
        (1, [[2]]),
        (3, [[-z3, 0], [0, 1]]),  # order 6
        (6, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ]
    for d, rows in cases:
        with pytest.raises(ValueError, match=f"^matrix to the power {d} is not the identity$"):
            FlagAutomorphism.of(d, rows)


def order_check_candidates(rng, field, n):
    """Conjugates of diagonal matrices of order dividing d, conjugates of
    zeta^e I + N (not diagonalizable once n >= 2), every permutation
    matrix, and random small matrices."""
    d = field.order
    for _ in range(3):
        p = random_invertible(rng, field, n)
        exps = [rng.randrange(d) for _ in range(n)]
        diag = [[field.zeta(exps[i]) if i == j else 0 for j in range(n)] for i in range(n)]
        yield p * ExactMatrix.from_rows(field, diag) * inverse(p)
        e = rng.randrange(d)
        # zeta^e I + N with N strictly upper triangular and N[0][n-1] != 0
        jordan = [
            [field.zeta(e) if i == j else rng.choice([-1, 1, 2]) if (i, j) == (0, n - 1)
             else rng.randint(-2, 2) if j > i else 0 for j in range(n)]
            for i in range(n)
        ]
        yield p * ExactMatrix.from_rows(field, jordan) * inverse(p)
    for perm in itertools.permutations(range(n)):
        yield ExactMatrix.from_rows(field, [[int(perm[i] == j) for j in range(n)] for i in range(n)])
    for _ in range(4):
        yield ExactMatrix.from_rows(field, [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])


def test_automorphism_order_check_matches_power_oracle():
    """FlagAutomorphism(m) over Q(zeta_d) accepts m exactly when m**d is the identity,
    and then carries the canonical bases of its d eigenspaces."""
    rng = random.Random(23)
    outcomes = set()
    for d in range(1, 7):
        field = cyclotomic_field(d)
        for n in range(1, 4):
            for m in order_check_candidates(rng, field, n):
                expected = is_identity(matrix_power(m, d))
                outcomes.add(expected)
                if not expected:
                    with pytest.raises(ValueError, match=f"^matrix to the power {d} is not the identity$"):
                        FlagAutomorphism(m)
                    continue
                phi = FlagAutomorphism(m)
                assert len(phi.eigenspaces) == d
                assert sum(len(eig) for eig in phi.eigenspaces) == n
                for e, eig in enumerate(phi.eigenspaces):
                    assert reduced_row_basis(field, eig) == eig
                    for v in eig:
                        assert m.apply(v) == tuple(field.zeta(e) * c for c in v)
    assert outcomes == {True, False}


def test_charpoly_roots_are_the_nonzero_kernels():
    """zeta^e is a root of the characteristic polynomial exactly when
    m - zeta^e I has a nonzero kernel: the filter FlagAutomorphism uses
    before it takes a kernel, on matrices of finite order and not."""
    rng = random.Random(31)
    checked = set()
    for d in range(1, 9):
        field = cyclotomic_field(d)
        mats = [m for n in range(1, 4) for m in order_check_candidates(rng, field, n)]
        mats += [random_flag_automorphism(rng, rng.randint(1, 5), d)[0].matrix for _ in range(6)]
        for m in mats:
            cp = charpoly(m)
            ident = ExactMatrix.identity(field, m.rows)
            for e in range(d):
                z = field.zeta(e)
                root = not _horner(cp, z)
                assert root == bool(kernel(m - ident.scaled(z)))
                checked.add(root)
    assert checked == {True, False}


def _horner(cp, z):
    value = z.field.zero
    for c in reversed(cp):
        value = value * z + c
    return value


def test_root_exponents_flag_repeated_roots():
    """``_root_exponents`` finds the d-th roots of unity among the roots
    of the characteristic polynomial and flags one as repeated exactly
    when the derivative vanishes there too, that is when (x - zeta^e)**2
    divides the polynomial (Horner's rule in ``Cyclotomic`` arithmetic
    as the oracle); at every simple root the eigenspace is a line."""
    rng = random.Random(37)
    seen = Counter()
    for d in range(1, 13):
        field = cyclotomic_field(d)
        mats = [m for n in range(1, 4) for m in order_check_candidates(rng, field, n)]
        mats += [random_flag_automorphism(rng, rng.randint(1, 5), d)[0].matrix for _ in range(4)]
        for m in mats:
            cp = charpoly(m)
            derivative = [k * c for k, c in enumerate(cp)][1:]
            roots = dict(_root_exponents(field, residue_rows(ExactMatrix.from_rows(field, [cp]))[0]))
            for e in range(d):
                z = field.zeta(e)
                assert (e in roots) == (not _horner(cp, z)), (d, e, m)
                if e not in roots:
                    continue
                assert roots[e] == (not _horner(derivative, z)), (d, e, m)
                seen[roots[e]] += 1
                if not roots[e]:
                    assert len(kernel(m - ExactMatrix.identity(field, m.rows).scaled(z))) == 1
    assert seen[True] and seen[False], seen


def _jordan_block(rng, field, e, n):
    """zeta^e I + N, N strictly upper triangular with a nonzero superdiagonal."""
    return [[field.zeta(e) if i == j else rng.choice([-1, 1, 2]) if j == i + 1
             else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]


def test_jordan_blocks_fail_the_order_check():
    """A repeated root of geometric multiplicity below its algebraic one
    still fails the order check, with the exact message, whether or not
    the other roots are simple: conjugates of zeta^e I + N, and of
    blocks diag(zeta^a, ..., zeta^e I + N) with distinct simple a's."""
    rng = random.Random(41)
    for d in range(1, 13):
        field = cyclotomic_field(d)
        for n in range(2, 5):
            e = rng.randrange(d)
            simple = rng.sample([a for a in range(d) if a != e], min(n - 2, d - 1))
            size = n - len(simple)
            block = _jordan_block(rng, field, e, size)
            rows = [[field.zeta(a) if j == i else 0 for j in range(n)] for i, a in enumerate(simple)]
            rows += [[0] * len(simple) + row for row in block]
            p = random_invertible(rng, field, n)
            for m in (ExactMatrix.from_rows(field, block), p * ExactMatrix.from_rows(field, rows) * inverse(p)):
                with pytest.raises(ValueError, match=f"^matrix to the power {d} is not the identity$"):
                    FlagAutomorphism(m)


def test_eigen_nullities_rank_repeated_roots_only(monkeypatch):
    """``eigen_nullities`` takes no rank when every root of the
    characteristic polynomial is simple, and one per repeated root."""
    import parastrata.exact as ex

    calls = []
    original = ex.residue_rank

    def counted(field, rows):
        calls.append(len(rows))
        return original(field, rows)

    monkeypatch.setattr(ex, "residue_rank", counted)
    rng = random.Random(47)
    counts = Counter()
    for d in (1, 2, 3, 4, 5, 6, 8, 12, 16):
        field = cyclotomic_field(d)
        for n in range(1, 7):
            exps = [rng.randrange(d) for _ in range(n)]
            if rng.random() < 0.5 and n <= d:
                exps = rng.sample(range(d), n)
            p = random_invertible(rng, field, n)
            diag = [[field.zeta(exps[i]) if i == j else 0 for j in range(n)] for i in range(n)]
            m = p * ExactMatrix.from_rows(field, diag) * inverse(p)
            calls.clear()
            nullities = eigen_nullities(m)
            assert nullities == tuple(exps.count(e) for e in range(d))
            repeated = sum(1 for e in set(exps) if exps.count(e) > 1)
            assert len(calls) == repeated, (d, exps, calls)
            counts[bool(repeated)] += 1
    assert counts[True] and counts[False], counts


def test_nested_eigenbasis_repr_digest():
    """The nested eigenbases of 150 seeded automorphisms, d in 1..6 and
    r in 1..6, hash to a fixed digest: exact output, basis choice and
    eigenvector order included.  Each result is hashed inside the
    text `NestedEigenbasis(levels=...)` on which the digest was fixed."""
    rng = random.Random(5)
    digest = hashlib.sha256()
    for i in range(150):
        phi, flag = random_flag_automorphism(rng, 1 + (i // 6) % 6, 1 + i % 6)
        digest.update(f"NestedEigenbasis(levels={nested_eigenbasis(phi, flag)!r})".encode())
    assert digest.hexdigest() == "85c20e1d4d274849d2b7729bbc564d85bc12a38cbcf86b542d7fe8c4c918bfd1"


def test_check_parabolic_morphism_takes_each_canonical_basis_once(monkeypatch):
    """Canonical bases are row reduced on demand, so the predicate takes
    each step's basis once per call however many weight pairs trigger."""
    taken = Counter()
    original = WeightedFlag.canonical_basis

    def counted(flag, level):
        taken[id(flag), level] += 1
        return original(flag, level)

    monkeypatch.setattr(WeightedFlag, "canonical_basis", counted)
    rng = random.Random(43)
    checked = 0
    while checked < 12:
        phi, flag = random_flag_automorphism(rng, rng.randint(3, 5), rng.randint(1, 4), max_len=4)
        if flag.length < 3:
            continue
        target = WeightedFlag(flag.subspaces, flag.weights)
        taken.clear()
        # phi preserves the flag, so no strict trigger fails and every pair is checked
        assert check_parabolic_morphism(flag, target, phi.matrix, "strict")
        assert max(taken.values()) == 1
        checked += 1


# --- descent ---------------------------------------------------------------------


def row_sums_are_nullities(table, phi):
    """Row j - 1 of a descent table sums to dim E_{zeta^j}."""
    d = phi.order
    return tuple(map(sum, table)) == tuple(phi.nullities[j % d] for j in range(1, d + 1))


def test_descend_swap_example():
    phi = FlagAutomorphism.of(2, [[0, 1], [1, 0]])
    table = descend(phi, swap_flag())
    assert table == ((1, 0), (0, 1))
    assert row_sums_are_nullities(table, phi)
    q1, q2 = descended_fibers(table, swap_flag())
    assert (q1.weights, q1.multiplicities) == ((Fraction(1, 4),), (1,))
    assert (q2.weights, q2.multiplicities) == ((Fraction(1, 2),), (1,))
    assert fixed_point_shape(table)


def test_descend_identity_degree_one():
    phi = FlagAutomorphism.of(1, [[1, 0], [0, 1]])
    flag = WeightedFlag.of(
        1,
        [[[1, 0], [0, 1]], [[1, 1]]],
        [Fraction(1, 4), Fraction(1, 2)],
    )
    table = descend(phi, flag)
    assert table == ((1, 1),)
    assert row_sums_are_nullities(table, phi)
    (fiber,) = descended_fibers(table, flag)
    assert fiber.weights == (Fraction(1, 4), Fraction(1, 2))
    assert fiber.multiplicities == (1, 1)


def test_descend_minus_identity():
    phi = FlagAutomorphism.of(2, [[-1, 0], [0, -1]])
    table = descend(phi, swap_flag())
    assert table == ((1, 1), (0, 0))
    assert row_sums_are_nullities(table, phi)
    (q1,) = descended_fibers(table, swap_flag())
    assert q1.weights == (Fraction(1, 4), Fraction(1, 2))
    assert q1.multiplicities == (1, 1)
    assert not fixed_point_shape(table)


def test_fixed_point_shape_values():
    phi = FlagAutomorphism.of(2, [[0, 1], [1, 0]])
    assert fixed_point_shape(descend(phi, swap_flag()))
    assert not fixed_point_shape(descend(FlagAutomorphism.of(2, [[-1, 0], [0, -1]]), swap_flag()))


def test_fixed_point_shape_three_fibers():
    # diag(1, zeta3, zeta3^2) twice over: dims (2, 2, 2) for r=6, d=3
    field = cyclotomic_field(3)
    z = field.zeta()
    entries = []
    diag = [field.one, z, z * z, field.one, z, z * z]
    for i in range(6):
        for j in range(6):
            entries.append(diag[i] if i == j else field.zero)
    phi = FlagAutomorphism(ExactMatrix(field, 6, 6, entries))
    flag = WeightedFlag(
        [ExactMatrix.identity(field, 6)],
        [Fraction(1, 2)],
    )
    table = descend(phi, flag)
    assert tuple(map(sum, table)) == (2, 2, 2)
    assert row_sums_are_nullities(table, phi)
    assert fixed_point_shape(table)


# --- morphism predicate ------------------------------------------------------------


def test_identity_is_strict_parabolic_endomorphism():
    flag = swap_flag()
    ident = ExactMatrix.identity(flag.field, 2)
    assert check_parabolic_morphism(flag, flag, ident, "strict")


def test_identity_fails_non_strict():
    flag = swap_flag()
    ident = ExactMatrix.identity(flag.field, 2)
    assert not check_parabolic_morphism(flag, flag, ident, "non-strict")


def test_zero_map_is_parabolic_either_way():
    flag = swap_flag()
    zero = ExactMatrix.zeros(flag.field, 2, 2)
    assert check_parabolic_morphism(flag, flag, zero, "strict")
    assert check_parabolic_morphism(flag, flag, zero, "non-strict")


def test_morphism_detects_weight_violation():
    field = cyclotomic_field(1)
    src = WeightedFlag.of(1, [[[1, 0], [0, 1]], [[0, 1]]], [Fraction(0), Fraction(3, 4)])
    dst = WeightedFlag.of(1, [[[1, 0], [0, 1]], [[1, 0]]], [Fraction(0), Fraction(1, 4)])
    # src weight 3/4 > dst weight 1/4 forces f(src V_2) inside dst V_3 = 0
    good = ExactMatrix.from_rows(field, [[1, 0], [0, 0]])
    bad = ExactMatrix.identity(field, 2)
    assert check_parabolic_morphism(src, dst, good, "strict")
    assert not check_parabolic_morphism(src, dst, bad, "strict")


def test_morphism_dimension_mismatch():
    flag = swap_flag()
    wide = ExactMatrix.zeros(flag.field, 2, 3)
    with pytest.raises(ValueError):
        check_parabolic_morphism(flag, flag, wide, "strict")
    with pytest.raises(ValueError):
        check_parabolic_morphism(flag, flag, ExactMatrix.identity(flag.field, 2), "sloppy")


# --- basis extension ---------------------------------------------------------------


def greedy_extension(field, inner, outer):
    """Oracle: keep an outer vector when it enlarges the span so far."""
    out = list(inner)
    for v in outer:
        if len(reduced_row_basis(field, out + [v])) > len(out):
            out.append(v)
    return out


def test_extend_basis_matches_greedy_oracle():
    rng = random.Random(41)
    for order in (1, 3):
        field = cyclotomic_field(order)

        def vector(n):
            return tuple(field.element([rng.choice([-1, 0, 0, 1, 2]) for _ in range(field.degree)])
                         for _ in range(n))

        for _ in range(60):
            n = rng.randint(1, 4)
            inner = reduced_row_basis(field, [vector(n) for _ in range(rng.randint(0, n))])
            outer = [vector(n) for _ in range(rng.randint(0, n + 1))]
            # dependent outer vectors: repeats and sums of earlier ones
            if outer:
                outer.append(rng.choice(outer))
                outer.append(tuple(a + b for a, b in zip(rng.choice(outer), rng.choice(list(inner) + outer))))
            rng.shuffle(outer)
            assert _extend_basis(field, inner, outer) == greedy_extension(field, inner, outer)
            if inner:
                dependent = list(inner) + [tuple(c * 2 for c in inner[0])]
                with pytest.raises(ValueError):
                    _extend_basis(field, dependent, outer)


# --- randomized structure and round trip ---------------------------------------------


def descent_matches_flag(table, flag):
    """Push the per-fiber data back through the degree-d merge and
    compare weights and dimension profile with the input flag."""
    merged = pushforward_point(descended_fibers(table, flag))
    assert merged.weights == flag.weights
    assert merged.dimension_profile() == flag.dims


def test_descend_roundtrip_randomized():
    rng = random.Random(77)
    for _ in range(60):
        d = rng.choice([2, 3, 4])
        r = rng.randint(1, 6)
        phi, flag = random_flag_automorphism(rng, r, d)
        neb = nested_eigenbasis(phi, flag)
        assert_valid_nested_eigenbasis(phi, flag, neb)
        table = descend(phi, flag)
        assert len(table) == d
        assert sum(map(sum, table)) == r
        assert tuple(map(sum, zip(*table))) == flag.point_weights().multiplicities
        assert row_sums_are_nullities(table, phi)
        descent_matches_flag(table, flag)


def test_descend_uniform_shape_matrix_conditions():
    rng = random.Random(78)
    for _ in range(40):
        d = rng.choice([2, 3])
        r = d * rng.randint(1, 3)
        phi, flag = random_flag_automorphism(rng, r, d, uniform=True)
        table = descend(phi, flag)
        assert fixed_point_shape(table)
        q = r // d
        # condition (a): support read off the matrix is a valid index tuple
        for support in tuple(tuple(k for k, v in enumerate(row) if v) for row in table):
            assert support
            assert len(support) <= q
        # condition (b)
        assert tuple(map(sum, table)) == (q,) * d
        assert tuple(map(sum, zip(*table))) == flag.point_weights().multiplicities


def test_descend_full_datum_pushforward_when_uniform():
    rng = random.Random(79)
    for _ in range(30):
        d = rng.choice([2, 3])
        r = d * rng.randint(1, 3)
        phi, flag = random_flag_automorphism(rng, r, d, uniform=True)
        fibers = matrix_to_multiplicity_system(descend(phi, flag), flag.point_weights())
        cov = CoverSpec.of(d, {"p": [f"q{j}" for j in range(1, d + 1)]})
        datum = ParabolicDatum.of(
            r // d, 0, {f"q{j}": pw for j, pw in enumerate(fibers, 1)}
        )
        pushed = pushforward(cov, datum)
        assert pushed.rank == r
        assert pushed.weights_at("p") == flag.point_weights()


# --- descend's rank counts against the nested eigenbasis -------------------------


def descent_from_nested_eigenbasis(phi, flag):
    """Oracle: eigenspace dimensions, table rows and fiber weights read
    off the vectors of ``nested_eigenbasis``."""
    neb = nested_eigenbasis(phi, flag)
    d, ell = phi.order, flag.length
    counts = Counter((ev.exponent, level) for level, vecs in enumerate(neb) for ev in vecs)
    rows = [tuple(counts[j % d, k] - counts[j % d, k + 1] for k in range(ell)) for j in range(1, d + 1)]
    fibers = [
        [(flag.weights[k], row[k]) for k in range(ell) if row[k]] or None for row in rows
    ]
    return tuple(counts[j % d, 0] for j in range(1, d + 1)), tuple(rows), fibers


def test_descend_counts_match_nested_eigenbasis():
    rng = random.Random(5)  # the cases of test_nested_eigenbasis_repr_digest
    cases = [random_flag_automorphism(rng, 1 + (i // 6) % 6, 1 + i % 6) for i in range(150)]
    for phi, _ in cases:
        # the Hessenberg ranks against the kernels the oracle reads
        assert phi.nullities == tuple(map(len, phi.eigenspaces))
    rng = random.Random(15)
    cases += [random_flag_automorphism(rng, r, d) for d in (15, 16, 18, 20, 24, 30) for r in (1, 2, 3)]
    # full rank 8 over fields of degree 8: coefficients grow here if anywhere
    rng = random.Random(16)
    cases += [random_flag_automorphism(rng, 8, d, max_len=4) for d in (15, 16, 24, 30)]
    for phi, flag in cases:
        table = descend(phi, flag)
        dims, rows, fibers = descent_from_nested_eigenbasis(phi, flag)
        assert table == rows
        assert tuple(map(sum, table)) == dims
        assert row_sums_are_nullities(table, phi)
        descended = descended_fibers(table, flag)
        assert [list(zip(pw.weights, pw.multiplicities)) for pw in descended] == [f for f in fibers if f]
