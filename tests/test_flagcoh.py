import itertools

import pytest
from hypothesis import given, settings, strategies as hs

from parastrata import (
    CartanType,
    ParabolicSubset,
    flag_poincare,
    fundamental_degrees,
    kunneth_report,
    levi_components,
    pic_rank_flag,
    weyl_bfs_order,
    weyl_poincare,
)

from test_exact import poly_divide_exact, poly_mul


def ct(*components):
    return CartanType.of(components)


def ps(*subsets):
    return ParabolicSubset.of(subsets)


SMALL_TYPES = (
    [("A", n) for n in range(1, 7)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(4, 7)]
    + [("E", 6), ("F", 4), ("G", 2)]
)

KNOWN_ORDERS = {
    ("A", 2): 6,
    ("B", 2): 8,
    ("G", 2): 12,
    ("A", 3): 24,
    ("D", 4): 192,
    ("F", 4): 1152,
    ("E", 6): 51840,
}


# --- Weyl Poincare polynomials -----------------------------------------------


def test_weyl_poincare_a1():
    assert weyl_poincare(ct(("A", 1))).coefficients() == (1, 1)


def test_weyl_poincare_a2():
    assert weyl_poincare(ct(("A", 2))).coefficients() == (1, 2, 2, 1)


def test_weyl_poincare_b2():
    assert weyl_poincare(ct(("B", 2))).coefficients() == (1, 2, 2, 2, 1)


def test_weyl_poincare_product_type():
    got = weyl_poincare(ct(("A", 1), ("A", 1))).coefficients()
    assert got == (1, 2, 1)


def test_bfs_orders_match_known_values():
    for key, expected in KNOWN_ORDERS.items():
        assert weyl_bfs_order(ct(key)) == expected


def test_poincare_at_one_equals_bfs_order_all_small_types():
    for fam, n in SMALL_TYPES:
        t = ct((fam, n))
        assert weyl_poincare(t).total() == weyl_bfs_order(t)


def test_poincare_at_one_equals_bfs_order_products():
    for combo in [
        [("A", 1), ("A", 1)],
        [("A", 2), ("A", 1)],
        [("B", 2), ("A", 2)],
        [("G", 2), ("B", 2), ("A", 1)],
        [("A", 1), ("A", 1), ("A", 1), ("A", 1)],
    ]:
        t = CartanType.of(combo)
        assert weyl_poincare(t).total() == weyl_bfs_order(t)


def test_bfs_rank_guard():
    with pytest.raises(ValueError):
        weyl_bfs_order(ct(("A", 7)))
    with pytest.raises(ValueError):
        weyl_bfs_order(ct(("A", 4), ("A", 3)))


def test_degree_products_for_exceptional_tables():
    # E7/E8 cannot be BFS-checked under the rank guard; their degree
    # products must still give the classical orders
    degrees_e7 = fundamental_degrees(ct(("E", 7)))
    degrees_e8 = fundamental_degrees(ct(("E", 8)))
    prod7 = prod8 = 1
    for v in degrees_e7:
        prod7 *= v
    for v in degrees_e8:
        prod8 *= v
    assert prod7 == 2903040
    assert prod8 == 696729600


def test_cartan_type_validation():
    with pytest.raises(ValueError):
        ct(("D", 3))
    with pytest.raises(ValueError):
        ct(("B", 1))
    with pytest.raises(ValueError):
        ct(("E", 5))
    with pytest.raises(ValueError):
        ct(("X", 2))
    assert ct().total_rank == 0
    assert weyl_poincare(ct()).coefficients() == (1,)


# --- Levi classification --------------------------------------------------------


def test_levi_isolated_nodes():
    assert levi_components(ct(("A", 3)), ps([1, 3])) == ct(("A", 1), ("A", 1))


def test_levi_connected_path():
    assert levi_components(ct(("A", 3)), ps([1, 2])) == ct(("A", 2))


def test_levi_empty():
    assert levi_components(ct(("A", 3)), ps([])) == ct()


def test_levi_multiply_laced_pieces():
    assert levi_components(ct(("B", 4)), ps([3, 4])) == ct(("B", 2))
    assert levi_components(ct(("B", 4)), ps([2, 3, 4])) == ct(("B", 3))
    assert levi_components(ct(("C", 4)), ps([2, 3, 4])) == ct(("C", 3))
    assert levi_components(ct(("C", 4)), ps([1, 2])) == ct(("A", 2))
    assert levi_components(ct(("F", 4)), ps([2, 3])) == ct(("B", 2))
    assert levi_components(ct(("F", 4)), ps([1, 2, 3])) == ct(("B", 3))
    assert levi_components(ct(("F", 4)), ps([2, 3, 4])) == ct(("C", 3))
    assert levi_components(ct(("F", 4)), ps([1, 2, 3, 4])) == ct(("F", 4))
    assert levi_components(ct(("G", 2)), ps([1, 2])) == ct(("G", 2))
    assert levi_components(ct(("G", 2)), ps([1])) == ct(("A", 1))


def test_levi_forked_pieces():
    assert levi_components(ct(("D", 5)), ps([2, 3, 4, 5])) == ct(("D", 4))
    assert levi_components(ct(("D", 5)), ps([1, 2, 3])) == ct(("A", 3))
    assert levi_components(ct(("D", 5)), ps([1, 2, 4, 5])) == ct(("A", 2), ("A", 1), ("A", 1))
    assert levi_components(ct(("E", 6)), ps([1, 3, 4, 5, 6])) == ct(("A", 5))
    assert levi_components(ct(("E", 6)), ps([2, 3, 4, 5])) == ct(("D", 4))
    assert levi_components(ct(("E", 6)), ps([1, 2, 3, 4, 5])) == ct(("D", 5))
    assert levi_components(ct(("E", 7)), ps([1, 2, 3, 4, 5, 6])) == ct(("E", 6))
    assert levi_components(ct(("E", 8)), ps([1, 2, 3, 4, 5, 6, 7])) == ct(("E", 7))


def test_levi_multi_component_type():
    t = ct(("A", 2), ("B", 2))
    levi = levi_components(t, ParabolicSubset.of([[1], [1, 2]]))
    assert levi == ct(("A", 1), ("B", 2))


def test_levi_order_divides_group_order():
    for fam, n in SMALL_TYPES:
        t = ct((fam, n))
        order = weyl_poincare(t).total()
        for size in range(n + 1):
            for sub in itertools.combinations(range(1, n + 1), size):
                levi = levi_components(t, ps(list(sub)))
                assert order % weyl_poincare(levi).total() == 0


def test_levi_index_bounds():
    with pytest.raises(ValueError):
        levi_components(ct(("A", 3)), ps([4]))
    with pytest.raises(ValueError):
        levi_components(ct(("A", 3)), ParabolicSubset.of([[1], [2]]))


# --- flag variety Poincare polynomials --------------------------------------------


def test_projective_space_series():
    for n in range(1, 6):
        t = ct(("A", n))
        sub = ps(list(range(2, n + 1)))
        assert flag_poincare(t, sub).coefficients() == (1,) * (n + 1)


def test_projective_line():
    assert flag_poincare(ct(("A", 1)), ps([])).coefficients() == (1, 1)


def test_full_flag_a3():
    fp = flag_poincare(ct(("A", 3)), ps([]))
    assert fp.total() == 24
    assert fp.coefficients() == tuple(
        (weyl_poincare(ct(("A", 3))).poly).coeffs
    )


def test_point_when_parabolic_is_everything():
    for fam, n in [("A", 3), ("B", 3), ("G", 2)]:
        t = ct((fam, n))
        assert flag_poincare(t, ps(list(range(1, n + 1)))).coefficients() == (1,)


def test_flag_poincare_palindromic_non_negative_all_subsets():
    for fam, n in SMALL_TYPES:
        t = ct((fam, n))
        for size in range(n + 1):
            for sub in itertools.combinations(range(1, n + 1), size):
                fp = flag_poincare(t, ps(list(sub)))
                assert fp.is_palindromic()
                assert all(c >= 0 for c in fp.coefficients())
                assert fp.betti(1) == pic_rank_flag(t, ps(list(sub)))


def test_pic_rank_values():
    assert pic_rank_flag(ct(("A", 2)), ps([2])) == 1
    assert pic_rank_flag(ct(("A", 3)), ps([])) == 3
    assert pic_rank_flag(ct(("B", 3)), ps([1, 2, 3])) == 0


# --- Kunneth assembly ----------------------------------------------------------------


def test_kunneth_projective_line_factor():
    rep = kunneth_report(ct(("A", 1)), [ps([])], pic_rank_qg=1, b2_mg=1)
    assert rep.b2 == 1
    assert rep.rank_t == 2
    assert rep.assembled_b2 == 2
    assert rep.b1 == 0 and rep.b3 == 0


def test_kunneth_two_factors():
    rep = kunneth_report(ct(("A", 2)), [ps([1]), ps([2])], pic_rank_qg=1)
    assert rep.b2 == 2
    assert rep.rank_t == 3
    assert rep.product.coefficients() == (1, 2, 3, 2, 1)


def test_kunneth_points_only():
    rep = kunneth_report(ct(("B", 2)), [ps([1, 2]), ps([1, 2])], pic_rank_qg=7)
    assert rep.b2 == 0
    assert rep.rank_t == 7
    assert rep.product.coefficients() == (1,)


def test_kunneth_requires_parabolics():
    with pytest.raises(ValueError):
        kunneth_report(ct(("A", 1)), [])


# --- against dense polynomial arithmetic ---------------------------------------------

# every family at ranks up to 8, so that a drawn type has total rank <= 16
_TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)] + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def dense_weyl(t):
    """W(q) as the dense product of [d]_q = [1] * d over the degrees."""
    acc = [1]
    for deg in fundamental_degrees(t):
        acc = poly_mul(acc, [1] * deg)
    return acc


@hs.composite
def _types_and_parabolics(draw):
    comps = sorted(draw(hs.lists(hs.sampled_from(_TYPES), min_size=1, max_size=2)))
    subsets = [hs.lists(hs.integers(1, n), unique=True) for _, n in comps]
    parabolics = draw(hs.lists(hs.tuples(*subsets), min_size=1, max_size=3))
    return CartanType.of(comps), [ParabolicSubset.of(p) for p in parabolics]


@settings(max_examples=60)
@given(_types_and_parabolics())
def test_kunneth_report_matches_dense_arithmetic(case):
    """Each factor is W(G) divided by W(L) by long division, and the
    product is the factors multiplied out, on random types of one or two
    components and one to three parabolics."""
    t, parabolics = case
    rep = kunneth_report(t, parabolics)
    weyl = dense_weyl(t)
    assert rep.weyl.coefficients() == tuple(weyl)
    product = [1]
    for I, factor in zip(parabolics, rep.factors):
        quotient = poly_divide_exact(weyl, dense_weyl(levi_components(t, I)))
        assert factor.coefficients() == tuple(quotient)
        product = poly_mul(product, quotient)
    assert rep.product.coefficients() == tuple(product)
