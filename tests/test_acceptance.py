"""Acceptance suite: every criterion runs at its stated tolerance
(exact arithmetic everywhere, so tolerance means equality) and prints
one pass/fail line."""

import functools
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from parastrata import (
    CartanType,
    ModuliSpec,
    ParabolicDatum,
    ParabolicSubset,
    PointWeights,
    codim_report,
    descend,
    enumerate_matrices,
    fixed_point_shape,
    flag_dimension,
    flag_poincare,
    galois_twist,
    genericity_witness,
    is_generic,
    nested_eigenbasis,
    par_degree,
    par_slope,
    pic_rank_flag,
    point_survey,
    point_systems,
    pullback,
    pushforward,
    pushforward_point,
    kunneth_report,
    levi_components,
    moduli_dimension,
    weyl_bfs_order,
    weyl_poincare,
)

from test_parabolic import brute_force_verdict
from test_strata import brute_force_margin_matrices, support_matches
from test_eigenflag import assert_valid_nested_eigenbasis
from util import (
    random_base_datum,
    random_cover,
    random_flag_automorphism,
    random_point_weights,
    random_total_datum,
)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} [{name}]: FAIL")
                raise
            print(f"criterion {number} [{name}]: PASS")

        return wrapper

    return decorate


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def multiplicity_systems(rank, max_points=2, max_len=3):
    per_point = []
    for length in range(1, min(max_len, rank) + 1):
        weights = [Fraction(k, length + 1) for k in range(1, length + 1)]
        for comp in compositions(rank, length):
            per_point.append(PointWeights.of(weights, comp))
    yield {}
    for npts in range(1, max_points + 1):
        for combo in itertools.product(per_point, repeat=npts):
            yield {f"p{i + 1}": pw for i, pw in enumerate(combo)}


@criterion(1, "codimension chain")
def test_criterion_1_codimension_sweep():
    start = time.time()
    checked = 0
    for g in range(2, 6):
        for r in (2, 3, 4, 6):
            for d in (d for d in range(2, r + 1) if r % d == 0):
                for points in multiplicity_systems(r):
                    spec = ModuliSpec.of(g, r, points)
                    rep = codim_report(spec, d)
                    checked += 1
                    assert rep.num_systems > 0, (g, r, d, points)
                    assert rep.codim is not None
                    assert Fraction(rep.codim) >= rep.bound, (g, r, d, points, rep)
                    # the fold against its independent pieces
                    assert rep.dim_moduli == moduli_dimension(spec), (g, r, d, points, rep)
                    assert rep.meets_bound == (Fraction(rep.codim) >= rep.bound), (g, r, d, points, rep)
                    # the identity behind the bound: codim = bound + sum of slacks
                    slack = sum(
                        flag_dimension(pw.multiplicities) - point_survey(pw.multiplicities, r // d, d)[1]
                        for pw in points.values()
                    )
                    assert rep.codim == rep.bound + slack, (g, r, d, points, rep)
                    single = all(pw.length == 1 for pw in points.values())
                    assert rep.codim_at_least_three == ((g, r, d) != (2, 2, 2) or not single)
    elapsed = time.time() - start
    assert checked == 3844
    assert elapsed < 300, f"sweep took {elapsed:.0f}s, budget is 300s"

    # the borderline full-flag case: exact codimension 3 from dim 4 vs 1
    pw = PointWeights.of([Fraction(1, 4), Fraction(1, 2)], [1, 1])
    rep = codim_report(ModuliSpec.of(2, 2, {"p": pw}), 2)
    assert rep.dim_moduli == 4
    assert rep.max_stratum_dim == 1
    assert rep.codim == 3
    assert rep.bound == 2
    print(f"  swept {checked} configurations in {elapsed:.1f}s, zero violations")


@criterion(2, "matrix enumeration oracle")
def test_criterion_2_matrix_oracle():
    compared = 0
    for d in (2, 3):
        for width in (1, 2, 3):
            for q in (1, 2, 3, 4):
                r = q * d
                comps = list(compositions(r, width)) if width <= r else []
                if len(comps) > 12:
                    comps = comps[:6] + comps[-6:]
                weights = [Fraction(k, width + 1) for k in range(1, width + 1)]
                for mults in comps:
                    point = PointWeights.of(weights, mults)
                    margin_valid = brute_force_margin_matrices(mults, r, d)
                    for t, mats in point_systems(point, r, d):
                        got = [m.entries for m in mats]
                        expected = [m for m in margin_valid if support_matches(m, t)]
                        assert got == expected, (d, q, mults, t)
                        compared += 1
    assert compared > 3000
    print(f"  compared {compared} (index, system) pairs, zero discrepancies")


@criterion(3, "push-forward invariants")
def test_criterion_3_pushforward_invariants():
    rng = random.Random(2024)
    cases = 0
    for _ in range(1100):
        d = rng.choice([1, 2, 3, 4])
        cov = random_cover(rng, d, rng.randint(1, 2))
        f = random_total_datum(rng, cov, rng.randint(1, 4))
        e = pushforward(cov, f)
        assert par_degree(e) == par_degree(f)
        assert e.rank == d * f.rank
        tw = galois_twist(cov, f, rng.randrange(-1, d + 1))
        assert par_slope(tw) == par_slope(f)
        base = random_base_datum(rng, cov, rng.randint(1, 4))
        roundtrip = pushforward(cov, pullback(cov, base))
        assert par_degree(roundtrip) == d * par_degree(base)
        cases += 1
    assert cases >= 1000
    print(f"  verified {cases} randomized data, exact equality throughout")


@criterion(4, "descent round trip")
def test_criterion_4_descent_roundtrip():
    rng = random.Random(4096)
    cases = 0
    shaped = 0
    while cases < 210:
        d = rng.choice([2, 3, 4])
        uniform = rng.random() < 0.4
        if uniform:
            r = d * rng.randint(1, 8 // d)
        else:
            r = rng.randint(1, 8)
        phi, flag = random_flag_automorphism(rng, r, d, uniform=uniform)
        neb = nested_eigenbasis(phi, flag)
        assert_valid_nested_eigenbasis(phi, flag, neb)
        res = descend(phi, flag, d)
        merged = pushforward_point(res.fiber_weights)
        assert merged.weights == flag.weights
        assert merged.dimension_profile() == flag.dims
        if fixed_point_shape(res, r, d):
            shaped += 1
            q = r // d
            assert res.matrix.row_sums() == (q,) * d
            assert res.matrix.col_sums() == flag.point_weights().multiplicities
            supports = res.matrix.supports()
            for support in supports:
                assert support and len(support) <= q
            # the matrix belongs to the collection indexed by its supports
            collection = enumerate_matrices(supports, flag.point_weights(), r, d)
            assert res.matrix.entries in {m.entries for m in collection}
        cases += 1
    assert shaped > 20
    print(f"  verified {cases} automorphisms ({shaped} with the stable fixed-point shape)")


@criterion(5, "genericity wall oracle")
def test_criterion_5_genericity():
    rng = random.Random(555)
    checked = 0
    for _ in range(400):
        r = rng.randint(1, 6)
        points = {
            f"p{i}": random_point_weights(rng, r) for i in range(rng.randint(0, 3))
        }
        d = ParabolicDatum.of(r, rng.randint(-4, 4), points)
        assert is_generic(d) == brute_force_verdict(d)
        checked += 1

    # deterministic battery: every rank <= 4 system at one point, small degrees
    menus = {
        1: [Fraction(2, 7)],
        2: [Fraction(2, 7), Fraction(1, 2)],
        3: [Fraction(2, 7), Fraction(1, 2), Fraction(5, 6)],
    }
    for r in (2, 3, 4):
        for length in range(1, min(3, r) + 1):
            for mults in compositions(r, length):
                for e in range(-2, 3):
                    d = ParabolicDatum.of(
                        r, e, {"p": PointWeights.of(menus[length], mults)}
                    )
                    assert is_generic(d) == brute_force_verdict(d)
                    checked += 1

    # single-weight double-multiplicity family: non-generic exactly at even degree
    for e in range(-6, 7):
        for alpha in (Fraction(1, 4), Fraction(1, 3), Fraction(3, 5)):
            d = ParabolicDatum.of(2, e, {"p": PointWeights.of([alpha], [2])})
            w = genericity_witness(d)
            if e % 2 == 0:
                assert w is not None
                assert w.sub_rank == 1
                assert w.sub_degree == e // 2
                assert w.sub_multiplicities == (("p", (1,)),)
            else:
                assert w is None
    print(f"  {checked} oracle comparisons and the full even-degree family agree")


@criterion(6, "Weyl and flag cohomology")
def test_criterion_6_weyl_flag():
    singles = (
        [("A", n) for n in range(1, 7)]
        + [("B", n) for n in range(2, 7)]
        + [("C", n) for n in range(2, 7)]
        + [("D", n) for n in range(4, 7)]
        + [("E", 6), ("F", 4), ("G", 2)]
    )
    expected = {("A", 2): 6, ("B", 2): 8, ("G", 2): 12, ("D", 4): 192, ("E", 6): 51840}
    for fam, n in singles:
        t = CartanType.of([(fam, n)])
        order = weyl_bfs_order(t)
        assert weyl_poincare(t).total() == order
        if (fam, n) in expected:
            assert order == expected[(fam, n)]
    for combo in ([("A", 2), ("A", 1)], [("B", 2), ("G", 2)], [("A", 1)] * 4):
        t = CartanType.of(combo)
        assert weyl_poincare(t).total() == weyl_bfs_order(t)

    subsets_checked = 0
    for fam, n in singles:
        t = CartanType.of([(fam, n)])
        for size in range(n + 1):
            for sub in itertools.combinations(range(1, n + 1), size):
                I = ParabolicSubset.of([list(sub)])
                fp = flag_poincare(t, I)
                assert fp.is_palindromic()
                assert all(c >= 0 for c in fp.coefficients())
                subsets_checked += 1

    for n in range(1, 7):
        t = CartanType.of([("A", n)])
        I = ParabolicSubset.of([list(range(2, n + 1))])
        assert flag_poincare(t, I).coefficients() == (1,) * (n + 1)
    print(f"  orders match for all {len(singles)} single types; {subsets_checked} G/P polynomials palindromic")


@criterion(7, "Kunneth and Picard assembly")
def test_criterion_7_kunneth():
    rng = random.Random(777)
    menu = (
        [("A", n) for n in range(1, 5)]
        + [("B", n) for n in (2, 3, 4)]
        + [("C", n) for n in (2, 3, 4)]
        + [("D", 4), ("F", 4), ("G", 2)]
    )
    for case in range(20):
        fam, n = menu[rng.randrange(len(menu))]
        t = CartanType.of([(fam, n)])
        parabolics = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(0, n)
            parabolics.append(
                ParabolicSubset.of([sorted(rng.sample(range(1, n + 1), size))])
            )
        pic_qg = rng.randint(1, 4)
        b2_mg = rng.randint(0, 3)
        rep = kunneth_report(t, parabolics, pic_qg, b2_mg)
        assert rep.b1 == 0 and rep.b3 == 0
        ranks = [pic_rank_flag(t, I) for I in parabolics]
        assert rep.b2 == sum(ranks)
        assert rep.rank_t == pic_qg + sum(ranks)
        assert rep.assembled_b2 == b2_mg + sum(ranks)
        assert rep.weyl == weyl_poincare(t)
        assert rep.levis == tuple(levi_components(t, I) for I in parabolics)
        assert rep.factors == tuple(flag_poincare(t, I) for I in parabolics)
    print("  20 randomized assemblies, every equality exact")


DOCUMENTED_EXAMPLES = [
    (
        ["codim"],
        {"g": 2, "r": 2, "d": 2, "points": [{"weights": ["1/4", "1/2"], "mults": [1, 1]}]},
    ),
    (["dim"], {"g": 3, "r": 2, "points": []}),
    (["generic"], {"rank": 2, "degree": 0, "points": [{"weights": ["1/4"], "mults": [2]}]}),
    (
        ["strata"],
        {"g": 2, "r": 4, "d": 2, "points": [{"weights": ["1/4", "1/2"], "mults": [2, 2]}]},
    ),
    (
        ["pushforward"],
        {
            "cover": {"degree": 2, "fibers": {"p": ["q1", "q2"]}},
            "datum": {
                "rank": 1,
                "degree": 0,
                "points": {
                    "q1": {"weights": ["1/4"], "mults": [1]},
                    "q2": {"weights": ["1/2"], "mults": [1]},
                },
            },
        },
    ),
    (
        ["descend"],
        {
            "order": 2,
            "automorphism": [["0", "1"], ["1", "0"]],
            "flag": {
                "weights": ["1/4", "1/2"],
                "subspaces": [[["1", "0"], ["0", "1"]], [["1", "1"]]],
            },
        },
    ),
    (["flagcoh"], {"type": [["A", 2]], "parabolics": [[1], [2]]}),
    (
        ["codim", "--sweep"],
        {"g": [2, 3], "r": [2], "max_points": 1, "max_flag_length": 2},
    ),
]


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv, payload):
    # pytest's `pythonpath` setting reaches only its own process
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + inherited if inherited else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "parastrata", *argv],
        input=json.dumps(payload).encode(),
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


@criterion(8, "CLI determinism")
def test_criterion_8_cli_determinism():
    for argv, payload in DOCUMENTED_EXAMPLES:
        runs = [run_cli(argv, payload) for _ in range(3)]
        codes = {code for code, _, _ in runs}
        outputs = {out for _, out, _ in runs}
        assert codes == {0}, (argv, runs[0][2])
        assert len(outputs) == 1, argv
        assert runs[0][1]

    invalid = [
        (["codim"], {"g": 2, "r": 2, "d": 3, "points": []}),
        (["dim"], {"g": 2, "r": 2, "points": [{"weights": [0.25], "mults": [2]}]}),
        (["nonsense"], {}),
    ]
    for argv, payload in invalid:
        code, out, err = run_cli(argv, payload)
        assert code == 2, argv
        assert out == b""
        assert err
    print(f"  {len(DOCUMENTED_EXAMPLES)} examples byte-identical across 3 runs; invalid inputs exit 2")
