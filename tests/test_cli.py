import copy
import functools
import hashlib
import itertools
import json
import math
import random
import signal
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as hs

from parastrata import (
    ModuliSpec,
    PointWeights,
    check_parabolic_morphism,
    codim_report,
    stratum_dimension,
    subset_count,
)
from parastrata.cli import (
    MAX_DESCEND_ORDER,
    MAX_FLAGCOH_RANK,
    MAX_STRATA_INDICES,
    MAX_SWEEP_WORK,
    ValidationError,
    _codim_result,
    _compact_json,
    _parse_sweep,
    _report_json,
    _sweep_estimate,
    echo_points,
    parse_fraction,
    parse_matrix,
    parse_scalar,
    run_command,
    scalar_echo,
)
from parastrata.exact import Cyclotomic, ExactMatrix, cyclotomic_field

from test_acceptance import multiplicity_systems, run_cli
from util import benchmark_gen, random_flag_automorphism, scalar_json, scalar_value, strata_report_oracle


def run_json(argv, payload):
    code, out, err = run_command(argv, json.dumps(payload).encode())
    return code, out, err


def result_of(argv, payload):
    code, out, err = run_json(argv, payload)
    assert code == 0, err.decode()
    return json.loads(out.decode())


CODIM_EXAMPLE = {"g": 2, "r": 2, "d": 2, "points": [{"weights": ["1/4", "1/2"], "mults": [1, 1]}]}
DIM_EXAMPLE = {"g": 3, "r": 2, "points": []}
GENERIC_EXAMPLE = {"rank": 2, "degree": 0, "points": [{"weights": ["1/4"], "mults": [2]}]}
PUSH_EXAMPLE = {
    "cover": {"degree": 2, "fibers": {"p": ["q1", "q2"]}},
    "datum": {
        "rank": 1,
        "degree": 0,
        "points": {
            "q1": {"weights": ["1/4"], "mults": [1]},
            "q2": {"weights": ["1/2"], "mults": [1]},
        },
    },
}
DESCEND_EXAMPLE = {
    "order": 2,
    "automorphism": [["0", "1"], ["1", "0"]],
    "flag": {"weights": ["1/4", "1/2"], "subspaces": [[["1", "0"], ["0", "1"]], [["1", "1"]]]},
}
FLAGCOH_EXAMPLE = {"type": [["A", 2]], "parabolics": [[1], [2]]}
STRATA_EXAMPLE = {"g": 2, "r": 2, "d": 2, "points": [{"weights": ["1/4", "1/2"], "mults": [1, 1]}]}
# eleven distinct points: sorted ids would put p10 and p11 before p2
ELEVEN_POINTS_DIM = {"g": 2, "r": 2, "points": [{"weights": [f"{i}/13"], "mults": [2]} for i in range(1, 12)]}
ELEVEN_POINTS_STRATA = {
    "g": 2, "r": 2, "d": 2,
    "points": [{"weights": [f"{i}/13", "12/13"], "mults": [1, 1]} for i in range(1, 12)],
}


def test_codim_documented_example():
    report = result_of(["codim"], CODIM_EXAMPLE)
    res = report["result"]
    assert res["dim_M"] == 4
    assert res["max_stratum_dim"] == 1
    assert res["codim"] == 3
    assert res["bound"] == "2"
    assert res["meets_bound"] is True
    assert res["codim_at_least_three"] is True


def test_dim_documented_example():
    report = result_of(["dim"], DIM_EXAMPLE)
    assert report["result"] == {"dimension": 6}


def test_generic_documented_example():
    report = result_of(["generic"], GENERIC_EXAMPLE)
    res = report["result"]
    assert res["generic"] is False
    assert res["witness"]["sub_rank"] == 1
    assert res["witness"]["sub_degree"] == 0


def test_pushforward_subcommand():
    report = result_of(["pushforward"], PUSH_EXAMPLE)
    res = report["result"]
    assert res["rank"] == 2
    assert res["par_degree"] == "3/4"
    assert res["points"]["p"] == {"weights": ["1/4", "1/2"], "mults": [1, 1]}


def test_pushforward_sums_the_parabolic_degree_once(monkeypatch):
    """The report's slope is its parabolic degree over the rank: the
    degree is summed once, and the slope is par_slope's."""
    import parastrata.cover as cover
    import parastrata.parabolic as pb

    pushed = cover.pushforward(cover.CoverSpec.of(2, {"p": ["q1", "q2"]}),
                               pb.ParabolicDatum.of(1, 0, {"q1": pb.PointWeights.of(["1/4"], [1]),
                                                           "q2": pb.PointWeights.of(["1/2"], [1])}))
    calls = _count_calls(monkeypatch, pb, ("par_degree", "par_slope"))
    res = result_of(["pushforward"], PUSH_EXAMPLE)["result"]
    assert calls == {"par_degree": 1, "par_slope": 0}
    assert res["par_slope"] == str(pb.par_slope(pushed)) == "3/8"


def test_descend_subcommand():
    report = result_of(["descend"], DESCEND_EXAMPLE)
    res = report["result"]
    assert res["matrix"] == [[1, 0], [0, 1]]
    assert res["fixed_point_shape"] is True
    assert res["fibers"][0]["weights"] == ["1/4"]
    assert res["fibers"][1]["weights"] == ["1/2"]
    assert res["flag_endomorphism"] == {"convention": "strict", "holds": True}


def test_descend_convention_flag():
    report = result_of(["descend", "--convention", "non-strict"], DESCEND_EXAMPLE)
    assert report["result"]["flag_endomorphism"] == {
        "convention": "non-strict",
        "holds": False,
    }


def _descend_payload(phi, flag):
    def rows(m):
        return [[scalar_json(v) for v in row] for row in m.iter_rows()]

    return {
        "order": phi.order,
        "automorphism": rows(phi.matrix),
        "flag": {"weights": [str(w) for w in flag.weights], "subspaces": [rows(s) for s in flag.subspaces]},
    }


def test_descend_verdict_matches_check_parabolic_morphism():
    """On every pair descend accepts, the morphism predicate holds
    exactly under the strict convention, and the report says so."""
    rng = random.Random(1111)
    for i in range(72):
        phi, flag = random_flag_automorphism(rng, 1 + (i // 6) % 6, 1 + i % 6, max_len=4)
        payload = _descend_payload(phi, flag)
        for convention in ("strict", "non-strict"):
            holds = check_parabolic_morphism(flag, flag, phi.matrix, convention)
            assert holds == (convention == "strict")
            report = result_of(["descend", "--convention", convention], payload)
            assert report["result"]["flag_endomorphism"] == {"convention": convention, "holds": holds}


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_documented_reports_compute_each_fact_once(monkeypatch):
    import parastrata.eigenflag as ef
    import parastrata.flagcoh as fc

    coh = _count_calls(monkeypatch, fc, ("weyl_poincare", "levi_components"))
    checks = _count_calls(monkeypatch, ef, ("check_parabolic_morphism",))
    result_of(["flagcoh"], FLAGCOH_EXAMPLE)
    # W(G) once and one Levi type per parabolic; the factors are ratios of
    # q-integers, so no Levi Weyl polynomial is built
    assert coh == {"weyl_poincare": 1, "levi_components": 2}
    for convention in ("strict", "non-strict"):
        result_of(["descend", "--convention", convention], DESCEND_EXAMPLE)
    assert checks == {"check_parabolic_morphism": 0}


def test_descend_decides_by_rank_alone(monkeypatch):
    """descend checks order, independence, containment and invariance by
    the fraction-free rank kernel: README's example and the benchmark's
    seed-0 descend requests reach no kernel, no rref, no canonical basis
    and not the row reducer behind them, and invert field elements only
    in the Hessenberg reduction, at most n - 2 times per request."""
    import parastrata.eigenflag as ef
    import parastrata.exact as ex

    names = ("kernel", "rref", "reduced_row_basis")
    calls = [_count_calls(monkeypatch, ef, names), _count_calls(monkeypatch, ex, names + ("_rref_in_place",))]
    inverses = _count_calls(monkeypatch, ex.Cyclotomic, ("inverse",))
    rounds, warmup = benchmark_gen(monkeypatch).streams("descend", 0)
    requests = [(["descend", "--convention", c], DESCEND_EXAMPLE) for c in ("strict", "non-strict")]
    requests += [(req.argv, req.payload) for req in warmup + next(rounds)]
    budget = 0
    for argv, payload in requests:
        result_of(argv, payload)
        budget += max(len(payload["automorphism"]) - 2, 0)
    assert all(n == 0 for counts in calls for n in counts.values()), calls
    assert 0 < inverses["inverse"] <= budget


def test_flagcoh_subcommand():
    report = result_of(["flagcoh"], FLAGCOH_EXAMPLE)
    res = report["result"]
    assert res["b2_F"] == 2
    assert res["t"] == 3
    assert res["poincare_F"] == [1, 2, 3, 2, 1]


def test_flagcoh_pic_rank_qg_is_a_json_field_only():
    """The ambient Picard rank is set by the JSON field; there is no
    command-line option for it."""
    report = result_of(["flagcoh"], {**FLAGCOH_EXAMPLE, "pic_rank_qg": 4})
    assert report["result"]["t"] == 6
    code, out, err = run_json(["flagcoh", "--pic-rank-qg", "4"], FLAGCOH_EXAMPLE)
    assert (code, out, err) == (2, b"", b"error: unknown option '--pic-rank-qg'\n")


def test_main_reads_stdin_unless_an_input_path_is_parsed(tmp_path):
    """`main` decides from the parsed options: in `dim --output --input`
    the word "--input" is the output path, so the JSON comes on stdin."""
    payload = {"g": 2, "r": 2, "points": []}
    code, out, err = run_cli(["dim", "--output", "--input"], payload, cwd=tmp_path)
    assert (code, out, err) == (0, b"", b"")
    _, expected, _ = run_command(["dim"], json.dumps(payload).encode())
    assert expected and (tmp_path / "--input").read_bytes() == expected


def test_strata_subcommand():
    report = result_of(["strata"], STRATA_EXAMPLE)
    res = report["result"]
    assert res["num_indices"] == 4
    assert res["num_systems"] == 2
    point = res["per_point"][0]
    nonempty = [idx for idx in point["indices"] if idx["matrices"]]
    assert len(nonempty) == 2


def test_strata_flag_terms_match_stratum_dimension():
    """Every listed flag term is the point's share of the library's
    stratum dimension, and the counts are codim_report's."""
    for r in (2, 3, 4):
        for mults in [(r,)] + [(a, r - a) for a in range(1, r)]:
            weights = [Fraction(k, len(mults) + 1) for k in range(1, len(mults) + 1)]
            spec_points = {"p1": PointWeights.of(weights, mults)}
            for g in (2, 3):
                for d in [d for d in range(2, r + 1) if r % d == 0]:
                    point = {"weights": [str(w) for w in weights], "mults": list(mults)}
                    payload = {"g": g, "r": r, "d": d, "points": [point]}
                    res = result_of(["strata"], payload)["result"]
                    spec = ModuliSpec.of(g, r, spec_points)
                    base = (g - 1) * (r * r // d - 1)
                    listed = 0
                    for index in res["per_point"][0]["indices"]:
                        for mat in index["matrices"]:
                            entries = tuple(tuple(row) for row in mat["entries"])
                            assert mat["flag_term"] == stratum_dimension(spec, d, {"p1": entries}) - base
                            listed += 1
                    rep = codim_report(spec, d)
                    assert (res["num_indices"], res["num_systems"]) == (rep.num_indices, rep.num_systems)
                    assert listed == rep.num_systems


def test_reports_are_deterministic():
    for argv, payload in [
        (["codim"], CODIM_EXAMPLE),
        (["dim"], DIM_EXAMPLE),
        (["generic"], GENERIC_EXAMPLE),
        (["pushforward"], PUSH_EXAMPLE),
        (["descend"], DESCEND_EXAMPLE),
        (["flagcoh"], FLAGCOH_EXAMPLE),
        (["strata"], STRATA_EXAMPLE),
    ]:
        outputs = {run_json(argv, payload)[1] for _ in range(3)}
        assert len(outputs) == 1


def test_echo_roundtrip_is_idempotent():
    for argv, payload in [
        (["codim"], CODIM_EXAMPLE),
        (["dim"], DIM_EXAMPLE),
        (["generic"], GENERIC_EXAMPLE),
        (["pushforward"], PUSH_EXAMPLE),
        (["descend"], DESCEND_EXAMPLE),
        (["flagcoh"], FLAGCOH_EXAMPLE),
        (["strata"], STRATA_EXAMPLE),
        (["dim"], ELEVEN_POINTS_DIM),
        (["strata"], ELEVEN_POINTS_STRATA),
    ]:
        code, out, _ = run_json(argv, payload)
        assert code == 0
        echoed = json.loads(out.decode())["input"]
        if "points" in payload:
            assert echoed["points"] == payload["points"]
        code2, out2, _ = run_json(argv, echoed)
        assert code2 == 0
        assert out2 == out


def test_no_float_values_in_output():
    def walk(node):
        if isinstance(node, float):
            raise AssertionError(f"float leaked into output: {node}")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    for argv, payload in [(["codim"], CODIM_EXAMPLE), (["pushforward"], PUSH_EXAMPLE)]:
        _, out, _ = run_json(argv, payload)
        walk(json.loads(out.decode()))


def test_sweep_mode_writes_one_report_per_line():
    payload = {"g": [2], "r": [2], "max_points": 1, "max_flag_length": 2}
    code, out, err = run_json(["codim", "--sweep"], payload)
    assert code == 0, err
    lines = out.decode().strip().split("\n")
    assert len(lines) == 3  # no-point, one single-weight, one two-weight config
    for line in lines:
        rec = json.loads(line)
        assert rec["meets_bound"] is True


def test_sweep_skips_ranks_without_proper_divisors():
    base = {"g": [2], "max_points": 1, "max_flag_length": 2}
    _, out, _ = run_json(["codim", "--sweep"], {**base, "r": [2]})
    code, out2, err = run_json(["codim", "--sweep"], {**base, "r": [1, 2]})
    assert code == 0, err
    assert out2 == out
    for bad in (-3, 0):
        code, out3, err = run_json(["codim", "--sweep"], {**base, "r": [bad, 1, 2]})
        assert (code, out3) == (2, b"")
        assert err == b"error: $.r: rank values must be >= 1\n"


def test_sweep_ranges_are_not_materialized():
    """A {min, max} range is walked, not listed: a million-wide d range
    gives the bytes of the one divisor it holds, and neither it nor a
    million-wide g range over a rank without lines costs memory."""
    _, expected, _ = run_json(["codim", "--sweep"], {"g": [2], "r": [2], "d": [2]})
    wide = [
        ({"g": [2], "r": [2], "d": {"min": 2, "max": 10**6}}, expected),
        ({"g": {"min": 2, "max": 10**6}, "r": [1]}, b""),
    ]
    for payload, out in wide:
        tracemalloc.start()
        try:
            result = run_json(["codim", "--sweep"], payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, out, b"")
        assert peak < 4 * 2**20


SWEEP_ORACLE_PAYLOADS = [
    *({"g": [2], "r": [1, 2, 3, 4], "max_points": mp, "max_flag_length": ml}
      for mp in range(4) for ml in range(1, 5)),
    {"g": [3, 2, 3, 2], "r": [2, 6], "max_points": 1},
    {"g": {"min": 2, "max": 4}, "r": {"min": 1, "max": 6}, "max_points": 1, "max_flag_length": 2},
    {"g": [2, 3], "r": [4, 6], "d": [5, 3, 2, 4, 7], "max_points": 2, "max_flag_length": 2},
]


def _sweep_values(doc):
    """The values of a sweep range: a list, or {min, max} inclusive."""
    return sorted(set(doc)) if isinstance(doc, list) else range(doc["min"], doc["max"] + 1)


def _sweep_oracle(payload) -> list[str]:
    """The lines of a sweep built one configuration at a time, each from
    a fresh spec, echo and report, in the sweep's (g, r, d, system) order."""
    expected = []
    for g in _sweep_values(payload["g"]):
        for r in _sweep_values(payload["r"]):
            ds = range(2, r + 1) if payload.get("d") is None else _sweep_values(payload["d"])
            for d in [d for d in ds if d >= 2 and r % d == 0]:
                for points in multiplicity_systems(r, payload.get("max_points", 2), payload.get("max_flag_length", 3)):
                    report = codim_report(ModuliSpec.of(g, r, points), d)
                    line = {"g": g, "r": r, "d": d, "points": echo_points(points), **_codim_result(report)}
                    expected.append(_compact_json(line))
    return expected


@pytest.mark.parametrize("payload", SWEEP_ORACLE_PAYLOADS)
def test_sweep_lines_match_per_configuration_reports(payload):
    """Every sweep line equals the line built on its own, with a fresh
    spec, echo and report, in the sweep's (g, r, d, system) order; the
    work estimate counts exactly those lines."""
    code, out, err = run_json(["codim", "--sweep"], payload)
    assert code == 0, err
    expected = _sweep_oracle(payload)
    assert expected
    assert out.decode().split("\n") == expected + [""]
    work, lines = _sweep_estimate(*_parse_sweep(payload), MAX_SWEEP_WORK)
    assert lines == len(expected) <= work <= MAX_SWEEP_WORK


def test_table_counts_neither_recurse_nor_list_splits():
    """A point of 500 weights, and a sweep over r = 22 whose covers
    reach degree 22, each exit 0 quickly: the margin-table count takes
    one step per column and merges equal row remainders, with no
    recursion per weight and no list of every split of a column."""
    many = {"g": 2, "r": 500, "d": 2, "points": [{"weights": [f"{k}/501" for k in range(1, 501)], "mults": [1] * 500}]}
    code, out, err = run_json(["codim"], many)
    assert (code, err) == (0, b""), err
    assert json.loads(out)["result"]["num_systems"] == math.comb(500, 250)
    payload = {"g": [2], "r": [22], "max_points": 1, "max_flag_length": 2}
    start = time.perf_counter()
    code, out, err = run_json(["codim", "--sweep"], payload)
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, b""), err
    assert out.count(b"\n") == _sweep_estimate(*_parse_sweep(payload), MAX_SWEEP_WORK)[1]


def test_sweep_work_is_bounded():
    """A sweep whose work passes `MAX_SWEEP_WORK` exits 2 within a second,
    naming the field, with nothing on stdout: lines growing as 2**64, a
    rank whose divisors take 10**15 steps, one generating 5 * 10**9
    points, and 2**70 genera.  The limit is tested through the estimate,
    which admits the 170,786-line sweep without running it."""
    message = "error: %s: the sweep exceeds its work budget of %d divisor steps, points and lines\n"
    for payload, field in [
        ({"g": [2], "r": [2], "max_points": 64}, "$.max_points"),
        ({"g": [2], "r": [10**30], "max_points": 0}, "$.r"),
        ({"g": [2], "r": [100000], "max_points": 0}, "$.r"),
        ({"g": {"min": 2, "max": 2**70}, "r": [2]}, "$.g"),
        ({"g": [2], "r": {"min": 1, "max": 2**70}, "d": [2], "max_flag_length": 1}, "$.r"),
        ({"g": [2], "r": [3], "max_points": 2**70, "max_flag_length": 1}, "$.max_points"),
    ]:
        start = time.perf_counter()
        result = run_json(["codim", "--sweep"], payload)
        assert time.perf_counter() - start < 1, payload
        assert result == (2, b"", (message % (field, MAX_SWEEP_WORK)).encode()), payload
    big = _parse_sweep({"g": [2, 3], "r": {"min": 2, "max": 10}, "max_flag_length": 4})
    work, lines = _sweep_estimate(*big, MAX_SWEEP_WORK)
    assert (work, lines) == (18 + 384 + 170786, 170786)
    small = _parse_sweep({"g": {"min": 2, "max": 5}, "r": [2, 3, 4, 6]})
    work, lines = _sweep_estimate(*small, MAX_SWEEP_WORK)
    assert lines == 3844
    assert _sweep_estimate(*small, work) == (work, lines)
    for field, args in (("$.g", small), ("$.max_points", ([2],) + small[1:])):
        work = _sweep_estimate(*args, MAX_SWEEP_WORK)[0]
        with pytest.raises(ValidationError, match=rf"^\{field}: "):
            _sweep_estimate(*args, work - 1)


def _sweep_range(values, width, top):
    """A sweep range over `values`: a list, or {min, max} at most `width`
    wide and at most `top`."""
    spans = hs.tuples(values, hs.integers(0, width)).map(lambda t: {"min": t[0], "max": min(t[0] + t[1], top)})
    return hs.one_of(hs.lists(values, min_size=1, max_size=3), spans)


_SWEEP_PAYLOADS = hs.fixed_dictionaries(
    {
        # small genera meet g = 2, large ones give long ints in dim_M and bound
        "g": _sweep_range(hs.one_of(hs.integers(2, 4), hs.integers(2, 10**9)), 1, 10**9),
        "r": _sweep_range(hs.integers(1, 8), 2, 8),
    },
    optional={
        "d": hs.one_of(hs.none(), _sweep_range(hs.integers(-1, 9), 4, 9)),
        "max_points": hs.integers(0, 2),
        "max_flag_length": hs.integers(1, 3),
    },
)


@settings(max_examples=60)
@given(_SWEEP_PAYLOADS)
@example({"g": [2], "r": [2], "d": [2], "max_points": 2, "max_flag_length": 1})
@example({"g": {"min": 10**9 - 1, "max": 10**9}, "r": [8], "max_points": 1})
def test_sweep_lines_match_per_configuration_reports_on_random_payloads(payload):
    """The same oracle on random small sweeps, whose g = r = d = 2
    single-weight lines say codim_at_least_three is false."""
    code, out, err = run_json(["codim", "--sweep"], payload)
    assert (code, err) == (0, b""), err
    expected = _sweep_oracle(payload)
    assert out.decode() == "".join(line + "\n" for line in expected)
    assert _sweep_estimate(*_parse_sweep(payload), MAX_SWEEP_WORK)[1] == len(expected)


def test_sweep_line_is_one_report_and_one_format(monkeypatch):
    """On README's sweep, `_compact_json` encodes each generated point
    once per rank and nothing else, no line goes through the
    `_codim_result` dict, and each line takes exactly one `codim_report`."""
    import parastrata.cli as cli
    import parastrata.strata as strata

    encoder = _count_calls(monkeypatch, cli, ("_compact_json", "_codim_result"))
    reports = _count_calls(monkeypatch, strata, ("codim_report",))
    payload = {"g": {"min": 2, "max": 5}, "r": [1, 2, 3, 4, 6]}
    code, out, err = run_json(["codim", "--sweep"], payload)
    assert (code, err) == (0, b"")
    lines = out.count(b"\n")
    # compositions of r into 1..3 parts; r = 1 has no cover degree and no lines
    points = sum(math.comb(r - 1, k - 1) for r in (2, 3, 4, 6) for k in range(1, 4))
    assert encoder == {"_compact_json": points, "_codim_result": 0}
    assert reports == {"codim_report": lines}
    assert lines == 3844


def test_strata_listing_encodes_each_subset_once(monkeypatch):
    """On README's strata example and on every benchmark `STRATA_KEYS`
    key, `_report_json` encodes each distinct weight subset of a point
    once per request, at its depth in an index, and meets nothing else
    below the points' fields: no per-index dict, no matrix and no row."""
    import parastrata.cli as cli

    gen = benchmark_gen(monkeypatch)
    rng = random.Random(0)
    payloads = [STRATA_EXAMPLE] + [gen.strata_request(rng, key).payload for key in gen.STRATA_KEYS]
    report_json = cli._report_json
    calls = []

    def spy(o, ind="\n"):
        calls.append((len(ind) - 1, o))
        return report_json(o, ind)

    monkeypatch.setattr(cli, "_report_json", spy)
    for payload in payloads:
        calls.clear()
        result = result_of(["strata"], payload)["result"]
        q = payload["r"] // payload["d"]
        expected = [
            [point["weights"][k] for k in sub]
            for point in result["per_point"]
            for size in range(1, q + 1)
            for sub in itertools.combinations(range(len(point["weights"])), size)
        ]
        # depth 8 holds a point's fields, 10 their items; an index's fields are at 12
        assert not any(type(o) is dict and "subsets" in o for _, o in calls)
        deep = [(depth, o) for depth, o in calls if depth >= 12]
        assert {(depth, type(o)) for depth, o in deep} == {(14, list), (16, str)}
        encoded = [o for depth, o in deep if depth == 14]
        assert sorted(encoded) == sorted(expected)


def test_codim_and_sweep_bytes_are_pinned():
    """README's codim and strata examples and README's sweep, by the
    sha256 of stdout."""
    cases = [
        (["codim"], CODIM_EXAMPLE, "1693ae0ca5d988e9918123282dc9e672933ab7f1c9975ddbe7495f9a98728e49"),
        (["strata"], STRATA_EXAMPLE, "38a131d7a367db782772d44235147bcf1190a4289056f233407d329a9e313530"),
        (["codim", "--sweep"], {"g": {"min": 2, "max": 5}, "r": [2, 3, 4, 6]},
         "6dc488132414bd7d48b4d224a23fe7ab59a37fb75f06efdd2d86beaf4f278ea6"),
    ]
    for argv, payload, digest in cases:
        code, out, err = run_json(argv, payload)
        assert (code, err) == (0, b"")
        assert hashlib.sha256(out).hexdigest() == digest


def test_validation_failures_exit_two_with_clean_stdout():
    cases = [
        (["codim"], {"g": 2, "r": 2, "d": 3, "points": []}),
        (["codim"], {"g": 1, "r": 2, "d": 2, "points": []}),
        (["codim"], {"g": 2, "r": 2, "d": 2}),
        (["dim"], {"g": 2, "r": 2, "points": [{"weights": [0.25], "mults": [2]}]}),
        (["dim"], {"g": 2, "r": 2, "points": [{"weights": ["1/4"], "mults": [1]}]}),
        (["generic"], {"rank": 2, "degree": 0, "points": [{"weights": ["5/4"], "mults": [2]}]}),
        (["descend"], {"order": 2, "automorphism": [["1", "1"], ["0", "1"]], "flag": {"weights": ["1/2"], "subspaces": [[["1", "0"], ["0", "1"]]]}}),
        (["flagcoh"], {"type": [["D", 3]], "parabolics": [[]]}),
        (["flagcoh"], {"type": [["A", 2]], "parabolics": []}),
    ]
    for argv, payload in cases:
        code, out, err = run_json(argv, payload)
        assert code == 2, (argv, payload, err)
        assert out == b""
        assert err.startswith(b"error: ")


FUZZ_VALUES = [*range(-3, 13), "1/2", "3/2", "1/0", "x", 0.5, None, True, [], {}]
FUZZ_MUTATIONS = ["replace", "delete", "add", "wrap", "duplicate"]


@functools.cache
def seed_requests():
    """The first timed round of seed 0 of each benchmark workload, as
    lists of (argv, JSON text) pairs."""
    with pytest.MonkeyPatch.context() as mp:
        gen = benchmark_gen(mp)
        return [
            [(req.argv, json.dumps(req.payload)) for req in next(gen.streams(workload, 0)[0])]
            for workload in ("sweep", "descend", "requests")
        ]


def json_nodes(tree):
    """Every (parent, key, value) of a JSON tree, the root first with
    parent and key None."""
    found, stack = [], [(None, None, tree)]
    while stack:
        parent, key, value = stack.pop()
        found.append((parent, key, value))
        if isinstance(value, dict):
            stack.extend((value, k, v) for k, v in value.items())
        elif isinstance(value, list):
            stack.extend((value, i, v) for i, v in enumerate(value))
    return found


def mutate(data, payload):
    """Apply one drawn mutation to a JSON tree in place, if some node
    admits it."""
    kind = data.draw(hs.sampled_from(FUZZ_MUTATIONS))
    nodes = json_nodes(payload)
    if kind == "add":
        nodes = [node for node in nodes if isinstance(node[2], dict)]
    elif kind == "duplicate":
        nodes = [node for node in nodes if isinstance(node[2], list) and node[2]]
    elif kind == "delete":
        nodes = [node for node in nodes if isinstance(node[0], dict)]
    else:
        nodes = nodes[1:]  # all but the root
    if not nodes:
        return
    parent, key, value = data.draw(hs.sampled_from(nodes))
    if kind == "add":
        value["unknown"] = 1
    elif kind == "duplicate":
        i = data.draw(hs.integers(0, len(value) - 1))
        value.insert(i, copy.deepcopy(value[i]))
    elif kind == "delete":
        del parent[key]
    elif kind == "wrap":
        parent[key] = [value]
    else:
        parent[key] = copy.deepcopy(data.draw(hs.sampled_from(FUZZ_VALUES)))


def too_slow(signum, frame):
    pytest.fail("a request ran for more than 2 s")


@settings(max_examples=300, deadline=None)
@given(hs.data())
def test_mutated_benchmark_payloads_keep_the_exit_contract(data):
    """A benchmark payload with one to three mutations (a value replaced,
    a key deleted or added, a value wrapped in a list, a list entry
    duplicated) is either a report or a validation error: exit 0 with an
    empty stderr or exit 2 with an empty stdout, never an internal
    fault, and within 2 s."""
    argv, text = data.draw(hs.sampled_from(data.draw(hs.sampled_from(seed_requests()))))
    payload = json.loads(text)
    for _ in range(data.draw(hs.integers(1, 3))):
        mutate(data, payload)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        code, out, err = run_json(argv, payload)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2), err
    assert out == b"" if code == 2 else err == b""


def test_descend_error_messages_are_exact():
    whole = {"weights": ["1/4"], "subspaces": [[["1", "0"], ["0", "1"]]]}
    line = {"weights": ["1/4", "1/2"], "subspaces": [[["1", "0"], ["0", "1"]], [["1", "0"]]]}
    swap = [["0", "1"], ["1", "0"]]
    cases = [
        ({"order": 2, "automorphism": swap, "flag": line},
         b"error: $: automorphism does not preserve the flag\n"),
        ({"order": 2, "automorphism": [["1", "1"], ["0", "1"]], "flag": whole},
         b"error: $: matrix to the power 2 is not the identity\n"),
        ({"order": 3, "automorphism": swap, "flag": whole},
         b"error: $: matrix to the power 3 is not the identity\n"),
    ]
    for payload, message in cases:
        assert run_json(["descend"], payload) == (2, b"", message)


def test_descend_order_is_bounded():
    """An order above `MAX_DESCEND_ORDER` exits 2 naming `$.order` before
    any field is built (2**70 would not fit an index); the cap itself runs."""
    one = {"automorphism": [["1"]], "flag": {"weights": ["0"], "subspaces": [[["1"]]]}}
    message = b"error: $.order: expected an integer <= %d\n" % MAX_DESCEND_ORDER
    for order in (2**70, MAX_DESCEND_ORDER + 1):
        assert run_json(["descend"], dict(one, order=order)) == (2, b"", message)
    report = result_of(["descend"], dict(one, order=MAX_DESCEND_ORDER))
    assert report["input"]["order"] == MAX_DESCEND_ORDER


def test_strata_table_of_many_rows_needs_no_recursion():
    """A 3000 x 1 table is filled from an explicit stack: one weight of
    multiplicity 3000 at d = 3000 lists its one table, where a fill that
    recursed once per entry exited 1 with `RecursionError`."""
    payload = {"g": 2, "r": 3000, "d": 3000, "points": [{"weights": ["1/2"], "mults": [3000]}]}
    start = time.perf_counter()
    result = result_of(["strata"], payload)["result"]
    assert time.perf_counter() - start < 2
    assert result["num_indices"] == result["num_systems"] == 1


def test_strata_listing_is_bounded(monkeypatch):
    """A `strata` listing of more than `MAX_STRATA_INDICES` subset
    d-tuples, sum_p subset_count**d, exits 2 with nothing on stdout,
    naming the point that takes the count past it.  The four routes
    below wrote 68, 142 and 774 MB, or were still running at 15 s; each
    is refused before any table is enumerated."""

    def point(n, den, mult):
        return {"weights": [f"{k}/{den}" for k in range(1, n + 1)], "mults": [mult] * n}

    message = b"error: %s: the listing exceeds its budget of %d subset tuples\n"
    routes = [  # r, d, the point, its subset d-tuples
        (12, 3, point(6, 7, 2), 175_616),
        (10, 2, point(10, 11, 1), 405_769),
        (9, 3, point(9, 10, 1), 2_146_689),
        (12, 3, point(12, 13, 1), 498_677_257),
    ]
    for r, d, pt, tuples in routes:
        assert subset_count(len(pt["weights"]), r // d) ** d == tuples
        start = time.perf_counter()
        got = run_json(["strata"], {"g": 2, "r": r, "d": d, "points": [pt]})
        assert got == (2, b"", message % (b"$.points[0]", MAX_STRATA_INDICES))
        assert time.perf_counter() - start < 2
    # the count is summed over the points, and a listing at the cap runs:
    # README's example has 4 tuples, a one-weight point 1
    one = {"weights": ["1/2"], "mults": [2]}
    payloads = [
        ([CODIM_EXAMPLE["points"][0]] * 2, 7, b"$.points[1]"),
        ([CODIM_EXAMPLE["points"][0]] * 2, 8, None),
        ([one] * 3, 2, b"$.points[2]"),
        ([one] * 3, 3, None),
    ]
    for points, cap, named in payloads:
        monkeypatch.setattr("parastrata.cli.MAX_STRATA_INDICES", cap)
        code, out, err = run_json(["strata"], dict(CODIM_EXAMPLE, points=points))
        if named:
            assert (code, out, err) == (2, b"", message % (named, cap))
        else:
            listed = json.loads(out)["result"]["per_point"]
            assert code == 0 and sum(len(p["indices"]) for p in listed) == cap


def test_flagcoh_rank_is_bounded():
    """A type of total rank above `MAX_FLAGCOH_RANK` exits 2 naming
    `$.type`, with nothing on stdout: A_(2**70) would not fit an index
    and A_3000000000 would not fit in memory.  The cap itself runs."""
    message = b"error: $.type: expected a total rank <= %d\n" % MAX_FLAGCOH_RANK
    for comps in ([["A", 2**70]], [["A", 3000000000]], [["A", MAX_FLAGCOH_RANK + 1]],
                  [["A", MAX_FLAGCOH_RANK], ["A", 1]]):
        assert run_json(["flagcoh"], {"type": comps, "parabolics": [[1]]}) == (2, b"", message)
    report = result_of(["flagcoh"], {"type": [["B", MAX_FLAGCOH_RANK]], "parabolics": [[1]]})
    assert report["input"]["type"] == [["B", MAX_FLAGCOH_RANK]]


def test_parse_fraction_matches_fraction():
    big = "9" * 4000
    for s in ["0", "+0", "-0", "0/7", "-0/3", "007", "+007/9", "-12/8", "3/1", "1/4",
              big, "-" + big, big + "/7", "1/" + big, "-" + big + "/" + big]:
        value = parse_fraction(s, "$")
        assert type(value) is Fraction and value == Fraction(s), s


def test_rational_strings_are_ascii_and_end_at_the_end():
    """``$`` would accept a trailing newline and ``int`` any Unicode
    digit; the contract's form is ASCII numerator/denominator only."""
    for weight in ["1/4\n", "\u0661/4", "1/\u0664", "1_0/40", " 1/4", "1/04"]:
        payload = {"g": 2, "r": 1, "points": [{"weights": [weight], "mults": [1]}]}
        message = f"error: $.points[0].weights[0]: expected a rational string like \"3/4\", got {weight!r}\n"
        assert run_json(["dim"], payload) == (2, b"", message.encode())
    payload = {"g": 2, "r": 1, "points": [{"weights": ["1/" + "1" * 5000], "mults": [1]}]}
    assert run_json(["dim"], payload) == (
        2, b"", b"error: $.points[0].weights[0]: too many digits in a rational string\n")


def test_malformed_json_exits_two():
    code, out, err = run_command(["dim"], b"{not json")
    assert code == 2 and out == b""
    huge = b"1" * 5001  # past the int-to-str digit limit
    deep = b"[" * 100000 + b"]" * 100000
    for raw in [b"\xff{}", huge, b'{"g": ' + huge + b', "r": 2, "points": []}', deep]:
        code, out, err = run_command(["dim"], raw)
        assert code == 2 and out == b"", (raw[:20], err)
        assert err.startswith(b"error: invalid JSON input"), err
    for raw, key in [
        (b'{"g": 2, "g": 3, "r": 2, "points": []}', b"'g'"),
        (b'{"g": 2, "r": 2, "points": [{"weights": ["1/4"], "mults": [2], "mults": [2]}]}', b"'mults'"),
    ]:
        code, out, err = run_command(["dim"], raw)
        assert code == 2 and out == b""
        assert err.startswith(b"error: invalid JSON input") and key in err, err


def test_unknown_subcommand_and_options():
    code, _, err = run_command(["frobnicate"], b"")
    assert code == 2 and b"unknown subcommand" in err
    code, _, err = run_command(["dim", "--wat"], b"")
    assert code == 2 and b"unknown option" in err
    code, _, err = run_command(["dim", "--sweep"], b"")
    assert code == 2
    code, _, err = run_command([], b"")
    assert code == 2


def test_input_output_files(tmp_path):
    inp = tmp_path / "in.json"
    outp = tmp_path / "out.json"
    inp.write_text(json.dumps(DIM_EXAMPLE))
    code, out, err = run_command(["dim", "--input", str(inp), "--output", str(outp)])
    assert code == 0 and out == b""
    assert json.loads(outp.read_text())["result"] == {"dimension": 6}
    code, _, err = run_command(["dim", "--input", str(tmp_path / "missing.json")])
    assert code == 2


def test_help_exits_zero():
    code, out, _ = run_command(["--help"])
    assert code == 0
    assert b"usage" in out


# --- the report serializer against json's pure-Python indent=2 path -----------

_AWKWARD = '"\\/\x00\x08\x0c\x1f\x7f\x80\u2028\u2029\ufeff[]{},: \\u0000\u00e9\U0001f600\U0010ffff'
# joined lists draw far faster than hs.text over a mixed alphabet
_TEXT = hs.lists(hs.sampled_from(_AWKWARD) | hs.characters(), max_size=8).map("".join)
_LEAVES = hs.one_of(
    hs.none(),
    hs.booleans(),
    hs.integers(min_value=-(2**70), max_value=2**70),
    hs.integers(min_value=2**64),
    _TEXT,
)
_TREES = hs.recursive(
    _LEAVES,
    lambda kids: hs.one_of(
        hs.lists(kids, max_size=5),
        hs.lists(kids, max_size=5).map(tuple),
        hs.dictionaries(_TEXT, kids, max_size=5),
    ),
    max_leaves=40,
)


def expected_report(x):
    return json.dumps(x, indent=2, ensure_ascii=False)


@settings(max_examples=150)
@given(_TREES)
def test_report_json_matches_json_dumps(tree):
    assert _report_json(tree) == expected_report(tree)


def test_report_json_fixed_cases():
    deep = []
    for i in range(200):
        deep = {f"k{i}": [deep, (), {}, -i]}
    cases = [
        [], {}, (), [[]], {"": {}}, [(), [[], {}]], None, True, False, 0, -1, 2**64, -(2**200),
        "", '"\\', "\u2028\U0001f600", {"a": None, "b": [True, False], "c": ("x", 1)}, deep,
    ]
    for case in cases:
        assert _report_json(case) == expected_report(case)


class _Text(str):
    pass


@pytest.mark.parametrize(
    "bad", [Fraction(1, 2), 0.5, {1, 2}, b"x", {"a": [1, Fraction(3, 4)]}, [[0.0]], {1: 2}, _Text("x")]
)
def test_report_json_refuses_other_types(bad):
    with pytest.raises(TypeError):
        _report_json(bad)


# --- lone surrogates -------------------------------------------------------------

PUSH_ESCAPED = (
    '{"cover": {"degree": 2, "fibers": {"p": ["%s", "q2"]}}, "datum": {"rank": 1, "degree": 0, '
    '"points": {"%s": {"weights": ["1/4"], "mults": [1]}, "q2": {"weights": ["1/2"], "mults": [1]}}}}'
)


@pytest.mark.parametrize(
    "argv, raw, bad",
    [
        (["dim"], r'{"g": 2, "r": 1, "points": [], "\ud800": 1}', r"\ud800"),
        (["dim"], r'{"g": 2, "r": 1, "points": [{"weights": ["1/2"], "mults": [1], "a\udfff": 0}]}', r"\udfff"),
        (["dim"], r'{"g": 2, "r": 1, "points": [{"weights": ["x\udc00"], "mults": [1]}]}', r"\udc00"),
        (["pushforward"], PUSH_ESCAPED % (r"\ud800", "q1"), r"\ud800"),
        (["pushforward"], PUSH_ESCAPED % ("q1", r"\ud800"), r"\ud800"),
        (["pushforward"], PUSH_ESCAPED % (r"\ude00\ud83d", "q1"), r"\ude00"),
        (["codim", "--sweep"], r'{"g": [2], "r": [2], "\udbff": 1}', r"\udbff"),
    ],
)
def test_lone_surrogate_exits_two(argv, raw, bad):
    code, out, err = run_command(argv, raw.encode())
    assert (code, out) == (2, b"")
    assert err == f"error: invalid JSON input: lone surrogate {bad}\n".encode()


@pytest.mark.parametrize("wide", ["[" + ",".join(["0"] * 5000) + "]", json.dumps({str(i): 0 for i in range(5000)})])
@pytest.mark.parametrize("tail", [r"\u0041", r"\ud800"])
def test_surrogate_check_is_linear_in_the_input(wide, tail):
    # a long key over a wide container: the check must not copy the key per child
    raw = '{"g": 2, "r": 1, "points": [], "%s": %s, "x": "%s"}' % ("k" * 10_000, wide, tail)
    tracemalloc.start()
    try:
        code, out, err = run_command(["dim"], raw.encode())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: ")
    assert peak < 4 * 2**20


def test_surrogate_pair_and_escaped_backslash_are_echoed():
    for ident, text in [(r"\ud83d\ude00", "\U0001f600"), (r"\\ud800", "\\ud800"), (r"\u00e9", "\u00e9")]:
        code, out, err = run_command(["pushforward"], (PUSH_ESCAPED % (ident, ident)).encode())
        assert code == 0, err
        report = json.loads(out.decode())
        assert report["input"]["cover"]["fibers"]["p"] == [text, "q2"]
        assert text in report["input"]["datum"]["points"]
        assert out == (expected_report(report) + "\n").encode()
        assert run_command(["pushforward"], json.dumps(report["input"]).encode())[1] == out


# phi = diag(zeta_3, 1) and the flag V_0 = <(1, 0), (1/2, 1)> > V_1 = <(1, 0)>,
# written in non-canonical forms that repeat across the request
NONCANONICAL_DESCEND = {
    "order": 3,
    "automorphism": [[["0", "1"], "-0"], ["-0", ["1", "0"]]],
    "flag": {
        "weights": ["-0", "2/4"],
        "subspaces": [[["+1", "-0"], ["2/4", ["1", "0"]]], [["+1", ["-0"]]]],
    },
}


def test_descend_echoes_repeated_scalars_canonically():
    """Each distinct raw scalar of a request is parsed and echoed once;
    repeats, in any form, echo as the canonical string of their value."""
    report = result_of(["descend"], NONCANONICAL_DESCEND)
    assert report["input"] == {
        "order": 3,
        "automorphism": [[["0", "1"], "0"], ["0", "1"]],
        "flag": {"weights": ["0", "1/2"], "subspaces": [[["1", "0"], ["1/2", "1"]], [["1", "0"]]]},
    }
    assert report["result"]["matrix"] == [[0, 1], [0, 0], [1, 0]]
    code, out, _ = run_json(["descend"], report["input"])
    assert code == 0 and json.loads(out) == report


def test_repeated_bad_scalar_fails_at_its_first_path():
    for order, bad, first, message in [
        (2, "x", "$.automorphism[0][1]", "expected a rational string like \"3/4\", got 'x'"),
        (3, ["1", "x"], "$.automorphism[0][1][1]", "expected a rational string like \"3/4\", got 'x'"),
        (3, ["1", "0", "0"], "$.automorphism[0][1]", "at most 2 power-basis coefficients allowed"),
    ]:
        payload = {
            "order": order,
            "automorphism": [["1", bad], [bad, "1"]],
            "flag": {"weights": ["0"], "subspaces": [[["1", bad], ["0", "1"]]]},
        }
        assert run_json(["descend"], payload) == (2, b"", f"error: {first}: {message}\n".encode())


def test_descend_parses_each_string_once(monkeypatch):
    """Within a request each distinct string is parsed once, whether it
    is a scalar or a power-basis coefficient: on README's example, the
    non-canonical one above and the benchmark's seed-0 round."""
    import parastrata.cli as cli

    rounds, _ = benchmark_gen(monkeypatch).streams("descend", 0)
    parsed = []
    ratio = cli._ratio
    monkeypatch.setattr(cli, "_ratio", lambda x, path: parsed.append(x) or ratio(x, path))
    for payload in [DESCEND_EXAMPLE, NONCANONICAL_DESCEND] + [req.payload for req in next(rounds)]:
        field, scalars = cyclotomic_field(payload["order"]), {}
        matrices = [payload["automorphism"], *payload["flag"]["subspaces"]]
        parsed.clear()
        for m in matrices:
            parse_matrix(m, "$", field, scalars)
        strings = [c for m in matrices for row in m for x in row for c in (x if isinstance(x, list) else [x])]
        assert sorted(parsed) == sorted(set(strings)), payload


def test_scalars_are_parsed_per_request():
    """The same strings in requests over Q and over Q(zeta_3) give each
    request its own field's elements, in either order."""
    flag = {"weights": ["0"], "subspaces": [[["1", "0"], ["0", "1"]]]}
    swap = {"order": 2, "automorphism": [["0", "1"], ["1", "0"]], "flag": flag}
    rotate = {"order": 3, "automorphism": [[["0", "1"], "0"], ["0", "1"]], "flag": flag}
    first = [run_json(["descend"], payload) for payload in (swap, rotate)]
    assert [code for code, _, _ in first] == [0, 0]
    assert json.loads(first[1][1])["result"]["matrix"] == [[1], [0], [1]]
    assert [run_json(["descend"], payload) for payload in (rotate, swap)] == first[::-1]
    assert run_json(["descend"], dict(swap, order=3)) == (
        2, b"", b"error: $: matrix to the power 3 is not the identity\n")


# --- descend's residue parse against the Cyclotomic path -------------------------

# every order the descend benchmark draws, and the rationals
_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12, 15, 16, 18, 20, 24, 30)
_RATIONAL_STRINGS = hs.builds(
    lambda sign, num, den: f"{sign}{num}" + (f"/{den}" if den else ""),
    hs.sampled_from(["", "+", "-"]),
    hs.from_regex(r"[0-9]{1,3}", fullmatch=True),
    hs.one_of(hs.none(), hs.integers(1, 60)),
)
_RAW_SCALARS = hs.one_of(_RATIONAL_STRINGS, hs.integers(-50, 50), hs.lists(_RATIONAL_STRINGS, max_size=8))


@settings(max_examples=120)
@given(hs.sampled_from(_ORDERS), hs.lists(_RAW_SCALARS, min_size=1, max_size=6))
@example(3, ["+007/9", "-0/3", ["+007/9", "-0/3"], ["1/2", "1/3"], ["0", "2/4"], []])
@example(12, [["1/6", "-5/10", "0", "3/9"], ["0", "0", "0", "0"], "-12/8"])
@example(30, [["1"] * 8, ["0", "1", "0", "0", "0", "0", "0", "-1"]])
def test_residue_parse_matches_the_cyclotomic_path(order, raw):
    """Each scalar that fits the field parses to the residue and
    denominator of the ``Cyclotomic`` that ``field.element`` or
    ``from_rational`` make of its ``Fraction`` values, and echoes as the
    old ``scalar_json`` of that element; a row of them is the same
    ``ExactMatrix`` either way."""
    field = cyclotomic_field(order)
    raw = [x for x in raw if not isinstance(x, list) or len(x) <= field.degree]
    if not raw:
        return
    for x in raw:
        num, den = parse_scalar(x, "$", field)
        value = scalar_value(x, field)
        assert (num, den) == ((value.num, value.den) if value else (None, 1)), x
        assert scalar_echo(num, den) == scalar_json(value), x
    rows, echo = parse_matrix([raw], "$", field, {})
    values = [scalar_value(x, field) for x in raw]
    assert ExactMatrix.from_residues(field, rows) == ExactMatrix.from_rows(field, [values])
    assert echo == [[scalar_json(v) for v in values]]


def test_descend_parse_flag_and_counts_build_no_cyclotomic(monkeypatch):
    """From the JSON to the rank, descend keeps its matrices in integer
    residues: on README's example and the benchmark's seed-0 round, the
    parse, the flag's checks and the level counts build no ``Cyclotomic``.
    Only the automorphism's order check does, around the Hessenberg
    form's pivot inverses."""
    import parastrata.eigenflag as ef

    rounds, _ = benchmark_gen(monkeypatch).streams("descend", 0)
    payloads = [DESCEND_EXAMPLE] + [req.payload for req in next(rounds)]
    fields = {p["order"]: cyclotomic_field(p["order"]) for p in payloads}
    built = [0]
    init = Cyclotomic.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Cyclotomic, "__init__", counted)
    order_check = 0
    for payload in payloads:
        order, field, scalars = payload["order"], fields[payload["order"]], {}
        rows = parse_matrix(payload["automorphism"], "$", field, scalars)[0]
        subspaces = [parse_matrix(sub, "$", field, scalars)[0] for sub in payload["flag"]["subspaces"]]
        weights = [parse_fraction(w, "$") for w in payload["flag"]["weights"]]
        assert built == [0], payload
        phi = ef.FlagAutomorphism(ExactMatrix.from_residues(field, rows))
        order_check += built[0]
        built[0] = 0
        flag = ef.WeightedFlag([ExactMatrix.from_residues(field, sub) for sub in subspaces], weights)
        ef.descend(phi, flag)
        assert built == [0], payload
    assert order_check > 0


# --- descend corpus: bytes pinned across changes to the descend path ------------


def _scalars(matrix):
    return [(row, j) for row in matrix for j in range(len(row))]


def _noncanonical(s):
    """The same scalar in non-canonical strings: "-0", "+k", "2k/2", "2a/2b"."""
    if isinstance(s, list):
        return [_noncanonical(c) for c in s]
    if not isinstance(s, str):
        return s
    if s == "0":
        return "-0"
    if "/" in s:
        num, den = s.split("/")
        return f"{2 * int(num)}/{2 * int(den)}"
    return f"{2 * int(s)}/2" if s.startswith("-") else "+" + s


def _rewrite(payload, fn):
    for m in [payload["automorphism"], *payload["flag"]["subspaces"]]:
        for row, j in _scalars(m):
            row[j] = fn(row[j])
    return payload


def _random_row(rng, n):
    return [str(rng.randint(-3, 3)) for _ in range(n)]


def _mutations():
    """Seeded edits of a valid descend payload, each returning the edited
    payload or None where it does not apply; together they reach every
    message of the descend path."""

    def entry(p, rng):
        row, j = rng.choice(_scalars(p["automorphism"]))
        row[j] = str(rng.choice([-2, -1, 1, 2, 3]))
        return p

    def drop_row(p, rng):
        p["automorphism"].pop()
        return p

    def ragged(p, rng):
        p["automorphism"][-1].append("0")
        return p if len(p["automorphism"]) > 1 else None

    def floating(p, rng):
        row, j = rng.choice(_scalars(p["automorphism"]))
        row[j] = 0.5
        return p

    def bad_twice(p, rng):
        cells = _scalars(p["automorphism"])
        if len(cells) < 2:
            return None
        for i in rng.sample(range(len(cells)), 2):
            row, j = cells[i]
            row[j] = "1/0"
        return p

    def too_many_coefficients(p, rng):
        row, j = rng.choice(_scalars(p["automorphism"]))
        row[j] = ["1"] * 9
        return p

    def too_many_digits(p, rng):
        row, j = rng.choice(_scalars(p["flag"]["subspaces"][-1]))
        row[j] = "1/" + "1" * 5000
        return p

    def noncanonical(p, rng):
        return _rewrite(p, _noncanonical)

    def as_lists(p, rng):
        return _rewrite(p, lambda s: [s, "0"] if isinstance(s, str) and p["order"] > 2 else s)

    def as_ints(p, rng):
        return _rewrite(p, lambda s: int(s) if isinstance(s, str) and "/" not in s else s)

    def int_then_bool(p, rng):  # True == 1 and hash(True) == hash(1)
        as_ints(p, rng)["flag"]["subspaces"][-1][-1][-1] = True
        return p

    def int_then_float(p, rng):  # 1.0 == 1 and hash(1.0) == hash(1)
        as_ints(p, rng)["flag"]["subspaces"][-1][-1][-1] = 1.0
        return p

    def weights_reversed(p, rng):
        p["flag"]["weights"].reverse()
        return p if len(p["flag"]["weights"]) > 1 else None

    def weight_one(p, rng):
        p["flag"]["weights"][-1] = "1"
        return p

    def drop_weight(p, rng):
        p["flag"]["weights"].pop()
        return p

    def no_subspaces(p, rng):
        p["flag"] = {"weights": [], "subspaces": []}
        return p

    def narrow_last(p, rng):
        subs = p["flag"]["subspaces"]
        for row in subs[-1]:
            row.pop()
        return p if len(subs) > 1 and len(subs[-1][0]) else None

    def grow_phi(p, rng):
        m = p["automorphism"]
        for row in m:
            row.append("0")
        m.append(["0"] * (len(m[0]) - 1) + ["1"])
        return p

    def dependent(p, rng):
        subs = [s for s in p["flag"]["subspaces"] if len(s) > 1]
        if not subs:
            return None
        s = rng.choice(subs)
        s[-1] = list(s[0])
        return p

    def not_full(p, rng):
        if len(p["flag"]["subspaces"]) < 2:
            return None
        p["flag"]["subspaces"].pop(0)
        p["flag"]["weights"].pop(0)
        return p

    def repeat_level(p, rng):
        p["flag"]["subspaces"].append(json.loads(json.dumps(p["flag"]["subspaces"][-1])))
        p["flag"]["weights"].append("99/100")
        return p

    def break_containment(p, rng):
        subs = p["flag"]["subspaces"]
        if len(subs) < 3:
            return None
        subs[2][0] = _random_row(rng, len(subs[0]))
        return p

    def not_invariant(p, rng):
        subs = p["flag"]["subspaces"]
        if len(subs) < 2:
            return None
        subs[1][-1] = _random_row(rng, len(subs[0]))
        return p

    def double_order(p, rng):
        p["order"] *= 2
        return p

    def order_zero(p, rng):
        p["order"] = 0
        return p

    def missing_key(p, rng):
        del p["flag"]
        return p

    def extra_key(p, rng):
        p["flag"]["extra"] = 1
        return p

    def empty_matrix(p, rng):
        p["automorphism"] = []
        return p

    def empty_rows(p, rng):
        p["flag"]["subspaces"][0] = [[] for _ in p["flag"]["subspaces"][0]]
        return p

    def not_object(p, rng):
        return [p]

    def not_array(p, rng):
        p["flag"]["weights"] = "1/2"
        return p

    return [v for k, v in sorted(locals().items())]


# taken before the simple-root shortcut, the V_0 skip and the per-request scalar dict
DESCEND_CORPUS_DIGEST = "e4a339fa684c51043fd1b4d6997e0743f7210a5857f0f68f3774f3022ac673e9"

# every message of the descend path that an input can reach
DESCEND_MESSAGES = (
    "expected an object", "expected an array", "missing required field", "unknown field",
    "expected an integer >= 1", "matrix must be nonempty", "matrix rows must be nonempty",
    "ragged matrix", "power-basis coefficients allowed", "expected a rational string like",
    "floats are not accepted", "too many digits",
    "automorphism matrix must be square", "is not the identity",
    "a flag needs at least one subspace", "one weight per subspace is required", "outside [0, 1)",
    "weights must be strictly increasing", "subspace bases must share the ambient dimension",
    "subspace basis rows are not independent", "the first subspace must be the full ambient space",
    "subspace dimensions must strictly decrease", "each subspace must contain the next one",
    "automorphism dimension does not match the flag", "automorphism does not preserve the flag",
)


def test_descend_corpus_digest(monkeypatch):
    """``descend``'s exit codes, stdout and stderr on a fixed corpus hash
    to a pinned digest: benchmark seed 3 (warm-up and one round) under
    both conventions, and seeded edits of each request that reach every
    message of the descend path.  A change to the descend path must
    leave all of these bytes as they are."""
    rounds, warmup = benchmark_gen(monkeypatch).streams("descend", 3)
    requests = warmup + next(rounds)
    mutations = _mutations()
    digest = hashlib.sha256()
    seen = set()
    codes = [0, 0]
    for k, req in enumerate(requests):
        cases = [(["descend", "--convention", c], req.payload) for c in ("strict", "non-strict")]
        rng = random.Random(f"descend-corpus/{k}")
        for mutate in mutations:
            edited = mutate(json.loads(json.dumps(req.payload)), rng)
            if edited is not None:
                cases.append((req.argv, edited))
        for argv, payload in cases:
            code, out, err = run_json(argv, payload)
            assert code in (0, 2), err
            codes[code // 2] += 1
            seen.update(m for m in DESCEND_MESSAGES if m.encode() in err)
            digest.update(b"%d\0%d\0%b%d\0%b" % (code, len(out), out, len(err), err))
    assert seen == set(DESCEND_MESSAGES), set(DESCEND_MESSAGES) - seen
    assert min(codes) > 0
    assert digest.hexdigest() == DESCEND_CORPUS_DIGEST


# --- strata listings: bytes pinned, and checked against the tree-built report ---


def _strata_edits():
    """Seeded invalid edits of a valid strata payload, each returning the
    edited payload: a cover degree that does not divide the rank,
    multiplicities that do not sum to it, an unknown field, a bad weight."""

    def d_not_dividing(p, rng):
        p["d"] = rng.choice([d for d in range(2, p["r"] + 2) if p["r"] % d])
        return p

    def mults_off(p, rng):
        point = rng.choice(p["points"])
        point["mults"][rng.randrange(len(point["mults"]))] += 1
        return p

    def unknown_field(p, rng):
        rng.choice([p, *p["points"]])["extra"] = 1
        return p

    def bad_weight(p, rng):
        point = rng.choice(p["points"])
        k = rng.randrange(len(point["weights"]))
        point["weights"][k] = rng.choice(["1/0", "x", "1//2", " 1/2", "1/2\n", "٣/4", 0.5])
        return p

    return [d_not_dividing, mults_off, unknown_field, bad_weight]


STRATA_MESSAGES = (
    "does not divide rank", "multiplicities sum to", "unknown field",
    "expected a rational string like", "floats are not accepted",
)

# taken before strata listings were written from parts encoded once per point
STRATA_CORPUS_DIGEST = "706a2bdb3769bc569401606bd917b252208cbeae51f6166134c439b5458dc4e1"


def _strata_corpus(monkeypatch):
    """Benchmark ``requests`` seed 3's strata payloads, the warm-up's and
    one per `STRATA_KEYS` key, then the points of those with the same
    (r, d) as one multi-point payload each, then two multi-point examples."""
    gen = benchmark_gen(monkeypatch)
    rounds, warmup = gen.streams("requests", 3)
    payloads = [req.payload for req in warmup if req.kind == "strata"]
    keys = set()
    while len(keys) < len(gen.STRATA_KEYS):
        for req in next(rounds):
            if req.kind == "strata":
                p = req.payload
                keys.add((p["r"], p["d"], tuple(p["points"][0]["mults"])))
                payloads.append(p)
    merged = {}
    for p in payloads[1:]:
        merged.setdefault((p["r"], p["d"]), dict(p, points=[]))["points"] += p["points"]
    return payloads + list(merged.values()) + [ELEVEN_POINTS_STRATA, dict(STRATA_EXAMPLE, e=-3)]


def test_strata_corpus_digest(monkeypatch):
    """``strata``'s exit codes, stdout and stderr on a fixed corpus hash
    to a pinned digest: every benchmark strata key, multi-point payloads
    and seeded invalid edits of each.  A change to how listings are
    written must leave all of these bytes as they are."""
    edits = _strata_edits()
    digest = hashlib.sha256()
    seen = set()
    codes = [0, 0]
    for k, payload in enumerate(_strata_corpus(monkeypatch)):
        rng = random.Random(f"strata-corpus/{k}")
        cases = [payload] + [edit(json.loads(json.dumps(payload)), rng) for edit in edits]
        for case in cases:
            code, out, err = run_json(["strata"], case)
            assert code in (0, 2), err
            codes[code // 2] += 1
            seen.update(m for m in STRATA_MESSAGES if m.encode() in err)
            digest.update(b"%d\0%d\0%b%d\0%b" % (code, len(out), out, len(err), err))
    assert seen == set(STRATA_MESSAGES), set(STRATA_MESSAGES) - seen
    assert min(codes) > 0
    assert digest.hexdigest() == STRATA_CORPUS_DIGEST


# (r, d) with d >= 2 dividing r, for r in 1..8
_STRATA_RD = [(r, d) for r in range(1, 9) for d in range(2, r + 1) if r % d == 0]


def _strata_max_length(r, d):
    """The longest point of rank r, at most min(r, 4) weights, with at
    most 4096 subset d-tuples: the oracle builds a dict per tuple."""
    return max(n for n in range(1, min(r, 4) + 1) if subset_count(n, r // d) ** d <= 4096)


@hs.composite
def _strata_points(draw, r, length):
    """A point of rank r with `length` weights: distinct rationals in
    [0, 1), some with long numerators and denominators, and a
    composition of r into `length` parts."""
    den = hs.one_of(hs.integers(1, 12), hs.integers(1, 10**40))
    fracs = den.flatmap(lambda b: hs.integers(0, b - 1).map(lambda a: Fraction(a, b)))
    weights = draw(hs.lists(fracs, min_size=length, max_size=length, unique=True))
    cuts = draw(hs.lists(hs.integers(1, r - 1), min_size=length - 1, max_size=length - 1, unique=True))
    edges = [0, *sorted(cuts), r]
    return {"weights": [str(w) for w in sorted(weights)], "mults": [b - a for a, b in zip(edges, edges[1:])]}


@hs.composite
def _strata_payloads(draw):
    r, d = draw(hs.sampled_from(_STRATA_RD))
    lengths = hs.integers(1, _strata_max_length(r, d))
    points = draw(hs.lists(lengths.flatmap(lambda n: _strata_points(r, n)), max_size=3))
    return {"g": draw(hs.integers(2, 5)), "r": r, "d": d, "e": draw(hs.integers(-6, 6)), "points": points}


@settings(max_examples=80)
@given(_strata_payloads())
@example(ELEVEN_POINTS_STRATA)
@example({"g": 3, "r": 8, "d": 8, "points": [{"weights": ["0", "1/2"], "mults": [7, 1]}] * 2})
def test_strata_listing_matches_tree_built_report(payload):
    """The listing's bytes equal the tree-built report's on random
    payloads: 0-3 points, long weights, every (r, d) up to r = 8, and
    eleven points, whose ids p10 and p11 sort before p2."""
    assert run_json(["strata"], payload) == (0, strata_report_oracle(payload), b"")


def test_strata_listing_without_matrices_matches_tree_built_report(monkeypatch):
    """Every valid point has a margin table, so here `point_systems`
    drops them all: indices without matrices are written as the
    tree-built report writes them, as at a point with no table at all."""
    import parastrata.strata as strata

    systems = strata.point_systems
    monkeypatch.setattr(strata, "point_systems", lambda *a: ((t, []) for t, _ in systems(*a)))
    rank_four = {"g": 2, "r": 4, "d": 4, "points": [{"weights": ["0", "1/3", "2/3"], "mults": [2, 1, 1]}] * 2}
    for payload in (STRATA_EXAMPLE, ELEVEN_POINTS_STRATA, rank_four):
        code, out, err = run_json(["strata"], payload)
        assert (code, err) == (0, b"")
        assert b'"matrices": []' in out and b'"flag_term"' not in out
        assert out == strata_report_oracle(payload)


# --- flagcoh: bytes pinned on benchmark-sized and large types -------------------

# taken before the Poincare polynomials were built as q-integer ratios
FLAGCOH_CORPUS_DIGEST = "1c1dd23d8dc3a64b0d8e8bf3ff0fa7eb8d81059a40795efd8b7691a5c3807b4b"

# types of total rank 12 to 50, beyond the benchmark's 8
_FLAGCOH_LARGE_TYPES = (
    [("A", 50)], [("B", 12), ("G", 2)], [("C", 10), ("D", 9)], [("E", 8), ("F", 4)], [("A", 3), ("E", 6), ("E", 7)],
)


def _flagcoh_corpus(monkeypatch):
    """Benchmark ``requests`` seed 3's flagcoh payloads, the warm-up's
    and the first 200 of the timed rounds, then each large type with
    A_50's parabolics [1] and [2] and two seeded parabolics per type."""
    rounds, warmup = benchmark_gen(monkeypatch).streams("requests", 3)
    payloads = [req.payload for req in warmup if req.kind == "flagcoh"]
    while len(payloads) < 201:
        payloads += [req.payload for req in next(rounds) if req.kind == "flagcoh"]
    payloads.append({"type": [["A", 50]], "parabolics": [[1], [2]]})
    rng = random.Random("flagcoh-corpus")
    for comps in _FLAGCOH_LARGE_TYPES:
        parabolics = [[sorted(rng.sample(range(1, n + 1), rng.randint(0, n))) for _, n in comps] for _ in range(2)]
        payloads.append({"type": [list(c) for c in comps], "parabolics": parabolics})
    return payloads


def test_flagcoh_corpus_digest(monkeypatch):
    """``flagcoh``'s exit codes, stdout and stderr on a fixed corpus hash
    to a pinned digest: benchmark-sized requests and types up to rank 50.
    A change to how Poincare polynomials are built must leave all of
    these bytes as they are."""
    digest = hashlib.sha256()
    for payload in _flagcoh_corpus(monkeypatch):
        code, out, err = run_json(["flagcoh"], payload)
        assert code == 0, err
        digest.update(b"%d\0%d\0%b%d\0%b" % (code, len(out), out, len(err), err))
    assert digest.hexdigest() == FLAGCOH_CORPUS_DIGEST


def test_flagcoh_large_type_runs_fast():
    """A_100 with parabolics [1] and [2], about 4 MB of report, within 5 s:
    each factor has degree 5049, the 5050 positive roots less the Levi
    A_1's one, and their product twice that."""
    start = time.perf_counter()
    report = result_of(["flagcoh"], {"type": [["A", 100]], "parabolics": [[1], [2]]})
    assert time.perf_counter() - start < 5
    assert len(report["result"]["poincare_F"]) == 2 * 5049 + 1
