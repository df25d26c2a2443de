"""Output checks for the parastrata benchmark.

Each check takes a generated request and the (exit code, stdout,
stderr) of its run and returns None when the output is right, else a
one-line reason.  Facts are recomputed here with Fraction and integer
arithmetic; nothing is imported from parastrata.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from gen import flag_dimension, frac_str

# degrees of the fundamental invariants; their product is |W|
_DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B": lambda n: range(2, 2 * n + 1, 2),
    "C": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: list(range(2, 2 * n - 1, 2)) + [n],
    "E": lambda n: {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18), 8: (2, 8, 12, 14, 18, 20, 24, 30)}[n],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}


def check(req, code: int, out: bytes, err: bytes) -> str | None:
    if code != 0:
        return f"exit {code}: {err[:200]!r}"
    if err:
        return f"stderr not empty: {err[:200]!r}"
    try:
        if req.kind == "sweep":
            return _check_sweep(req, [json.loads(line) for line in out.decode().splitlines()])
        doc = json.loads(out)
    except ValueError as exc:
        return f"stdout does not parse: {exc}"
    if doc.get("subcommand") != req.argv[0]:
        return "wrong subcommand in report"
    return _CHECKS[req.kind](req, doc["result"])


def _check_sweep(req, lines) -> str | None:
    if len(lines) != req.expect["lines"]:
        return f"{len(lines)} lines, expected {req.expect['lines']}"
    for line in lines:
        if line.get("meets_bound") is not True:
            return f"configuration misses the bound: {line}"
        if line["codim"] is not None and line["codim"] != line["dim_M"] - line["max_stratum_dim"]:
            return f"codim is not dim_M - max_stratum_dim: {line}"
    return None


def _check_descend(req, res) -> str | None:
    ex = req.expect
    dims = [f["dim"] for f in res["fibers"]]
    if sum(dims) != ex["rank"]:
        return f"fiber dims {dims} do not sum to rank {ex['rank']}"
    matrix = res["matrix"]
    if [sum(col) for col in zip(*matrix)] != ex["mults"]:
        return f"matrix column sums differ from flag multiplicities {ex['mults']}"
    if matrix != ex["matrix"]:
        return f"multiplicity matrix {matrix}, expected {ex['matrix']}"
    if dims != [sum(row) for row in ex["matrix"]]:
        return "fiber dims differ from the generated eigenvalue counts"
    if res["fixed_point_shape"] != ex["fixed_point_shape"]:
        return "fixed_point_shape differs"
    if res["flag_endomorphism"]["holds"] != ex["holds"]:
        return "flag_endomorphism verdict differs"
    return None


def _check_dim(req, res) -> str | None:
    if res["dimension"] != req.expect["dimension"]:
        return f"dimension {res['dimension']}, expected {req.expect['dimension']}"
    return None


def _check_generic(req, res) -> str | None:
    ex = req.expect
    rank, points = ex["rank"], ex["points"]
    par_deg = ex["degree"] + sum((m * w for ws, ms in points for w, m in zip(ws, ms)), Fraction(0))
    slope = par_deg / rank

    def equal_slope(sub_rank, vecs):
        wsum = sum((n * w for (ws, _), vec in zip(points, vecs) for w, n in zip(ws, vec)), Fraction(0))
        return (sub_rank * slope - wsum).denominator == 1

    witness = res["witness"]
    if witness is None:
        for sub_rank in range(1, rank):
            per_point = [
                [v for v in itertools.product(*(range(m + 1) for m in ms)) if sum(v) == sub_rank]
                for _, ms in points
            ]
            if any(equal_slope(sub_rank, vecs) for vecs in itertools.product(*per_point)):
                return "reported generic, but an equal-slope sub-datum exists"
        return None if res["generic"] is True else "generic flag without witness"
    sub_rank = witness["sub_rank"]
    vecs = [witness["sub_multiplicities"][f"p{i + 1}"] for i in range(len(points))]
    if res["generic"] is not False or not 1 <= sub_rank < rank:
        return "malformed witness"
    for vec, (_, ms) in zip(vecs, points):
        if sum(vec) != sub_rank or any(not 0 <= n <= m for n, m in zip(vec, ms)):
            return f"witness multiplicities {vec} not admissible for {ms}"
    wsum = sum((n * w for (ws, _), vec in zip(points, vecs) for w, n in zip(ws, vec)), Fraction(0))
    if witness["sub_degree"] + wsum != sub_rank * slope:
        return "witness slope differs"
    return None


def _check_codim(req, res) -> str | None:
    ex = req.expect
    for key in ("dim_M", "num_indices"):
        if res[key] != ex[key]:
            return f"{key} {res[key]}, expected {ex[key]}"
    if res["bound"] != frac_str(ex["bound"]) or res["delta"] != ex["delta"]:
        return "bound or delta differs"
    if res["max_stratum_dim"] is None:
        return "no stratum found"
    codim = ex["dim_M"] - res["max_stratum_dim"]
    if res["codim"] != codim or res["max_stratum_dim"] < ex["base"]:
        return "codim inconsistent with dim_M and max_stratum_dim"
    if res["meets_bound"] != (codim >= ex["bound"]) or res["codim_at_least_three"] != (codim >= 3):
        return "bound flags inconsistent with codim"
    return None


def _check_strata(req, res) -> str | None:
    if res["num_indices"] != req.expect["num_indices"]:
        return "num_indices differs"
    systems = 1
    for point, (q, d, mults) in zip(res["per_point"], req.expect["points"]):
        weights = point["weights"]
        count = 0
        for index in point["indices"]:
            supports = [sorted(weights.index(w) for w in sub) for sub in index["subsets"]]
            if len(supports) != d or any(not 1 <= len(s) <= q for s in supports):
                return f"bad subset tuple {index['subsets']}"
            for mat in index["matrices"]:
                rows = mat["entries"]
                if [sum(r) for r in rows] != [q] * d or [sum(c) for c in zip(*rows)] != mults:
                    return f"matrix {rows} breaks the margins"
                if [[k for k, v in enumerate(r) if v] for r in rows] != supports:
                    return f"matrix {rows} does not match its subsets"
                if mat["flag_term"] != sum(flag_dimension([v for v in r if v]) for r in rows):
                    return "flag_term differs"
                count += 1
        systems *= count
    if res["num_systems"] != systems:
        return "num_systems differs from the listed matrices"
    return None


def _check_pushforward(req, res) -> str | None:
    for key, value in req.expect.items():
        if res[key] != value:
            return f"{key} {res[key]}, expected {value}"
    return None


def _check_flagcoh(req, res) -> str | None:
    ex = req.expect
    order = 1
    for fam, n in req.payload["type"]:
        for deg in _DEGREES[fam](n):
            order *= deg
    if res["weyl_order"] != order:
        return f"weyl_order {res['weyl_order']}, expected {order}"
    ranks = [f["pic_rank"] for f in res["factors"]]
    if ranks != ex["pic_ranks"]:
        return f"Picard ranks {ranks}, expected {ex['pic_ranks']}"
    product = [1]
    for f in res["factors"]:
        poly = f["poincare"]
        if poly != poly[::-1] or (poly[1] if len(poly) > 1 else 0) != f["pic_rank"]:
            return f"factor Poincare polynomial {poly} is not palindromic with b2 = pic_rank"
        nxt = [0] * (len(product) + len(poly) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(poly):
                nxt[i + j] += a * b
        product = nxt
    b2 = sum(ranks)
    if res["poincare_F"] != product or res["b2_F"] != b2 or res["b1_F"] != 0 or res["b3_F"] != 0:
        return "product Poincare polynomial or Betti numbers differ"
    if res["t"] != ex["pic_rank_qg"] + b2 or res["assembled_b2"] != ex["b2_mg"] + b2:
        return "t or assembled_b2 differs"
    return None


_CHECKS = {
    "descend": _check_descend,
    "dim": _check_dim,
    "generic": _check_generic,
    "codim": _check_codim,
    "strata": _check_strata,
    "pushforward": _check_pushforward,
    "flagcoh": _check_flagcoh,
}
