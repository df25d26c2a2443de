"""Command-line frontend: JSON in, deterministic JSON out.

Subcommands: dim, generic, strata, codim, pushforward, descend,
flagcoh.  Input arrives as a JSON document on stdin or via --input;
reports go to stdout or --output.  Exit codes: 0 success, 1 internal
error, 2 validation error (message on stderr, nothing on stdout).
Rationals are serialized as "numerator/denominator" strings; output
bytes are identical across runs for identical inputs.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from math import isqrt

from . import cover as cover_mod
from . import eigenflag as ef
from . import flagcoh as fc
from . import parabolic as pb
from . import strata as st
from .exact import ExactMatrix, cyclotomic_field, divisors

VERSION = "parastrata/1.0"

SUBCOMMANDS = ("dim", "generic", "strata", "codim", "pushforward", "descend", "flagcoh")

# the largest `descend` order: finding the eigenvalues scans all d roots of
# unity, so the work grows about as d**2
MAX_DESCEND_ORDER = 1000
# the largest total rank of a `flagcoh` type: B_n's Poincare polynomial has
# degree n**2, and a report lists every coefficient of each factor
MAX_FLAGCOH_RANK = 100
# the most work a `codim --sweep` may take, counted before its first line by
# `_sweep_estimate`: divisor steps, generated points and lines together.  The
# sweep is buffered: 170,786 lines take about 2 s and peak at 145 MiB on a
# 2-vCPU x86_64 host with Python 3.11
MAX_SWEEP_WORK = 200_000
# the most subset d-tuples a `strata` listing may write, summed over its
# points.  The report is built whole: 175,616 of them (r 12, d 3, six weights
# of multiplicity 2) wrote 68 MB at a 291 MiB peak
MAX_STRATA_INDICES = 100_000

# ASCII digits only, and \Z: `$` would also match before a trailing newline
_FRACTION_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?\Z")
# built once: json.dumps with separators builds a new encoder per call
_compact_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


class ValidationError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class UsageError(ValueError):
    pass


# --- input validation helpers ----------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def expect_object(x, path: str) -> dict:
    if not isinstance(x, dict):
        raise ValidationError(path, "expected an object")
    return x


def expect_array(x, path: str) -> list:
    if not isinstance(x, list):
        raise ValidationError(path, "expected an array")
    return x


def expect_int(x, path: str, minimum: int | None = None) -> int:
    if not _is_int(x):
        raise ValidationError(path, "expected an integer")
    if minimum is not None and x < minimum:
        raise ValidationError(path, f"expected an integer >= {minimum}")
    return x


def expect_keys(doc: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for key in required:
        if key not in doc:
            raise ValidationError(f"{path}.{key}", "missing required field")
    for key in doc:
        if key not in required and key not in optional:
            raise ValidationError(f"{path}.{key}", "unknown field")


def _ratio(x, path: str) -> tuple[int, int]:
    """An integer or a rational string as (numerator, denominator > 0)."""
    if _is_int(x):
        return x, 1
    if isinstance(x, str):
        m = _FRACTION_RE.match(x)
        if m is None:
            raise ValidationError(path, f"expected a rational string like \"3/4\", got {x!r}")
        num, den = m.groups()
        try:
            return int(num), int(den) if den else 1
        except ValueError:  # past the int-to-str digit limit
            raise ValidationError(path, "too many digits in a rational string") from None
    raise ValidationError(path, "expected a rational string (floats are not accepted)")


def parse_fraction(x, path: str) -> Fraction:
    return Fraction(*_ratio(x, path))


def frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_point(doc, path: str, rank: int) -> pb.PointWeights:
    doc = expect_object(doc, path)
    expect_keys(doc, path, ("weights", "mults"))
    ws = expect_array(doc["weights"], f"{path}.weights")
    ms = expect_array(doc["mults"], f"{path}.mults")
    if len(ws) != len(ms):
        raise ValidationError(path, "weights and mults differ in length")
    if not ws:
        raise ValidationError(f"{path}.weights", "at least one weight is required")
    weights = [parse_fraction(w, f"{path}.weights[{i}]") for i, w in enumerate(ws)]
    mults = [expect_int(m, f"{path}.mults[{i}]", minimum=1) for i, m in enumerate(ms)]
    try:
        pw = pb.PointWeights.of(weights, mults)
    except ValueError as exc:
        raise ValidationError(path, str(exc)) from exc
    if pw.total_multiplicity() != rank:
        raise ValidationError(
            f"{path}.mults", f"multiplicities sum to {pw.total_multiplicity()}, expected rank {rank}"
        )
    return pw


def parse_point_list(doc, path: str, rank: int) -> dict[str, pb.PointWeights]:
    arr = expect_array(doc, path)
    return {f"p{i + 1}": parse_point(entry, f"{path}[{i}]", rank) for i, entry in enumerate(arr)}


def echo_point(pw: pb.PointWeights) -> dict:
    return {
        "weights": [frac_str(w) for w in pw.weights],
        "mults": list(pw.multiplicities),
    }


def echo_points(points: dict[str, pb.PointWeights]) -> list[dict]:
    """Echo a point list in input order, so that feeding it back assigns
    the same ids (sorted ids would put p10 before p2)."""
    return [echo_point(pw) for pw in points.values()]


def parse_scalar(x, path: str, field) -> tuple[tuple[int, ...] | None, int]:
    """A rational string or a power-basis coefficient list, as ``field.residue`` gives it."""
    if isinstance(x, list):
        if len(x) > field.degree:
            raise ValidationError(path, f"at most {field.degree} power-basis coefficients allowed")
        return field.residue([_ratio(c, f"{path}[{i}]") for i, c in enumerate(x)])
    return field.residue([_ratio(x, path)])


def scalar_echo(num, den: int) -> object:
    """An entry ``(num, den)`` as the report echoes it: a rational string,
    or the rational strings of its power-basis coefficients."""
    if num is None or not any(num[1:]):
        num = (num[0] if num else 0,)
    echo = [str(c) if den == 1 else frac_str(Fraction(c, den)) for c in num]
    return echo if len(echo) > 1 else echo[0]


def _parse_new(x, key, path: str, field, scalars: dict) -> tuple[tuple, object]:
    """The ``(entry, echo)`` of a raw scalar not yet in ``scalars``, kept
    there under ``key`` unless it is None.  Each coefficient string of a
    tuple key is looked up, or parsed and kept, as the rational scalar it
    is.  A scalar that fails to parse is not kept."""
    if type(key) is tuple and len(key) <= field.degree:
        ratios = []
        for k, c in enumerate(key):
            parsed = scalars.get(c) or _parse_new(c, c, f"{path}[{k}]", field, scalars)
            num, den = parsed[0]
            ratios.append((num[0] if num else 0, den))
        entry = field.residue(ratios)
    else:
        entry = parse_scalar(x, path, field)
    parsed = (entry, scalar_echo(*entry))
    if key is not None:
        scalars[key] = parsed
    return parsed


def parse_matrix(doc, path: str, field, scalars: dict) -> tuple[list[list], list[list]]:
    """The matrix's rows of entries ``(num, den)`` and their echo.
    ``scalars`` belongs to one request: it maps a raw scalar already met
    there, a string or a tuple of coefficient strings, to its ``(entry,
    echo)``, so each distinct one, and each distinct coefficient string,
    is parsed and echoed once.  Other JSON values are not keys: ``1``,
    ``1.0`` and ``true`` hash alike but do not parse alike."""
    arr = expect_array(doc, path)
    if not arr:
        raise ValidationError(path, "matrix must be nonempty")
    rows, echo = [], []
    width = None
    for i, row in enumerate(arr):
        row = expect_array(row, f"{path}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"{path}[{i}]", "ragged matrix")
        values, echoes = [], []
        for j, x in enumerate(row):
            if type(x) is str:
                key = x
            elif type(x) is list and all(type(c) is str for c in x):
                key = tuple(x)
            else:
                key = None
            parsed = scalars.get(key) or _parse_new(x, key, f"{path}[{i}][{j}]", field, scalars)
            values.append(parsed[0])
            echoes.append(parsed[1])
        rows.append(values)
        echo.append(echoes)
    if width == 0:
        raise ValidationError(path, "matrix rows must be nonempty")
    return rows, echo


# --- subcommand handlers ----------------------------------------------------


def cmd_dim(payload) -> tuple[dict, dict]:
    doc = expect_object(payload, "$")
    expect_keys(doc, "$", ("g", "r", "points"))
    g = expect_int(doc["g"], "$.g", minimum=2)
    r = expect_int(doc["r"], "$.r", minimum=1)
    points = parse_point_list(doc["points"], "$.points", r)
    spec = st.ModuliSpec.of(g, r, points)
    echo = {"g": g, "r": r, "points": echo_points(points)}
    return echo, {"dimension": st.moduli_dimension(spec)}


def cmd_generic(payload) -> tuple[dict, dict]:
    doc = expect_object(payload, "$")
    expect_keys(doc, "$", ("rank", "degree", "points"))
    rank = expect_int(doc["rank"], "$.rank", minimum=1)
    degree = expect_int(doc["degree"], "$.degree")
    points = parse_point_list(doc["points"], "$.points", rank)
    datum = pb.ParabolicDatum.of(rank, degree, points)
    witness = pb.genericity_witness(datum)
    echo = {"rank": rank, "degree": degree, "points": echo_points(points)}
    if witness is None:
        return echo, {"generic": True, "witness": None}
    return echo, {
        "generic": False,
        "witness": {
            "sub_rank": witness.sub_rank,
            "sub_degree": witness.sub_degree,
            "sub_multiplicities": {pid: list(vec) for pid, vec in witness.sub_multiplicities},
        },
    }


def _parse_strata_common(payload) -> tuple[dict, st.ModuliSpec, int]:
    doc = expect_object(payload, "$")
    expect_keys(doc, "$", ("g", "r", "d", "points"), optional=("e",))
    g = expect_int(doc["g"], "$.g", minimum=2)
    r = expect_int(doc["r"], "$.r", minimum=1)
    d = expect_int(doc["d"], "$.d", minimum=2)
    e = expect_int(doc.get("e", 0), "$.e")
    if r % d != 0:
        raise ValidationError("$.d", f"cover degree {d} does not divide rank {r}")
    points = parse_point_list(doc["points"], "$.points", r)
    spec = st.ModuliSpec.of(g, r, points, xi_degree=e)
    echo = {"g": g, "r": r, "d": d, "e": e, "points": echo_points(points)}
    return echo, spec, d


# A strata report holds each point's "indices" at depth 4 (report,
# result, per_point, point): the list closes after a newline and 8
# spaces, and each level inside it indents 2 more.
_I8, _I10, _I12, _I14, _I16, _I18, _I20 = ("\n" + " " * n for n in range(8, 22, 2))
# one index, from its joined subset texts and its matrix list
_INDEX = "{" + _I12 + '"subsets": [' + _I14 + "%s" + _I12 + "]," + _I12 + '"matrices": %s' + _I10 + "}"


class _Encoded(str):
    """Report text already encoded at its place in the report, which
    `_report_json` writes as it is.  `_indices_text` makes the only ones:
    each point's "indices" value in a `cmd_strata` report."""


def _indices_text(labels: list[str], d: int, systems) -> tuple[_Encoded, int, int]:
    """One point's "indices" value, with the bytes `_report_json` would
    give its list of per-index dicts at that depth, and its numbers of
    indices and of matrices.  ``systems`` yields (subset d-tuple,
    matrices) as `st.point_systems` does.  Each weight subset's label
    list is encoded once per point, and each matrix is one format of its
    entries and flag term: no per-index dict and no row list is built."""
    row = "[" + _I20 + ("," + _I20).join(["%d"] * len(labels)) + _I18 + "]"
    matrix = (
        "{" + _I16 + '"entries": [' + _I18 + ("," + _I18).join([row] * d) + _I16 + "],"
        + _I16 + '"flag_term": %d' + _I14 + "}"
    )
    sep = "," + _I14
    subset_texts: dict[tuple[int, ...], str] = {}
    items = []
    num_matrices = 0
    for t, mats in systems:
        if mats:
            num_matrices += len(mats)
            mat_texts = [matrix % (*itertools.chain(*m), st.matrix_flag_term(m)) for m in mats]
            listed = "[" + _I14 + sep.join(mat_texts) + _I12 + "]"
        else:
            listed = "[]"
        subsets = []
        for sub in t:
            text = subset_texts.get(sub)
            if text is None:
                text = subset_texts[sub] = _report_json([labels[k] for k in sub], _I14)
            subsets.append(text)
        items.append(_INDEX % (sep.join(subsets), listed))
    return _Encoded("[" + _I10 + ("," + _I10).join(items) + _I8 + "]"), len(items), num_matrices


def cmd_strata(payload) -> tuple[dict, dict]:
    """Per point, its echo, its `subset_count` and its indices, each a
    subset d-tuple from `st.point_systems` with its matrices.  A point's
    "indices" value is an `_Encoded` text from `_indices_text`, which
    `_report_json` writes as it is.  The subset d-tuples, sum_p
    `subset_count`**d, are counted first; past `MAX_STRATA_INDICES` a
    ValidationError names the point that took the count there."""
    echo, spec, d = _parse_strata_common(payload)
    total = 0
    for i, point in enumerate(echo["points"]):
        count = st.subset_count(len(point["weights"]), spec.rank // d)
        tuples = 1
        # count**d, cut short past the cap; a count of 1 gives 1 for any d
        for _ in range(d if count > 1 else 0):
            tuples *= count
            if total + tuples > MAX_STRATA_INDICES:
                break
        total += tuples
        if total > MAX_STRATA_INDICES:
            raise ValidationError(f"$.points[{i}]",
                                  f"the listing exceeds its budget of {MAX_STRATA_INDICES} subset tuples")
    per_point = []
    num_indices = 1
    num_systems = 1
    for pid, pw in spec.points:
        point = echo_point(pw)
        indices, count, matrices = _indices_text(point["weights"], d, st.point_systems(pw, spec.rank, d))
        num_indices *= count
        num_systems *= matrices
        subset_count = st.subset_count(pw.length, spec.rank // d)
        per_point.append({"point": pid, **point, "subset_count": subset_count, "indices": indices})
    result = {
        "num_indices": num_indices,
        "num_systems": num_systems,
        "per_point": per_point,
    }
    return echo, result


def _codim_result(report: st.CodimReport) -> dict:
    return {
        "dim_M": report.dim_moduli,
        "max_stratum_dim": report.max_stratum_dim,
        "codim": report.codim,
        "bound": frac_str(report.bound),
        "meets_bound": report.meets_bound,
        "codim_at_least_three": report.codim_at_least_three,
        "num_indices": report.num_indices,
        "num_systems": report.num_systems,
    }


def _codim_line(head: str, report: st.CodimReport) -> str:
    """A sweep line and its newline: ``head``, the configuration's
    compact echo without its closing brace, then the keys of
    `_codim_result` in the same order, written as `_compact_json` writes
    them: booleans as true/false, ints by their repr, the bound by
    `frac_str`."""
    _, _, _, dim_m, num_indices, num_systems, max_dim, codim, bound, meets, at_least_three = report
    return (
        f'{head},"dim_M":{dim_m},"max_stratum_dim":{max_dim},"codim":{codim},"bound":"{frac_str(bound)}",'
        f'"meets_bound":{"true" if meets else "false"},'
        f'"codim_at_least_three":{"true" if at_least_three else "false"},'
        f'"num_indices":{num_indices},"num_systems":{num_systems}}}\n'
    )


def cmd_codim(payload) -> tuple[dict, dict]:
    echo, spec, d = _parse_strata_common(payload)
    report = st.codim_report(spec, d)
    result = _codim_result(report)
    result["delta"] = spec.delta
    return echo, result


# --- codim sweep -------------------------------------------------------------


def _parse_range(doc, path: str) -> list[int] | range:
    if isinstance(doc, list):
        out = [expect_int(v, f"{path}[{i}]") for i, v in enumerate(doc)]
        if not out:
            raise ValidationError(path, "range must be nonempty")
        return sorted(set(out))
    doc = expect_object(doc, path)
    expect_keys(doc, path, ("min", "max"))
    lo = expect_int(doc["min"], f"{path}.min")
    hi = expect_int(doc["max"], f"{path}.max")
    if hi < lo:
        raise ValidationError(path, "max must be >= min")
    return range(lo, hi + 1)


def _auto_weights(length: int) -> list[Fraction]:
    return [Fraction(k, length + 1) for k in range(1, length + 1)]


def _sweep_systems(rank: int, max_points: int, max_len: int):
    """Every generated system of at most `max_points` points, the empty
    one first, each with the encoded echo of its point list.  A
    generated point is echoed and encoded once per rank, so a system's
    echo is a join of encoded points.  A point's multiplicities are a
    composition of the rank, cut at length - 1 of the places 1..rank-1."""
    per_point = []
    for length in range(1, min(max_len, rank) + 1):
        for cuts in itertools.combinations(range(1, rank), length - 1):
            comp = [b - a for a, b in zip((0, *cuts), (*cuts, rank))]
            pw = pb.PointWeights.of(_auto_weights(length), comp)
            per_point.append((pw, _compact_json(echo_point(pw))))
    for npts in range(max_points + 1):
        for combo in itertools.product(per_point, repeat=npts):
            points = {f"p{i + 1}": pw for i, (pw, _) in enumerate(combo)}
            yield points, "[" + ",".join(echo for _, echo in combo) + "]"


def _parse_sweep(payload) -> tuple:
    """A sweep's ``(gs, rs, ds, max_points, max_len)``, validated; ds is
    None when every cover degree is swept."""
    doc = expect_object(payload, "$")
    expect_keys(doc, "$", ("g", "r"), optional=("d", "max_points", "max_flag_length"))
    gs = _parse_range(doc["g"], "$.g")
    rs = _parse_range(doc["r"], "$.r")
    ds = _parse_range(doc["d"], "$.d") if "d" in doc and doc["d"] is not None else None
    max_points = expect_int(doc.get("max_points", 2), "$.max_points", minimum=0)
    max_len = expect_int(doc.get("max_flag_length", 3), "$.max_flag_length", minimum=1)
    if gs[0] < 2:
        raise ValidationError("$.g", "genus values must be >= 2")
    if rs[0] < 1:
        raise ValidationError("$.r", "rank values must be >= 1")
    return gs, rs, ds, max_points, max_len


def _cover_degrees(r: int, ds) -> list[int]:
    """The cover degrees d > 1 dividing r that the sweep takes: all of
    them when ds is None, else those in ds."""
    return [d for d in divisors(r)[1:] if ds is None or d in ds]


def _sweep_estimate(gs, rs, ds, max_points: int, max_len: int, budget: int) -> tuple[int, int]:
    """``(work, lines)`` of a sweep, counted in closed form before it runs.
    Each rank r takes isqrt(r) divisor steps; one with cover degrees D_r
    also generates P_r = sum_k C(r - 1, k - 1) points, k up to
    ``max_len``, and writes |D_r| * sum_{n <= max_points} P_r**n lines per
    genus.  The work is the sum of the steps, the points and the lines.
    Once it passes ``budget`` a ValidationError names the field that took
    it there, so each loop ends within about ``budget`` steps, and none
    runs over ``max_points`` or g."""
    work = 0

    def charge(n: int, path: str) -> None:
        nonlocal work
        work += n
        if work > budget:
            raise ValidationError(path, f"the sweep exceeds its work budget of {budget} "
                                        "divisor steps, points and lines")

    per_genus = 0
    for r in rs:
        charge(isqrt(r), "$.r")
        degrees = len(_cover_degrees(r, ds))
        if not degrees:
            continue
        points, term = 0, 1
        for k in range(1, min(max_len, r) + 1):
            points += term  # term = C(r - 1, k - 1)
            if work + points > budget:
                break
            term = term * (r - k) // k
        charge(points, "$.r")
        if points == 1:
            systems = max_points + 1
        elif max_points < budget.bit_length():
            systems = (points ** (max_points + 1) - 1) // (points - 1)
        else:  # at least 2**max_points, past the budget
            systems = budget + 1
        per_genus += degrees * systems
        charge(degrees * systems, "$.max_points" if max_points else "$.r")
    genera = len(gs) if isinstance(gs, list) else gs.stop - gs.start
    charge((genera - 1) * per_genus, "$.g")
    return work, genera * per_genus


def cmd_codim_sweep(payload) -> str:
    """The sweep's text: one compact JSON line per (g, r, d, system), in
    that nesting order, each ended by a newline: the echo of the
    configuration, then the `_codim_result` fields.  A spec is built once
    per (g, r, system) and serves every d, and a line is one
    `codim_report` and one `_codim_line`.  A sweep whose work passes
    `MAX_SWEEP_WORK` is refused before any line is made."""
    gs, rs, ds, max_points, max_len = _parse_sweep(payload)
    _sweep_estimate(gs, rs, ds, max_points, max_len, MAX_SWEEP_WORK)
    plan = []
    for r in rs:
        d_list = _cover_degrees(r, ds)
        if d_list:
            plan.append((r, d_list, list(_sweep_systems(r, max_points, max_len))))
    if not plan:
        return ""
    lines = []
    for g in gs:
        for r, d_list, systems in plan:
            specs = [(st.ModuliSpec.of(g, r, points), echo) for points, echo in systems]
            for d in d_list:
                head = f'{{"g":{g},"r":{r},"d":{d},"points":'
                lines.extend(_codim_line(head + echo, st.codim_report(spec, d)) for spec, echo in specs)
    return "".join(lines)


# --- pushforward -------------------------------------------------------------


def cmd_pushforward(payload) -> tuple[dict, dict]:
    doc = expect_object(payload, "$")
    expect_keys(doc, "$", ("cover", "datum"))
    cdoc = expect_object(doc["cover"], "$.cover")
    expect_keys(cdoc, "$.cover", ("degree", "fibers"))
    degree = expect_int(cdoc["degree"], "$.cover.degree", minimum=1)
    fdoc = expect_object(cdoc["fibers"], "$.cover.fibers")
    fibers = {}
    for base, fib in fdoc.items():
        fib = expect_array(fib, f"$.cover.fibers.{base}")
        ids = []
        for i, q in enumerate(fib):
            if not isinstance(q, str):
                raise ValidationError(f"$.cover.fibers.{base}[{i}]", "expected a point id string")
            ids.append(q)
        fibers[base] = ids
    try:
        cov = cover_mod.CoverSpec.of(degree, fibers)
    except ValueError as exc:
        raise ValidationError("$.cover", str(exc)) from exc

    ddoc = expect_object(doc["datum"], "$.datum")
    expect_keys(ddoc, "$.datum", ("rank", "degree", "points"))
    rank = expect_int(ddoc["rank"], "$.datum.rank", minimum=1)
    deg = expect_int(ddoc["degree"], "$.datum.degree")
    pdoc = expect_object(ddoc["points"], "$.datum.points")
    points = {pid: parse_point(pnt, f"$.datum.points.{pid}", rank) for pid, pnt in pdoc.items()}
    try:
        datum = pb.ParabolicDatum.of(rank, deg, points)
        pushed = cover_mod.pushforward(cov, datum)
    except ValueError as exc:
        raise ValidationError("$", str(exc)) from exc
    par_degree = pb.par_degree(pushed)
    echo = {
        "cover": {"degree": degree, "fibers": {b: list(f) for b, f in cov.fibers}},
        "datum": {
            "rank": rank,
            "degree": deg,
            "points": {pid: echo_point(points[pid]) for pid in sorted(points)},
        },
    }
    result = {
        "rank": pushed.rank,
        "degree": pushed.degree,
        "points": {pid: echo_point(pw) for pid, pw in pushed.points},
        "par_degree": frac_str(par_degree),
        "par_slope": frac_str(par_degree / pushed.rank),
    }
    return echo, result


# --- descend ------------------------------------------------------------------


def cmd_descend(payload, convention: str) -> tuple[dict, dict]:
    doc = expect_object(payload, "$")
    expect_keys(doc, "$", ("order", "automorphism", "flag"))
    order = expect_int(doc["order"], "$.order", minimum=1)
    if order > MAX_DESCEND_ORDER:
        raise ValidationError("$.order", f"expected an integer <= {MAX_DESCEND_ORDER}")
    field = cyclotomic_field(order)
    scalars: dict = {}
    rows, rows_echo = parse_matrix(doc["automorphism"], "$.automorphism", field, scalars)
    fdoc = expect_object(doc["flag"], "$.flag")
    expect_keys(fdoc, "$.flag", ("weights", "subspaces"))
    wts = expect_array(fdoc["weights"], "$.flag.weights")
    weights = [parse_fraction(w, f"$.flag.weights[{i}]") for i, w in enumerate(wts)]
    sdocs = expect_array(fdoc["subspaces"], "$.flag.subspaces")
    subspaces, subspaces_echo = [], []
    for i, sdoc in enumerate(sdocs):
        sub, sub_echo = parse_matrix(sdoc, f"$.flag.subspaces[{i}]", field, scalars)
        subspaces.append(sub)
        subspaces_echo.append(sub_echo)
    try:
        phi = ef.FlagAutomorphism(ExactMatrix.from_residues(field, rows))
        flag = ef.WeightedFlag([ExactMatrix.from_residues(field, sub) for sub in subspaces], weights)
        table = ef.descend(phi, flag)
    except ValueError as exc:
        raise ValidationError("$", str(exc)) from exc
    labels = [frac_str(w) for w in weights]
    echo = {
        "order": order,
        "automorphism": rows_echo,
        "flag": {"weights": labels, "subspaces": subspaces_echo},
    }
    # fiber j is row j - 1: its sum, and its nonzero entries under their weights
    fibers = [
        {"fiber": j, "eigenvalue_exponent": j % order, "dim": sum(row),
         "weights": [w for w, m in zip(labels, row) if m], "mults": [m for m in row if m]}
        for j, row in enumerate(table, start=1)
    ]
    result = {
        "fibers": fibers,
        "matrix": [list(row) for row in table],
        "fixed_point_shape": ef.fixed_point_shape(table),
        # descend accepted the flag, so the invertible phi maps each V_k
        # onto itself: a strict trigger (i > j) asks phi(V_i) in V_{j+1},
        # which contains V_i, and always holds; the non-strict trigger at
        # i = j = l-1 asks phi(V_{l-1}) = 0, which never holds
        "flag_endomorphism": {"convention": convention, "holds": convention == "strict"},
    }
    return echo, result


# --- flagcoh -------------------------------------------------------------------


def cmd_flagcoh(payload) -> tuple[dict, dict]:
    doc = expect_object(payload, "$")
    expect_keys(doc, "$", ("type", "parabolics"), optional=("pic_rank_qg", "b2_mg"))
    tdoc = expect_array(doc["type"], "$.type")
    comps = []
    for i, comp in enumerate(tdoc):
        comp = expect_array(comp, f"$.type[{i}]")
        if len(comp) != 2 or not isinstance(comp[0], str):
            raise ValidationError(f"$.type[{i}]", "expected [family, rank]")
        comps.append((comp[0], expect_int(comp[1], f"$.type[{i}][1]", minimum=1)))
    try:
        ctype = fc.CartanType.of(comps)
    except ValueError as exc:
        raise ValidationError("$.type", str(exc)) from exc
    if ctype.total_rank > MAX_FLAGCOH_RANK:
        raise ValidationError("$.type", f"expected a total rank <= {MAX_FLAGCOH_RANK}")
    pdocs = expect_array(doc["parabolics"], "$.parabolics")
    if not pdocs:
        raise ValidationError("$.parabolics", "at least one parabolic subset is required")
    parabolics = []
    for i, sub in enumerate(pdocs):
        if len(ctype.components) == 1 and isinstance(sub, list) and all(_is_int(v) for v in sub):
            sub = [sub]  # single-component shorthand: a flat index list
        sub = expect_array(sub, f"$.parabolics[{i}]")
        per_comp = []
        for j, part in enumerate(sub):
            part = expect_array(part, f"$.parabolics[{i}][{j}]")
            per_comp.append([expect_int(v, f"$.parabolics[{i}][{j}][{k}]", minimum=1) for k, v in enumerate(part)])
        ps = tuple(tuple(sorted(set(part))) for part in per_comp)
        try:
            fc.pic_rank_flag(ctype, ps)
        except ValueError as exc:
            raise ValidationError(f"$.parabolics[{i}]", str(exc)) from exc
        parabolics.append(ps)
    pic_rank_qg = doc.get("pic_rank_qg", 1)
    pic_rank_qg = expect_int(pic_rank_qg, "$.pic_rank_qg", minimum=1)
    b2_mg = expect_int(doc.get("b2_mg", 1), "$.b2_mg", minimum=0)
    try:
        report = fc.kunneth_report(ctype, parabolics, pic_rank_qg, b2_mg)
    except ValueError as exc:
        raise ValidationError("$", str(exc)) from exc
    echo = {
        "type": [[f, n] for f, n in ctype.components],
        "parabolics": [[list(part) for part in ps] for ps in parabolics],
        "pic_rank_qg": pic_rank_qg,
        "b2_mg": b2_mg,
    }
    factors = []
    for ps, levi, poly, rank_p in zip(parabolics, report.levis, report.factors, report.pic_ranks):
        factors.append(
            {
                "parabolic": [list(part) for part in ps],
                "levi": [[f, n] for f, n in levi.components],
                "pic_rank": rank_p,
                "poincare": list(poly),
            }
        )
    result = {
        "weyl_order": sum(report.weyl),
        "factors": factors,
        "poincare_F": list(report.product),
        "b1_F": report.b1,
        "b2_F": report.b2,
        "b3_F": report.b3,
        "t": report.rank_t,
        "assembled_b2": report.assembled_b2,
    }
    return echo, result


# --- driver --------------------------------------------------------------------


def _parse_argv(argv):
    if not argv:
        raise UsageError(f"missing subcommand; expected one of {', '.join(SUBCOMMANDS)}")
    sub = argv[0]
    if sub in ("-h", "--help"):
        return "help", {}
    if sub not in SUBCOMMANDS:
        raise UsageError(f"unknown subcommand {sub!r}; expected one of {', '.join(SUBCOMMANDS)}")
    opts = {"input": None, "output": None, "sweep": False, "convention": "strict"}
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--input":
            i += 1
            if i == len(argv):
                raise UsageError("--input requires a path")
            opts["input"] = argv[i]
        elif arg == "--output":
            i += 1
            if i == len(argv):
                raise UsageError("--output requires a path")
            opts["output"] = argv[i]
        elif arg == "--sweep":
            if sub != "codim":
                raise UsageError("--sweep applies to the codim subcommand only")
            opts["sweep"] = True
        elif arg == "--convention":
            i += 1
            if i == len(argv) or argv[i] not in ("strict", "non-strict"):
                raise UsageError("--convention requires 'strict' or 'non-strict'")
            if sub != "descend":
                raise UsageError("--convention applies to the descend subcommand only")
            opts["convention"] = argv[i]
        else:
            raise UsageError(f"unknown option {arg!r}")
        i += 1
    return sub, opts


_HELP = """usage: parastrata SUBCOMMAND [--input PATH] [--output PATH] [options]

subcommands:
  dim          moduli dimension from genus, rank and point data
  generic      genericity verdict with a witness when non-generic
  strata       full stratum-index and matrix enumeration per point
  codim        exact codimension report (--sweep for range mode)
  pushforward  push a datum on fiber points down a cyclic cover
  descend      split a weighted flag along a finite-order automorphism
               (--convention strict|non-strict)
  flagcoh      flag-variety Poincare polynomials and Picard ranks

Input is a JSON document on stdin unless --input is given.  Exit codes:
0 success, 1 internal error, 2 invalid input.
"""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate object key {key!r}")
            seen.add(key)
    return obj


def _report_json(o, ind: str = "\n") -> str:
    """The text of json.dumps(o, indent=2, ensure_ascii=False) for a tree
    of dicts with string keys, lists, tuples, strings, ints, booleans and
    None, dispatched on the exact type.  An `_Encoded` text, which only
    `_indices_text` makes, is written as it is; anything else, other
    subclasses included, raises TypeError.  ``ind`` is the newline and
    indent that close the value, so each level is one join."""
    t = type(o)
    if t is str:
        return encode_basestring(o)
    if t is int:
        return int.__repr__(o)
    inner = ind + "  "
    if t is dict:
        items = [encode_basestring(k) + ": " + _report_json(v, inner) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + ind + "}" if items else "{}"
    if t is list or t is tuple:
        items = [_report_json(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + ind + "]" if items else "[]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is _Encoded:
        return o
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def run_command(argv, stdin: bytes = b"") -> tuple[int, bytes, bytes]:
    """Run one CLI invocation; returns (exit status, stdout, stderr)."""
    try:
        sub, opts = _parse_argv(list(argv))
    except UsageError as exc:
        return 2, b"", f"error: {exc}\n".encode()
    if sub == "help":
        return 0, _HELP.encode(), b""
    try:
        if opts["input"] is not None:
            try:
                with open(opts["input"], "rb") as fh:
                    raw = fh.read()
            except OSError as exc:
                return 2, b"", f"error: cannot read input: {exc}\n".encode()
        else:
            raw = stdin
        try:
            text = raw.decode("utf-8")
            payload = json.loads(text, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed text and encoding, integer
            # literals past the int-to-str digit limit and duplicate keys
            return 2, b"", f"error: invalid JSON input: {exc}\n".encode()
        # only an escape can put a lone surrogate, which has no UTF-8
        # form, into the decoded text
        if "\\u" in text:
            try:
                _compact_json(payload).encode()
            except UnicodeEncodeError as exc:
                bad = ord(exc.object[exc.start])
                return 2, b"", f"error: invalid JSON input: lone surrogate \\u{bad:04x}\n".encode()

        if sub == "codim" and opts["sweep"]:
            out = cmd_codim_sweep(payload)
        else:
            if sub == "dim":
                echo, result = cmd_dim(payload)
            elif sub == "generic":
                echo, result = cmd_generic(payload)
            elif sub == "strata":
                echo, result = cmd_strata(payload)
            elif sub == "codim":
                echo, result = cmd_codim(payload)
            elif sub == "pushforward":
                echo, result = cmd_pushforward(payload)
            elif sub == "descend":
                echo, result = cmd_descend(payload, opts["convention"])
            else:
                echo, result = cmd_flagcoh(payload)
            report = {"version": VERSION, "subcommand": sub, "input": echo, "result": result}
            out = _report_json(report) + "\n"
    except ValidationError as exc:
        return 2, b"", f"error: {exc}\n".encode()
    except Exception as exc:  # pragma: no cover - internal fault path
        return 1, b"", f"internal error: {type(exc).__name__}: {exc}\n".encode()

    data = out.encode("utf-8")
    if opts["output"] is not None:
        try:
            with open(opts["output"], "wb") as fh:
                fh.write(data)
        except OSError as exc:
            return 1, b"", f"internal error: cannot write output: {exc}\n".encode()
        return 0, b"", b""
    return 0, data, b""


def main() -> None:
    argv = sys.argv[1:]
    # help and a usage error read nothing; run_command answers both
    try:
        sub, opts = _parse_argv(argv)
        reads_stdin = sub != "help" and opts["input"] is None
    except UsageError:
        reads_stdin = False
    stdin = sys.stdin.buffer.read() if reads_stdin else b""
    code, out, err = run_command(argv, stdin)
    if out:
        sys.stdout.buffer.write(out)
        sys.stdout.buffer.flush()
    if err:
        sys.stderr.buffer.write(err)
        sys.stderr.buffer.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
