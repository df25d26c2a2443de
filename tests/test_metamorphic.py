"""Metamorphic relations of the CLI: a transformed payload whose report
is known from the original's, checked through `run_command` on random
data, where no oracle gives the report itself."""

import json
import random
from fractions import Fraction

from parastrata.cli import run_command

from util import random_composition, random_weights


def result_of(argv, payload):
    code, out, err = run_command(argv, json.dumps(payload).encode())
    assert code == 0, err.decode()
    return json.loads(out)["result"]


def random_point(rng, rank, max_len=3):
    """A point payload: up to `max_len` weights whose multiplicities sum
    to the rank."""
    length = rng.randint(1, min(max_len, rank))
    weights = [str(w) for w in random_weights(rng, length, max_den=6)]
    return {"weights": weights, "mults": random_composition(rng, rank, length)}


def dual_point(point):
    """Each positive weight w becomes 1 - w, re-sorted with its
    multiplicity; a weight 0 stays."""
    pairs = sorted(
        (1 - w if w else w, m) for w, m in zip(map(Fraction, point["weights"]), point["mults"])
    )
    return {"weights": [str(w) for w, _ in pairs], "mults": [m for _, m in pairs]}


def test_generic_verdict_is_invariant_under_parabolic_duality():
    """Dualizing a parabolic bundle sends each positive weight w to
    1 - w and the degree to -degree minus the multiplicities of the
    positive weights: the parabolic degree changes sign, and the dual's
    subobjects are the original's quotients, so a wall is met by both
    or by neither."""
    rng = random.Random(2024)
    verdicts = []
    for _ in range(400):
        rank = rng.randint(1, 5)
        points = [random_point(rng, rank) for _ in range(rng.randint(0, 3))]
        degree = rng.randint(-6, 6)
        shift = sum(m for p in points for w, m in zip(p["weights"], p["mults"]) if Fraction(w))
        payload = {"rank": rank, "degree": degree, "points": points}
        dual = {"rank": rank, "degree": -degree - shift, "points": [dual_point(p) for p in points]}
        verdict = result_of(["generic"], payload)["generic"]
        assert result_of(["generic"], dual)["generic"] == verdict, payload
        verdicts.append(verdict)
    assert 40 < verdicts.count(False) < 360


def test_reports_are_invariant_under_permuted_points():
    """Reordering the points of a `dim`, `codim` or `strata` payload
    leaves each result as it was, except that `strata` lists its
    per-point entries in the new order, each under its new id."""
    rng = random.Random(7)
    for _ in range(40):
        rank = rng.choice([2, 3, 4])
        d = rng.choice([k for k in (2, 3, 4) if rank % k == 0])
        points = [random_point(rng, rank) for _ in range(rng.randint(2, 3))]
        order = rng.sample(range(len(points)), len(points))
        moved = [points[i] for i in order]
        base = {"g": rng.randint(2, 4), "r": rank}
        strata = {**base, "d": d, "e": rng.randint(-2, 2)}

        assert result_of(["dim"], {**base, "points": moved}) == result_of(["dim"], {**base, "points": points})
        assert result_of(["codim"], {**strata, "points": moved}) == result_of(["codim"], {**strata, "points": points})

        listed = result_of(["strata"], {**strata, "points": points})
        permuted = result_of(["strata"], {**strata, "points": moved})
        per_point = listed.pop("per_point")
        expected = [{**per_point[i], "point": f"p{k + 1}"} for k, i in enumerate(order)]
        assert permuted.pop("per_point") == expected
        assert permuted == listed
