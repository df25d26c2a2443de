"""Spans around the calls into parastrata's layers, recorded from the
benchmark's side.

`install` rebinds each traced function under every name a parastrata
module holds it by (`eigenflag.kernel`, `cli.cyclotomic_field`, ...),
so calls between modules go through the wrappers too, and replaces the
`json` module that `cli` reaches by attribute.  Spans stay in memory
until `write_spans`.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter

# (module, function, span name); plain module-level functions.  Some are
# not reported on their own: they are wrapped so that the cli handlers'
# self time leaves out library work.
FUNCTIONS = [
    ("exact", "cyclotomic_field", "exact.cyclotomic_field"),
    ("exact", "kernel", "exact.kernel"),
    ("exact", "rref", "exact.rref"),
    ("exact", "reduced_row_basis", "exact.reduced_row_basis"),
    ("exact", "solve", "exact.solve"),
    ("exact", "inverse", "exact.inverse"),
    ("parabolic", "genericity_witness", "parabolic.genericity_witness"),
    ("parabolic", "par_degree", "parabolic.par_degree"),
    ("parabolic", "par_slope", "parabolic.par_slope"),
    ("cover", "pushforward", "cover.pushforward"),
    ("eigenflag", "nested_eigenbasis", "eigenflag.nested_eigenbasis"),
    ("eigenflag", "descend", "eigenflag.descend"),
    ("eigenflag", "check_parabolic_morphism", "eigenflag.check_parabolic_morphism"),
    ("eigenflag", "fixed_point_shape", "eigenflag.fixed_point_shape"),
    ("strata", "moduli_dimension", "strata.moduli_dimension"),
    ("strata", "weight_subsets", "strata.weight_subsets"),
    ("flagcoh", "kunneth_report", "flagcoh.kunneth_report"),
    ("flagcoh", "levi_components", "flagcoh.levi_components"),
    ("flagcoh", "weyl_poincare", "flagcoh.weyl_poincare"),
    ("flagcoh", "pic_rank_flag", "flagcoh.pic_rank_flag"),
]
# (module, class, method, span name)
METHODS = [
    ("exact", "Cyclotomic", "inverse", "exact.cyclotomic_inverse"),
    ("exact", "ExactMatrix", "__mul__", "exact.matrix_mul"),
    # the matrix**order == identity check
    ("eigenflag", "FlagAutomorphism", "__init__", "eigenflag.automorphism_check"),
    ("eigenflag", "WeightedFlag", "__init__", "eigenflag.flag_build"),
]
HANDLERS = ("cmd_dim", "cmd_generic", "cmd_strata", "cmd_codim", "cmd_codim_sweep",
            "cmd_pushforward", "cmd_descend", "cmd_flagcoh")


class Tracer:
    def __init__(self):
        self.now = time.perf_counter
        self.stack: list[list] = []  # [span id, child time]
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.request = None
        self.point_keys: list[tuple] = []

    def _stat(self, name: str) -> list[float]:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def timed(self, name: str, fn):
        stack, spans, now = self.stack, self.spans, self.now
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (sid, parent, self.request, name, start, end)

        return wrapper

    def timed_iter(self, name: str, fn):
        """A generator function timed across its next() calls; each call
        counts as child time of whatever span is open at that moment."""
        stack, now = self.stack, self.now
        stat = self._stat(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            stat[0] += 1
            it = fn(*args, **kwargs)
            while True:
                start = now()
                item = next(it, _DONE)
                dur = now() - start
                stat[1] += dur
                stat[2] += dur
                if stack:
                    stack[-1][1] += dur
                if item is _DONE:
                    return
                counts[name + ".yielded"] += 1
                yield item

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request, "name": name,
                                     "start": start, "end": end}) + "\n")


_DONE = object()


def _rebind(modules, old, new) -> None:
    for mod in modules:
        for key in [k for k, v in vars(mod).items() if v is old]:
            setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    import importlib

    names = ("exact", "parabolic", "cover", "eigenflag", "strata", "flagcoh", "cli")
    mods = {n: importlib.import_module(f"parastrata.{n}") for n in names}
    everywhere = list(mods.values()) + [importlib.import_module("parastrata")]
    for mod, fn, span in FUNCTIONS:
        old = getattr(mods[mod], fn)
        _rebind(everywhere, old, tracer.timed(span, old))
    for mod, cls_name, meth, span in METHODS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, meth, tracer.timed(span, getattr(cls, meth)))
    cyclotomic = mods["exact"].Cyclotomic
    for meth in ("__mul__", "__rmul__"):
        setattr(cyclotomic, meth, tracer.counted("exact.cyclotomic_mul", getattr(cyclotomic, meth)))

    strata = mods["strata"]
    old = strata.enumerate_matrices
    _rebind(everywhere, old, tracer.timed_iter("strata.enumerate_matrices", old))
    codim_report = tracer.timed("strata.codim_report", strata.codim_report)

    def keyed_codim_report(spec, d):
        tracer.point_keys.extend((pw.multiplicities, spec.rank // d, d) for _, pw in spec.points)
        return codim_report(spec, d)

    _rebind(everywhere, strata.codim_report, keyed_codim_report)

    cli = mods["cli"]
    for handler in HANDLERS:
        setattr(cli, handler, tracer.timed("cli.handler", getattr(cli, handler)))
    cli.json = types.SimpleNamespace(
        loads=tracer.timed("cli.json_decode", json.loads),
        dumps=tracer.timed("cli.json_encode", json.dumps),
        JSONDecodeError=json.JSONDecodeError,
    )
    cli.run_command = tracer.timed("cli.run_command", cli.run_command)
