"""Per-function aggregates for the traced benchmark run.

The tracer wraps public functions of the ``ekor_atlas`` modules from the
outside; nothing in ``src/`` knows about it.  Each wrapped function keeps one
aggregate in memory (calls, self time, total time, memo hits) instead of one
span per call, because the hot functions run hundreds of thousands of times.
Self time is the span's duration minus the time covered by wrapped callees,
so summing self times over all wrappers never counts an interval twice.

Call edges (which wrapped function called which) are counted too; the
admissible yield needs the products formed directly inside
``admissible_set``.

Two kinds of wrapper exist: ``timed`` ones, which take part in the self-time
bookkeeping, and ``counted`` ones for the lattice helpers, which only count
calls and leave their time in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time

ROOT = "<root>"


class Tracer:
    """In-memory aggregates, written out once when the run ends."""

    def __init__(self):
        # name -> [calls, self_s, total_s, memo_hits]
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self._stack = [[ROOT, 0.0]]

    def timed(self, name, fn, hit=None, on_result=None):
        """Wrap fn; ``hit(*args)`` is asked before the call whether the
        callee's memo already holds the answer, ``on_result(args, result)``
        sees every result."""
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            key = (parent[0], name)
            edges[key] = edges.get(key, 0) + 1
            if hit is not None and hit(*args):
                rec[3] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt - frame[1]
                rec[2] += dt
                parent[1] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def self_s(self, name: str) -> float:
        rec = self.stats.get(name)
        return rec[1] if rec else 0.0

    def hit_ratio(self, name: str) -> float:
        rec = self.stats.get(name)
        return rec[3] / rec[0] if rec and rec[0] else 0.0

    def dump(self) -> dict:
        return {
            "functions": {name: {"calls": c, "self_s": s, "total_s": t, "memo_hits": h}
                          for name, (c, s, t, h) in sorted(self.stats.items())},
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
        }


def _replace_everywhere(orig, new) -> None:
    """Rebind every module-level name in the package that refers to orig,
    so callers that did ``from module import name`` see the wrapper too."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("ekor_atlas"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _memo_hit(attr):
    """Whether the group's memo dict already holds x.  The engine exposes no
    hit counter, so the benchmark looks into the dict before the call; a
    memo that is renamed or removed reads as all misses."""
    def hit(group, x, *rest):
        return (x.trans, x.w) in getattr(group, attr, ())
    return hit


class _JsonProxy:
    """Stands in for the ``json`` module inside ``ekor_atlas.cli``."""

    def __init__(self, dumps):
        self.dumps = dumps


def install(tracer: Tracer) -> dict:
    """Wrap the layer boundaries; returns the dict the result hooks fill."""
    import json

    import ekor_atlas  # noqa: F401  (imports every engine module)
    import ekor_atlas.cli as cli
    import ekor_atlas.oracles  # noqa: F401
    from ekor_atlas import admissible, affine, ekor, lattice, siegel

    seen: dict = {"parabolic": {}}

    def keep(key):
        def hook(args, result):
            seen[key] = len(result)
        return hook

    def parabolic_hook(args, result):
        seen["parabolic"][frozenset(args[1])] = len(result)

    def report_hook(args, result):
        seen["records"] = len(result)
        seen["basic_records"] = sum(1 for rec in result if rec.basic)

    for name in ("mat_mul", "mat_vec"):
        orig = getattr(lattice, name)
        _replace_everywhere(orig, tracer.counted(f"lattice.{name}", orig))

    group_cls = affine.ExtendedAffineWeylGroup
    methods = {
        "mult": {},
        "length": {"hit": _memo_hit("_length")},
        "first_descent": {},
        "reduced_word": {"hit": _memo_hit("_rd")},
        "newton_vector": {},
        "bruhat_leq": {},
        "parabolic_subgroup_elements": {"on_result": parabolic_hook},
    }
    for name, extra in methods.items():
        setattr(group_cls, name,
                tracer.timed(f"affine.{name}", getattr(group_cls, name), **extra))

    functions = [
        (admissible, "admissible_set", keep("adm_elements")),
        (admissible, "kw_elements", keep("kw_elements")),
        (ekor, "stratum_report", report_hook),
        (ekor, "sigma_support", None),
        (ekor, "stable_level_subset", None),
        (ekor, "dl_datum", None),
        (siegel, "siegel_context", None),
    ]
    for mod, name, hook in functions:
        orig = getattr(mod, name)
        _replace_everywhere(orig, tracer.timed(f"{mod.__name__.split('.')[-1]}.{name}",
                                               orig, on_result=hook))

    ctx_cls = siegel.SiegelContext
    for name in ("compare", "eo_strata"):
        setattr(ctx_cls, name, tracer.timed(f"siegel.{name}", getattr(ctx_cls, name)))

    cli.record_to_json = tracer.timed("cli.record_to_json", cli.record_to_json)
    cli.json = _JsonProxy(tracer.timed("cli.json_dumps", json.dumps))
    return seen


PER_LAYER = [
    # name, unit, better
    ("siegel.context_s", "s", "lower"),
    ("affine.finite_order", "count", "lower"),
    ("lattice.mat_mul_calls", "count", "lower"),
    ("affine.mult_calls", "count", "lower"),
    ("affine.mult_s", "s", "lower"),
    ("lattice.mat_vec_calls", "count", "lower"),
    ("affine.length_calls", "count", "lower"),
    ("affine.length_s", "s", "lower"),
    ("affine.length_hit_ratio", "ratio", "higher"),
    ("affine.first_descent_calls", "count", "lower"),
    ("affine.first_descent_s", "s", "lower"),
    ("affine.reduced_word_calls", "count", "lower"),
    ("affine.reduced_word_s", "s", "lower"),
    ("affine.reduced_word_hit_ratio", "ratio", "higher"),
    ("affine.newton_calls", "count", "lower"),
    ("affine.newton_s", "s", "lower"),
    ("affine.bruhat_leq_calls", "count", "lower"),
    ("affine.bruhat_leq_s", "s", "lower"),
    ("affine.parabolic_s", "s", "lower"),
    ("affine.parabolic_elements", "count", "lower"),
    ("admissible.adm_s", "s", "lower"),
    ("admissible.adm_elements", "count", "lower"),
    ("admissible.adm_yield", "ratio", "higher"),
    ("admissible.kw_s", "s", "lower"),
    ("admissible.kw_elements", "count", "lower"),
    ("admissible.kw_yield", "ratio", "lower"),
    ("ekor.report_s", "s", "lower"),
    ("ekor.records", "count", "lower"),
    ("ekor.basic_records", "count", "lower"),
    ("ekor.sigma_support_s", "s", "lower"),
    ("ekor.stable_subset_s", "s", "lower"),
    ("ekor.dl_datum_s", "s", "lower"),
    ("siegel.compare_s", "s", "lower"),
    ("siegel.eo_strata_s", "s", "lower"),
    ("cli.serialize_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("affine.cache_entries", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_values(tracer: Tracer, seen: dict, group) -> dict:
    """Per-layer values a worker can compute itself; the runner adds the
    output size and the tracing wall time and overhead."""
    t = tracer
    adm = seen.get("adm_elements", 0)
    kw = seen.get("kw_elements", 0)
    adm_products = t.edges.get(("admissible.admissible_set", "affine.mult"), 0)
    return {
        "siegel.context_s": t.self_s("siegel.siegel_context"),
        "affine.finite_order": group.finite_order,
        "lattice.mat_mul_calls": t.calls("lattice.mat_mul"),
        "affine.mult_calls": t.calls("affine.mult"),
        "affine.mult_s": t.self_s("affine.mult"),
        "lattice.mat_vec_calls": t.calls("lattice.mat_vec"),
        "affine.length_calls": t.calls("affine.length"),
        "affine.length_s": t.self_s("affine.length"),
        "affine.length_hit_ratio": t.hit_ratio("affine.length"),
        "affine.first_descent_calls": t.calls("affine.first_descent"),
        "affine.first_descent_s": t.self_s("affine.first_descent"),
        "affine.reduced_word_calls": t.calls("affine.reduced_word"),
        "affine.reduced_word_s": t.self_s("affine.reduced_word"),
        "affine.reduced_word_hit_ratio": t.hit_ratio("affine.reduced_word"),
        "affine.newton_calls": t.calls("affine.newton_vector"),
        "affine.newton_s": t.self_s("affine.newton_vector"),
        "affine.bruhat_leq_calls": t.calls("affine.bruhat_leq"),
        "affine.bruhat_leq_s": t.self_s("affine.bruhat_leq"),
        "affine.parabolic_s": t.self_s("affine.parabolic_subgroup_elements"),
        "affine.parabolic_elements": sum(seen["parabolic"].values()),
        "admissible.adm_s": t.self_s("admissible.admissible_set"),
        "admissible.adm_elements": adm,
        "admissible.adm_yield": adm / adm_products if adm_products else 0.0,
        "admissible.kw_s": t.self_s("admissible.kw_elements"),
        "admissible.kw_elements": kw,
        "admissible.kw_yield": kw / adm if adm else 0.0,
        "ekor.report_s": t.self_s("ekor.stratum_report"),
        "ekor.records": seen.get("records", 0),
        "ekor.basic_records": seen.get("basic_records", 0),
        "ekor.sigma_support_s": t.self_s("ekor.sigma_support"),
        "ekor.stable_subset_s": t.self_s("ekor.stable_level_subset"),
        "ekor.dl_datum_s": t.self_s("ekor.dl_datum"),
        "siegel.compare_s": t.self_s("siegel.compare"),
        "siegel.eo_strata_s": t.self_s("siegel.eo_strata"),
        "cli.serialize_s": t.self_s("cli.record_to_json") + t.self_s("cli.json_dumps"),
        "affine.cache_entries": sum(len(v) for v in vars(group).values()
                                    if isinstance(v, dict)),
    }
