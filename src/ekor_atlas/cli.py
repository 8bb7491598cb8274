"""Command line front end.

Subcommands:
  adm        enumerate the admissible set
  classify   classify every stratum at a level
  dl-data    emit the flag data of the basic strata
  compare    recompute basic strata from closed forms and diff
  check      run the internal consistency suite for one genus

Exit codes: 0 success, 1 internal mismatch, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional, Sequence

from ekor_atlas.admissible import bruhat_hasse_edges, straight_classes
from ekor_atlas.affine import GroupError, element_label
from ekor_atlas.coxeter import CoxeterError
from ekor_atlas.ekor import record_to_json, stratum_report
from ekor_atlas.oracles import (
    OracleError,
    bruhat_leq_subword,
    cayley_ball,
    coxeter_group_size,
)
from ekor_atlas.rootdata import RootDatumError
from ekor_atlas.siegel import siegel_context


# Largest finite Weyl group (2^g g! elements) the tool enumerates, so g <= 7;
# genus 8 would need a table of over ten million elements.
MAX_FINITE_ORDER = 1_000_000


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlas",
        description="Strata of admissible sets for symplectic similitude groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "adm": "enumerate the admissible set of the minuscule cocharacter",
        "classify": "classify the strata at a level",
        "dl-data": "emit flag data of the basic strata",
        "compare": "check computed basic strata against closed forms",
        "check": "run the internal consistency suite",
    }
    for name, blurb in specs.items():
        q = sub.add_parser(name, help=blurb)
        q.add_argument("--g", type=int, required=True, metavar="G",
                       help="genus, at least 1")
        if name in ("classify", "dl-data", "compare"):
            q.add_argument("--level", default="iwahori", metavar="LEVEL",
                           help="iwahori, hyperspecial, or comma separated nodes")
        if name != "check":
            q.add_argument("--format", dest="fmt", default="text",
                           choices=["text", "json", "dot"])
        q.add_argument("--out", default=None, metavar="PATH",
                       help="write output to a file instead of stdout")
    return parser


def _fmt_nodes(nodes) -> str:
    inner = ",".join(str(i) for i in sorted(nodes))
    return "{" + inner + "}"


def _fmt_newton(newton) -> str:
    return "(" + ",".join(str(c) for c in newton) + ")"


def _indented(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` indented two more
    spaces, the layout of an item of an indented list."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n  ")


def _json_list(items, to_json, write=_indented) -> Iterator[str]:
    """The bytes of ``json.dumps([to_json(i) for i in items], indent=2,
    sort_keys=True)`` and a newline, one item at a time: ``write`` gives
    the text of each item, ``_indented`` or a writer of the same bytes."""
    sep = "[\n  "
    for item in items:
        yield sep
        yield write(to_json(item))
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


_NL6, _NL8 = "\n      ", "\n        "
_BOOL = {True: "true", False: "false"}

# ``_indented`` of a dict of ``record_to_json``, keys in sorted order
_RECORD = """{
    "basic": %s,
    "dl": %s,
    "i_set": %s,
    "length": %d,
    "level": %s,
    "newton": %s,
    "supp_sigma": {
      "closure": %s,
      "raw": %s
    },
    "w": {
      "t": %s,
      "w": %s
    },
    "word": %s
  }"""
_DL = """{
      "ambient": %s,
      "dim": %d,
      "frobenius": %s,
      "parabolic": %s,
      "sigma_coxeter": %s,
      "stabilizes_parabolic": %s,
      "type": %s
    }"""


def _items(texts, nl: str) -> str:
    """An indented JSON list of encoded items, each after ``nl``."""
    body = ("," + nl).join(texts)
    return "[" + nl + body + nl[:-2] + "]" if body else "[]"


def _ints(vals, nl: str) -> str:
    return _items(map(str, vals), nl)


def _record_text(d: dict) -> str:
    """``_indented(d)`` for a dict of ``record_to_json``, filled into its
    fixed layout: ``json.dumps`` with an indent runs the pure-Python
    encoder, which takes three to five times as long."""
    w = d["w"]
    perm = w["w"]
    dl = d["dl"]
    supp = d["supp_sigma"]
    return _RECORD % (
        _BOOL[d["basic"]],
        "null" if dl is None else _DL % (
            _ints(dl["ambient"], _NL8),
            dl["dim"],
            _ints(dl["frobenius"], _NL8),
            _ints(dl["parabolic"], _NL8),
            _BOOL[dl["sigma_coxeter"]],
            _BOOL[dl["stabilizes_parabolic"]],
            encode_basestring_ascii(dl["type"])),
        _ints(d["i_set"], _NL6),
        d["length"],
        _ints(d["level"], _NL6),
        _items(map(encode_basestring_ascii, d["newton"]), _NL6),
        _ints(supp["closure"], _NL8),
        _ints(supp["raw"], _NL8),
        _ints(w["t"], _NL8),
        # a finite part that is no permutation is {"rows": ...}
        _ints(perm, _NL8) if isinstance(perm, list)
        else json.dumps(perm, indent=2, sort_keys=True).replace("\n", _NL6),
        _ints(d["word"], _NL6))


def _lines(lines) -> Iterator[str]:
    for line in lines:
        yield line + "\n"


def _hasse_dot(group, elements, doubled=frozenset(), name="hasse") -> list[str]:
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for idx, x in enumerate(elements):
        extra = " peripheries=2" if x in doubled else ""
        lines.append(f'  n{idx} [label="{element_label(group, x)}"{extra}];')
    for a, b in bruhat_hasse_edges(group, elements):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return lines


def _cmd_adm(ctx, fmt: str) -> Iterable[str]:
    adm = ctx.adm()
    group = ctx.group
    if fmt == "json":
        return _json_list(adm.elements, group.element_to_json)
    if fmt == "dot":
        return _lines(_hasse_dot(group, adm.elements, name="admissible"))
    profile = adm.by_length()
    top = max(profile)
    counts = "/".join(str(profile.get(l, 0)) for l in range(top + 1))
    lines = [f"{len(adm)} elements: {counts} by length 0..{top}"]
    for x in adm.elements:
        lines.append(f"len={group.length(x)} {element_label(group, x)}")
    return _lines(lines)


def _cmd_classify(ctx, level, fmt: str) -> Iterable[str]:
    report = stratum_report(ctx.adm(), level)
    group = ctx.group
    if fmt == "json":
        return _json_list(report, lambda rec: record_to_json(group, rec), _record_text)
    if fmt == "dot":
        doubled = frozenset(rec.element for rec in report if rec.basic)
        return _lines(_hasse_dot(group, [rec.element for rec in report],
                                 doubled=doubled, name="strata"))
    nbasic = sum(1 for rec in report if rec.basic)
    lines = [f"{len(report)} strata, {nbasic} basic"]
    for rec in report:
        lines.append(
            f"len={rec.length} basic={'yes' if rec.basic else 'no'} "
            f"{element_label(group, rec.element)} "
            f"supp={_fmt_nodes(rec.support.raw)} "
            f"closure={_fmt_nodes(rec.support.closure)} "
            f"i_set={_fmt_nodes(rec.stable_subset)} "
            f"newton={_fmt_newton(rec.newton)}")
    return _lines(lines)


def _cmd_dl_data(ctx, level, fmt: str) -> Iterable[str]:
    report = [rec for rec in stratum_report(ctx.adm(), level) if rec.basic]
    group = ctx.group
    if fmt == "json":
        return _json_list(report, lambda rec: record_to_json(group, rec), _record_text)
    lines = [f"{len(report)} basic strata"]
    for rec in report:
        dl = rec.datum
        lines.append(
            f"{element_label(group, rec.element)} type={dl.ambient_type} "
            f"ambient={_fmt_nodes(dl.ambient_nodes)} "
            f"parabolic={_fmt_nodes(dl.parabolic_nodes)} dim={dl.dimension} "
            f"coxeter={'yes' if dl.sigma_coxeter else 'no'} "
            f"stable={'yes' if dl.stabilizes_parabolic else 'no'}")
    return _lines(lines)


def _cmd_compare(ctx, level, fmt: str) -> Iterable[str]:
    if level == ctx.iwahori:
        mode = "gortz-yu"
    elif level == ctx.hyperspecial:
        mode = "hoeve"
    else:
        raise UsageError("compare needs an iwahori or hyperspecial level")
    rep = ctx.compare(mode)
    if fmt == "json":
        return _lines([json.dumps(rep.to_json(), indent=2, sort_keys=True)])
    lines = [f"mode={rep.mode} g={rep.g} strata={rep.strata} "
             f"basic={rep.basic} expected={rep.expected} ok"]
    for label in rep.labels:
        lines.append(f"  {label}")
    return _lines(lines)


def _cmd_check(ctx) -> Iterable[str]:
    group = ctx.group
    lines = []

    fin = coxeter_group_size(group.affine_coxeter,
                             frozenset(range(1, ctx.g + 1)), cap=10000)
    want = (2 ** ctx.g) * math.factorial(ctx.g)
    if fin != want:
        raise GroupError(f"finite group size {fin}, expected {want}")
    lines.append(f"ok: finite group has {want} elements")

    omegas = [group.identity, ctx.tau.element, group.inv(ctx.tau.element)]
    dist = cayley_ball(group, 4, omegas)
    for x, r in dist.items():
        if group.length(x) != r:
            raise GroupError(f"length {group.length(x)} but word distance {r}")
    lines.append(f"ok: length matches word distance on {len(dist)} elements")

    adm = ctx.adm()
    cache: dict = {}
    for x in adm.elements:
        for top in adm.maxima:
            if not bruhat_leq_subword(group, x, top, cache):
                continue
            break
        else:
            raise GroupError("admissible element fails the subword test")
        if not any(group.bruhat_leq(x, top) for top in adm.maxima):
            raise GroupError("admissible element fails the order test")
    lines.append(f"ok: {len(adm)} admissible elements sit below a translation point")

    for mode in ("gortz-yu", "hoeve"):
        rep = ctx.compare(mode)
        lines.append(f"ok: {rep.mode} comparison, {rep.basic} basic strata")

    classes = straight_classes(adm)
    nbasic = sum(1 for cls in classes if cls.is_basic)
    if nbasic != 1:
        raise GroupError("expected exactly one basic class")
    lines.append(f"ok: {len(classes)} straight classes, one basic")

    lines.append("all checks passed")
    return _lines(lines)


def dispatch(args) -> Iterable[str]:
    """The output of one command as chunks of text.  Everything that can
    fail is computed before this returns; the chunks only serialize."""
    if args.g < 1:
        raise UsageError("--g must be at least 1")
    # 2^g g! grows with g, so its value at min(g, 20) (25 digits) decides;
    # past genus 20 the message names the count instead of printing it
    capped = min(args.g, 20)
    order = 2 ** capped * math.factorial(capped)
    if order > MAX_FINITE_ORDER:
        count = order if args.g <= 20 else f"2^{args.g} * {args.g}!"
        raise UsageError(f"--g {args.g}: the finite Weyl group has {count} elements, "
                         f"more than the {MAX_FINITE_ORDER} this tool enumerates")
    if args.command == "check":
        if args.g > 3:
            raise UsageError("check supports g up to 3; larger genera take too long")
        return _cmd_check(siegel_context(args.g))
    if args.fmt == "dot" and args.command not in ("adm", "classify"):
        raise UsageError("dot output is only available for adm and classify")
    if args.fmt == "dot" and args.g > 4:  # genus 5 compares millions of pairs
        raise UsageError("dot output supports g up to 4; larger genera take too long")
    ctx = siegel_context(args.g)
    if args.command == "adm":
        return _cmd_adm(ctx, args.fmt)
    try:
        level = ctx.level_nodes(args.level)
    except GroupError as exc:
        raise UsageError(str(exc)) from None
    if args.command == "classify":
        return _cmd_classify(ctx, level, args.fmt)
    if args.command == "dl-data":
        return _cmd_dl_data(ctx, level, args.fmt)
    return _cmd_compare(ctx, level, args.fmt)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        chunks = dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GroupError, RootDatumError, CoxeterError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
