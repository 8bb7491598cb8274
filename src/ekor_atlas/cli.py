"""Command line front end.

Subcommands:
  adm        enumerate the admissible set
  classify   classify every stratum at a level
  dl-data    emit the flag data of the basic strata
  compare    recompute basic strata from closed forms and diff
  check      run the internal consistency suite for one genus

Exit codes: 0 success, 1 internal mismatch, 2 bad configuration or an --out
path that cannot be written, 141 (128 + SIGPIPE) the reader of the output
closed it early, as ``atlas classify --g 4 | head -1`` does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Iterable, Iterator, Optional, Sequence

from ekor_atlas.admissible import bruhat_hasse_edges
from ekor_atlas.affine import GroupError, element_label
from ekor_atlas.coxeter import CoxeterError
from ekor_atlas.ekor import StratumRecord
from ekor_atlas.oracles import (
    bruhat_leq_subword,
    cayley_ball,
    coxeter_group_size,
    straight_classes,
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
            dot = ["dot"] if name in ("adm", "classify") else []
            q.add_argument("--format", dest="fmt", default="text",
                           choices=["text", "json"] + dot)
        q.add_argument("--out", default=None, metavar="PATH",
                       help="write output to a file instead of stdout")
    return parser


def _fmt_nodes(nodes) -> str:
    inner = ",".join(str(i) for i in sorted(nodes))
    return "{" + inner + "}"


def _fmt_newton(newton) -> str:
    return "(" + ",".join(str(c) for c in newton) + ")"


def _indented(obj, nl: str = "\n  ") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with each line break
    followed by ``nl``: by default two more spaces, the layout of an item of
    an indented list."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def _json_list(texts) -> Iterator[str]:
    """The bytes of ``json.dumps(items, indent=2, sort_keys=True)`` and a
    newline, one item at a time, from the texts of the items as
    ``_indented`` gives them."""
    sep = "[\n  "
    for text in texts:
        yield sep
        yield text
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


_NL4, _NL6, _NL8 = "\n    ", "\n      ", "\n        "
# the digits of word letters and one-line finite parts: nodes and ambient
# coordinates, both below the 256 functionals that the group allows
_DIGITS = tuple(map(str, range(256)))
# a field of one record alone: json writes it as "\u0000", a %s hole in the
# record's text (``_fragment``)
_HOLE = "\0"


def _items(texts, nl: str) -> str:
    """An indented JSON list of encoded items, each after ``nl``."""
    body = ("," + nl).join(texts)
    return "[" + nl + body + nl[:-2] + "]" if body else "[]"


def _fragment(rec: StratumRecord) -> str:
    """The text of a record with a %s hole for each field of its own: the
    length (twice with a flag datum), the Newton point, the translation, the
    finite part and the word.  The rest is digits, booleans, null, key names
    and the name of a finite type, none of which holds a %."""
    supp, iset, dl = rec.support, rec.stable_subset, rec.datum
    return _indented({
        "basic": rec.basic,
        "dl": None if dl is None else {
            "ambient": sorted(dl.ambient_nodes),
            "dim": _HOLE,
            "frobenius": list(supp.twist),
            "parabolic": sorted(iset),
            "sigma_coxeter": dl.sigma_coxeter,
            "stabilizes_parabolic": dl.stabilizes_parabolic,
            "type": dl.ambient_type,
        },
        "i_set": sorted(iset),
        "length": _HOLE,
        "level": list(rec.level),
        "newton": _HOLE,
        "supp_sigma": {"closure": sorted(supp.closure), "raw": sorted(supp.raw)},
        "w": {"t": _HOLE, "w": _HOLE},
        "word": _HOLE,
    }).replace('"\\u0000"', "%s")


def record_to_json(group, rec: StratumRecord) -> str:
    """``_indented`` of the record as a dict, with a flag datum whose
    ``parabolic``, ``dim`` and ``frobenius`` are the record's stable subset,
    length and twist.

    The record's text with holes, its fragment, is memoised on the group,
    keyed by the flag datum, the stable subset, the level and the
    sigma-support, which decides the basic flag: 68 keys for the 6,331
    genus-5 strata (327 with the Newton point in the key), so the indented
    ``json.dumps``, which runs the pure-Python encoder, stays off the
    per-record path.  The holes take the length, the Newton point, the
    translation, the finite part and the word.  The texts of the
    translation, by its lattice coordinates, and of the Newton point, by
    the identity of the tuple that records share with the Newton memo
    (hashing Fractions costs more than printing them), are memoised too;
    the Newton entry holds the tuple, so its id is not reused.  The numbers
    of the finite part and the word are read from one tuple of digit
    strings; a finite part that is no permutation is written as
    ``{"rows": ...}``."""
    texts = group._json_texts
    (trans, widx), word, n, level, _, supp, iset, nu, dl = rec
    key = (dl, iset, level, supp)
    frag = texts.get(key) or texts.setdefault(key, _fragment(rec))
    newton = (texts.get(id(nu)) or texts.setdefault(
        id(nu), (nu, _indented(list(map(str, nu)), _NL4))))[1]
    # tagged, apart from the fragment keys
    tkey = ("t", trans)
    t = texts.get(tkey) or texts.setdefault(
        tkey, _indented(group.datum.from_lattice(trans), _NL6))
    perm = group.finite_to_json(widx)
    w = (_items(map(_DIGITS.__getitem__, perm), _NL8) if isinstance(perm, list)
         else _indented(perm, _NL6))
    word = _items(map(_DIGITS.__getitem__, word), _NL6)
    return frag % ((n, newton, t, w, word) if dl is None else (n, n, newton, t, w, word))


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
        return _json_list(map(_indented, map(group.element_to_json, adm.elements)))
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
    report = ctx.report(level)
    group = ctx.group
    if fmt == "json":
        return _json_list(record_to_json(group, rec) for rec in report)
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
    report = [rec for rec in ctx.report(level) if rec.basic]
    group = ctx.group
    if fmt == "json":
        return _json_list(record_to_json(group, rec) for rec in report)
    lines = [f"{len(report)} basic strata"]
    for rec in report:
        dl = rec.datum
        lines.append(
            f"{element_label(group, rec.element)} type={dl.ambient_type} "
            f"ambient={_fmt_nodes(dl.ambient_nodes)} "
            f"parabolic={_fmt_nodes(rec.stable_subset)} dim={rec.length} "
            f"coxeter={'yes' if dl.sigma_coxeter else 'no'} "
            f"stable={'yes' if dl.stabilizes_parabolic else 'no'}")
    return _lines(lines)


def _cmd_compare(ctx, level, fmt: str) -> Iterable[str]:
    if level not in (ctx.iwahori, ctx.hyperspecial):
        raise UsageError("compare needs an iwahori or hyperspecial level")
    rep = ctx.compare(level)
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

    fin = coxeter_group_size(group.affine_coxeter, ctx.hyperspecial,
                             cap=group.finite_order)
    if fin != group.finite_order:
        raise GroupError(f"finite group size {fin}, expected {group.finite_order}")
    lines.append(f"ok: finite group has {fin} elements")

    omegas = [group.identity, ctx.tau.element, group.inv(ctx.tau.element)]
    dist = cayley_ball(group, 4, omegas)
    for x, r in dist.items():
        if group.length(x) != r:
            raise GroupError(f"length {group.length(x)} but word distance {r}")
    lines.append(f"ok: length matches word distance on {len(dist)} elements")

    adm = ctx.adm()
    cache: dict = {}
    for x in adm.elements:
        if not any(bruhat_leq_subword(group, x, top, cache) for top in adm.maxima):
            raise GroupError("admissible element fails the subword test")
        if not any(group.bruhat_leq(x, top) for top in adm.maxima):
            raise GroupError("admissible element fails the order test")
    lines.append(f"ok: {len(adm)} admissible elements sit below a translation point")

    for level in (ctx.iwahori, ctx.hyperspecial):
        rep = ctx.compare(level)
        lines.append(f"ok: {rep.mode} comparison, {rep.basic} basic strata")

    classes = straight_classes(adm)
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
        if args.g > 5:
            raise UsageError("check supports g up to 5; larger genera take too long")
        return _cmd_check(siegel_context(args.g))
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
    if args.out is None:
        return _write(args, sys.stdout)
    # opened before any work, like a shell redirect, so a bad path fails fast
    try:
        handle = open(args.out, "w", encoding="ascii")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    with handle:
        return _write(args, handle)


def _write(args, out) -> int:
    try:
        chunks = dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GroupError, RootDatumError, CoxeterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        out.writelines(chunks)
        out.flush()
    except BrokenPipeError:
        # what is still buffered goes to the null device, so the flush at
        # close or at interpreter exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 141
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
