"""Command-line front end.

Exit codes: 0 success, 1 the oracle and the combinatorics disagree (an
internal inconsistency), 2 usage or parse error, 3 seaweed not Frobenius,
4 unsupported operation.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .rootsys import LieType
from .seaweed import (Seaweed, composition_marks, decompose_direct_sum,
                      from_compositions, make_seaweed, parse_composition,
                      parse_subset)
from .meander import Side, is_frobenius, orbits, u_turn_report
from .spectrum import (Spectrum, component_spectra, full_spectrum,
                       seaweed_dimension, simple_eigenvalues, verify_symmetric,
                       verify_unbroken)
from .oracle import (DEFAULT_SEED, ad_spectrum, frobenius_functional, index,
                     principal_element, realize_type_a)
from .enumerate import check_appendix_a, enumerate_frobenius
from .render import render_svg, render_tikz

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_FROBENIUS = 3
EXIT_UNSUPPORTED = 4

EXCEPTIONAL = {"E6": LieType("E", 6), "E7": LieType("E", 7),
               "E8": LieType("E", 8), "F4": LieType("F", 4),
               "G2": LieType("G", 2)}


class UsageError(Exception):
    pass


def _lie_type(args) -> LieType:
    name = args.type.upper()
    if name in EXCEPTIONAL:
        if args.rank is not None and LieType.parse(name).rank != args.rank:
            raise UsageError(f"--rank contradicts {name}")
        return EXCEPTIONAL[name]
    if name in ("A", "B", "C", "D"):
        if args.rank is None:
            raise UsageError("--rank is required for classical types")
        if getattr(args, "bourbaki", False):
            raise UsageError(
                "--bourbaki is not accepted for classical types; indices use "
                "the convention with alpha_1 as the distinguished root")
        return LieType(name, args.rank)
    raise UsageError(f"unknown --type {args.type!r}")


def _seaweed(args) -> Seaweed:
    t = _lie_type(args)
    n = t.rank
    top_given = args.top is not None
    topc_given = getattr(args, "top_comp", None) is not None
    bot_given = args.bottom is not None
    botc_given = getattr(args, "bottom_comp", None) is not None
    if top_given == topc_given:
        raise UsageError("give exactly one of --top / --top-comp")
    if bot_given == botc_given:
        raise UsageError("give exactly one of --bottom / --bottom-comp")
    if topc_given or botc_given:
        a = parse_composition(args.top_comp, n) if topc_given else None
        b = parse_composition(args.bottom_comp, n) if botc_given else None
        if a is not None and b is not None:
            return from_compositions(t, a, b)
        # mixed form: convert the composition side to a subset
        full = frozenset(range(1, n + 1))
        pi1 = (full - composition_marks(a)) if a is not None \
            else parse_subset(args.top, n)
        pi2 = (full - composition_marks(b)) if b is not None \
            else parse_subset(args.bottom, n)
        return make_seaweed(t, pi1, pi2)
    return make_seaweed(t, parse_subset(args.top, n), parse_subset(args.bottom, n))


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def cmd_check(args) -> int:
    s = _seaweed(args)
    if not s.has_full_union():
        raise UsageError("pi1 | pi2 must cover the diagram; split the seaweed "
                         "with the library's decompose_direct_sum first")
    m = orbits(s)
    frob = is_frobenius(s)
    report = u_turn_report(m)
    if args.format == "json":
        payload = {
            "seaweed": repr(s),
            "orbits": [list(o) for o in m.orbits],
            "pi_union_complement": sorted(s.pi_union_complement, reverse=True),
            "frobenius": frob,
            "u_turns": [{"orbit": list(r.orbit), "right": r.right,
                         "left": r.left} for r in report.rows],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args)
    else:
        print(f"seaweed   {s!r}")
        print("orbits    " + "  ".join(
            "{" + ",".join(f"a{v}" for v in o) + "}" for o in m.orbits))
        print("shared-complement  {" + ",".join(
            f"a{v}" for v in sorted(s.pi_union_complement, reverse=True)) + "}")
        for r in report.rows:
            if r.right or r.left:
                print(f"u-turns   orbit {{{','.join(map(str, r.orbit))}}}: "
                      f"{r.right} right, {r.left} left")
        print(f"frobenius {'yes' if frob else 'no'}")
    return EXIT_OK if frob else EXIT_NOT_FROBENIUS


def _spectrum_payload(s: Seaweed) -> dict:
    x = simple_eigenvalues(s)
    spectra, total = component_spectra(s, x)
    comps = [{
        "side": "top" if cs.component.side is Side.TOP else "bottom",
        "roots": sorted(cs.component.roots, reverse=True),
        "shape": str(cs.component.shape),
        "eigenvalues": [{"k": k, "mult": m} for k, m in cs.values.mult],
    } for cs in spectra]
    payload = total.to_json_dict()
    payload["seaweed"] = repr(s)
    payload["simple_eigenvalues"] = [
        {"i": i, "value": v} for i, v in sorted(x.as_dict().items())]
    payload["components"] = comps
    return payload


def cmd_spectrum(args) -> int:
    s = _seaweed(args)
    parts = decompose_direct_sum(s) if args.decompose else [s]
    if not args.decompose and not s.has_full_union():
        raise UsageError("pi1 | pi2 does not cover the diagram; rerun with "
                         "--decompose to split the direct sum")
    for part in parts:
        if not is_frobenius(part):
            print(f"{part!r} is not Frobenius", file=sys.stderr)
            return EXIT_NOT_FROBENIUS
    if args.format == "json":
        if len(parts) == 1:
            payload = _spectrum_payload(parts[0])
        else:
            summands = [_spectrum_payload(p) for p in parts]
            total = Counter()
            for summand in summands:
                total.update(Spectrum.from_json_dict(summand).as_counter())
            payload = {"seaweed": repr(s), "summands": summands}
            payload.update(Spectrum.from_counter(total).to_json_dict())
        _emit(json.dumps(payload, indent=2, sort_keys=True), args)
    else:
        if len(parts) == 1:
            part = parts[0]
            x = simple_eigenvalues(part)
            sp = component_spectra(part, x)[1]
            print(f"seaweed   {part!r}   dimension {seaweed_dimension(part)}")
            print("simple eigenvalues  " + " ".join(
                f"a{i}={v}" for i, v in sorted(x.as_dict().items())))
        else:
            sp = full_spectrum(s)
            print(f"seaweed   {s!r}   (direct sum of {len(parts)})")
        _print_spectrum_table(sp)
    return EXIT_OK


def _print_spectrum_table(sp) -> None:
    ks = [str(k) for k, _ in sp.mult]
    ms = [str(m) for _, m in sp.mult]
    widths = [max(len(a), len(b)) for a, b in zip(ks, ms)]
    print("eigenvalue    " + "  ".join(k.rjust(w) for k, w in zip(ks, widths)))
    print("multiplicity  " + "  ".join(m.rjust(w) for m, w in zip(ms, widths)))
    print(f"unbroken {verify_unbroken(sp)}   symmetric {verify_symmetric(sp)}")


def cmd_enumerate(args) -> int:
    t = _lie_type(args)
    cat = enumerate_frobenius(t)
    payload = cat.to_json_dict()
    if args.check_appendix_a:
        if str(t) != "E6":
            raise UsageError("--check-appendix-a applies to --type E6 only")
        diff = check_appendix_a(cat)
        payload["appendix_a"] = {
            "match": diff.empty,
            "missing": [[sorted(a, reverse=True), sorted(b, reverse=True)]
                        for a, b in diff.missing],
            "extra": [[sorted(a, reverse=True), sorted(b, reverse=True)]
                      for a, b in diff.extra],
        }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args)
    return EXIT_OK


def cmd_oracle(args) -> int:
    t = _lie_type(args)
    if t.family != "A":
        print("matrix oracle supports type A only", file=sys.stderr)
        return EXIT_UNSUPPORTED
    s = _seaweed(args)
    if not s.has_full_union():
        raise UsageError("pi1 | pi2 must cover the diagram for the oracle")
    mat = realize_type_a(s)
    frob = is_frobenius(s)
    cert = index(mat, seed=args.seed)
    payload = {
        "seaweed": repr(s),
        "dimension": mat.dim,
        "frobenius_combinatorial": frob,
        "index": cert.index,
        "samples": cert.samples,
    }
    agree = True
    if cert.index == 0 and frob:
        f = frobenius_functional(mat, args.seed)
        oracle_sp = ad_spectrum(mat, principal_element(mat, f))
        comb_sp = full_spectrum(s)
        payload["oracle_spectrum"] = [
            {"k": k, "mult": m} for k, m in oracle_sp.mult]
        payload["combinatorial_spectrum"] = [
            {"k": k, "mult": m} for k, m in comb_sp.mult]
        payload["spectra_agree"] = oracle_sp.mult == comb_sp.mult
        agree = payload["spectra_agree"]
    payload["index_matches_meander"] = (cert.index == 0) == frob
    _emit(json.dumps(payload, indent=2, sort_keys=True), args)
    # any disagreement between the two routes is an internal inconsistency
    return EXIT_OK if agree and payload["index_matches_meander"] else 1


def cmd_render(args) -> int:
    s = _seaweed(args)
    m = orbits(s)
    text = render_tikz(m) if args.format == "tikz" else render_svg(m)
    _emit(text, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seaweed",
        description="Frobenius seaweeds: meanders, spectra, catalogs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type(p):
        p.add_argument("--type", required=True,
                       help="A, B, C, D (with --rank) or E6, E7, E8, F4, G2")
        p.add_argument("--rank", type=int, default=None)
        p.add_argument("--bourbaki", action="store_true",
                       help="confirm Bourbaki indexing (exceptional types only)")

    def add_sides(p):
        p.add_argument("--top", default=None,
                       help="comma list of simple-root indices, e.g. 9,7,6")
        p.add_argument("--top-comp", dest="top_comp", default=None,
                       help="composition form, e.g. 1,1,5,1")
        p.add_argument("--bottom", default=None)
        p.add_argument("--bottom-comp", dest="bottom_comp", default=None)

    p = sub.add_parser("check", help="orbits and the Frobenius test")
    add_type(p)
    add_sides(p)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="simple eigenvalues and the spectrum")
    add_type(p)
    add_sides(p)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("enumerate", help="catalog all Frobenius seaweeds")
    add_type(p)
    p.add_argument("--check-appendix-a", dest="check_appendix_a",
                   action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="exact matrix cross-check (type A)")
    add_type(p)
    add_sides(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render", help="draw the orbit meander")
    add_type(p)
    add_sides(p)
    p.add_argument("--format", choices=("svg", "tikz"), default="svg")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
