"""Command-line front end.

Exit codes: 0 success, 1 an internal inconsistency (the oracle and the
combinatorics disagree, or the E6 catalog differs from Appendix A), 2
usage or parse error, or output that cannot be written (an unwritable
--out, or a stdout whose reader has closed it), 3 seaweed not Frobenius,
4 unsupported operation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .rootsys import LieType
from .seaweed import (Seaweed, composition_marks, decompose_direct_sum,
                      make_seaweed, parse_composition, parse_subset)
from .meander import Side, components, is_frobenius, orbits, u_turn_report
from .spectrum import (Spectrum, component_spectra, full_spectrum,
                       seaweed_dimension, simple_eigenvalues, spectrum_union,
                       verify_symmetric, verify_unbroken)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_FROBENIUS = 3
EXIT_UNSUPPORTED = 4

EXCEPTIONAL = ("E6", "E7", "E8", "F4", "G2")


class UsageError(Exception):
    pass


def _lie_type(args) -> LieType:
    name = args.type.upper()
    if name in EXCEPTIONAL:
        t = LieType.parse(name)
        if args.rank is not None and t.rank != args.rank:
            raise UsageError(f"--rank contradicts {name}")
        return t
    if name in ("A", "B", "C", "D"):
        if args.rank is None:
            raise UsageError("--rank is required for classical types")
        if args.bourbaki:
            raise UsageError(
                "--bourbaki is not accepted for classical types; indices use "
                "the convention with alpha_1 as the distinguished root")
        return LieType(name, args.rank)
    raise UsageError(f"unknown --type {args.type!r}")


def _side(name: str, subset: str | None, comp: str | None,
          n: int) -> frozenset[int]:
    """One side from exactly one of --NAME (a subset) and --NAME-comp (a
    composition, whose marks are the roots the side leaves out)."""
    if (subset is None) == (comp is None):
        raise UsageError(f"give exactly one of --{name} / --{name}-comp")
    if comp is None:
        return parse_subset(subset, n)
    return (frozenset(range(1, n + 1))
            - composition_marks(parse_composition(comp, n)))


def _seaweed(args) -> Seaweed:
    t = _lie_type(args)
    n = t.rank
    return make_seaweed(t, _side("top", args.top, args.top_comp, n),
                        _side("bottom", args.bottom, args.bottom_comp, n))


def _emit(text: str, args) -> None:
    """Print the output, into the --out file when one is given."""
    if not args.out:
        print(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from exc


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
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        lines = [
            f"seaweed   {s!r}",
            "orbits    " + "  ".join(
                "{" + ",".join(f"a{v}" for v in o) + "}" for o in m.orbits),
            "shared-complement  {" + ",".join(
                f"a{v}" for v in sorted(s.pi_union_complement, reverse=True))
            + "}"]
        lines += [f"u-turns   orbit {{{','.join(map(str, r.orbit))}}}: "
                  f"{r.right} right, {r.left} left"
                  for r in report.rows if r.right or r.left]
        lines.append(f"frobenius {'yes' if frob else 'no'}")
        text = "\n".join(lines)
    _emit(text, args)
    return EXIT_OK if frob else EXIT_NOT_FROBENIUS


def _spectrum_payload(s: Seaweed, x, spectra, total: Spectrum) -> dict:
    comps = [{
        "side": "top" if cs.component.side is Side.TOP else "bottom",
        "roots": sorted(cs.component.roots, reverse=True),
        "shape": str(cs.component.shape),
        "eigenvalues": [{"k": k, "mult": m} for k, m in cs.values.mult],
    } for cs in spectra]
    payload = total.to_json_dict()
    payload["seaweed"] = repr(s)
    payload["simple_eigenvalues"] = [
        {"i": i, "value": v} for i, v in enumerate(x.values, 1)]
    payload["components"] = comps
    return payload


def cmd_spectrum(args) -> int:
    s = _seaweed(args)
    if not s.pi1 | s.pi2:
        raise UsageError("pi1 | pi2 is empty: there is no seaweed to split")
    if not args.decompose and not s.has_full_union():
        raise UsageError("pi1 | pi2 does not cover the diagram; rerun with "
                         "--decompose to split the direct sum")
    parts = decompose_direct_sum(s)
    for part in parts:
        if not is_frobenius(part):
            print(f"{part!r} is not Frobenius", file=sys.stderr)
            return EXIT_NOT_FROBENIUS
    # one solve per summand: (seaweed, values, component spectra, spectrum)
    solved = []
    for part in parts:
        x = simple_eigenvalues(part)
        solved.append((part, x, *component_spectra(components(part), x)))
    total = spectrum_union(sp for *_, sp in solved)
    if args.format == "json":
        summands = [_spectrum_payload(*entry) for entry in solved]
        if len(summands) == 1:
            payload = summands[0]
        else:
            payload = {"seaweed": repr(s), "summands": summands}
            payload.update(total.to_json_dict())
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        if len(solved) == 1:
            part, x = solved[0][:2]
            lines = [f"seaweed   {part!r}   dimension {seaweed_dimension(part)}",
                     "simple eigenvalues  " + " ".join(
                         f"a{i}={v}" for i, v in enumerate(x.values, 1))]
        else:
            lines = [f"seaweed   {s!r}   (direct sum of {len(parts)})"]
        ks = [str(k) for k, _ in total.mult]
        ms = [str(m) for _, m in total.mult]
        widths = [max(len(a), len(b)) for a, b in zip(ks, ms)]
        lines += [
            "eigenvalue    " + "  ".join(k.rjust(w) for k, w in zip(ks, widths)),
            "multiplicity  " + "  ".join(m.rjust(w) for m, w in zip(ms, widths)),
            f"unbroken {verify_unbroken(total)}   "
            f"symmetric {verify_symmetric(total)}"]
        text = "\n".join(lines)
    _emit(text, args)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from .enumerate import catalog_keys, check_appendix_a
    t = _lie_type(args)
    if args.check_appendix_a and str(t) != "E6":
        raise UsageError("--check-appendix-a applies to --type E6 only")
    keys = catalog_keys(t)
    payload = {"type": str(t), "count": len(keys)}
    match = True
    if args.check_appendix_a:
        diff = check_appendix_a(keys)
        match = diff.empty
        payload["appendix_a"] = {
            "match": match,
            "missing": [[sorted(a, reverse=True), sorted(b, reverse=True)]
                        for a, b in diff.missing],
            "extra": [[sorted(a, reverse=True), sorted(b, reverse=True)]
                      for a, b in diff.extra],
        }
    _emit(_catalog_json(payload, t.rank, keys), args)
    # a scan that disagrees with Appendix A is an internal inconsistency
    return EXIT_OK if match else 1


def _catalog_json(payload: dict, n: int, keys) -> str:
    """json.dumps, byte for byte, with indent=2 and sorted keys, of payload
    plus "entries": the keys' rank-n masks as descending pi1, pi2 lists.

    Under indent the stdlib encodes in pure Python, so the entries, nearly
    all of a catalog's bytes, are written here, each distinct mask once:
    one value per line, [] if empty.  The head still goes through json.dumps.
    """
    sides = {}
    for m in {m for key in keys for m in key}:
        values = [str(i) for i in range(n, 0, -1) if m >> (i - 1) & 1]
        sides[m] = ("[\n        " + ",\n        ".join(values) + "\n      ]"
                    if values else "[]")
    fields = []
    for key in sorted([*payload, "entries"]):
        if key == "entries":
            text = "[\n" + ",\n".join(
                f'    {{\n      "pi1": {sides[m1]},\n'
                f'      "pi2": {sides[m2]}\n    }}'
                for m1, m2 in keys) + "\n  ]"
        else:
            text = json.dumps(payload[key], indent=2, sort_keys=True)
            text = text.replace("\n", "\n  ")
        fields.append(f'  "{key}": {text}')
    return "{\n" + ",\n".join(fields) + "\n}"


def cmd_oracle(args) -> int:
    from .oracle import (DEFAULT_SEED, SAMPLE_COUNT, ad_spectrum,
                         frobenius_functional, index, principal_element,
                         realize_type_a)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    t = _lie_type(args)
    if t.family != "A":
        print("matrix oracle supports type A only", file=sys.stderr)
        return EXIT_UNSUPPORTED
    s = _seaweed(args)
    if not s.has_full_union():
        raise UsageError("pi1 | pi2 must cover the diagram for the oracle")
    mat = realize_type_a(s)
    frob = is_frobenius(s)
    f = failure = None
    if frob:
        # the functional's certified rank proves index 0 without sampling
        try:
            f = frobenius_functional(mat)
        except ValueError as exc:
            failure = exc
    ind = index(mat, seed=seed).index if f is None else 0
    payload = {
        "seaweed": repr(s),
        "dimension": mat.dim,
        "frobenius_combinatorial": frob,
        "index": ind,
        "samples": SAMPLE_COUNT,
    }
    agree = True
    if ind == 0 and frob:
        if failure is not None:
            raise failure       # sampled index 0, yet no functional found
        oracle_sp = ad_spectrum(mat, principal_element(mat, f))
        comb_sp = full_spectrum(s)
        payload["oracle_spectrum"] = [
            {"k": k, "mult": m} for k, m in oracle_sp.mult]
        payload["combinatorial_spectrum"] = [
            {"k": k, "mult": m} for k, m in comb_sp.mult]
        payload["spectra_agree"] = oracle_sp.mult == comb_sp.mult
        agree = payload["spectra_agree"]
    payload["index_matches_meander"] = (ind == 0) == frob
    _emit(json.dumps(payload, indent=2, sort_keys=True), args)
    # any disagreement between the two routes is an internal inconsistency
    return EXIT_OK if agree and payload["index_matches_meander"] else 1


def cmd_render(args) -> int:
    from .render import render_svg, render_tikz
    s = _seaweed(args)
    m = orbits(s)
    text = render_tikz(m) if args.format == "tikz" else render_svg(m)
    _emit(text, args)
    return EXIT_OK


# Options as (flag, add_argument keywords), in the order help lists them.
COMMON = (("--type", {"required": True, "help": "A, B, C, D (with --rank) or "
                      "E6, E7, E8, F4, G2"}),
          ("--rank", {"type": int}),
          ("--bourbaki", {"action": "store_true", "help": "confirm Bourbaki "
                          "indexing (exceptional types only)"}),
          ("--out", {"help": "write the output to this file, not stdout"}))
SIDES = (("--top", {"help": "comma list of simple-root indices, e.g. 9,7,6"}),
         ("--top-comp", {"help": "composition form, e.g. 1,1,5,1"}),
         ("--bottom", {}),
         ("--bottom-comp", {}))
TABLE_FORMAT = (("--format", {"choices": ("json", "table"),
                              "default": "table"}),)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for one subcommand when `command` names one, else for all.

    Only the subcommand a call runs needs its subparser, so `main` builds
    the one its first argument names; help, a missing command and an
    unknown word get all of them.
    """
    # Each subcommand: its handler, its help line and the options it takes
    # after COMMON.  The handlers are read on each call, so that one rebound
    # on the module (a test spy, a layer tracer) is the one that runs.
    commands = {
        "check": (cmd_check, "orbits and the Frobenius test",
                  SIDES + TABLE_FORMAT),
        "spectrum": (cmd_spectrum, "simple eigenvalues and the spectrum",
                     SIDES + TABLE_FORMAT
                     + (("--decompose", {"action": "store_true"}),)),
        "enumerate": (cmd_enumerate, "catalog all Frobenius seaweeds",
                      (("--check-appendix-a", {"action": "store_true"}),)),
        # --seed None means oracle.DEFAULT_SEED
        "oracle": (cmd_oracle, "exact matrix cross-check (type A)",
                   SIDES + (("--seed", {"type": int}),)),
        "render": (cmd_render, "draw the orbit meander",
                   SIDES + (("--format", {"choices": ("svg", "tikz"),
                                          "default": "svg"}),)),
    }
    # the usage names every command even when one subparser is built, as
    # "unrecognized arguments" errors print it
    parser = argparse.ArgumentParser(
        prog="seaweed", usage="%(prog)s [-h] {" + ",".join(commands) + "} ...",
        description="Frobenius seaweeds: meanders, spectra, catalogs")
    # prog= keeps the pinned usage out of each subcommand's own prog
    sub = parser.add_subparsers(dest="command", required=True, prog="seaweed")
    for name in [command] if command in commands else commands:
        func, help_, options = commands[name]
        p = sub.add_parser(name, help=help_)
        for flag, keywords in COMMON + options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        code = _run(parser, argv)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's own flush of it at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _run(parser: argparse.ArgumentParser, argv) -> int:
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
