"""Golden stdout digests of `check`, `render`, `enumerate` and `oracle`.

For each (command, format, type) of `check` and `render` one sha256 covers
the exit code and the stdout of every subset pair whose union is the whole
diagram, 3^n pairs in a fixed order, run through `cli.main`.  It freezes
the orbit order and the U-turn rows of non-Frobenius seaweeds too, which
no other test pins.  For each type of CATALOG_TYPES one sha256 covers the
exit code and the stdout of `seaweed enumerate`, the catalog JSON byte for
byte; SLOW_CATALOG_TYPES, the A-D catalogs of ranks 11 and 12 and the A13
catalog, run under `-m slow`.  For each rank of ORACLE_TYPES one sha256
covers the exit code and the stdout of `seaweed oracle` on every
full-union pair, at the default seed; A6 (729 pairs) runs under `-m slow`.
`python tests/test_golden.py` prints the
digests of the current code as JSON, in the form tests/golden_stdout.json
keeps.
"""
from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from seaweeds.cli import main
from seaweeds.rootsys import LieType

from reference_impl import full_union_pairs

GOLDEN = Path(__file__).with_name("golden_stdout.json")

TYPES = [LieType(fam, n) for fam, lo, hi in (("A", 1, 5), ("B", 2, 4),
                                             ("C", 2, 4), ("D", 4, 4))
         for n in range(lo, hi + 1)] + [LieType("E", 6), LieType("F", 4),
                                        LieType("G", 2)]

CATALOG_TYPES = [LieType(fam, n) for fam, lo in (("A", 1), ("B", 2),
                                                ("C", 2), ("D", 3))
                 for n in range(lo, 11)] + [
    LieType.parse(name) for name in ("E6", "E7", "E8", "F4", "G2")]

# About 3 s in all, most of it the 3^12- and 3^13-pair scans; A13 pins
# the catalog bytes above rank 12.
SLOW_CATALOG_TYPES = [LieType(fam, n) for fam in "ABCD"
                      for n in (11, 12)] + [LieType("A", 13)]

# 363 pairs, about 1.5 s; A6 adds 729 more, about 3.6 s
ORACLE_TYPES = [LieType("A", n) for n in range(1, 6)]
SLOW_ORACLE_TYPES = [LieType("A", 6)]

COMMANDS = [("check", "table"), ("check", "json"), ("render", "svg"),
            ("render", "tikz")]


def _type_args(t: LieType) -> list[str]:
    if t.family in "ABCD":
        return ["--type", t.family, "--rank", str(t.rank)]
    return ["--type", str(t)]


def _digest(command: str, t: LieType, options: list[str]) -> str:
    h = hashlib.sha256()
    for top, bottom in full_union_pairs(t.rank):
        h.update(_run([command, *_type_args(t),
                       "--top=" + ",".join(map(str, top)),
                       "--bottom=" + ",".join(map(str, bottom)),
                       *options]).encode("utf-8"))
    return h.hexdigest()


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return f"{code}\n{out.getvalue()}"


def _catalog_digest(t: LieType) -> str:
    text = _run(["enumerate", *_type_args(t)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _key(command: str, fmt: str, t: LieType) -> str:
    return f"{command} {fmt} {t}"


@pytest.mark.parametrize("command,fmt", COMMANDS,
                         ids=[f"{c}-{f}" for c, f in COMMANDS])
@pytest.mark.parametrize("t", TYPES, ids=str)
def test_stdout_matches_golden_digest(command, fmt, t):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert (_digest(command, t, ["--format", fmt])
            == want[_key(command, fmt, t)])


@pytest.mark.parametrize("t", ORACLE_TYPES, ids=str)
def test_oracle_stdout_matches_golden_digest(t):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _digest("oracle", t, []) == want[_key("oracle", "json", t)]


@pytest.mark.slow
@pytest.mark.parametrize("t", SLOW_ORACLE_TYPES, ids=str)
def test_rank_six_oracle_stdout_matches_golden_digest(t):
    test_oracle_stdout_matches_golden_digest(t)


@pytest.mark.parametrize("t", CATALOG_TYPES, ids=str)
def test_catalog_matches_golden_digest(t):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _catalog_digest(t) == want[_key("enumerate", "json", t)]


@pytest.mark.slow
@pytest.mark.parametrize("t", SLOW_CATALOG_TYPES, ids=str)
def test_high_rank_catalog_matches_golden_digest(t):
    test_catalog_matches_golden_digest(t)


if __name__ == "__main__":
    digests = {_key(c, f, t): _digest(c, t, ["--format", f])
               for t in TYPES for c, f in COMMANDS}
    digests.update((_key("oracle", "json", t), _digest("oracle", t, []))
                   for t in ORACLE_TYPES + SLOW_ORACLE_TYPES)
    digests.update((_key("enumerate", "json", t), _catalog_digest(t))
                   for t in CATALOG_TYPES + SLOW_CATALOG_TYPES)
    print(json.dumps(digests, indent=1, sort_keys=True))
