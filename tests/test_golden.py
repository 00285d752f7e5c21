"""Golden stdout digests of `check` and `render` over small full catalogs.

For each (command, format, type) one sha256 covers the exit code and the
stdout of every subset pair whose union is the whole diagram, 3^n pairs
in a fixed order, run through `cli.main`.  It freezes the orbit order
and the U-turn rows of non-Frobenius seaweeds too, which no other test
pins.  `python tests/test_golden.py` prints the digests of the current
code as JSON, in the form tests/golden_stdout.json keeps.
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

COMMANDS = [("check", "table"), ("check", "json"), ("render", "svg"),
            ("render", "tikz")]


def _type_args(t: LieType) -> list[str]:
    if t.family in "ABCD":
        return ["--type", t.family, "--rank", str(t.rank)]
    return ["--type", str(t)]


def _digest(command: str, fmt: str, t: LieType) -> str:
    h = hashlib.sha256()
    for top, bottom in full_union_pairs(t.rank):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main([command, *_type_args(t),
                         "--top=" + ",".join(map(str, top)),
                         "--bottom=" + ",".join(map(str, bottom)),
                         "--format", fmt])
        h.update(f"{code}\n{out.getvalue()}".encode("utf-8"))
    return h.hexdigest()


def _key(command: str, fmt: str, t: LieType) -> str:
    return f"{command} {fmt} {t}"


@pytest.mark.parametrize("command,fmt", COMMANDS,
                         ids=[f"{c}-{f}" for c, f in COMMANDS])
@pytest.mark.parametrize("t", TYPES, ids=str)
def test_stdout_matches_golden_digest(command, fmt, t):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _digest(command, fmt, t) == want[_key(command, fmt, t)]


if __name__ == "__main__":
    print(json.dumps({_key(c, f, t): _digest(c, f, t)
                      for t in TYPES for c, f in COMMANDS},
                     indent=1, sort_keys=True))
