from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_impl
import seaweeds
from seaweeds import cli, oracle, spectrum
from seaweeds.cli import main
from seaweeds.rootsys import LieType, build_root_system
from seaweeds.seaweed import Seaweed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_frobenius_example(capsys):
    code, out, _ = run(capsys, "check", "--type", "A", "--rank", "9",
                       "--top", "9,7,6,4,3,2,1",
                       "--bottom", "9,8,7,5,4,3,2,1")
    assert code == 0
    assert "frobenius yes" in out
    assert "{a6,a9,a7}" in out and "{a8}" in out


def test_check_non_frobenius_exits_three(capsys):
    code, out, _ = run(capsys, "check", "--type", "A", "--rank", "7",
                       "--top", "7,6,5,4,3,2", "--bottom", "7,6,4,3,2,1")
    assert code == 3
    assert "frobenius no" in out


def test_check_missing_bottom_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--type", "A", "--rank", "9",
                       "--top", "9,7")
    assert code == 2


def test_check_json_output(capsys):
    code, out, _ = run(capsys, "check", "--type", "C", "--rank", "8",
                       "--top", "8,7,6,3,2,1", "--bottom", "8,7,5,4,3,2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["frobenius"] is True
    assert sorted(map(sorted, payload["orbits"])) == \
        sorted(map(sorted, [[6, 7, 8], [2, 5], [3, 4], [1]]))


@pytest.mark.parametrize("typ,rank,top,bottom,expected", [
    ("B", "8", "8,7,6,3,2,1", "8,7,5,4,3,2",
     {"-2": 1, "-1": 5, "0": 12, "1": 12, "2": 5, "3": 1}),
    ("D", "14", "14,13,12,11,10,9,8,7,5,4,3,2,1", "14,13,12,11,9,8,7,6,5,4,3,2",
     {"-2": 6, "-1": 19, "0": 33, "1": 33, "2": 19, "3": 6}),
    ("E6", None, "5,4,3,1", "6,5,4,3,2,1",
     {"-4": 2, "-3": 3, "-2": 5, "-1": 7, "0": 9,
      "1": 9, "2": 7, "3": 5, "4": 3, "5": 2}),
])
def test_spectrum_json_tables(capsys, typ, rank, top, bottom, expected):
    argv = ["spectrum", "--type", typ, "--top", top, "--bottom", bottom,
            "--format", "json"]
    if rank:
        argv += ["--rank", rank]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    got = {str(e["k"]): e["mult"] for e in payload["eigenvalues"]}
    assert got == expected
    assert payload["unbroken"] and payload["symmetric"]


def test_spectrum_table_format(capsys):
    code, out, _ = run(capsys, "spectrum", "--type", "B", "--rank", "8",
                       "--top", "8,7,6,3,2,1", "--bottom", "8,7,5,4,3,2")
    assert code == 0
    assert "eigenvalue" in out and "multiplicity" in out
    assert "12" in out


def test_spectrum_table_solves_once(capsys, monkeypatch):
    solved = []
    solve = spectrum._solve_eigenvalues
    monkeypatch.setattr(spectrum, "_solve_eigenvalues",
                        lambda s, *sides: solved.append(s) or solve(s, *sides))
    code, _, _ = run(capsys, "spectrum", "--type", "B", "--rank", "8",
                     "--top", "8,7,6,3,2,1", "--bottom", "8,7,5,4,3,2",
                     "--format", "table")
    assert code == 0
    assert len(solved) == 1


def test_spectrum_json_builds_each_side_table_once(capsys,
                                                   side_table_calls):
    # the Frobenius test and the solve read the same cached involutions
    code, _, _ = run(capsys, "spectrum", "--type", "B", "--rank", "8",
                     "--top", "8,7,6,3,2,1", "--bottom", "8,7,5,4,3,2",
                     "--format", "json")
    assert code == 0
    assert len(side_table_calls) == 2


def test_spectrum_non_frobenius_exit(capsys):
    code, _, err = run(capsys, "spectrum", "--type", "A", "--rank", "2",
                       "--top", "2,1", "--bottom", "2,1")
    assert code == 3


def test_spectrum_requires_decompose_for_partial_union(capsys):
    code, _, err = run(capsys, "spectrum", "--type", "A", "--rank", "3",
                       "--top", "3", "--bottom", "1")
    assert code == 2
    code, out, _ = run(capsys, "spectrum", "--type", "A", "--rank", "3",
                       "--top", "3", "--bottom", "1", "--decompose",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {str(e["k"]): e["mult"] for e in payload["eigenvalues"]} == \
        {"0": 2, "1": 2}


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_spectrum_refuses_empty_sides(capsys, fmt):
    # no simple root on either side: nothing to split, nothing to report
    for rank in (1, 3):
        code, out, err = run(capsys, "spectrum", "--type", "A", "--rank",
                             str(rank), "--top", "-", "--bottom", "-",
                             "--decompose", "--format", fmt)
        assert code == 2
        assert out == ""
        assert "empty" in err


def test_spectrum_table_decompose_single_summand(capsys):
    # the union misses alpha_3, which leaves one A2 summand: the table
    # reports that summand, as the JSON format does
    argv = ("spectrum", "--type", "A", "--rank", "3", "--top", "3,2",
            "--bottom", "2", "--decompose")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out.splitlines() == [
        "seaweed   p^A2(2,1|1)   dimension 6",
        "simple eigenvalues  a1=-1 a2=2",
        "eigenvalue    -1  0  1  2",
        "multiplicity   1  2  2  1",
        "unbroken True   symmetric True",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["seaweed"] == "p^A2(2,1|1)"


@pytest.mark.parametrize("typ,rank,top,bottom", [
    ("A", "9", "9,8,4,3,1", "9,7,4,2,1"),
    ("B", "6", "6,5,2,1", "5,3,2"),
])
def test_spectrum_decompose_multi_summand(capsys, monkeypatch, typ, rank,
                                          top, bottom):
    # two summands, each solved once per request; the total is their sum
    solved = []
    solve = spectrum._solve_eigenvalues
    monkeypatch.setattr(spectrum, "_solve_eigenvalues",
                        lambda s, *sides: solved.append(s) or solve(s, *sides))
    argv = ("spectrum", "--type", typ, "--rank", rank, "--top", top,
            "--bottom", bottom, "--decompose")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert len(solved) == 2
    payload = json.loads(out)
    summands = payload["summands"]
    assert len(summands) == 2
    total = Counter()
    for summand in summands:
        total.update({e["k"]: e["mult"] for e in summand["eigenvalues"]})
    assert {e["k"]: e["mult"] for e in payload["eigenvalues"]} == total
    assert payload["dimension"] == sum(p["dimension"] for p in summands)
    assert payload["unbroken"] and payload["symmetric"]

    code, out, err = run(capsys, *argv, "--format", "table")
    assert code == 0, err
    assert len(solved) == 4
    head, ks, ms, verdict = out.splitlines()
    assert head.endswith(f"(direct sum of {len(summands)})")
    assert dict(zip(map(int, ks.split()[1:]), map(int, ms.split()[1:]))) \
        == total
    assert verdict == "unbroken True   symmetric True"


def test_spectrum_composition_arguments(capsys):
    code, out, _ = run(capsys, "spectrum", "--type", "C", "--rank", "3",
                       "--top-comp", "1,1,1", "--bottom-comp", "",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {str(e["k"]): e["mult"] for e in payload["eigenvalues"]} == \
        {"0": 6, "1": 6}


def test_sides_are_exclusive(capsys):
    code, _, err = run(capsys, "spectrum", "--type", "C", "--rank", "3",
                       "--top", "1", "--top-comp", "1", "--bottom", "2")
    assert code == 2


def test_mixed_subset_and_composition_sides(capsys):
    # composition (1,1,5,1) marks {8,7,2,1}, so the top is {6,5,4,3}
    code, out, _ = run(capsys, "check", "--type", "C", "--rank", "8",
                       "--top-comp", "1,1,5,1", "--bottom", "8,7,6,4,3,2,1",
                       "--format", "json")
    assert code in (0, 3)
    payload = json.loads(out)
    assert payload["seaweed"].startswith("p^C8(6,5,4,3|")


def test_exceptional_rank_contradiction(capsys):
    code, _, err = run(capsys, "check", "--type", "E6", "--rank", "7",
                       "--top", "5,4,3,1", "--bottom", "6,5,4,3,2,1")
    assert code == 2


def test_bourbaki_flag_rejected_for_classical(capsys):
    code, _, err = run(capsys, "check", "--type", "B", "--rank", "3",
                       "--top", "3,2,1", "--bottom", "1", "--bourbaki")
    assert code == 2
    assert "bourbaki" in err.lower()


def test_enumerate_and_appendix(capsys, tmp_path):
    out_file = tmp_path / "cat.json"
    code, _, _ = run(capsys, "enumerate", "--type", "G2",
                     "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["count"] == 2
    code, out, _ = run(capsys, "enumerate", "--type", "E6",
                       "--check-appendix-a")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 74
    assert payload["appendix_a"]["match"] is True


def test_enumerate_appendix_mismatch_exits_one(capsys, monkeypatch):
    """A scan that disagrees with Appendix A exits 1, the documented code
    for an internal inconsistency, with the same JSON on stdout."""
    dropped = seaweeds.enumerate.APPENDIX_A_E6[0]
    monkeypatch.setattr(seaweeds.enumerate, "APPENDIX_A_E6",
                        seaweeds.enumerate.APPENDIX_A_E6[1:])
    code, out, _ = run(capsys, "enumerate", "--type", "E6",
                       "--check-appendix-a")
    assert code == 1
    payload = json.loads(out)
    assert payload["count"] == 74
    diff = payload["appendix_a"]
    assert diff["match"] is False and diff["missing"] == []
    (extra,) = diff["extra"]
    assert {frozenset(side) for side in extra} == set(dropped)


def _appendix_a(diff) -> dict:
    def sides(pairs):
        return [[sorted(a, reverse=True), sorted(b, reverse=True)]
                for a, b in pairs]
    return {"match": diff.empty, "missing": sides(diff.missing),
            "extra": sides(diff.extra)}


@pytest.mark.parametrize("name,appendix", [
    ("A1", False), ("B2", False), ("G2", False), ("E6", True),
    ("E6", "mismatch")])
def test_catalog_writer_matches_stdlib_json(capsys, monkeypatch, name,
                                            appendix):
    """The CLI writes the catalog as json.dumps(indent=2, sort_keys=True)
    would, byte for byte: catalogs with an empty side (A1, B2, G2), and the
    E6 Appendix A head, matching and with both missing and extra rows."""
    t = LieType.parse(name)
    argv = ["enumerate", *(["--type", name] if t.family in "EFG" else
                           ["--type", t.family, "--rank", str(t.rank)])]
    if appendix == "mismatch":
        bogus = (frozenset({1}), frozenset({2}))
        monkeypatch.setattr(seaweeds.enumerate, "APPENDIX_A_E6",
                            seaweeds.enumerate.APPENDIX_A_E6[1:] + (bogus,))
    payload = reference_impl.catalog_json_dict(
        reference_impl.enumerate_frobenius(t))
    if appendix:
        argv.append("--check-appendix-a")
        payload["appendix_a"] = _appendix_a(seaweeds.enumerate.check_appendix_a(
            seaweeds.enumerate.catalog_keys(t)))
    if appendix == "mismatch":
        assert payload["appendix_a"]["missing"]
        assert payload["appendix_a"]["extra"]
    if not appendix:
        assert any(not e["pi1"] or not e["pi2"] for e in payload["entries"])
    code, out, _ = run(capsys, *argv)
    assert code == (1 if appendix == "mismatch" else 0)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_enumerate_appendix_check_builds_no_seaweed(capsys, monkeypatch):
    """The E6 Appendix A diff reads the mask keys: no Seaweed is built
    between the scan and the JSON."""
    built = []
    new = Seaweed.__new__

    def counted(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(Seaweed, "__new__", counted)
    code, out, _ = run(capsys, "enumerate", "--type", "E6",
                       "--check-appendix-a")
    assert code == 0
    assert json.loads(out)["appendix_a"]["match"] is True
    assert not built


def test_enumerate_appendix_flag_is_e6_only(capsys):
    code, _, err = run(capsys, "enumerate", "--type", "G2",
                       "--check-appendix-a")
    assert code == 2


def test_enumerate_appendix_flag_is_refused_before_the_scan(capsys,
                                                             monkeypatch):
    """A type other than E6 is refused before its catalog is scanned, so
    A16 exits 2 at once instead of after a 3^16-pair scan."""
    def no_scan(t):
        raise AssertionError(f"scanned {t}")
    monkeypatch.setattr(seaweeds.enumerate, "catalog_keys", no_scan)
    code, out, err = run(capsys, "enumerate", "--type", "A", "--rank", "16",
                         "--check-appendix-a")
    assert code == 2
    assert out == ""
    assert "--check-appendix-a applies to --type E6 only" in err


CHECK_A9 = ("check", "--type", "A", "--rank", "9", "--top", "9,7,6,4,3,2,1",
            "--bottom", "9,8,7,5,4,3,2,1")
SPECTRUM_B8 = ("spectrum", "--type", "B", "--rank", "8",
               "--top", "8,7,6,3,2,1", "--bottom", "8,7,5,4,3,2")


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv", [CHECK_A9, SPECTRUM_B8],
                         ids=["check", "spectrum"])
def test_out_file_holds_what_stdout_would(capsys, tmp_path, argv, fmt):
    code, expected, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    out_file = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, "--format", fmt, "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert out_file.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, fmt):
    code, out, err = run(capsys, *SPECTRUM_B8, "--format", fmt,
                         "--out", str(tmp_path / "missing" / "x"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "missing" in err


def test_json_round_trip_byte_identical(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "F4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    again = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert again == out


def test_oracle_type_a(capsys):
    code, out, _ = run(capsys, "oracle", "--type", "A", "--rank", "3",
                       "--top", "3,1", "--bottom", "3,2", "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 0
    assert payload["spectra_agree"] is True
    assert {str(e["k"]): e["mult"] for e in payload["oracle_spectrum"]} == \
        {"-1": 1, "0": 3, "1": 3, "2": 1}


ORACLE_FROBENIUS = ["oracle", "--type", "A", "--rank", "3", "--top", "3,1",
                    "--bottom", "3,2"]
ORACLE_FULL_SL3 = ["oracle", "--type", "A", "--rank", "2", "--top", "2,1",
                   "--bottom", "2,1"]


def test_oracle_seed_defaults_to_the_oracle_constant(capsys, monkeypatch):
    # a Frobenius run seeds the functional search, whose certificate is its
    # index; any other run seeds the sampled index
    for argv, step in ((ORACLE_FROBENIUS, "frobenius_functional"),
                       (ORACLE_FULL_SL3, "index")):
        seeds = []
        real = getattr(oracle, step)

        def spy(m, seed, **kwargs):
            seeds.append(seed)
            return real(m, seed, **kwargs)

        # cmd_oracle imports from seaweeds.oracle when it runs, so it finds
        # the spy
        with monkeypatch.context() as patch:
            patch.setattr(oracle, step, spy)
            default = run(capsys, *argv)
            assert run(capsys, *argv, "--seed", "1729") == default
        assert default[0] == 0
        assert seeds == [oracle.DEFAULT_SEED, 1729] == [1729, 1729]


def test_oracle_samples_the_index_when_the_meander_says_frobenius_wrongly(
        capsys, monkeypatch):
    # the search refuses full sl(3), so the index is sampled and the wrong
    # verdict shows as a disagreement, not as a usage error
    monkeypatch.setattr(cli, "is_frobenius", lambda s: True)
    code, out, err = run(capsys, *ORACLE_FULL_SL3)
    assert code == 1
    payload = json.loads(out)
    assert payload["index"] == 2
    assert payload["samples"] == oracle.SAMPLE_COUNT
    assert payload["index_matches_meander"] is False
    assert "Traceback" not in err


def test_oracle_samples_the_index_when_the_meander_says_not_frobenius(
        capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_frobenius", lambda s: False)
    code, out, _ = run(capsys, *ORACLE_FROBENIUS)
    assert code == 1
    payload = json.loads(out)
    assert payload["index"] == 0
    assert payload["index_matches_meander"] is False
    assert "oracle_spectrum" not in payload


def test_oracle_failed_search_with_sampled_index_zero_exits_two(capsys,
                                                                monkeypatch):
    def refuse(m, seed):
        raise ValueError("no regular functional")

    monkeypatch.setattr(oracle, "frobenius_functional", refuse)
    code, out, err = run(capsys, *ORACLE_FROBENIUS)
    assert (code, out) == (2, "")
    assert err == "error: no regular functional\n"


def test_oracle_rejects_non_type_a(capsys):
    code, _, err = run(capsys, "oracle", "--type", "E6",
                       "--top", "5,4,3,1", "--bottom", "6,5,4,3,2,1")
    assert code == 4


def test_render_svg_to_file(capsys, tmp_path):
    out_file = tmp_path / "m.svg"
    code, _, _ = run(capsys, "render", "--type", "C", "--rank", "8",
                     "--top", "8,7,6,3,2,1", "--bottom", "8,7,5,4,3,2",
                     "--format", "svg", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert "<svg" in text and 'id="arc-1+-3+"' in text


def test_render_tikz_stdout(capsys):
    code, out, _ = run(capsys, "render", "--type", "A", "--rank", "2",
                       "--top", "2", "--bottom", "1", "--format", "tikz")
    assert code == 0
    assert "tikzpicture" in out


# Modules a cold check or spectrum process never runs: the oracle, its
# linear algebra, the catalogs, the drawings, rational arithmetic and the
# dataclass machinery.
NOT_FOR_CHECK = ("numpy", "concurrent.futures", "dataclasses", "inspect",
                 "fractions", "seaweeds.oracle", "seaweeds._linalg",
                 "seaweeds.enumerate", "seaweeds.render")


def test_cli_import_leaves_numpy_and_threads_unloaded():
    # every cold check or spectrum process pays for what seaweeds.cli
    # imports and for what one request of each then loads
    probe = ("import sys; before = set(sys.modules); "
             "from seaweeds.cli import main; "
             "main(['check', '--type', 'B', '--rank', '8', "
             "'--top', '8,7,6,3,2,1', '--bottom', '8,7,5,4,3,2']); "
             "main(['spectrum', '--type', 'B', '--rank', '8', "
             "'--top', '8,7,6,3,2,1', '--bottom', '8,7,5,4,3,2', "
             "'--format', 'json']); "
             "print(sorted((set(sys.modules) - before) & "
             f"set({NOT_FOR_CHECK})))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(seaweeds.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "frobenius yes" in done.stdout
    assert '"unbroken": true' in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"


def test_enumerate_import_leaves_numpy_and_the_oracle_unloaded():
    # a cold enumerate process, as the catalog benchmark's scans run, pays
    # for none of the oracle's numpy, linear algebra or rational arithmetic
    unwanted = ("numpy", "seaweeds._linalg", "seaweeds.oracle", "fractions")
    probe = ("import sys; before = set(sys.modules); "
             "from seaweeds.cli import main; "
             "code = main(['enumerate', '--type', 'E6']); "
             "print(code, sorted((set(sys.modules) - before) & "
             f"set({unwanted})))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(seaweeds.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert '"count": 74' in done.stdout
    assert done.stdout.splitlines()[-1] == "0 []"


RANK_512_BOREL = ["--rank", "512", "--bottom", "-",
                  "--top", ",".join(str(i) for i in range(512, 0, -1))]


def test_check_at_rank_512_builds_no_roots(capsys):
    code, out, _ = run(capsys, "check", "--type", "C", *RANK_512_BOREL)
    assert code == 0
    assert "frobenius yes" in out
    assert "positive_roots" not in vars(build_root_system(LieType("C", 512)))


def test_check_at_rank_512_in_a_fresh_process():
    env = dict(os.environ,
               PYTHONPATH=str(Path(seaweeds.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "seaweeds.cli", "check", "--type", "C",
         *RANK_512_BOREL], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("frobenius yes\n")
    # runpy warns when the package root has already imported seaweeds.cli
    assert "RuntimeWarning" not in done.stderr


def test_oracle_refuses_ranks_above_its_guard():
    env = dict(os.environ,
               PYTHONPATH=str(Path(seaweeds.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "seaweeds.cli", "oracle", "--type", "A",
         *RANK_512_BOREL], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "exceeds the matrix-oracle guard (16)" in done.stderr


def test_closed_stdout_exits_two_with_one_error_line():
    env = dict(os.environ,
               PYTHONPATH=str(Path(seaweeds.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "seaweeds.cli", "enumerate", "--type", "A",
         "--rank", "9"], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    # the A9 catalog (119,552 bytes) overflows a pipe buffer, so its write
    # fails even when it starts before the read end is closed
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("error: cannot write stdout:")
    assert len(err.splitlines()) == 1, err


# ------------------------------------------------- the per-command parser

def _subcommands(parser: argparse.ArgumentParser) -> list[str]:
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


VALID_ARGV = {
    "check": ["--type", "A", "--rank", "3", "--top", "3,1", "--bottom", "3,2"],
    "spectrum": ["--type", "A", "--rank", "3", "--top", "3,1",
                 "--bottom", "3,2"],
    "enumerate": ["--type", "A", "--rank", "3"],
    "oracle": ["--type", "A", "--rank", "3", "--top", "3,1", "--bottom", "3,2"],
    "render": ["--type", "A", "--rank", "3", "--top", "3,1", "--bottom", "3,2"],
}


def test_build_parser_builds_only_the_named_subcommand():
    assert _subcommands(cli.build_parser("oracle")) == ["oracle"]
    for command in (None, "-h", "bogus"):
        assert _subcommands(cli.build_parser(command)) == list(VALID_ARGV)


def test_main_runs_the_handler_bound_on_the_module(monkeypatch):
    # a handler rebound on the module after import (here a spy) is the one
    # that runs, as the benchmark's layer tracer needs
    calls = []
    monkeypatch.setattr(cli, "cmd_check",
                        lambda args: calls.append(args.top) or 4)
    assert main(["check", "--type", "A", "--rank", "3", "--top", "3,1",
                 "--bottom", "3,2"]) == 4
    assert calls == ["3,1"]


PARSER_CASES = [["-h"], [], ["bogus"], ["-h", "oracle"],
                ["--type", "A", "check"]]
for _name, _valid in VALID_ARGV.items():
    PARSER_CASES += [
        [_name, "-h"],
        [_name, "--rank", "3"],                               # no --type
        [_name, "--type", "A", "--rank", "three"],            # bad int
        [_name, *_valid, "--format", "bogus"],                # bad choice
        [_name, *_valid, "--extra"],                          # unrecognized
    ]


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parser_output_matches_the_whole_parser(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = _run_quietly(list(argv))
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: reference_impl.build_parser())
    assert got == _run_quietly(list(argv))


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line)[1:] for line in section.splitlines()
            if line.startswith("seaweed ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_examples_parse_as_with_the_whole_parser(argv):
    assert (vars(cli.build_parser(argv[0]).parse_args(argv))
            == vars(reference_impl.build_parser().parse_args(argv)))


# ------------------------------------------- the command line's input space

EXIT_CODES = {0, 1, 2, 3, 4}
# mostly types that run, with a few the parser or _lie_type must refuse
TYPES = ("A", "A", "A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2", "e6",
         "X", "")
EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2, "e6": 6}
MALFORMED = (",", "1,,2", "x", "1;2", "1.5", "+", "0x1")
# enumerate and oracle grow fast in the rank; these caps keep the test short
RANK_CAP = {"enumerate": 8, "oracle": 6}
FORMATS = {"check": ("json", "table"), "spectrum": ("json", "table"),
           "render": ("svg", "tikz")}
RARELY = st.sampled_from((False, False, False, True))


def _csv(values) -> str:
    return ",".join(map(str, values))


@st.composite
def _subset(draw, n: int) -> str:
    if draw(RARELY):
        return draw(st.sampled_from(MALFORMED + (_csv([0]), _csv([n + 1]))))
    return _csv(sorted(draw(st.sets(st.integers(1, n))), reverse=True))


@st.composite
def _composition(draw, n: int) -> str:
    if draw(RARELY):
        return draw(st.sampled_from(MALFORMED + ("0", "-1", str(n + 1))))
    parts, total = [], 0
    while total < n and draw(st.booleans()):
        parts.append(draw(st.integers(1, n - total)))
        total += parts[-1]
    return _csv(parts) or "-"


@st.composite
def cli_argv(draw):
    """Argv for any subcommand: mostly well-formed, with out-of-range
    ranks, malformed sides, both or neither form of a side, bad --format
    values and flags the command or type refuses mixed in."""
    command = draw(st.sampled_from(sorted(VALID_ARGV)))
    cap = RANK_CAP.get(command, 12)
    name = draw(st.sampled_from(TYPES))
    argv = [command, "--type", name]
    n = EXCEPTIONAL_RANK.get(name)
    if n is None or draw(RARELY):
        rank = draw(st.integers(1, cap) if not draw(RARELY)
                    else st.sampled_from((None, 0, -1, cap + 1)))
        if rank is not None:
            argv += ["--rank", str(rank)]
        n = rank if rank is not None and 0 < rank <= cap else None
    n = n or 3  # sides for a rank the command refuses anyway
    if command != "enumerate":
        top = draw(st.sets(st.integers(1, n)))
        # a bottom that mostly covers what the top leaves out, so that
        # check, oracle and spectrum without --decompose get past the union
        every = set(range(1, n + 1))
        bottom = (every - top) | draw(st.sets(st.integers(1, n)))
        if draw(RARELY):
            bottom = draw(st.sets(st.integers(1, n)))
        for side, roots in (("top", top), ("bottom", bottom)):
            form = draw(st.sampled_from(
                ("both", "neither") if draw(RARELY)
                else ("subset", "subset", "comp", "drawn")))
            if form in ("subset", "both"):
                argv.append(f"--{side}=" + (_csv(sorted(roots, reverse=True))
                                            or "-"))
            if form == "drawn":
                argv.append(f"--{side}=" + draw(_subset(n)))
            if form in ("comp", "both"):
                argv.append(f"--{side}-comp=" + draw(_composition(n)))
    formats = FORMATS.get(command, ())
    fmt = draw(st.sampled_from(("bogus",) if draw(RARELY)
                               else (None, *formats)))
    if fmt is not None:
        argv += ["--format", fmt]
    own = {"spectrum": "--decompose", "enumerate": "--check-appendix-a"}
    if command in own and draw(st.booleans()):
        argv.append(own[command])
    if name in EXCEPTIONAL_RANK and draw(st.booleans()):
        argv.append("--bourbaki")
    if draw(RARELY):
        argv.append(draw(st.sampled_from(
            ("--bourbaki", "--decompose", "--check-appendix-a", "--seed=x"))))
    if command == "oracle" and draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 2 ** 31)))]
    return argv


@given(cli_argv())
@settings(max_examples=500, deadline=None)
def test_command_line_input_space(argv):
    code, out, _ = _run_quietly(argv)
    assert code in EXIT_CODES
    # "json" is a word of its own only as the value of --format
    prints_json = argv[0] in ("enumerate", "oracle") or "json" in argv
    if code == 0:
        assert out
    if prints_json and out:
        json.loads(out)
