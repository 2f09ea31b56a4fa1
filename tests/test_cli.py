import inspect
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aisemiring import catalog, cli
from aisemiring.census import enumerate_ai_semirings
from aisemiring.core import FiniteAiSemiring, element_names
from aisemiring.cli import main


def assert_no_record(value, path="payload"):
    """A record is a NamedTuple, so json.dumps would print a stray one as an
    array instead of failing: no value of a payload may have ``_fields``."""
    assert not hasattr(value, "_fields"), f"{path} is a {type(value).__name__} record"
    if isinstance(value, dict):
        for key, item in value.items():
            assert_no_record(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            assert_no_record(item, f"{path}[{i}]")


def run(capsys, argv):
    dumps = json.dumps

    def checked_dumps(value, **kwargs):
        assert_no_record(value)
        return dumps(value, **kwargs)

    with mock.patch.object(json, "dumps", checked_dumps):  # every --json payload passes through it
        code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out) if out.strip() else None, err


def test_check_exit_codes(capsys):
    code, payload, _ = run_json(capsys, ["check", "--semiring", "S_(4,20)", "--identity", "x^4 = x^2"])
    assert code == 0 and payload["all_hold"]

    code, payload, _ = run_json(capsys, ["check", "--semiring", "S_(4,4)", "--identity", "xy = yx"])
    assert code == 1
    assert payload["results"][0]["witness"] == {"x": "3", "y": "4"}

    code, _, err = run(capsys, ["check", "--semiring", "S_(4,4)"])
    assert code == 2 and "error" in err


def test_check_basis_flag(capsys):
    code, payload, _ = run_json(capsys, ["check", "--semiring", "S_(4,12)", "--basis", "S_(4,12)"])
    assert code == 0 and payload["all_hold"] and len(payload["results"]) == 59


def test_iso_subcommand(capsys):
    code, payload, _ = run_json(capsys, ["iso", "S_(4,8)", "@sc:ab"])
    assert code == 0 and payload["found"]
    assert set(payload["morphism"]["map"]) == {"1", "2", "3", "4"}

    code, payload, _ = run_json(capsys, ["iso", "S_(4,4)", "S_(4,8)"])
    assert code == 1 and not payload["found"]


def test_embed_and_subdirect(capsys):
    code, payload, _ = run_json(capsys, ["embed", "S7", "S_(4,11)"])
    assert code == 0 and payload["found"]
    code, _, _ = run(capsys, ["embed", "S7", "S_(4,1)"])
    assert code == 1
    code, payload, _ = run_json(capsys, ["subdirect", "S_(4,42)", "S2", "S13"])
    assert code == 0 and payload["found"]
    code, _, _ = run(capsys, ["subdirect", "S7", "T2", "T2"])
    assert code == 1


def test_validate_subcommand(capsys, tmp_path):
    code, payload, _ = run_json(capsys, ["validate", "S_(4,31)"])
    assert code == 0 and payload["valid"]

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"elements": ["0", "1"], "add": [[0, 1], [1, 1]], "mul": [[1, 0], [0, 0]]}
        )
    )
    code, payload, _ = run_json(capsys, ["validate", str(bad)])
    assert code == 1 and not payload["valid"]
    assert payload["violations"]

    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"elements": ["0"], "add": [[0, 0]], "mul": [[0]]}))
    code, _, err = run(capsys, ["validate", str(malformed)])
    assert code == 2

    code, _, err = run(capsys, ["validate", str(tmp_path / "missing.json")])
    assert code == 2 and err.startswith("error: no such file:")


def test_enumerate_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, ["enumerate", "--order", "2"])
    assert code == 0 and out.strip() == "6"

    code, payload, _ = run_json(
        capsys, ["enumerate", "--order", "3", "--count-only", "--workers", "1"]
    )
    assert code == 0 and payload["count"] == 61

    out_dir = tmp_path / "census2"
    code, payload, _ = run_json(capsys, ["enumerate", "--order", "2", "--out", str(out_dir)])
    assert code == 0
    index = (out_dir / "index.txt").read_text().strip().splitlines()
    assert len(index) == 6

    # --out writes exactly the classes reported, under their full-census names and keys
    for flags, count in ((["--height1"], 17), ([], 61)):
        out_dir = tmp_path / f"census3{''.join(flags)}"
        argv = ["enumerate", "--order", "3", "--workers", "1", "--out", str(out_dir)] + flags
        code, payload, _ = run_json(capsys, argv)
        assert code == 0 and payload["count"] == count
        index = [line.split() for line in (out_dir / "index.txt").read_text().splitlines()]
        assert [key for key, _ in index] == payload["keys"]
        assert sorted(os.listdir(out_dir)) == sorted([name for _, name in index] + ["index.txt"])


def test_enumerate_hashes_no_semiring(capsys, monkeypatch):
    # the keys are read by position: the height-1 classes are the census's first block
    hashed = []
    unhashed = FiniteAiSemiring.__hash__

    def counted(S):
        hashed.append(S)
        return unhashed(S)

    monkeypatch.setattr(FiniteAiSemiring, "__hash__", counted)
    for flags, count in (([], "866"), (["--height1"], "58")):
        code, out, _ = run(capsys, ["enumerate", "--order", "4", "--count-only", *flags])
        assert code == 0 and out.strip() == count
    assert hashed == []


def test_construct_subcommand(capsys, tmp_path):
    code, payload, _ = run_json(capsys, ["construct", "sc", "--words", "ab"])
    assert code == 0 and set(payload["elements"]) == {"0", "a", "b", "ab"}

    code, payload, _ = run_json(capsys, ["construct", "dual", "S_(4,41)"])
    assert code == 0 and payload["mul"][0] == [0, 0, 0, 3]

    code, payload, _ = run_json(capsys, ["construct", "flat-ext", "--group", "z3"])
    assert code == 0 and len(payload["elements"]) == 4

    code, payload, _ = run_json(capsys, ["construct", "product", "L2", "T2"])
    assert code == 0 and len(payload["elements"]) == 4

    target = tmp_path / "made.json"
    code, _, _ = run(capsys, ["construct", "ne", "S7", "--out", str(target)])
    assert code == 0 and json.loads(target.read_text())["elements"][-1] == "b"

    code, _, err = run(capsys, ["construct", "ne", "S_(4,38)"])
    assert code == 2 and "error" in err

    z2 = {"elements": ["0", "e", "g1"], "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 1]], "zero": 0, "identity": 1}
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(z2))
    from_table = run_json(capsys, ["construct", "flat-ext", "--table", str(path)])
    assert from_table[0] == 0
    assert from_table[:2] == run_json(capsys, ["construct", "flat-ext", "--group", "z2"])[:2]


def test_criteria_subcommand(capsys):
    code, payload, _ = run_json(
        capsys, ["criteria", "--lemma", "S4", "--identity", "xy = xy + y", "--oracle"]
    )
    assert code == 0 and payload["holds"] and payload["oracle"]["agrees"]

    code, payload, _ = run_json(
        capsys, ["criteria", "--lemma", "S4", "--identity", "xy = xy + x", "--oracle"]
    )
    assert code == 1 and not payload["holds"] and payload["oracle"]["agrees"]

    code, _, err = run(capsys, ["criteria", "--lemma", "S4", "--identity", "xy = yx"])
    assert code == 2

    code, payload, _ = run_json(
        capsys, ["criteria", "--lemma", "T2", "--identity", "x + y = x + y + x"]
    )
    assert code == 0 and payload["holds"]

    # 40 distinct summand vectors: no search over their odd-size subsets
    wide = "+".join(f"x{i}" for i in range(1, 41))
    code, payload, _ = run_json(
        capsys, ["criteria", "--lemma", "S10", "--identity", f"{wide} = {wide} + x1x2"]
    )
    assert code == 1 and payload["rule"] == "no-odd-set-match"


def test_criteria_sweep_takes_only_the_grammar_letters(capsys):
    # the identity grammar reads ASCII letters only, so a sweep over 'é' would judge identities no one can write
    code, _, err = run(capsys, ["criteria", "--lemma", "S6", "--identity", "xé = xé + y"])
    assert code == 2 and "unexpected character 'é'" in err
    for pool in ("xé", "x²"):
        argv = ["criteria", "--sweep", "--variables", pool, "--max-length", "2", "--max-summands", "1"]
        expected = f"error: --variables must be ASCII letters, one per variable, got {pool!r}\n"
        assert run(capsys, argv) == (2, "", expected)


def test_criteria_reads_q_as_the_summand_missing_on_the_left(capsys):
    code, expected, _ = run_json(capsys, ["criteria", "--lemma", "M2", "--identity", "x + y ≈ x + y + yx"])
    assert code == 0 and expected["identity"] == "x + y ≈ x + y + yx"
    for text in ("x + y ≈ yx + x + y", "y + x ≈ x + yx + y", "x + y = y + yx + x + y"):
        assert run_json(capsys, ["criteria", "--lemma", "M2", "--identity", text])[:2] == (0, expected)
    code, payload, _ = run_json(capsys, ["criteria", "--lemma", "M2", "--identity", "x ≈ y + x"])
    assert code == 1 and payload["identity"] == "x ≈ x + y"
    # with equal sides q stays the last written summand
    assert [cli._parse_simple_identity(text).extra.letters for text in ("x + y = y + x", "y + x = x + y")] == [
        ("x",),
        ("y",),
    ]
    for text in ("x + y ≈ x", "x ≈ y + z"):
        code, _, err = run(capsys, ["criteria", "--lemma", "M2", "--identity", text])
        assert code == 2 and err == "error: identity is not of the simple form u ≈ u + q\n"
    # a last written summand that is a sum gives its last word
    for text in ("x + y ≈ (x + y)", "x + y ≈ x + (x + y)"):
        code, payload, _ = run_json(capsys, ["criteria", "--lemma", "M2", "--identity", text])
        assert code == 0 and payload["identity"] == "x + y ≈ x + y"
        assert cli._parse_simple_identity(text).extra.letters == ("y",)


def test_unknown_catalog_entry_prints_without_quotes(capsys):
    for argv in (["catalog", "show", "nope"], ["check", "--semiring", "T2", "--basis", "nope"]):
        code, _, err = run(capsys, argv)
        assert (code, err) == (2, "error: unknown catalog entry 'nope'\n")


def test_nfb_subcommand(capsys):
    code, payload, _ = run_json(capsys, ["nfb-check", "S_(4,49)"])
    assert code == 0 and payload["conclusion"]
    code, payload, _ = run_json(capsys, ["nfb-check", "T2"])
    assert code == 1 and not payload["conclusion"]


def test_catalog_subcommands(capsys):
    code, payload, _ = run_json(capsys, ["catalog", "list", "--order", "4", "--status", "nonfinitely-based"])
    assert code == 0 and len(payload) == 9

    code, payload, _ = run_json(capsys, ["catalog", "show", "S_(4,37)"])
    assert code == 0
    assert payload["semiring"]["mul"][2] == [0, 2, 3, 1]
    code, out, _ = run(capsys, ["catalog", "show", "S_(4,20)"])
    assert code == 0 and out.startswith("S_(4,20) on {1, 2, 3, 4}\n")
    assert "\nstatus: finitely-based\nbasis:\n  x^4 ≈ x^2\n  xy ≈ yx\n  xy^2 ≈ x + xy^2\n" in out
    assert "\n  x1x2 + x3 + x4 ≈ x1x2 + x1x2x3x4 + x3 + x4\nclaims:\n  subdirect product of S10 and T2\n" in out

    code, payload, _ = run_json(capsys, ["catalog", "list", "--order", "4"])
    assert len(payload) == 58
    # every entry has additive height 1, so there is no filter on it
    code, out, err = run(capsys, ["catalog", "list", "--height1"])
    assert (code, out) == (2, "") and err == "error: aisemiring catalog list: unrecognized arguments: --height1\n"

    code, payload, _ = run_json(capsys, ["catalog", "verify"])
    assert code == 0 and payload["all_ok"] and len(payload["results"]) == 53


def test_catalog_verify_fails_on_a_failing_basis(capsys, monkeypatch):
    entry = catalog.get("S_(4,4)")
    wrong = replace(entry, basis=catalog.expand_basis("S_(4,14)"))  # xy ≈ yx fails in S_(4,4)
    monkeypatch.setattr(catalog, "_catalog", lambda: {entry.name: wrong})
    code, payload, _ = run_json(capsys, ["catalog", "verify"])
    assert code == 1 and not payload["all_ok"]
    assert [r["kind"] for r in payload["results"] if not r["ok"]] == ["basis-holds"]


def test_cert_subcommand(capsys, tmp_path):
    code, payload, _ = run_json(capsys, ["cert", "list"])
    assert code == 0 and "idempotent_collapse" in payload["bundled"]

    code, payload, _ = run_json(capsys, ["cert", "verify", "absorb_after_long_word"])
    assert code == 0 and payload["valid"]

    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps(
            {
                "axioms": ["x + x = x"],
                "chain": ["a", "b"],
                "steps": [{"axiom": 0, "dir": "LR", "subst": {"x": "a"}}],
            }
        )
    )
    code, payload, _ = run_json(capsys, ["cert", "verify", str(broken)])
    assert code == 1 and payload["failed_step"] == 0

    code, _, err = run(capsys, ["cert", "verify", "no_such_cert"])
    assert code == 2

    # an argument with a path separator is a file, as for every file argument
    assert run(capsys, ["cert", "verify", "./missing.json"]) == (2, "", "error: no such file: ./missing.json\n")
    code, out, err = run(capsys, ["cert", "verify", "../certs/square_swallows_overlap"])
    assert (code, out) == (2, "") and err.startswith("error: no such file: ")


def test_unknown_reference_is_usage_error(capsys):
    code, _, err = run(capsys, ["iso", "S_(4,8)", "nonsense"])
    assert code == 2 and "error" in err


def test_out_of_range_order_is_usage_error(capsys):
    code, _, err = run(capsys, ["enumerate", "--order", "7"])
    assert code == 2 and "error" in err


def test_a_hom_search_longer_than_the_stack_finds_the_identity(capsys, monkeypatch):
    # the search keeps its path on a list, not the call stack; a flat
    # semiring of n elements (zero product) is unchecked, so it is built at no cost
    n = 300
    add = tuple(tuple(a if a == b else 0 for b in range(n)) for a in range(n))
    flat = FiniteAiSemiring("flat", element_names(n), add, ((0,) * n,) * n)
    monkeypatch.setattr(cli, "resolve_ref", lambda ref: flat)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)  # far fewer frames than elements
    try:
        for command in ("iso", "embed"):
            code, payload, err = run_json(capsys, [command, "A", "B"])
            assert code == 0 and err == "", (command, err)
            assert payload["morphism"]["map"] == {e: e for e in flat.elements}, command
    finally:
        sys.setrecursionlimit(limit)


def test_an_occupied_out_is_refused_before_the_census(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the census ran before --out was checked")

    monkeypatch.setattr(cli, "enumerate_ai_semirings", refuse)
    occupied = tmp_path / "census"
    occupied.mkdir()
    (occupied / "index.txt").write_text("kept\n")
    code, out, err = run(capsys, ["enumerate", "--order", "6", "--out", str(occupied)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert os.listdir(occupied) == ["index.txt"] and (occupied / "index.txt").read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["census"]  # no fresh sibling either


def test_budget_overrun_is_usage_error(capsys):
    big = "x1x2x3x4x5x6x7x8x9x10x11x12 = x12x11x10x9x8x7x6x5x4x3x2x1"
    code, _, err = run(capsys, ["check", "--semiring", "S_(4,1)", "--identity", big])
    assert code == 2 and "error" in err


_BAD_INPUTS = [
    ["catalog", "show"],
    ["cert", "verify"],
    ["validate", "{add_five}"],
    ["validate", "{nan_name}"],
    ["validate", "{bool_entries}"],
    ["validate", "{dir}/"],
    ["iso", "@prod:T2", "L2"],
    ["construct", "ne"],
    ["check", "--semiring", "T2", "--identity", "(" * 2000 + "x" + ")" * 2000 + " = x"],
    ["check", "--semiring", "T2", "--identity", "(x + y)^18 = x"],
    ["construct", "flat-ext", "--table", "{semigroup_out_of_range}"],
    ["validate", "@dual:" * 1200 + "T2"],
    ["construct", "product", "@prod:T2,S_(4,1)", "@prod:S_(4,1),S_(4,1)"],
    ["enumerate", "--order", "1", "--out", "{dir}"],
    ["validate", "@sc:abcdefgh"],
    ["validate", "@s:" + "abcdefghij" * 4],
    ["subdirect", "T2", "@prod:@prod:T2,T2,@prod:T2,T2", "@prod:@prod:T2,T2,@prod:T2,T2"],
    ["enumerate", "--order", "2", "--workers", "-3"],
    ["enumerate", "--order", "2", "--workers", "0"],
    ["validate", "{dir}"],
    ["criteria"],
    ["criteria", "--sweep", "--identity", "x = x + x"],
    ["criteria", "--sweep", "--max-summands", "0"],
    ["criteria", "--sweep", "--variables", "x1"],
    ["criteria", "--sweep", "--max-length", "40"],
    ["criteria", "--sweep", "--variables", "x", "--max-length", "100000000"],
    ["criteria", "--sweep", "--variables", "abcdefghijklmnopq", "--max-length", "1"],
    ["validate", "T2", "--table", "{broken_laws}"],
    ["check", "--semiring", "T2", "--basis", "S_(4,4)", "--identity", "x = y"],
    ["validate", "{deep}"],
    ["validate", "{string_elements}"],
    ["construct", "flat-ext", "--table", "{deep}"],
    ["construct", "dual", "{deep}"],
    ["cert", "verify", "{deep}"],
    ["cert", "verify", "{dir}"],
    ["construct", "sc", "T2", "L2", "--words", "ab"],
    ["construct", "flat-ext", "--group", "z3", "--table", "{semigroup_out_of_range}"],
    ["construct", "dual", "T2", "--words", "ab"],
    ["construct", "flat-ext", "--table", "{no_elements}"],
    ["check", "--semiring", "T2", "--basis", "S7"],
    ["criteria", "--lemma", "XX", "--identity", "x ≈ x + y"],
    ["enumerate"],
    ["enumerate", "--order", "x"],
    ["catalog", "show", "T2", "--order", "4"],
    ["catalog", "verify", "--status", "external"],
    ["cert", "list", "extra"],
    ["criteria", "--lemma", "M2", "--identity", "x + y ≈ yx + x + y", "--max-length", "5", "--variables", "ab"],
    ["criteria", "--lemma", "M2", "--identity", "x + y ≈ yx + x + y", "--max-summands", "9"],
    ["criteria", "--sweep", "--max-length", "9"],  # 1.3e17 identities, words inside the letter budget
    ["criteria", "--sweep", "--max-summands", "40"],  # 2.1e13 identities over 39 words
    ["construct", "flat-ext", "--table", "{zero_not_absorbing}"],
    ["construct", "flat-ext", "--table", "{identity_not_neutral}"],
    ["construct", "flat-ext", "--table", "{zero_out_of_range}"],
    ["construct", "flat-ext", "--table", "{semigroup_string_elements}"],
]


# a row keeps the id it had when each row also named environment variables
@pytest.mark.parametrize("argv", _BAD_INPUTS, ids=[f"argv{i}-env{i}" for i in range(len(_BAD_INPUTS))])
def test_bad_input_is_usage_error(capsys, tmp_path, argv):
    files = {
        "add_five": {"add": 5, "mul": [[0]]},
        "bool_entries": {"elements": ["0", "1"], "add": [[0, 1], [1, 1]], "mul": [[0, 0], [True, 1]]},
        "broken_laws": {"elements": ["0", "1"], "add": [[0, 1], [1, 1]], "mul": [[1, 0], [0, 0]]},
        "semigroup_out_of_range": {"elements": ["0", "1"], "mul": [[0, 0], [0, 5]], "zero": 0},
        "no_elements": {"mul": [[0]]},
        "nan_name": {**_T2, "name": float("nan")},
        "string_elements": {**_T2, "elements": "01"},
        "zero_not_absorbing": {"elements": ["0", "1"], "mul": [[0, 0], [0, 1]], "zero": 1},
        "identity_not_neutral": {"elements": ["0", "1"], "mul": [[0, 0], [0, 0]], "zero": 0, "identity": 1},
        "zero_out_of_range": {"elements": ["0", "1"], "mul": [[0, 0], [0, 0]], "zero": 5},
        "semigroup_string_elements": {"elements": "01", "mul": [[0, 0], [0, 1]], "zero": 0},
    }
    texts = {name: json.dumps(data) for name, data in files.items()}
    texts["deep"] = "[" * 100000 + "]" * 100000  # json.dumps itself refuses this depth
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
    paths = {name: str(tmp_path / f"{name}.json") for name in texts}
    given_dir = any("{dir}" in arg for arg in argv)
    argv = [arg.format(dir=str(tmp_path), **paths) for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and err.startswith("error:") and "Traceback" not in err and "[Errno" not in err
    if given_dir:  # the message names the directory, not the OS error number
        assert err.startswith(f"error: {tmp_path}")
    assert all(os.path.isfile(path) for path in paths.values())


def test_validate_accepts_exactly_the_files_check_loads(capsys, tmp_path):
    docs = {
        "valid": _T2,
        "broken_laws": {**_T2, "mul": [[1, 0], [0, 0]]},
        "string_elements": {**_T2, "elements": "ab"},
        "object_elements": {**_T2, "elements": {"a": 0, "b": 1}},
        "nan_name": {**_T2, "name": float("nan")},
        "int_name": {**_T2, "name": 5},
        "three_names": {**_T2, "elements": ["0", "1", "2"]},
    }
    validated = {}
    for name, doc in docs.items():
        path = str(tmp_path / f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        validated[name] = run(capsys, ["validate", path])[0]
        code, out, _ = run(capsys, ["check", "--semiring", path, "--identity", "x = x", "--json"])
        assert (validated[name] == 0) == (code == 0), name
        assert "NaN" not in out
    assert {name for name, code in validated.items() if code == 1} == {"broken_laws"}
    assert validated["valid"] == 0


def test_a_refusal_inside_a_reader_names_the_file(capsys, tmp_path):
    cases = [
        (["validate"], {**_T2, "mul": [[True, 1], [1, 1]]}),
        (["construct", "flat-ext", "--table"], {"elements": ["0", "1"], "mul": [[0, 0], [0, 5]], "zero": 0}),
        (["construct", "flat-ext", "--table"], {"elements": ["0", "1"], "mul": [[0, 0], [0, 1]]}),  # no zero
        (["construct", "flat-ext", "--table"], {"elements": ["a", "a"], "mul": [[0, 0], [0, 1]], "zero": 0}),
        (["cert", "verify"], {"axioms": 5}),
    ]
    for i, (argv, doc) in enumerate(cases):
        path = str(tmp_path / f"{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = run(capsys, argv + [path])
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    # tables that break a law are refused under the file's name by every
    # command that reads a semiring, whatever name the file gives them
    path = str(tmp_path / "broken_laws.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**_T2, "name": "B", "mul": [[1, 0], [0, 0]]}, fh)
    for argv in (
        ["check", "--semiring", path, "--identity", "x = x"],
        ["construct", "dual", path],
        ["iso", path, "T2"],
        ["subdirect", path, "T2", "T2"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {path}: not an ai-semiring: ") and err.count("\n") == 1, err
    # ... and are still reported, not refused, by validate
    code, out, err = run(capsys, ["validate", path])
    assert (code, err) == (1, "") and out.startswith("invalid")


def test_argparse_refusals_name_the_sub_command(capsys):
    code, out, err = run(capsys, ["construct", "product", "T2"])
    assert (code, out) == (2, "")
    assert err == "error: aisemiring construct product: the following arguments are required: REF\n"
    # arguments left over are refused by the leaf command, which the message names
    code, out, err = run(capsys, ["catalog", "show", "T2", "--order", "4"])
    assert (code, out) == (2, "")
    assert err == "error: aisemiring catalog show: unrecognized arguments: --order 4\n"
    assert run(capsys, ["iso", "T2", "T2", "L2"])[2] == "error: aisemiring iso: unrecognized arguments: L2\n"
    # an option before the sub-command was given to no sub-command
    assert run(capsys, ["--foo", "enumerate", "--order", "2"]) == (
        2, "", "error: aisemiring: unrecognized arguments: --foo\n"
    )
    err = run(capsys, ["enumerate", "--order", "2", "--foo"])[2]
    assert err == "error: aisemiring enumerate: unrecognized arguments: --foo\n"
    assert run(capsys, ["enumerate", "--order", "3", "--workers", "x"]) == (
        2, "", "error: aisemiring enumerate: argument --workers: expected an integer of at least 1, got 'x'\n"
    )


def test_closed_stdout_is_one_error_line():
    # stdout is a pipe whose read end is closed before the command writes
    read, write = os.pipe()
    os.close(read)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "aisemiring", "catalog", "list", "--json"],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "error: standard output was closed before the output was written\n"


def _readme() -> str:
    return open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8").read()


def test_readme_command_lines_parse():
    block = _readme().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(argv[0] == "aisemiring" for argv in lines)
    parser = cli.build_parser()
    for argv in lines:
        assert callable(parser.parse_args(argv[1:]).fn), argv


def test_readme_python_blocks_run():
    blocks = [b.split("```", 1)[0] for b in _readme().split("```python\n")[1:]]
    assert len(blocks) == 3
    namespace = {}  # one namespace: a later block reads what an earlier one set
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    block = _readme().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    # a 3-element table that breaks left distributivity
    (tmp_path / "table.json").write_text('{"add": [[0,0,0],[0,1,0],[0,1,2]], "mul": [[0,0,0],[0,0,0],[0,1,0]]}')
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        code, out, err = run(capsys, argv[1:])
        assert (code, err) == (1 if "exit 1" in line else 0, ""), line
        printed = line.partition("# prints ")[2]
        if printed:
            assert out == printed + "\n", line


def test_enumerate_workers_default_to_the_processor_count(capsys, monkeypatch):
    # above order 4; up to order 4 a serial census takes under 0.1 s, and 2
    # workers are slower at order 3 (6 against 2 ms) and at order 4 save
    # about a fifth (29-32 against 35-40 ms) only with a free second processor
    handed = []
    order1 = enumerate_ai_semirings(1)

    def record(n, workers=1):
        handed.append(workers)
        return order1

    monkeypatch.setattr(cli, "enumerate_ai_semirings", record)
    assert run(capsys, ["enumerate", "--order", "5", "--workers", "1"])[0] == 0
    assert run(capsys, ["enumerate", "--order", "5"])[0] == 0
    available = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert handed == [1, available]
    # the processors this process may use, not every processor of the machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert run(capsys, ["enumerate", "--order", "5"])[0] == 0
    assert handed[-1] == 3
    # where the platform cannot say, every processor of the machine, or 1 if that is unknown too
    monkeypatch.delattr(os, "sched_getaffinity")
    for counted, workers in ((6, 6), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: counted)
        assert run(capsys, ["enumerate", "--order", "5"])[0] == 0
        assert handed[-1] == workers
    for order in ("1", "4"):
        assert run(capsys, ["enumerate", "--order", order])[0] == 0
        assert handed[-1] == 1
    assert run(capsys, ["enumerate", "--order", "4", "--workers", "2"])[0] == 0
    assert handed[-1] == 2



# ---------------------------------------------------------------------------
# fuzzing main(argv): any input ends in exit 0, 1 or 2 and never a traceback

_NAMES = ["T2", "L2", "S7", "S2", "S13", "S_(4,1)", "S_(4, 49)", "S_(4,59)", "nonsense", "", " ", "(", ",", "@", "@:"]
_leaf_refs = st.one_of(
    st.sampled_from(_NAMES),
    st.builds("@{}:{}".format, st.sampled_from(["sc", "s", "mc", "m", "SC", "nope", ""]), st.text("abxy1,( ", max_size=40)),
    st.builds("@flatext:{}".format, st.sampled_from(["z2", "z63", "z64", "z100000", "z0", "z-1", "q8", "z", "z" + "9" * 5000])),
    st.text("@:,()STab1 ", max_size=20),
)
_references = st.one_of(
    st.recursive(
        _leaf_refs,
        lambda inner: st.one_of(
            st.builds("@{}:{}".format, st.sampled_from(["dual", "ne", "ie", "prod", "nope"]), inner),
            st.builds("@prod:{},{}".format, inner, inner),
        ),
        max_leaves=6,
    ),
    st.builds(lambda k, head, ref: f"@{head}:" * k + ref, st.integers(0, 1500), st.sampled_from(["dual", "ne", "prod"]), _leaf_refs),
    st.builds(lambda k, w: "@s:" + ",".join([w] * k), st.integers(1, 300), st.sampled_from(["a", "ab", "x1", "ba"])),
)
_identities = st.one_of(
    st.builds(lambda k: "(" * k + "x" + ")" * k + " = x", st.integers(0, 3000)),
    st.builds("{}^{} = x".format, st.sampled_from(["x", "(x+y)", "(xy)", "x1", ")"]), st.integers(-5, 10**30)),
    st.builds(lambda n: "".join(f"x{i}" for i in range(n)) + " = x0", st.integers(1, 300)),
    st.builds(lambda u, q: f"{u} = {u} + {q}", st.text("xyz^2", min_size=1, max_size=8), st.text("xyz", min_size=1, max_size=4)),
    st.text("xyz12^()+=≈* ", max_size=40),
)
_scalars = st.one_of(st.integers(-2, 5), st.booleans(), st.none(), st.text("01ab", max_size=3), st.floats(-2, 5))
_texts = st.sampled_from(["x", "xy", "x + y", "(x+y)^12", "x^1024", "xy = yx"])
_values = st.one_of(
    _scalars,
    _texts,
    _identities,
    st.lists(_scalars, max_size=3),
    st.lists(st.lists(_scalars, max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["x", "y", "1"]), st.one_of(_scalars, _texts), max_size=2),
)


def _mutants(doc: dict):
    """``doc`` with one key dropped or replaced by a hostile value."""
    replaced = st.builds(lambda key, value: {**doc, key: value}, st.sampled_from(sorted(doc)), _values)
    dropped = st.builds(lambda key: {k: v for k, v in doc.items() if k != key}, st.sampled_from(sorted(doc)))
    return st.one_of(replaced, dropped)


_T2 = {"name": "T2", "elements": ["0", "1"], "add": [[0, 1], [1, 1]], "mul": [[1, 1], [1, 1]]}
_Z2 = {"elements": ["0", "e", "g"], "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 1]], "zero": 0, "identity": 1}
_STEP = {"axiom": 0, "dir": "LR", "subst": {"x": "a", "y": "b"}, "left": "c", "right": None, "remainder": "d"}
_CERT = {"axioms": ["xy = yx"], "chain": ["cab + d", "cba + d"], "steps": [_STEP]}
_semiring_docs = st.one_of(_values, _mutants(_T2), _mutants(_Z2))
_cert_docs = st.one_of(_values, _mutants(_CERT), _mutants(_STEP).map(lambda step: {**_CERT, "steps": [step]}))


def _files(docs):
    """File contents: a JSON document, text that is not JSON, bytes that are not
    UTF-8, or brackets nested deeper than the decoder goes."""
    return st.one_of(
        docs.map(json.dumps),
        st.text(max_size=20),
        st.binary(max_size=8),
        st.builds(lambda k: "[" * k + "]" * k, st.integers(1000, 100000)),
    )


_small = st.sampled_from(["T2", "L2", "S7", "S_(4,1)", "S_(4,49)", "nonsense"])
_json = st.sampled_from([[], ["--json"]])
_commands = st.one_of(
    st.tuples(st.builds(lambda r, j: ["validate", r] + j, _references, _json), st.none()),
    st.tuples(st.builds(lambda r, j: ["nfb-check", r] + j, _references, _json), st.none()),
    st.tuples(st.builds(lambda r, s, j: ["iso", r, s] + j, _references, _small, _json), st.none()),
    st.tuples(st.builds(lambda r, s: ["embed", s, r], _references, _small), st.none()),
    st.tuples(st.builds(lambda r, a, b: ["subdirect", r, a, b], _references, _small, _small), st.none()),
    st.tuples(st.builds(lambda n, j: ["catalog", "show", n] + j, _references, _json), st.none()),
    st.tuples(st.builds(lambda s, i, j: ["check", "--semiring", s, "--identity", i] + j, _small, _identities, _json), st.none()),
    st.tuples(
        st.builds(
            lambda lemma, i, o: ["criteria", "--lemma", lemma, "--identity", i] + o,
            st.sampled_from(["L2", "S4", "s10", "T2", "X9"]),
            _identities,
            st.sampled_from([[], ["--oracle"]]),
        ),
        st.none(),
    ),
    st.tuples(
        st.builds(
            lambda kind, refs, opts: ["construct", kind, *refs, *opts],
            st.sampled_from(["sc", "s", "mc", "m", "flat-ext", "ne", "ie", "dual", "product", "bogus"]),
            st.lists(_references, max_size=3),
            st.sampled_from([[], ["--words", "ab,b"], ["--words", ",,"], ["--group", "z3"], ["--group", "z99999"], ["--table", "FILE"]]),
        ),
        _files(_semiring_docs),
    ),
    st.tuples(st.builds(lambda r: ["validate", r], st.just("FILE")), _files(_semiring_docs)),
    st.tuples(st.builds(lambda kind: ["construct", kind, "FILE"], st.sampled_from(["ne", "dual"])), _files(_semiring_docs)),
    st.tuples(st.just(["cert", "verify", "FILE", "--json"]), _files(_cert_docs)),
    st.tuples(
        st.builds(
            lambda n, w, flags: ["enumerate", "--order", n, "--workers", w, *flags],
            st.sampled_from(["-1", "0", "1", "2", "3", "x"]),
            st.sampled_from(["1", "0", "-4", "w"]),
            st.sampled_from([[], ["--json"], ["--height1", "--count-only"], ["--out", "FILE"], ["--out", "DIR"]]),
        ),
        st.one_of(st.none(), st.text(max_size=4)),
    ),
    st.tuples(
        st.builds(
            lambda first, rest: [first, *rest],
            st.one_of(st.sampled_from(["validate", "check", "iso", "catalog", "cert", "construct", "criteria"]), st.text(max_size=8)),
            st.lists(st.text(max_size=10).filter(lambda t: "/" not in t and "\\" not in t), max_size=5),
        ),
        st.none(),
    ),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_commands)
def test_main_never_raises(tmp_path, monkeypatch, case):
    argv, content = case
    work = tempfile.mkdtemp(dir=tmp_path)
    monkeypatch.chdir(work)  # any relative path an argument names stays under tmp_path
    path = os.path.join(work, "input.json")
    if content is not None:
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode("utf-8"))
    names = {"FILE": path, "DIR": os.path.join(work, "out")}
    argv = [names.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # only -h or --help leaves main this way
            assert exc.code == 0, (argv, exc.code)
            code = 0
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:  # main's error line, never a usage dump
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
