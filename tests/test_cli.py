import json
import os

import pytest

from aisemiring.cli import main


def run(capsys, argv):
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
    code, payload, _ = run_json(capsys, ["validate", "--table", str(bad)])
    assert code == 1 and not payload["valid"]
    assert payload["violations"]

    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"elements": ["0"], "add": [[0, 0]], "mul": [[0]]}))
    code, _, err = run(capsys, ["validate", "--table", str(malformed)])
    assert code == 2


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

    code, payload, _ = run_json(capsys, ["catalog", "list", "--height1", "--order", "4"])
    assert len(payload) == 58


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


def test_unknown_reference_is_usage_error(capsys):
    code, _, err = run(capsys, ["iso", "S_(4,8)", "nonsense"])
    assert code == 2 and "error" in err


def test_out_of_range_order_is_usage_error(capsys):
    code, _, err = run(capsys, ["enumerate", "--order", "7"])
    assert code == 2 and "error" in err


def test_budget_overrun_is_usage_error(capsys):
    big = "x1x2x3x4x5x6x7x8x9x10x11x12 = x12x11x10x9x8x7x6x5x4x3x2x1"
    code, _, err = run(capsys, ["check", "--semiring", "S_(4,1)", "--identity", big])
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "argv, env",
    [
        (["catalog", "show"], {}),
        (["cert", "verify"], {}),
        (["validate", "--table", "{add_five}"], {}),
        (["validate", "--table", "{bool_entries}"], {}),
        (["validate", "{bool_entries}"], {}),
        (["enumerate", "--order", "2"], {"AISEMIRING_WORKERS": "abc"}),
        (["iso", "@prod:T2", "L2"], {}),
        (["construct", "ne"], {}),
        (["check", "--semiring", "T2", "--identity", "(" * 2000 + "x" + ")" * 2000 + " = x"], {}),
        (["check", "--semiring", "T2", "--identity", "(x + y)^18 = x"], {}),
        (["construct", "flat-ext", "--table", "{semigroup_out_of_range}"], {}),
        (["validate", "@dual:" * 1200 + "T2"], {}),
        (["construct", "product", "@prod:T2,S_(4,1)", "@prod:S_(4,1),S_(4,1)"], {}),
        (["enumerate", "--order", "1", "--out", "{dir}"], {}),
    ],
)
def test_bad_input_is_usage_error(capsys, tmp_path, monkeypatch, argv, env):
    files = {
        "add_five": {"add": 5, "mul": [[0]]},
        "bool_entries": {"elements": ["0", "1"], "add": [[0, 1], [1, 1]], "mul": [[0, 0], [True, 1]]},
        "semigroup_out_of_range": {"elements": ["0", "1"], "mul": [[0, 0], [0, 5]], "zero": 0},
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    argv = [arg.format(dir=str(tmp_path), **paths) for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and err.startswith("error:") and "Traceback" not in err
    assert all(os.path.isfile(path) for path in paths.values())

