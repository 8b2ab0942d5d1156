import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycshift import cli
from cycshift.cli import main
from cycshift.handles import HANDLES
from cycshift.paths import ShiftPath
from cycshift.rewrite import presentation
from cycshift.words import format_word, parse_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_psymbol_sylv(capsys):
    code, out, _ = run_cli(capsys, "psymbol", "--monoid", "sylv", "--word", "5451761524")
    assert code == 0
    assert out.splitlines()[0] == "key: 4(2(1(1(-)(-))(-))(4(-)(-)))(5(5(5(-)(-))(-))(6(-)(7(-)(-))))"


def test_psymbol_stal(capsys):
    code, out, _ = run_cli(capsys, "psymbol", "--monoid", "stal", "--word", "361135112565")
    assert code == 0
    assert "key: 3^2|1^4|2^1|6^2|5^3" in out


def test_psymbol_empty_word(capsys):
    code, out, _ = run_cli(capsys, "psymbol", "--monoid", "plac", "--word", "")
    assert code == 0
    assert "(empty)" in out


def test_class_listing(capsys):
    code, out, _ = run_cli(capsys, "class", "--monoid", "plac", "--word", "132")
    assert code == 0
    assert out.split() == ["132", "312"]


def test_diameter_of_plactic_reference_component(capsys):
    code, out, _ = run_cli(capsys, "diameter", "--monoid", "plac", "--rank", "5", "--word", "12345")
    assert code == 0
    assert out.strip() == "4"


def test_path_hypo_example(capsys):
    code, out, _ = run_cli(
        capsys, "path", "--monoid", "hypo", "--word1", "244135", "--word2", "135244"
    )
    assert code == 0
    lines = out.splitlines()
    steps = int(lines[0].split(":")[1].split()[0])
    assert steps <= 4
    assert lines[-1] == "shortest path: 1 steps"


def test_path_plactic_is_bfs_only(capsys):
    code, out, _ = run_cli(capsys, "path", "--monoid", "plac", "--word1", "132", "--word2", "213")
    assert code == 0
    assert "not available" in out
    assert "shortest path:" in out


def test_scan_stal(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--monoid", "stal", "--rank", "3", "--max-total", "6"
    )
    assert code == 0
    assert "overall max diameter 3" in out
    assert "splits" in out


def test_component_json_round_trip(tmp_path, capsys):
    out_file = tmp_path / "graph.json"
    code, _, _ = run_cli(
        capsys, "component", "--monoid", "stal", "--word", "1233",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["vertices"]) == 6
    assert sum(len(v) for v in payload["adjacency"].values()) // 2 == 10


def test_component_dot(capsys):
    code, out, _ = run_cli(
        capsys, "component", "--monoid", "baxt", "--word", "123", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph {")
    assert out.count("--") == 3  # triangle of the three length-3 classes


def test_component_text(capsys):
    # the default format: a summary line, then the vertices in order
    code, out, _ = run_cli(capsys, "component", "--monoid", "stal", "--word", "1233")
    assert code == 0
    assert out == (
        "6 vertices, 10 edges, diameter 3\n"
        "1^1|2^1|3^2\n1^1|3^2|2^1\n2^1|1^1|3^2\n2^1|3^2|1^1\n3^2|1^1|2^1\n3^2|2^1|1^1\n"
    )


def test_determinism(capsys):
    args = ("component", "--monoid", "sylv", "--word", "1234", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "psymbol", "--monoid", "plac", "--word", "1,x")
    assert code == 2
    assert "error" in err


def test_unknown_monoid_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["psymbol", "--monoid", "nope", "--word", "1"])
    assert exc.value.code == 2


def test_neighbors_listing(capsys):
    code, out, _ = run_cli(capsys, "neighbors", "--monoid", "plac", "--word", "12345")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_psymbol_json(capsys):
    code, out, _ = run_cli(
        capsys, "psymbol", "--monoid", "baxt", "--word", "2431", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["monoid"] == "baxt"
    assert payload["object"]["left"]["label"] == 2
    assert payload["object"]["right"]["label"] == 1


def test_verify_criterion_3_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--criteria", "3")
    assert code == 0
    assert out.splitlines()[0] == "criterion 3: PASS"


def test_verify_runs_a_repeated_criterion_once(capsys):
    code, out, _ = run_cli(capsys, "verify", "--criteria", "1,1")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("criterion")] == ["criterion 1: PASS"]


def test_user_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "component", "--monoid", "plac", "--word", "123", "--rank", "2")
    assert code == 2 and out == ""
    assert err == "error: symbol 3 outside alphabet 1..2\n"
    code, out, err = run_cli(capsys, "path", "--monoid", "sylv", "--word1", "12", "--word2", "112")
    assert code == 2 and out == ""
    assert err == "error: the two words must share an evaluation\n"
    code, out, err = run_cli(capsys, "psymbol", "--monoid", "plac", "--word", "102")
    assert code == 2 and out == ""
    assert err == "error: symbols must be positive, got (1, 0, 2)\n"
    code, _, err = run_cli(capsys, "verify", "--criteria", "99")
    assert code == 2
    assert err.startswith("error: unknown criteria [99]")


def test_key_error_in_a_command_is_not_a_usage_error(monkeypatch, capsys):
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_psymbol", broken)
    code, out, err = run_cli(capsys, "psymbol", "--monoid", "plac", "--word", "1")
    assert code == 3 and out == ""
    assert "Traceback" in err and "KeyError: 'internal'" in err


def test_a_rejected_constructive_path_is_an_internal_error(monkeypatch, capsys):
    sylv = HANDLES["sylv"]

    def bad_path(t, u):
        # the right endpoints, but the witness keys to neither of them
        return ShiftPath((t, u), (((3, 2, 1), 1),))

    monkeypatch.setattr(cli, "handle", lambda name: dataclasses.replace(sylv, shift_path=bad_path))
    code, out, err = run_cli(capsys, "path", "--monoid", "sylv", "--word1", "123", "--word2", "231")
    assert code == 3 and out == ""
    assert "constructive path rejected: witness" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("neighbors", "--monoid", "plac", "--word", "12", "--format", "dot"),
        ("neighbors", "--monoid", "plac", "--word", "12", "--max-class", "3"),
        ("diameter", "--monoid", "plac", "--word", "12", "--format", "json"),
        ("path", "--monoid", "sylv", "--word1", "12", "--word2", "21", "--format", "text"),
        ("component", "--monoid", "plac", "--word", "12", "--max-class", "3"),
        ("psymbol", "--monoid", "plac", "--word", "12", "--format", "dot"),
        ("psymbol", "--monoid", "plac", "--word", "12", "--rank", "3"),
        ("psymbol", "--monoid", "plac", "--word", "12", "--max-class", "3"),
    ],
)
def test_options_a_command_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_verify_output_does_not_follow_the_hash_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "cycshift.cli", "verify", "--criteria", "7"],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert "c7 component of 1243" in outputs.pop()


CRITERION_7 = (
    "criterion 7: PASS\n"
    "  PASS  c7 readings of the 2431 pair (= {(2, 4, 3, 1)})\n"
    "  PASS  c7 component of 123 (= {"
    "'1(-)(2(-)(3(-)(-)))|3(2(1(-)(-))(-))(-)', "
    "'2(1(-)(-))(3(-)(-))|1(-)(3(2(-)(-))(-))', "
    "'3(1(-)(2(-)(-)))(-)|2(1(-)(-))(3(-)(-))'})\n"
    "  PASS  c7 132 outside the 123 component\n"
    "  PASS  c7 component of 1243 (= {"
    "'1(-)(2(-)(4(3(-)(-))(-)))|3(2(1(-)(-))(-))(4(-)(-))', "
    "'2(1(-)(-))(4(3(-)(-))(-))|1(-)(3(2(-)(-))(4(-)(-)))', "
    "'3(1(-)(2(-)(-)))(4(-)(-))|4(2(1(-)(-))(3(-)(-)))(-)', "
    "'4(3(1(-)(2(-)(-)))(-))(-)|2(1(-)(-))(3(-)(4(-)(-)))'})\n"
    "  PASS  c7 1234 outside the 1243 component\n"
)


def test_verify_criterion_7_output_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--criteria", "7")
    assert code == 0
    assert out == CRITERION_7


def test_scan_rejects_a_negative_rank(capsys):
    code, out, err = run_cli(capsys, "scan", "--monoid", "plac", "--rank", "-1")
    assert code == 2 and out == ""
    assert err == "error: rank must be non-negative, got -1\n"


def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, "class", "--monoid", "plac", "--word", "12", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {target}: ") and "Traceback" not in err


def test_counterexample_follows_max_total(capsys):
    word = "13434343432"
    code, out, _ = run_cli(capsys, "class", "--monoid", "counterexample", "--word", word, "--max-total", "12")
    oracle = presentation("counterexample")
    closed = oracle.close(parse_word(word), 12).members
    assert code == 0 and out.split() == sorted(format_word(w) for w in closed)
    code, out, _ = run_cli(capsys, "neighbors", "--monoid", "counterexample", "--word", word, "--max-total", "12")
    rotated = oracle.word_neighbors(parse_word(word), 12)
    assert code == 0 and out.split() == sorted(format_word(c.canonical) for c in rotated)
    code, _, _ = run_cli(capsys, "diameter", "--monoid", "counterexample", "--word", word, "--max-total", "12")
    assert code == 0
    # 72,072 words share this evaluation; the walk forms the class alone
    longer = "1343434343432"
    code, out, _ = run_cli(capsys, "class", "--monoid", "counterexample", "--word", longer, "--max-total", "13")
    closed = oracle.close(parse_word(longer), 13).members
    assert code == 0 and out.split() == sorted(format_word(w) for w in closed)
    code, _, _ = run_cli(
        capsys, "path", "--monoid", "counterexample", "--word1", word, "--word2", "13432434343",
        "--max-total", "12",
    )
    assert code == 0
    code, out, err = run_cli(capsys, "class", "--monoid", "counterexample", "--word", word)
    assert code == 2 and out == ""
    assert err == "error: evaluation total 11 exceeds enumeration limit 10 (evaluation (1, 1, 5, 4))\n"


def test_psymbol_follows_max_total_for_the_counterexample(capsys):
    word = "13434343432"
    code, out, err = run_cli(capsys, "psymbol", "--monoid", "counterexample", "--word", word)
    assert code == 2 and out == ""
    assert err == "error: word length 11 exceeds closure limit 10\n"
    code, out, _ = run_cli(capsys, "psymbol", "--monoid", "counterexample", "--word", word, "--max-total", "11")
    canonical = format_word(presentation("counterexample").close(parse_word(word), 11).canonical)
    assert code == 0 and out == f"key: {canonical}\n{canonical}\n"
    # the bound, when given, holds for every record; an insertion has none by default
    code, _, err = run_cli(capsys, "psymbol", "--monoid", "plac", "--word", word, "--max-total", "10")
    assert code == 2 and err == "error: evaluation total 11 exceeds enumeration limit 10 (evaluation (1, 1, 5, 4))\n"
    code, out, _ = run_cli(capsys, "psymbol", "--monoid", "plac", "--word", word)
    assert code == 0 and out.startswith("key: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--monoid", "plac", "--rank", "2", "--max-total", "-1"),
        ("class", "--monoid", "plac", "--word", "12", "--max-total", "-1"),
        ("component", "--monoid", "stal", "--word", "1233", "--max-total", "-2"),
        ("class", "--monoid", "plac", "--word", "132", "--max-class", "-1"),
        ("psymbol", "--monoid", "counterexample", "--word", "12", "--max-total", "-1"),
    ],
)
def test_a_negative_count_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    flag, value = argv[-2:]
    assert err.splitlines()[-1].endswith(
        f"error: argument {flag}: must be a non-negative integer, got '{value}'"
    )


def test_count_options_keep_their_other_answers(capsys):
    # zero is a bound like any other, and a non-integer keeps argparse's own message
    code, out, _ = run_cli(capsys, "scan", "--monoid", "plac", "--rank", "2", "--max-total", "0")
    assert code == 0 and out.splitlines()[2].split() == ["0,0", "1", "1", "0", "Y"]
    code, _, err = run_cli(capsys, "class", "--monoid", "plac", "--word", "132", "--max-class", "0")
    assert code == 2 and err == "error: class has 2 members, over the --max-class bound 0\n"
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--monoid", "plac", "--rank", "2", "--max-total", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: argument --max-total: invalid int value: 'x'"
    )


#: README's CLI examples, one constructive path each of hypo, sylv, taig and
#: stal, and a taig scan and component export from the saturated build, with
#: the sha256 of the stdout each prints
PINNED_OUTPUTS = [
    ("psymbol --monoid sylv --word 5451761524", "55870978a46a0cfe39062e3e014df1fa1dff6db071547e5d771cff3aee7e9a6b"),
    ("class --monoid plac --word 132", "45ca8f73385061565aac04931c26735d749a7dd8b98d5bdd9b291fea66bc0b63"),
    ("neighbors --monoid plac --word 12345", "aa3c835323465cd99563d921a438133f50193f1b68133ee807143f90572d6631"),
    ("component --monoid stal --word 1233 --format dot", "1d940e78bf5440fcb9e7fcd413fb59d9eff2928ce0b9059d5505440d6044262d"),
    ("diameter --monoid plac --rank 5 --word 12345", "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),
    ("path --monoid hypo --word1 244135 --word2 135244", "ec813aafcbb0ae32b944a301a556cef7e15de7cc32ba275ed8808451b1ef0288"),
    ("scan --monoid stal --rank 3 --max-total 6", "a7135d14320634bb688b7d4f23efe753b5373df81af8a8dea0578c69ffd2e02a"),
    ("path --monoid sylv --word1 5451761 --word2 1675415", "db79e89f3fc16b4d99b4255c1720a5328ff4f1a068e098dcacd38cd0e0b44a73"),
    ("path --monoid taig --word1 31524461 --word2 16442513", "fcfba551aab8714e51817b57e17c9c4f7a198d99d287d25db12cc7fa251d883a"),
    ("path --monoid stal --word1 1551453 --word2 5115354", "02e3393524e4d893796127cb771e0eb04b5c7743ad7c9afe3f1c677979ca37f1"),
    ("scan --monoid taig --rank 3 --max-total 6", "b11873081e26b8dc5fbafb2078cff03c9028c22399476479dd64e5f5d02e7f3b"),
    ("component --monoid taig --word 1113332 --format json", "2bf6dd1a22f612c6114fc7b27e5b023887d1f56fd3db9a0cc056de76b5b65b79"),
    # graphs served from a relabeled or mirrored canonical form
    ("scan --monoid plac --rank 3 --max-total 6", "b9ec2468469da1dce0d524a61f5ce8a05d57feae4da6c05cb604c8d9be8c9a7c"),
    ("scan --monoid baxt --rank 3 --max-total 6 --distinct", "08807acef1c20d9022fbe44f263b89b2d403c1852373088224fa7b50df476f8b"),
    ("component --monoid plac --word 2111 --format json", "7ea8e4455584c2224680fc8b6193a0db95a566ba7e6628537e619569298994b3"),
    ("component --monoid hypo --word 3321 --format dot", "49489bf09d76037b7a6756ae3b16e2b7ef29746243c7f41efb2fdd90af7180f0"),
]


@pytest.mark.parametrize(("command", "digest"), PINNED_OUTPUTS)
def test_cli_output_is_pinned(command, digest, capsys):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
