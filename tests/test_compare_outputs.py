"""The ``diff`` half of tools/compare_outputs.py: how far apart two dumps
are; and the dump lines of configs written to a temporary directory."""
from pathlib import Path

import numpy as np

from bitension import cli

from support import compare_outputs


def _dump(path, lines):
    path.write_text("".join(f"{name}\t{text}\n" for name, text in lines))
    return str(path)


def test_diff_reports_how_far_each_differing_line_moved(tmp_path, capsys):
    a = np.array([[1.0, -2.0], [0.0, 4.0]])
    b = a.copy()
    b[0, 1] = np.nextafter(-2.0, 0.0)
    b[1, 0] = 1e-20
    before = [("same", compare_outputs._array(a)),
              ("array", compare_outputs._array(a)),
              ("floats", compare_outputs._floats({"p": 0.5, "q": 3.0})),
              ("text", repr((0, '{"max_abs": 6e-14, "pass": true}', "")))]
    after = [("same", compare_outputs._array(a)),
             ("array", compare_outputs._array(b)),
             ("floats", compare_outputs._floats({"p": 0.5, "q": 3.5})),
             ("text", repr((0, '{"max_abs": 5e-14, "pass": true}', "")))]
    code = compare_outputs.main(["diff", _dump(tmp_path / "a", before),
                                 _dump(tmp_path / "b", after)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out == [
        "differs: array: max abs 2.22e-16 (5.55e-17 of the largest "
        "magnitude), max rel 1",
        "differs: floats: q 3.0 -> 3.5 (abs 0.5, rel 0.143)",
        "differs: text: text differs from offset 17, in 1 numbers only; the "
        "largest move is 6e-14 -> 5e-14 (abs 1e-14), the largest relative "
        "one 0.167",
        "1 of 4 outputs bitwise equal",
        "largest absolute move among array and float.hex outputs: 0.5 in "
        "floats",
        "0 outputs moved their verdict (a CLI line's exit code or verdict "
        "tokens, or other text that differs in words)"]


def test_diff_of_equal_dumps_exits_0(tmp_path, capsys):
    lines = [("x", compare_outputs._array(np.arange(3.0)))]
    assert compare_outputs.main(["diff", _dump(tmp_path / "a", lines),
                                 _dump(tmp_path / "b", lines)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "1 of 1 outputs bitwise equal",
        "0 outputs moved their verdict (a CLI line's exit code or verdict "
        "tokens, or other text that differs in words)"]


def test_text_lines_that_differ_in_words_report_only_the_offset(tmp_path,
                                                                 capsys):
    code = compare_outputs.main([
        "diff", _dump(tmp_path / "a", [("t", "pass: true 1.5")]),
        _dump(tmp_path / "b", [("t", "pass: false 1.5")])])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "differs: t: text differs from offset 6"
    assert out[-1].startswith("1 outputs moved their verdict")


def test_diff_reports_the_largest_move_and_where_it_is(tmp_path, capsys):
    a = np.array([1.0, 2.0, 3.0])
    before = [("small", compare_outputs._array(a)),
              ("big", compare_outputs._array(a)),
              ("floats", compare_outputs._floats({"p": 1.0})),
              ("text", "pass: true 1e-15"),
              ("reshaped", compare_outputs._array(a))]
    after = [("small", compare_outputs._array(a + [0.0, 1e-15, 0.0])),
             ("big", compare_outputs._array(a + [0.0, 0.0, -3e-13])),
             ("floats", compare_outputs._floats({"p": 1.0 + 1e-14})),
             ("text", "pass: true 9e-12"),  # text moves are not counted
             ("reshaped", compare_outputs._array(a[:2]))]
    code = compare_outputs.main(["diff", _dump(tmp_path / "a", before),
                                 _dump(tmp_path / "b", after)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[-3] == "0 of 5 outputs bitwise equal"
    assert out[-2] == ("largest absolute move among array and float.hex "
                       "outputs: 3e-13 in big")
    assert out[-1].startswith("0 outputs moved their verdict")


def test_diff_of_text_moves_only_reads_no_array_move(tmp_path, capsys):
    code = compare_outputs.main([
        "diff", _dump(tmp_path / "a", [("t", "max 1e-15"),
                                       ("x", compare_outputs._array(
                                           np.array([0.0])))]),
        _dump(tmp_path / "b", [("t", "max 2e-15"),
                               ("x", compare_outputs._array(
                                   np.array([-0.0])))])])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-2] == (
        "largest absolute move among array and float.hex outputs: 0 (none "
        "moves)")


def test_an_exit_code_change_is_a_verdict_move_not_a_number_move(tmp_path,
                                                                capsys):
    assert compare_outputs._describe("(0, 'x', '')", "(1, 'x', '')") == (
        "exit code 0 -> 1", None, True)
    before = [("code", repr((0, "PASS 1.5", ""))),
              ("both", repr((0, "PASS 1.5", ""))),
              ("numbers", repr((1, "FAIL 2.5", "")))]
    after = [("code", repr((3, "PASS 1.5", ""))),
             ("both", repr((1, "FAIL 1.5", ""))),
             ("numbers", repr((1, "FAIL 2.75", "")))]
    code = compare_outputs.main(["diff", _dump(tmp_path / "a", before),
                                 _dump(tmp_path / "b", after)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[:3] == [
        "differs: code: exit code 0 -> 3",
        "differs: both: exit code 0 -> 1; output text differs from offset 2",
        "differs: numbers: text differs from offset 12, in 1 numbers only; "
        "the largest move is 2.5 -> 2.75 (abs 0.25), the largest relative "
        "one 0.0909"]
    assert out[-1] == ("2 outputs moved their verdict (a CLI line's exit "
                       "code or verdict tokens, or other text that differs "
                       "in words)")


def test_a_cli_run_that_raises_is_dumped_as_exit_1():
    class Raising:
        @staticmethod
        def main(argv):
            print("partial")
            raise ValueError(f"no run for {argv}")

    assert compare_outputs._cli(Raising, ["x"]) == repr(
        (1, "partial\n", "ValueError: no run for ['x']\n"))


def test_an_error_text_change_alone_moves_no_verdict(tmp_path, capsys):
    def errored(error):
        record = ('{"checks": [{"name": "tension_zero", "pass": false, '
                  f'"worst_point": null, "error": "{error}"}}], '
                  '"pass": false}')
        return repr((3, record, ""))

    before = [("json", errored("FloatingPointError: overflow")),
              ("text", repr((3, "  FAIL  t: value=n/a\noverall: FAIL", "")))]
    after = [("json", errored("FloatingPointError: overflow in stage x")),
             ("text", repr((3, "  FAIL  t: value=n/a\n        error: e\n"
                               "overall: FAIL", "")))]
    code = compare_outputs.main(["diff", _dump(tmp_path / "a", before),
                                 _dump(tmp_path / "b", after)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[-1].startswith("0 outputs moved their verdict")
    # a moved pass flag, PASS/FAIL or verdict line is a move at one exit code
    for x, y in (('"pass": false', '"pass": true'), ("FAIL", "PASS"),
                 ("verdict: harmonic", "verdict: proper biharmonic")):
        assert compare_outputs._describe(repr((1, x, "")),
                                         repr((1, y, "")))[2]


def test_config_lines_do_not_depend_on_their_directory(tmp_path):
    root = Path(__file__).resolve().parent.parent
    runs = []
    for sub in ("one", "two"):
        (tmp_path / sub).mkdir()
        runs.append(dict(compare_outputs._config_runs(
            cli, root, tmp_path / sub, ["--seed", "0"])))
    # the config error of an infinite box names its file
    assert "TMP" in runs[0]["custom verify infinite_box.cfg"]
    assert runs[0] == runs[1]
