"""Command line front end: reports, formats, exit codes."""

import io
import json

import pytest

from epcodes import __version__, classify
from epcodes.cli import main

B_TEXT = "p=2 n=4\nt 0 0 t\nr r r r\n0 t 0 t\n0 0 t t\n"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_free_mds_example(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "a.txt", "p=2 n=2\nr r\n")
    code, out, _ = _run(capsys, "analyze", path)
    assert code == 0
    assert "free: yes" in out
    assert "lcd: no" in out
    assert "left self-dual: yes" in out
    assert "minimum distance: 2" in out
    assert "mds status: MDS" in out
    # - reads the matrix from stdin, and so does a missing path
    for argv in (("analyze", "-"), ("analyze",)):
        monkeypatch.setattr("sys.stdin", io.StringIO("p=2 n=2\nr r\n"))
        assert _run(capsys, *argv) == (0, out, "")


def test_analyze_nonfree_self_dual_example(tmp_path, capsys):
    path = _write(tmp_path, "b.txt", B_TEXT)
    code, out, _ = _run(capsys, "analyze", path, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["free"] is False
    assert rep["self_dual"] is True
    assert rep["d"] == 2 and rep["mds"] == "AMDS"
    assert rep["m1"] == 1 and rep["m2"] == 2


def test_analyze_zero_code_marks_distance_absent(tmp_path, capsys):
    path = _write(tmp_path, "z.txt", "p=2 n=2\n0 0\n")
    code, out, _ = _run(capsys, "analyze", path)
    assert code == 0
    assert "minimum distance: absent (zero code)" in out
    assert "mds status: NEITHER" in out


def test_analyze_round_trip_reproduces_the_report(tmp_path, capsys):
    path = _write(tmp_path, "b.txt", B_TEXT)
    code, out, _ = _run(capsys, "analyze", path, "--format", "json")
    rep = json.loads(out)
    echo = f"p={rep['p']} n={rep['n']}\n" + "\n".join(rep["generators"]) + "\n"
    path2 = _write(tmp_path, "b2.txt", echo)
    code2, out2, _ = _run(capsys, "analyze", path2, "--format", "json")
    assert code2 == 0 and json.loads(out2) == rep


def test_analyze_error_exit_codes(tmp_path, capsys):
    ragged = _write(tmp_path, "r.txt", "p=2 n=3\nr r\n")
    assert _run(capsys, "analyze", ragged)[0] == 6
    badtok = _write(tmp_path, "t.txt", "p=2 n=2\nr q\n")
    assert _run(capsys, "analyze", badtok)[0] == 3
    badmod = _write(tmp_path, "m.txt", "p=9 n=2\nr r\n")
    assert _run(capsys, "analyze", badmod)[0] == 4
    # the exit code follows the kind of error, not the words of the token
    for row in ("r q 0", "r modulus 0", "r entries 0"):
        badrow = _write(tmp_path, "w.txt", f"p=2 n=3\n{row}\n")
        assert _run(capsys, "analyze", badrow)[0] == 3
    badlen = _write(tmp_path, "n.txt", "p=2 n=0\n")
    assert _run(capsys, "analyze", badlen)[0] == 4
    assert _run(capsys, "analyze", str(tmp_path / "missing.txt"))[0] == 4


def test_classify_text_summary(capsys):
    code, out, _ = _run(capsys, "classify", "lcd", "--p", "2", "--n", "4")
    assert code == 0
    assert out.startswith("lcd p=2 n=4: 10 classes")
    assert out.count("#") == 10


def test_classify_self_dual_summary(capsys):
    code, out, _ = _run(capsys, "classify", "self-dual", "--p", "2", "--n", "2")
    assert code == 0
    assert "2 classes" in out


def test_classify_json_report(capsys):
    code, out, _ = _run(capsys, "classify", "lcd", "--p", "3", "--n", "3", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    header = json.loads(lines[0])
    assert header == {
        "tool": "epcodes",
        "version": __version__,
        "kind": "lcd",
        "p": 3,
        "n": 3,
        "classes": 6,
        "seen_total": 6,
        "note": "",
    }
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == 6
    assert all(rec["lcd"] for rec in records)


def test_classify_refuses_beyond_budget(capsys):
    code, _, err = _run(capsys, "classify", "lcd", "--p", "2", "--n", "9")
    assert code == 5
    assert "--force" in err
    assert err == (
        "refused: classification refused at n=9 for p=2; largest feasible n is 7; "
        "pass --force to proceed anyway\n"
    )
    code, _, err = _run(capsys, "classify", "lcd", "--p", "5", "--n", "2")
    assert code == 4
    for argv in (("--n", "0"), ("--n", "3", "--workers", "0"), ("--n", "3", "--workers", "-2")):
        code, out, err = _run(capsys, "classify", "lcd", "--p", "2", *argv)
        assert code == 4 and out == "" and err.startswith("error:")


def test_classify_force_within_budget_is_silent(capsys):
    code, out, err = _run(capsys, "classify", "lcd", "--p", "2", "--n", "3", "--force")
    assert code == 0 and err == ""
    assert "6 classes" in out


def test_classify_force_past_the_budget_warns(capsys):
    code, out, err = _run(
        capsys, "classify", "left-self-dual", "--p", "3", "--n", "9", "--force"
    )
    assert code == 0 and err.startswith("warning:")
    assert out == (
        "left-self-dual p=3 n=9: 0 classes\n"
        "note: odd length: a self-dual residue code would need dimension n/2\n"
    )


def test_verify_tables_has_no_force(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-tables", "--table", "10", "--force"])
    assert exc.value.code == 2


def test_classify_workers_give_identical_bytes(capsys, monkeypatch):
    # the cache is emptied before each run and two CPUs are reported, so the
    # two-worker run forks a real pool instead of reusing the first result
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    for argv in (
        ("lcd", "--p", "2", "--n", "4", "--format", "json"),
        ("left-self-dual", "--p", "2", "--n", "8"),
        ("self-dual", "--p", "3", "--n", "4"),
    ):
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(classify, "_cache", {})
            code, out, _ = _run(capsys, "classify", *argv, "--workers", str(workers))
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]


def test_verify_tables_allowlist_and_strict(capsys):
    code, out, _ = _run(capsys, "verify-tables", "--table", "7", "--max-n", "4")
    assert code == 0
    assert "DISCREPANCY (known)" in out
    code, _, _ = _run(capsys, "verify-tables", "--table", "7", "--max-n", "4", "--strict")
    assert code == 1


def test_verify_tables_confirmed_table(capsys):
    code, out, _ = _run(capsys, "verify-tables", "--table", "9")
    assert code == 0
    assert "CONFIRMED" in out and "DISCREPANCY" not in out


def test_verify_tables_json_lines(capsys):
    code, out, _ = _run(capsys, "verify-tables", "--table", "10", "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["table"] == 10 and lines[0]["confirmed"] is True
    assert all("verdict" in entry for entry in lines[1:])


def test_verify_tables_unknown_table(capsys):
    assert _run(capsys, "verify-tables", "--table", "12")[0] == 4
    assert _run(capsys, "verify-tables", "--workers", "0")[0] == 4


def test_verify_tables_rejects_a_scope_below_one(capsys):
    # otherwise every census row is SKIPPED and the run exits 0
    for max_n in ("0", "-3"):
        code, out, err = _run(capsys, "verify-tables", "--table", "10", "--max-n", max_n)
        assert code == 4 and out == "" and err.startswith("error: max_n must be at least 1")


def test_equiv_shuffled_copy_has_witness(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "p=2 n=3\nr 0 r\n0 r r\n")
    b = _write(tmp_path, "b.txt", "p=2 n=3\nr r 0\nr 0 r\n")
    code, out, _ = _run(capsys, "equiv", a, b)
    assert code == 0
    assert out.startswith("equivalent")
    assert "permutation:" in out and "scalings:" in out


def test_equiv_inequivalent_pair(tmp_path, capsys):
    # the worked example: equivalent residues, inequivalent codes
    b = _write(tmp_path, "b.txt", "p=2 n=3\nr r 0\n0 t 0\n")
    c = _write(tmp_path, "c.txt", "p=2 n=3\nr 0 r\n0 t 0\n")
    code, out, _ = _run(capsys, "equiv", b, c)
    assert code == 1 and out.strip() == "inequivalent"
    code, out, _ = _run(capsys, "equiv", b, c, "--format", "json")
    assert code == 1 and json.loads(out) == {"equivalent": False}


def test_equiv_dimension_mismatch_is_just_inequivalent(tmp_path, capsys):
    one = _write(tmp_path, "one.txt", "p=2 n=3\nr r r\n")
    two = _write(tmp_path, "two.txt", "p=2 n=3\nr 0 r\n0 r r\n")
    assert _run(capsys, "equiv", one, two)[0] == 1


def test_equiv_mismatched_spaces(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "p=2 n=2\nr r\n")
    b = _write(tmp_path, "b.txt", "p=3 n=2\nr r\n")
    code, _, err = _run(capsys, "equiv", a, b)
    assert code == 4 and "mismatched" in err


def test_equiv_rejects_a_cap_below_one(tmp_path, capsys):
    # a bad parameter, not a refusal at "largest feasible n is 0"
    a = _write(tmp_path, "a.txt", "p=2 n=2\nr r\n")
    for max_n in ("0", "-1"):
        code, out, err = _run(capsys, "equiv", a, a, "--max-n", max_n)
        assert code == 4 and out == "" and err.startswith("error: max_n must be at least 1")


def test_equiv_refusal_prints_one_hint(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "p=3 n=7\nr r r r r r r\n")
    code, out, err = _run(capsys, "equiv", a, a)
    assert code == 5 and out == ""
    assert err.startswith("refused:") and err.count("pass ") == 1 and "--max-n" in err
    # equiv runs the witness search, so it is the equivalence search it refuses
    assert err.startswith("refused: equivalence refused at n=7 for p=3; largest feasible n is 6;")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{a}"),
        ("classify", "lcd", "--p", "2", "--n", "3"),
        ("verify-tables", "--table", "10"),
        ("equiv", "{a}", "{a}"),
    ],
)
def test_unwritable_out_is_a_bad_parameter(tmp_path, capsys, argv):
    # not a traceback and exit 1, which would read as a failed check
    a = _write(tmp_path, "a.txt", "p=2 n=2\nr r\n")
    argv = [arg.format(a=a) for arg in argv]
    missing = str(tmp_path / "missing" / "report.txt")
    code, out, err = _run(capsys, *argv, "--out", missing)
    assert code == 4 and out == ""
    assert err.startswith("error:") and "missing" in err


def test_internal_faults_exit_70(capsys, monkeypatch):
    # a library fault is neither a bad parameter nor a failed check
    def fault(*args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setitem(classify.CLASSIFY_KINDS, "lcd", fault)
    code, out, err = _run(capsys, "classify", "lcd", "--p", "2", "--n", "3")
    assert code == 70 and out == ""
    assert "internal fault" in err


def test_out_writes_the_report_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out, _ = _run(
        capsys, "classify", "lcd", "--p", "2", "--n", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert json.loads(lines[0])["classes"] == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "lcd", "--p", "2"])
    assert exc.value.code == 2


def test_analyze_without_a_header_exits_3(tmp_path, capsys):
    for text in ("", "# a comment only\n"):
        path = _write(tmp_path, "h.txt", text)
        code, out, err = _run(capsys, "analyze", path)
        assert code == 3 and out == "" and "missing header" in err
