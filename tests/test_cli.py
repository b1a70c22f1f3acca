import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import ar_quiver, cli, orders, qaffine, quiver, root_system, verify
from arquiver.cli import main
from arquiver.qaffine import mq, mq2, parse_param

EX1 = ["--type", "D", "--rank", "4", "--arrows", "2>1,3>2,2>4", "--xi", "3=0"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_ascii_grid_placement(capsys):
    code, out, _ = run(capsys, ["build", *EX1, "--format", "ascii"])
    assert code == 0
    lines = out.splitlines()
    header = lines[0]
    col0 = header.index("0", header.index("-1"))
    row3 = next(line for line in lines if line.startswith("   3"))
    start = row3.index("<3,-4>")
    width = len("<3,-4>")
    # the label sits in the header's column-0 slot
    assert start <= col0 <= start + width
    assert "xi = 1=-2 2=-1 3=0 4=-2" in out


def test_build_json_roundtrip(capsys):
    code, out, _ = run(capsys, ["build", *EX1, "--format", "json"])
    assert code == 0
    rebuilt = ar_quiver.from_json(out)
    assert len(rebuilt.root_at) == 12
    payload = json.loads(out)
    assert set(payload) >= {"vertices", "arrows", "m", "xi"}
    assert payload["m"] == [2, 2, 2, 2]


def test_build_dot(capsys):
    code, out, _ = run(capsys, ["build", *EX1, "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph")
    assert "rank=same" in out


def test_order_u1(capsys):
    code, out, _ = run(capsys, ["order", *EX1, "--strategy", "u1"])
    assert code == 0
    assert out.splitlines()[0] == (
        "<3,-4> < <2,-4> < <1,-4> < <2,3> < <2,-3> < <1,2> < <2,4> "
        "< <1,-3> < <1,3> < <1,4> < <1,-2> < <3,4>"
    )
    assert "word: s3 s2 s1 s4" in out
    assert run(capsys, ["order", *EX1, "--strategy", "U1"])[1] == out


def test_pairs_output(capsys):
    code, out, _ = run(capsys, ["pairs", *EX1, "--gamma", "e1+e2"])
    assert code == 0
    body = [line for line in out.splitlines() if line.startswith("  (")]
    assert len(body) == 4
    assert sum("non-minimal" in line for line in body) == 1
    code, out, _ = run(capsys, ["pairs", *EX1, "--gamma", "e1+e2", "--format", "json"])
    payload = json.loads(out)
    assert len(payload) == 4
    verdicts = sorted(entry["verdict"] for entry in payload)
    assert verdicts == ["minimal", "minimal", "minimal", "non-minimal"]


def test_roots_type_a(capsys):
    code, out, _ = run(capsys, ["roots", "--type", "A", "--rank", "1"])
    assert code == 0
    assert "1 positive roots" in out
    assert "[1]" in out


@pytest.mark.parametrize("arrows", ["", " "])
def test_build_type_a1_takes_a_blank_arrow_spec(capsys, arrows):
    code, out, err = run(capsys, ["build", "--type", "A", "--rank", "1", "--arrows", arrows])
    assert (code, err) == (0, "")
    assert "[1]" in out and "xi = 1=0" in out
    # a blank spec orients no edge, so a diagram with edges is still bad input
    code, out, err = run(capsys, ["build", "--type", "A", "--rank", "2", "--arrows", arrows])
    assert (code, out) == (2, "") and "not oriented" in err


def test_denom_with_at(capsys):
    code, out, _ = run(
        capsys,
        ["denom", "--family", "D1", "--rank", "4", "-k", "2", "-l", "2",
         "--at", "(-q)^4"],
    )
    assert code == 0
    assert "multiplicity at (-q)^4: 2" in out
    code, out, _ = run(
        capsys,
        ["denom", "--family", "D2", "--rank", "3", "-k", "3", "-l", "3",
         "--format", "json"],
    )
    payload = json.loads(out)
    assert len(payload["factors"]) == 3


def test_denom_half_integer_power(capsys):
    code, out, _ = run(
        capsys,
        ["denom", "--family", "D1", "--rank", "4", "-k", "2", "-l", "2",
         "--at", "(-q)^{1/2}"],
    )
    assert code == 0
    assert "multiplicity at (-q)^{1/2}: 0" in out


def test_fractional_exponents_are_braced():
    assert str(mq(4)) == "(-q)^4"
    assert str(mq(Fraction(1, 2))) == "(-q)^{1/2}"
    assert str(mq2(Fraction(3, 4))) == "(-q^2)^{3/4}"


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(-64, 64), st.integers(-64, 64))
def test_spectral_params_round_trip_and_multiply(a, b):
    for power, denominator in ((mq, 2), (mq2, 4)):
        x = power(Fraction(a, denominator))
        assert parse_param(str(x)) == x
        assert x * power(Fraction(b, denominator)) == power(Fraction(a + b, denominator))


def test_denom_at_reads_a_twisted_zero(capsys):
    argv = ["denom", "--family", "D2", "--rank", "4", "-k", "1", "-l", "4"]
    code, out, _ = run(capsys, [*argv, "--at=-i*(-q^2)^{5/2}"])
    assert code == 0
    assert "  z = -i*(-q^2)^{5/2}" in out.splitlines()
    assert out.splitlines()[-1] == "multiplicity at -i*(-q^2)^{5/2}: 1"


def test_dorey_triple_reads_twisted_parameters(capsys):
    argv = ["dorey", "--family", "D2", "--rank", "3",
            "--triple", "(1,(-q^2)^{-1/2});(1,(-q^2)^{1/2});(2,0)"]
    assert run(capsys, argv) == (
        0, "yes, case (i')  (one-way rule: no means unknown)\n", ""
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["denom", "--family", "D1", "--rank", "4", "-k", "2", "-l", "2", "--at", "bogus"],
         "cannot parse spectral parameter 'bogus'"),
        (["denom", "--family", "D1", "--rank", "4", "-k", "2", "-l", "2",
          "--at", "(-q)^{1/3}"],
         "(-q)^{1/3} does not live in the parameter group"),
        (["denom", "--family", "D1", "--rank", "4", "-k", "2", "-l", "2",
          "--at", "(-q)^{1/2"],
         "cannot parse spectral parameter '(-q)^{1/2'"),
        (["denom", "--family", "D1", "--rank", "4", "-k", "2", "-l", "2",
          "--at", "(-q)^1/2}"],
         "cannot parse spectral parameter '(-q)^1/2}'"),
        (["dorey", "--family", "D1", "--rank", "4", "--triple", "(1,x);(1,0);(2,0)"],
         "cannot parse triple component '(1,x)'"),
        (["dorey", "--family", "D1", "--rank", "4",
          "--triple", "(1,(-q)^{1/3});(1,0);(2,0)"],
         "cannot parse triple component '(1,(-q)^{1/3})'"),
        (["dorey", "--family", "D1", "--rank", "4",
          "--triple", "(1,(-q)^{1/2);(1,0);(2,0)"],
         "cannot parse triple component '(1,(-q)^{1/2)'"),
        (["dorey", "--family", "D1", "--rank", "4",
          "--triple", "(1,(-q)^1/2});(1,0);(2,0)"],
         "cannot parse triple component '(1,(-q)^1/2})'"),
        (["dorey", "--family", "D1", "--rank", "4", "--triple", "(x,0);(1,0);(2,0)"],
         "cannot parse triple component '(x,0)'"),
        (["dorey", "--family", "D1", "--rank", "4",
          "--triple", "(1,(-q)^{1/2});(1,0);(2,0)"],
         "(-q)^{1/2} is not an integer power of (-q)"),
    ],
    ids=["at-bogus", "at-off-lattice", "at-open-brace", "at-close-brace",
         "triple-bogus", "triple-off-lattice", "triple-open-brace", "triple-close-brace",
         "level", "d1-half-power"],
)
def test_unparseable_parameters_exit_2(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "anchor, message", [("9=0", "no vertex 9"), ("foo", "cannot parse height anchor 'foo'")]
)
def test_bad_height_anchor_exits_2(capsys, anchor, message):
    argv = ["build", *EX1[:-1], anchor]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_spectral_commands_load_no_fractions():
    code = (
        "import sys\n"
        "from arquiver.cli import main\n"
        "assert main(['denom', '--family', 'D2', '--rank', '4', '-k', '1', '-l', '4',"
        " '--at', '(-q^2)^{3/4}']) == 0\n"
        "assert main(['dorey', '--family', 'D2', '--rank', '3',"
        " '--triple', '(1,(-q^2)^{-1/2});(1,(-q^2)^{1/2});(2,0)']) == 0\n"
        "print('fractions' in sys.modules, file=sys.stderr)\n"
    )
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"
    assert "yes, case (i')" in proc.stdout


def test_dorey_cli(capsys):
    code, out, _ = run(
        capsys,
        ["dorey", "--family", "D1", "--rank", "4",
         "--triple", "(3,-4);(3,-2);(2,-3)"],
    )
    assert code == 0
    assert "yes, case (iii)" in out
    code, out, _ = run(
        capsys,
        ["dorey", "--family", "D1", "--rank", "4",
         "--triple", "(1,0);(1,0);(2,0)", "--format", "json"],
    )
    assert json.loads(out)["admissible"] is False


def test_dorey_cli_twisted_notes_the_one_way_rule(capsys):
    # (i') over the rank-6 diagram: 4 = 2 + 2, ratios (-q^2)^-1 and (-q^2)^1 up to sign
    note = "  (one-way rule: no means unknown)"
    for triple, answer in (
        ("(2,-2);(2,2);(4,0)", "yes, case (i')"),
        ("(2,-2);(2,4);(4,0)", "no"),
    ):
        argv = ["dorey", "--family", "D2", "--rank", "5", "--triple", triple]
        assert run(capsys, argv) == (0, answer + note + "\n", "")


@pytest.mark.parametrize(
    "family, rank, triple, message",
    [
        ("D1", 3, "(3,-4);(3,-2);(2,-3)", "untwisted type D needs n >= 4"),
        ("D1", 3, "(1,-1);(1,1);(2,0)", "untwisted type D needs n >= 4"),
        ("D2", 2, "(1,-1);(1,1);(2,0)", "twisted type D needs n >= 3"),
        ("D2", 1, "(1,0);(1,0);(1,0)", "twisted type D needs n >= 3"),
    ],
)
def test_dorey_rejects_ranks_without_a_denominator(capsys, family, rank, triple, message):
    argv = ["dorey", "--family", family, "--rank", str(rank), "--triple", triple]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_cli(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["verify", "--rank-max", "4", "--suite", "structure",
         "--json", str(out_path)],
    )
    assert code == 0
    assert "120/120 checks passed" in out
    payload = json.loads(out_path.read_text())
    assert len(payload) == 120


def test_verify_cli_jobs_print_the_serial_summary(capsys):
    argv = ["verify", "--rank-max", "4", "--suite", "structure"]
    serial = run(capsys, [*argv, "--jobs", "1"])
    assert serial == (0, "120/120 checks passed\n", "")
    assert run(capsys, [*argv, "--jobs", "2"]) == serial


def test_parse_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, ["pairs", *EX1, "--gamma", "e9+e2"])
    assert code == 2 and "error:" in err
    code, out, err = run(capsys, ["pairs", *EX1, "--gamma", "e1-e2"])
    assert code == 2 and "simple roots have no pairs" in err and out == ""
    for bad in ("[1 2 1 1]", "[1,,2,1,1]", "[,1,2,1,1,]"):
        code, out, err = run(capsys, ["pairs", *EX1, "--gamma", bad])
        assert (code, out, err) == (2, "", f"error: cannot parse root {bad!r}\n")
    code, _, err = run(
        capsys, ["build", "--type", "D", "--rank", "4", "--arrows", "1>4,2>3,2>4"]
    )
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys,
        ["dorey", "--family", "D1", "--rank", "4", "--triple", "bogus"],
    )
    assert code == 2
    old_report = tmp_path / "old.json"
    old_report.write_text('[{"check_id": "build"}]\n')
    kept = old_report.read_bytes()
    new_report = tmp_path / "new.json"
    for bad in (["--rank-max", "3"], ["--jobs", "0"], ["--jobs", "-3"],
                ["--rank-max", "3", "--json", str(old_report)],
                ["--jobs", "0", "--json", str(new_report)]):
        code, out, err = run(capsys, ["verify", "--suite", "structure", *bad])
        assert code == 2 and err.startswith("error:") and out == ""
    assert old_report.read_bytes() == kept
    assert not new_report.exists()


BAD_INPUT = {
    root_system: root_system.RootSystemError, quiver: quiver.QuiverError,
    ar_quiver: ar_quiver.ARQuiverError, orders: orders.OrderError,
    qaffine: qaffine.QAffineError, verify: verify.VerifyError, cli: cli.CliError,
}


def test_every_modules_bad_input_error_derives_from_the_one_base():
    base = root_system.ArquiverError
    assert issubclass(base, ValueError)
    for module, error in BAD_INPUT.items():
        assert isinstance(error("bad"), base)
        defined = {
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Exception)
            and value.__module__ == module.__name__
        }
        assert defined == ({base, error} if module is root_system else {error}), module


@pytest.mark.parametrize("error", BAD_INPUT.values(), ids=lambda error: error.__name__)
def test_main_exits_2_on_each_modules_bad_input(monkeypatch, capsys, error):
    def refuse(args):
        raise error(f"{error.__name__} refuses")

    monkeypatch.setattr(cli, "cmd_roots", refuse)
    code, out, err = run(capsys, ["roots", "--type", "D", "--rank", "4"])
    assert (code, out, err) == (2, "", f"error: {error.__name__} refuses\n")


def test_main_lets_a_plain_value_error_escape(monkeypatch):
    def fault(args):
        raise ValueError("a fault, not bad input")

    monkeypatch.setattr(cli, "cmd_roots", fault)
    with pytest.raises(ValueError, match="a fault, not bad input"):
        main(["roots", "--type", "D", "--rank", "4"])


def test_out_file(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    code, out, _ = run(capsys, ["build", *EX1, "--out", str(path)])
    assert code == 0 and out == ""
    assert "<3,-4>" in path.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--type", "D", "--rank", "4", "--out"],
        ["verify", "--rank-max", "4", "--suite", "structure", "--json"],
    ],
    ids=["roots-out", "verify-json"],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, [*argv, str(target)])
    assert code == 2 and err.startswith("error:") and out == ""
    assert not target.exists()


def _no_sweep(*args, **kwargs):
    pytest.fail("run_suite ran before the --json path was checked")


def test_unwritable_verify_json_fails_before_the_sweep(monkeypatch, capsys):
    monkeypatch.setattr(verify, "run_suite", _no_sweep)
    code, out, err = run(
        capsys, ["verify", "--rank-max", "4", "--json", "/nonexistent/r.json"]
    )
    assert code == 2 and err.startswith("error: cannot write") and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--rank-max", "4", "--json"],
        ["denom", "--family", "D1", "--rank", "4", "-k", "2", "-l", "2", "--out"],
    ],
    ids=["verify-json", "denom-out"],
)
def test_empty_output_path_is_unwritable(monkeypatch, capsys, argv):
    # an empty path is a path that cannot be opened, not a request for stdout
    monkeypatch.setattr(verify, "run_suite", _no_sweep)
    code, out, err = run(capsys, [*argv, ""])
    assert code == 2 and err.startswith("error: cannot write") and out == ""


PINS = Path(__file__).parent / "cli_pins"
D1_TRIPLE = ["dorey", "--family", "D1", "--rank", "4", "--triple"]
PINNED = {
    "roots-D4": ["roots", "--type", "D", "--rank", "4"],
    "roots-A3": ["roots", "--type", "A", "--rank", "3"],
    "build": ["build", *EX1],
    "build-dot": ["build", *EX1, "--format", "dot"],
    "order-U1": ["order", *EX1, "--strategy", "u1"],
    "order-L2": ["order", *EX1, "--strategy", "L2"],
    "pairs-e1+e2": ["pairs", *EX1, "--gamma", "e1+e2"],
    "pairs-angle": ["pairs", *EX1, "--gamma", "<1,-4>"],
    "denom-D1": ["denom", "--family", "D1", "--rank", "4", "-k", "2", "-l", "2"],
    "denom-D1-at": ["denom", "--family", "D1", "--rank", "4", "-k", "2", "-l", "2",
                    "--at", "(-q)^4"],
    "denom-D2-at": ["denom", "--family", "D2", "--rank", "4", "-k", "1", "-l", "4",
                    "--at=-i*(-q^2)^{5/2}"],
    "dorey-D1-yes": [*D1_TRIPLE, "(3,-4);(3,-2);(2,-3)"],
    "dorey-D1-no": [*D1_TRIPLE, "(1,0);(1,0);(2,0)"],
    "dorey-D2": ["dorey", "--family", "D2", "--rank", "3",
                 "--triple", "(1,(-q^2)^{-1/2});(1,(-q^2)^{1/2});(2,0)"],
}
PINNED.update({f"{name}-json": [*argv, "--format", "json"]
               for name, argv in list(PINNED.items()) if name != "build-dot"})


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_are_pinned(tmp_path, capsys, name):
    # the whole stdout of each command and format, JSON key order and indent included
    argv = PINNED[name]
    expected = (PINS / f"{name}.txt").read_text()
    assert run(capsys, argv) == (0, expected, "")
    path = tmp_path / "out.txt"
    assert run(capsys, [*argv, "--out", str(path)]) == (0, "", "")
    assert path.read_text() == expected


def test_text_output_loads_no_json_and_no_query_loads_fractions():
    text = [argv for name, argv in PINNED.items() if not name.endswith("-json")]
    json_queries = [argv for name, argv in PINNED.items() if name.endswith("-json")]
    code = (
        "import sys\n"
        "from arquiver.cli import main\n"
        f"for argv in {text!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert main(['verify', '--rank-max', '4', '--suite', 'structure']) == 0\n"
        "print(sorted({'json', 'fractions'} & set(sys.modules)), file=sys.stderr)\n"
        f"for argv in {json_queries!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted({'json', 'fractions'} & set(sys.modules)), file=sys.stderr)\n"
    )
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n['json']\n"


@pytest.mark.parametrize(
    "rank, first_line", [(40, "1560 positive roots of type D_40\n"), (4, None)],
    ids=["in-print", "in-flush"],
)
def test_closed_stdout_exits_2_without_a_traceback(rank, first_line):
    # D40's 1,560 roots overflow a pipe buffer, so print meets the closed end; D4's 12
    # stay in the (block-buffered) stdout until the flush, long after the reader has gone
    src = Path(verify.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "arquiver.cli", "roots", "--type", "D", "--rank", str(rank)],
        cwd=src, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if first_line:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert err == "error: cannot write stdout: Broken pipe\n"


def test_closed_stdout_shared_with_stderr_exits_2():
    # as under `2>&1 | head -1`: the error line meets the closed pipe too, and an
    # escaping exception would exit 1 (or 120 if the flush at exit failed)
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "arquiver.cli", "roots", "--type", "D", "--rank", "40"],
        cwd=src, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert proc.stdout.readline() == "1560 positive roots of type D_40\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "arq" in capsys.readouterr().out
