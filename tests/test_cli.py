"""Tests for the command-line interface."""

import argparse
import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from k3pi1 import cli
from k3pi1.cli import InputError, _build_parser, load_config, main

from oracles import minors_gcd

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
CORPUS = Path(__file__).parent / "cli_corpus.json"


def _cap_memory():
    """Run a subprocess under a 1 GiB address-space limit."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_cli(*args):
    """Invoke the CLI in-process, capturing stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_analyze_kummer_json_matches_golden():
    code, out, err = run_cli("analyze", str(FIXTURES / "kummer.json"), "--json")
    assert code == 0, err
    assert out == (GOLDEN / "kummer_report.json").read_text()
    payload = json.loads(out)
    assert payload["verdict"] == "TorusCover"
    assert payload["e_orb"] == "0/1"
    assert payload["r"] == 16


def test_analyze_532_json_matches_golden():
    code, out, err = run_cli("analyze", str(FIXTURES / "fixture_532.json"), "--json")
    assert code == 0, err
    assert out == (GOLDEN / "fixture_532_report.json").read_text()
    payload = json.loads(out)
    assert payload["verdict"] == "FiniteFundamentalGroup"
    assert payload["orbifold_order"] == 60
    assert payload["e_orb"] == "2/5"


def test_analyze_human_output():
    code, out, err = run_cli("analyze", str(FIXTURES / "kummer.json"))
    assert code == 0
    assert "verdict: TorusCover" in out
    assert "r = 16" in out


def test_euler_subcommand():
    code, out, _ = run_cli("euler", str(FIXTURES / "fixture_532.json"))
    assert code == 0
    assert "r = 18" in out
    assert "e_orb = 2/5" in out


def test_euler_subcommand_bare_config(tmp_path):
    cfg = tmp_path / "bare.json"
    cfg.write_text('{"singularities": ["A1", "A1", "D4", "E8"]}')
    code, out, _ = run_cli("euler", str(cfg), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == 14
    assert payload["e_orb"] == "107/15"


def test_orbifold_subcommand():
    code, out, _ = run_cli("orbifold", "--signature", "2,3,7")
    assert code == 0
    assert out.strip() == "Hyperbolic, chi = -1/42"
    code, out, _ = run_cli("orbifold", "--signature", "2,3,5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 60
    assert payload["chi"] == "1/30"


def test_orbifold_bad_signature():
    code, out, err = run_cli("orbifold", "--signature", "2,x")
    assert code == 1
    assert "--signature" in err
    code, out, err = run_cli("orbifold", "--signature", "2,\u0663,5")
    assert (code, out) == (1, "")
    assert err.startswith("error: --signature:")


def test_lattice_k3_info():
    code, out, _ = run_cli("lattice", "k3", "--info")
    assert code == 0
    assert out.strip() == "dim 22, even, det -1, signature (3,19)"
    code, out, _ = run_cli("lattice", "k3", "--json")
    payload = json.loads(out)
    assert payload == {"det": -1, "dim": 22, "even": True, "signature": [3, 19, 0]}


def test_lattice_snf(tmp_path):
    mat = tmp_path / "m.json"
    mat.write_text("[[2, 0], [0, 3]]")
    code, out, _ = run_cli("lattice", "snf", str(mat))
    assert code == 0
    assert out.strip() == "diagonal: 1 6"
    code, out, _ = run_cli("lattice", "snf", str(mat), "--json")
    payload = json.loads(out)
    assert payload["diagonal"] == [1, 6]

    mat.write_text('[[1.5, 0], [0, "2"]]')
    code, out, err = run_cli("lattice", "snf", str(mat))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {mat}: matrix entries must be integers")
    text = tmp_path / "m.txt"
    text.write_text("2 0\n1 \u0663\n", encoding="utf-8")
    code, out, err = run_cli("lattice", "snf", str(text))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {text}:2:")
    text.write_text("+3 -2\n-2 +4\n")
    assert run_cli("lattice", "snf", str(text)) == (0, "diagonal: 1 8\n", "")


def test_lattice_snf_text_format():
    code, out, _ = run_cli("lattice", "snf", str(FIXTURES / "u_matrix.txt"))
    assert code == 0
    assert out.strip() == "diagonal: 1 1"


def test_lattice_isotropic_found_and_exhausted(tmp_path):
    code, out, _ = run_cli(
        "lattice", "isotropic", str(FIXTURES / "u_matrix.txt"), "--bound", "5"
    )
    assert code == 0
    assert "isotropic vector: (0, 1)" in out

    mat = tmp_path / "d.json"
    mat.write_text("[[1, 0], [0, -3]]")
    code, out, _ = run_cli("lattice", "isotropic", str(mat), "--bound", "100")
    assert code == 2
    assert "exhausted" in out


def test_lattice_isotropic_huge_bound_in_bounded_memory(tmp_path):
    # x^2 - 3y^2 is anisotropic over Q, so the search answers at once;
    # the 2 * 10^8 + 1 candidate values must not be listed up front
    mat = tmp_path / "d.txt"
    mat.write_text("1 0\n0 -3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "k3pi1", "lattice", "isotropic", str(mat),
         "--bound", "100000000"],
        capture_output=True,
        timeout=60,
        preexec_fn=_cap_memory,
    )
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith(b"exhausted:") for line in proc.stdout.splitlines())
    assert proc.stderr == b""


def test_huge_fibers_fail_fast_in_bounded_memory(tmp_path):
    # an I_n or I*_n, decorated or not, is checked without its O(n)
    # component table, and `kodaira info` refuses an index above its
    # bound before building one
    cases = []
    for k, (fiber, euler) in enumerate((
        ('{"kodaira": "I", "n": 1000000000000}', 10**12),
        ('{"kodaira": "I", "n": 1000000000000, "removed": ["c0"]}', 10**12),
        ('{"kodaira": "I*", "n": 1000000000000, "removed": ["t1", "c999999999999"]}',
         10**12 + 6),
    )):
        config = tmp_path / f"huge{k}.json"
        config.write_text('{"fibration": {"fibers": [%s]}}' % fiber)
        cases.append((["analyze", str(config)],
                      f"error: fiber Euler numbers sum to {euler}, a K3 surface needs 24"))
    cases.append((["kodaira", "info", "I1000000"],
                  "error: label: I1000000: tables are printed up to n = 100000"))
    for argv, line in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "k3pi1", *argv],
            capture_output=True,
            timeout=60,
            preexec_fn=_cap_memory,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == b""
        assert proc.stderr.decode().splitlines() == [line]


def test_kodaira_info():
    code, out, _ = run_cli("kodaira", "info", "II*")
    assert code == 0
    assert "euler 10" in out
    assert "c6:6" in out
    code, out, err = run_cli("kodaira", "info", "I9*")
    assert code == 1
    assert "label" in err


def test_kodaira_info_index_bound(monkeypatch):
    monkeypatch.setattr(cli, "KODAIRA_INFO_MAX_N", 5)
    for label in ("I5", "I*5", "IV*"):
        assert run_cli("kodaira", "info", label)[0] == 0, label
    for label in ("I6", "I*6"):
        code, out, err = run_cli("kodaira", "info", label)
        assert (code, out) == (1, ""), label
        assert err == f"error: label: {label}: tables are printed up to n = 5\n"


def test_pi1_quotient():
    code, out, _ = run_cli("pi1", "quotient", str(FIXTURES / "rep_four_istar0.json"))
    assert code == 0
    assert "Z/2 x Z/2" in out
    code, out, _ = run_cli(
        "pi1", "quotient", str(FIXTURES / "rep_four_istar0.json"), "--subset", "1"
    )
    assert code == 0
    assert "Z/2 x Z/2" in out
    code, out, err = run_cli(
        "pi1", "quotient", str(FIXTURES / "rep_four_istar0.json"), "--subset", "9"
    )
    assert code == 1
    assert "--subset" in err
    code, out, err = run_cli(
        "pi1", "quotient", str(FIXTURES / "rep_four_istar0.json"), "--subset", "\u0661"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --subset:")


def test_enumerate_small_budget():
    code, out, _ = run_cli("enumerate", "--euler-sum", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["hyperbolic"] == 0
    assert payload["violations"] == []
    # a negative report limit used to truncate the lists silently
    for mode in ([], ["--json"]):
        code, out, err = run_cli("enumerate", "--euler-sum", "24", "--max-report", "-1", *mode)
        assert (code, out) == (1, "")
        assert err.startswith("error: --max-report:")


def test_invalid_config_errors_name_the_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"singularities": ["A1"], "fibration": {"fibers": []}}')
    code, out, err = run_cli("analyze", str(bad))
    assert code == 1
    assert "singularities" in err or "fibration" in err

    bad.write_text('{"singularities": ["Q7"]}')
    code, out, err = run_cli("analyze", str(bad))
    assert code == 1
    assert "singularities" in err

    bad.write_text('{"fibration": {"fibers": [{"kodaira": "I*0", "removed": ["zz"]}]}}')
    code, out, err = run_cli("analyze", str(bad))
    assert code == 1
    assert "zz" in err or "component" in err

    bad.write_text('{"fibration": {"fibers": [{"kodaira": "I1"}]}}')
    code, out, err = run_cli("analyze", str(bad))
    assert code == 1  # Euler sum 1 != 24
    assert "24" in err

    code, out, err = run_cli("analyze", str(tmp_path / "missing.json"))
    assert code == 1
    assert "missing.json" in err

    # integer fields must be JSON integers: no floats, strings or booleans
    for n in (3.7, "\u0663", "3", True):
        bad.write_text(json.dumps({"fibration": {"fibers": [{"kodaira": "I", "n": n}]}}))
        code, out, err = run_cli("analyze", str(bad))
        assert (code, out) == (1, ""), n
        assert err.startswith("error: fibration.fibers[0].n:"), n
    for entry in (-1.9, True):
        mats = [[[-1, 0], [0, -1]], [[entry, 0], [0, -1]]] + [[[-1, 0], [0, -1]]] * 2
        fibers = [{"kodaira": "I*0"}] * 4
        bad.write_text(json.dumps({"fibration": {"fibers": fibers}, "monodromy": mats}))
        code, out, err = run_cli("analyze", str(bad))
        assert (code, out) == (1, ""), entry
        assert err.startswith("error: monodromy[1]:"), entry
    mats = [{"matrix": [[-1, 0], [0, -1]], "declared": 3}] * 4
    bad.write_text(json.dumps({"fibration": {"fibers": fibers}, "monodromy": mats}))
    code, out, err = run_cli("analyze", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: monodromy[0].declared:")


def test_usage_errors_exit_1_with_one_error_line():
    # exit 2 is kept for an exhausted search or a sweep inconsistency
    matrix = str(FIXTURES / "u_matrix.txt")
    cases = {
        (): "the following arguments are required: command",
        ("lattice",): "the following arguments are required: lattice_command",
        ("lattice", "isotropic", matrix, "--bound", "abc"):
            "argument --bound: invalid int value: 'abc'",
    }
    for argv, message in cases.items():
        assert run_cli(*argv) == (1, "", f"error: {message}\n"), argv


def test_unreadable_input_files_exit_1_naming_the_file(tmp_path):
    bad = tmp_path / "bad.json"
    cases = [
        ('{"singularities": ["A1"], "note": "caf\xe9"}'.encode("latin-1"), "not UTF-8"),
        (b"[[1" + b"0" * 5000 + b"]]", "too many digits"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    ]
    for content, reason in cases:
        bad.write_bytes(content)
        for command in (["analyze"], ["lattice", "snf"]):
            code, out, err = run_cli(*command, str(bad))
            assert (code, out) == (1, ""), (command, reason)
            assert err.startswith(f"error: {bad}:") and reason in err, (command, reason)
            assert err.count("\n") == 1, (command, reason)


def _digits(x):
    """str(x) past the interpreter's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_answers_past_the_int_to_str_limit_print_exactly(tmp_path):
    # every input integer has at most 4,300 digits, the loaders' limit,
    # but an answer may have more; it is printed in full, and the limit
    # is back in force afterwards
    limit = sys.get_int_max_str_digits()
    x = 10**4299
    y = x + 1
    rep = tmp_path / "rep.json"
    mats = [[[1, x], [0, 1]], [[1, -x], [0, 1]], [[1, 0], [y, 1]], [[1, 0], [-y, 1]]]
    rep.write_text("[%s]" % ", ".join(
        "[[%s, %s], [%s, %s]]" % tuple(_digits(e) for row in m for e in row) for m in mats
    ))
    # Z^2 modulo the columns of I - T_j: d1 and d1 d2 are the minor gcds
    relations = [[0, 0, -x, 0, 0, 0, x, 0], [0, 0, 0, 0, -y, 0, 0, y]]
    d1, d2 = minors_gcd(relations, 1), minors_gcd(relations, 2)
    assert d1 == 1 and len(_digits(d2)) > 8_500
    code, out, err = run_cli("pi1", "quotient", str(rep))
    assert (code, err) == (0, "")
    assert out == f"quotient: Z/{_digits(d2)} (invariant factors: {_digits(d2)})\n"
    code, out, err = run_cli("pi1", "quotient", str(rep), "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_int=str)
    assert payload["invariant_factors"] == [_digits(d2)]
    assert payload["order"] == _digits(d2)

    n = 10**4300 - 1  # A_n contributes n + 1 - 1/(n + 1)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"singularities": [f"A{'9' * 4300}"] * 3}))
    r, e_orb = 3 * n, Fraction(24) - 3 * (n + 1 - Fraction(1, n + 1))
    e_orb_text = f"{_digits(e_orb.numerator)}/{_digits(e_orb.denominator)}"
    for command in ("analyze", "euler"):
        code, out, err = run_cli(command, str(bare))
        assert (code, err) == (0, ""), command
        assert f"r = {_digits(r)}\ne_orb = {e_orb_text}\n" in out, command
        code, out, err = run_cli(command, str(bare), "--json")
        assert (code, err) == (0, ""), command
        payload = json.loads(out, parse_int=str)
        assert (payload["r"], payload["e_orb"]) == (_digits(r), e_orb_text), command

    snf = tmp_path / "snf.txt"
    snf.write_text(f"{_digits(x)} 0\n0 {_digits(y)}\n")
    code, out, err = run_cli("lattice", "snf", str(snf))
    assert (code, out, err) == (0, f"diagonal: 1 {_digits(x * y)}\n", "")

    orders = [x + 1, x + 3, x + 7]
    chi = 2 - sum(1 - Fraction(1, m) for m in orders)
    code, out, err = run_cli("orbifold", "--signature", ",".join(map(_digits, orders)))
    assert (code, err) == (0, "")
    assert out == f"Hyperbolic, chi = {_digits(chi.numerator)}/{_digits(chi.denominator)}\n"
    assert sys.get_int_max_str_digits() == limit

    # the input limits stay: 4,301 digits are refused as before
    snf.write_text(f"{_digits(10 * x)} 0\n0 1\n")
    code, out, err = run_cli("lattice", "snf", str(snf))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {snf}:1: Exceeds the limit (4300 digits)")
    bare.write_text(json.dumps({"singularities": [f"A{'9' * 4301}"]}))
    code, out, err = run_cli("analyze", str(bare))
    assert (code, out) == (1, "")
    assert err.startswith("error: singularities:") and err.count("\n") == 1


def test_exact_digits_leaves_an_interpreter_without_the_limit_alone(monkeypatch):
    # before Python 3.10.7 there is no int-to-str limit to lift: the block
    # runs once and the limit the interpreter reports stays as it was
    limit = sys.get_int_max_str_digits()
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    runs = []
    with cli._exact_digits():
        runs.append(sys.get_int_max_str_digits())
    assert runs == [limit]
    assert sys.get_int_max_str_digits() == limit


_KEYS = ["singularities", "fibration", "fibers", "monodromy", "kodaira", "n", "removed",
         "matrix", "declared"]
_LABELS = ["A1", "A01", "A0", "D3", "D4", "E8", "E9", "Q7", "I", "I*", "I3", "I*0", "II", "III",
           "IV", "IV*", "III*", "II*", "I05", ""]
_IDS = ["c0", "c1", "c2", "c5", "c01", "t1", "t2", "t3", "t4", "t5", "z", "a1", "b1", "zz", ""]
_MATRICES = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[1, 1], [0, 1]], [[1, -1], [0, 1]],
             [[0, -1], [1, 0]], [[0, 1], [-1, 0]], [[1, 1], [-1, 0]], [[2, 0], [0, 1]]]
_TOKENS = ["0", "1", "-2", "+3", "7", "\u0663", "1.5", "x", "--1", "1" + "0" * 4300,
           "1" + "0" * 4299, "123456789012345678901234567890"]

_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False), _text, st.sampled_from(_LABELS + _IDS),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.sampled_from(_KEYS) | _text, inner, max_size=4),
    ),
    max_leaves=30,
)
_matrix = st.sampled_from(_MATRICES) | st.lists(
    st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2
)
_entry = _matrix | st.fixed_dictionaries(
    {"matrix": _matrix}, optional={"declared": st.sampled_from(_LABELS) | st.integers(0, 3)}
)
_fiber = st.fixed_dictionaries(
    {"kodaira": st.sampled_from(_LABELS)},
    optional={
        "n": st.integers(-1, 30) | st.just(10**12),
        "removed": st.lists(st.sampled_from(_IDS), max_size=4),
    },
)
_istar0 = st.fixed_dictionaries(
    {"kodaira": st.just("I*0"), "removed": st.lists(st.sampled_from(_IDS[5:9]), max_size=4)}
)
_fibers = st.lists(_fiber, max_size=6) | st.lists(_istar0, min_size=4, max_size=4)
_configs = st.fixed_dictionaries(
    {"singularities": st.lists(st.sampled_from(_LABELS), max_size=20)}
) | st.fixed_dictionaries(
    {"fibration": st.fixed_dictionaries({"fibers": _fibers})},
    optional={"monodromy": st.lists(_entry, max_size=6)},
)
_text_matrices = st.lists(
    st.lists(st.sampled_from(_TOKENS), max_size=4).map(" ".join), max_size=4
).map("\n".join)
_documents = st.one_of(
    _json.map(json.dumps),
    _configs.map(json.dumps),
    st.lists(_entry, max_size=6).map(json.dumps),
    st.lists(st.lists(st.sampled_from(_TOKENS[:5]), min_size=1, max_size=4), max_size=4).map(
        lambda rows: json.dumps([[int(t) for t in row] for row in rows])
    ),
    _text_matrices,
    _text,
)


# a generous bound on one command over one drawn input: every loader
# input is small, so only a runaway parse or search comes near it
LOADER_SECONDS = 10


@seed(20_250_301)
@settings(max_examples=200, deadline=2000, database=None)
@given(document=_documents, bound=st.integers(-1, 3))
def test_loaders_end_with_exit_0_1_or_2_and_one_error_line(document, bound):
    commands = [["analyze"], ["euler"], ["pi1", "quotient"], ["lattice", "snf"]]
    commands.append(["lattice", "isotropic", "--bound", str(bound)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(document, encoding="utf-8")
        for command in commands:
            start = time.perf_counter()
            code, out, err = run_cli(*command, str(path))
            assert time.perf_counter() - start < LOADER_SECONDS, command
            assert code in (0, 1, 2), command
            if code == 1:
                assert out == "" and err.startswith("error: "), command
                assert err.count("\n") == 1, command


def test_noncanonical_labels_exit_1_naming_the_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"singularities": ["A1", "A01"]}')
    code, out, err = run_cli("analyze", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: singularities:") and "A01" in err

    bad.write_text('{"fibration": {"fibers": [{"kodaira": "I05"}]}}')
    code, out, err = run_cli("analyze", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: fibration.fibers[0].kodaira:") and "I05" in err

    code, out, err = run_cli("kodaira", "info", "I\u0663")
    assert (code, out) == (1, "")
    assert err.startswith("error: label:")


def test_closed_stdout_exits_1_without_traceback():
    # the reader stops after 5 bytes of a JSON dump larger than a pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "k3pi1", "kodaira", "info", "I5000", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(5) == b'{\n  "'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_declared_monodromy_mismatch_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "fibration": {
                    "fibers": [
                        {"kodaira": "I*0", "removed": []},
                        {"kodaira": "I*0"},
                        {"kodaira": "I*0"},
                        {"kodaira": "I*0"},
                    ]
                },
                "monodromy": [
                    [[1, 1], [0, 1]],
                    [[1, -1], [0, 1]],
                    [[-1, 0], [0, -1]],
                    [[-1, 0], [0, -1]],
                ],
            }
        )
    )
    # first matrix is I_n class but the fiber says I*_0
    code, out, err = run_cli("analyze", str(cfg))
    assert code == 1
    assert "declared" in err or "class" in err


def test_declared_label_must_be_its_fibers_type(tmp_path):
    # an I_n fiber has unipotent monodromy, so -I declared I*0 on one is refused
    cfg = tmp_path / "cfg.json"
    minus_one = [[-1, 0], [0, -1]]
    cfg.write_text(json.dumps({
        "fibration": {"fibers": [{"kodaira": "I12"}, {"kodaira": "I12"}]},
        "monodromy": [{"matrix": minus_one, "declared": "I*0"}] * 2,
    }))
    code, out, err = run_cli("analyze", str(cfg))
    assert (code, out) == (1, "")
    assert err == "error: monodromy[0].declared: I*0 does not match fibration.fibers[0] (I12)\n"

    # the fiber's own type, spelled out, is accepted; a mismatch further on is named there
    mono = [{"matrix": minus_one, "declared": "I*0"}] * 4
    cfg.write_text(json.dumps({"fibration": {"fibers": [{"kodaira": "I*0"}] * 4}, "monodromy": mono}))
    code, out, _ = run_cli("analyze", str(cfg), "--json")
    assert (code, json.loads(out)["monodromy_quotient"]) == (0, [2, 2])
    mono[2] = {"matrix": minus_one, "declared": "I*1"}
    cfg.write_text(json.dumps({"fibration": {"fibers": [{"kodaira": "I*0"}] * 4}, "monodromy": mono}))
    code, out, err = run_cli("analyze", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: monodromy[2].declared: I*1 does not match") and err.count("\n") == 1

    # without a fibration a declared label has nothing to match
    code, out, _ = run_cli("pi1", "quotient", str(FIXTURES / "rep_four_istar0.json"))
    assert code == 0


def test_config_with_monodromy_attaches_quotient(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "fibration": {
                    "fibers": [{"kodaira": "I*0"}] * 4
                },
                "monodromy": [[[-1, 0], [0, -1]]] * 4,
            }
        )
    )
    code, out, _ = run_cli("analyze", str(cfg), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["monodromy_quotient"] == [2, 2]
    assert payload["monodromy_quotient_trivial"] is False


def test_load_config_round_trip():
    input_ = load_config(str(FIXTURES / "kummer.json"))
    assert input_.fibers is not None
    assert len(input_.fibers) == 4
    with pytest.raises(InputError):
        load_config(str(FIXTURES / "u_matrix.txt"))


def test_subprocess_runs_are_byte_identical():
    cmd = [
        sys.executable,
        "-m",
        "k3pi1",
        "analyze",
        str(FIXTURES / "kummer.json"),
        "--json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.decode() == (GOLDEN / "kummer_report.json").read_text()


def run_corpus_case(argv):
    """(exit code, stdout, first stderr line) of one in-process run;
    argparse's own exits (--help, usage errors) count too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue().partition("\n")[0]


def _leaf_commands(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaf_commands(sub, path + (name,))


def test_cli_golden_corpus(tmp_path, monkeypatch):
    """Every case in cli_corpus.json keeps its exact stdout, exit code and
    first stderr line.  The expected values were captured from the CLI
    itself; new behaviour gets new cases, existing cases stay as they are.
    The inputs are the fixtures plus the corpus's own small files, run
    from one directory so that messages naming a path do not depend on it."""
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    for name, content in corpus["files"].items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width

    mismatched = [
        case["argv"]
        for case in corpus["cases"]
        if run_corpus_case(case["argv"]) != (case["code"], case["stdout"], case["stderr"])
    ]
    assert mismatched == []

    # every leaf subcommand has a successful run in text and in --json mode
    covered = {
        (tuple(case["argv"][:depth]), "--json" in case["argv"])
        for case in corpus["cases"]
        if case["code"] == 0 and "--help" not in case["argv"]
        for depth in (1, 2)
    }
    leaves = list(_leaf_commands(_build_parser()))
    assert len(leaves) == 9
    assert [
        (leaf, as_json) for leaf in leaves for as_json in (False, True)
        if (leaf, as_json) not in covered
    ] == []
