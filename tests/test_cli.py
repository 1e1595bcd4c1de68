import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from qca.cli import main
from qca.duality import CompatibilityError
from qca.scalars import QPoleError
from qca.scatter import ConsistencyError
from qca.seeds import Seed, make_fixed_data, save_seed_file
from qca.words import ExpansionError
from qca import fixtures, mutation

HERE = os.path.dirname(__file__)


@pytest.fixture()
def seeds(tmp_path):
    paths = {}
    for name, fn in (("a2", fixtures.a2_tables),
                     ("a2_scat", fixtures.a2_scattering),
                     ("a23", fixtures.a23)):
        p = tmp_path / f"{name}.json"
        save_seed_file(fn(), p)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_text_and_json(seeds, capsys):
    code, out, _ = run(capsys, ["table", "--seed", seeds["a2"],
                                "--sequence", "2,1,2,1,2",
                                "--mode", "x-quantum-coeff"])
    assert code == 0
    assert "step 5" in out and "X1 = (1+t2*q^-1*X2)*X1" in out
    code, js, _ = run(capsys, ["table", "--seed", seeds["a2"],
                               "--sequence", "2,1,2,1,2",
                               "--mode", "x-family", "--format", "json"])
    assert code == 0
    rows = json.loads(js)
    assert len(rows) == 6
    assert rows[5]["cvectors"] == [[0, 1], [1, 0]]
    # (1 + t1 X1 + t1 t2 X1 X2)/X2 as a Laurent polynomial
    assert rows[2]["variables"][1] == "X2^-1+t1*X1*X2^-1+t1*t2*X1"


def test_table_prints_non_integral_epsilon_exactly(capsys, tmp_path):
    # only entries with an unfrozen index must be integers: the frozen pair
    # (2,3) carries {e2,e3} d3 = 1/2
    half = Fraction(1, 2)
    path = tmp_path / "half.json"
    save_seed_file(make_fixed_data([[0, 1, 0], [-1, 0, half], [0, -half, 0]],
                                   unfrozen=[0]), path)
    argv = ["table", "--seed", str(path), "--sequence", "1", "--mode", "x-classical"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert '  epsilon  [[0, -1, 0], [1, 0, "1/2"], [0, "-1/2", 0]]' in out
    code, js, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert json.loads(js)[0]["epsilon"] == [[0, 1, 0], [-1, 0, "1/2"], [0, "-1/2", 0]]


@pytest.mark.parametrize("mode", ["x-quantum", "x-quantum-coeff", "a-quantum"])
def test_mutate_pulls_back_only_the_row_it_prints(mode, seeds, capsys, monkeypatch,
                                                  cold_caches):
    pulled = []

    def recorded(algebra, v, steps):
        pulled.append((v, len(steps)))
        return pull_back(algebra, v, steps)

    pull_back = mutation._pull_back
    monkeypatch.setattr(mutation, "_pull_back", recorded)
    argv = ["mutate", "--seed", seeds["a2"], "--sequence", "2,1,2", "--mode", mode]
    code, out, _ = run(capsys, argv)
    assert code == 0
    last = Seed(fixtures.a2_tables()).mutate_sequence([1, 0, 1])
    want = last.f_basis() if mode == "a-quantum" else last.basis
    # one pull-back per variable of the last row, through all three steps
    assert pulled == [(v, 3) for v in want]
    # the same call again reads the row's shared words
    assert run(capsys, argv) == (0, out, "")
    assert pulled == [(v, 3) for v in want]


def test_table_determinism(seeds, capsys):
    argv = ["table", "--seed", seeds["a2"], "--sequence", "2,1,2",
            "--mode", "x-quantum", "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_scatter_files(seeds, capsys, tmp_path):
    svg = tmp_path / "d.svg"
    js = tmp_path / "d.json"
    code, out, _ = run(capsys, ["scatter", "--seed", seeds["a23"],
                                "--order", "2", "--quantum",
                                "--emit-svg", str(svg),
                                "--emit-json", str(js)])
    assert code == 0
    data = json.loads(js.read_text())
    assert len(data["walls"]) == 3
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<line") == 5
    # byte determinism of the emitted files
    code, _, _ = run(capsys, ["scatter", "--seed", seeds["a23"],
                              "--order", "2", "--quantum",
                              "--emit-svg", str(tmp_path / "d2.svg")])
    assert (tmp_path / "d2.svg").read_text() == text


def test_scatter_a2_svg_ray_count(seeds, capsys, tmp_path):
    svg = tmp_path / "a2.svg"
    code, _, _ = run(capsys, ["scatter", "--seed", seeds["a2_scat"],
                              "--order", "2", "--emit-svg", str(svg)])
    assert code == 0
    # two full lines (4 rays) plus one outgoing ray
    assert svg.read_text().count("<line") == 5


def test_scatter_json_roundtrip(seeds, capsys, tmp_path):
    js = tmp_path / "d.json"
    run(capsys, ["scatter", "--seed", seeds["a2_scat"], "--order", "3",
                 "--emit-json", str(js)])
    data = json.loads(js.read_text())
    outgoing = [w for w in data["walls"] if not w["incoming"]]
    assert outgoing == [{
        "ray": [1, -1], "normal": [1, 1], "kind": "classical",
        "full_line": False, "incoming": False, "direction": [-1, 1],
        "function_terms": {"1": "1"},
    }]


def test_theta_cli(seeds, capsys):
    code, out, _ = run(capsys, ["theta", "--seed", seeds["a23"],
                                "--gvector=-3,5", "--basepoint", "1,1",
                                "--order", "4", "--filter-exponent", "1,-1"])
    assert code == 0
    assert "1 broken line(s)" in out


def test_pstar_cli(seeds, capsys):
    code, out, _ = run(capsys, ["pstar", "--seed", seeds["a23"],
                                "--check-intertwining", "--order", "8"])
    assert code == 0
    assert "intertwining: ok" in out


def test_pstar_without_the_check_reports_no_verdict(seeds, capsys):
    code, out, _ = run(capsys, ["pstar", "--seed", seeds["a23"]])
    assert code == 0
    assert out == "Lambda = [[0, 1], [-1, 0]]\np* rows = [[0, -3], [2, 0]]\n"
    code, out, _ = run(capsys, ["pstar", "--seed", seeds["a23"], "--format", "json"])
    assert code == 0
    assert sorted(json.loads(out)) == ["Lambda", "pstar_rows"]


def test_pstar_order_without_the_check_is_a_clean_error(seeds, capsys):
    code, out, err = run(capsys, ["pstar", "--seed", seeds["a23"], "--order", "6"])
    assert (code, out) == (2, "")
    assert err == "error: --order applies only with --check-intertwining\n"


def test_poisson_cli(seeds, capsys):
    code, out, _ = run(capsys, ["poisson", "--seed", seeds["a2"]])
    assert code == 0
    assert "mu_1: ok" in out and "mu_2: ok" in out


def test_check_cli(capsys):
    code, out, _ = run(capsys, ["check", "--suite", "tables"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_usage_errors(seeds, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--seed", seeds["a2"], "--mode", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["table", "--seed", seeds["a2"], "--unknown-flag"])
    with pytest.raises(SystemExit) as exc:  # poisson has no --rank-check
        main(["poisson", "--seed", seeds["a2"], "--rank-check"])
    assert exc.value.code == 2
    code, _, err = run(capsys, ["table", "--seed", "/nonexistent.json",
                                "--mode", "x-classical"])
    assert code == 2
    code, _, err = run(capsys, ["table", "--seed", seeds["a2"],
                                "--sequence", "7", "--mode", "x-classical"])
    assert code == 2


def _non_integral_pairing():
    make_fixed_data([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]],
                    unfrozen=[]).integral(1, "pairing")


def _raising(exc):
    def fail():
        raise exc
    return fail


@pytest.mark.parametrize("fail, code", [
    # a computation that failed on valid input
    (_raising(ConsistencyError("loop")), 3),
    (_raising(QPoleError(2)), 3),
    (_raising(OverflowError("exponent outside the packed range")), 3),
    (_raising(ZeroDivisionError("division by zero")), 3),
    (_non_integral_pairing, 3),
    (_raising(ExpansionError("no separating grading")), 3),
    # input the engine rejects
    (_raising(ValueError("bad input")), 2),
    (_raising(CompatibilityError((0, 1), 2, "not compatible")), 2),
    (_raising(OSError("cannot read")), 2),
], ids=["consistency", "q-pole", "overflow", "zero-division", "non-integral",
        "expansion", "value", "compatibility", "os"])
def test_exit_code_names_the_kind_of_error(fail, code, seeds, capsys, monkeypatch):
    from qca import cli

    monkeypatch.setattr(cli, "cmd_table", lambda args: fail())
    got, out, err = run(capsys, ["table", "--seed", seeds["a2"], "--mode", "x-classical"])
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["skew", "rank"])
def test_seed_file_missing_key_is_a_clean_error(key, capsys, tmp_path):
    with open(os.path.join(HERE, "..", "demos", "seeds", "a2.json")) as fh:
        data = json.load(fh)
    del data[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, ["table", "--seed", str(bad), "--mode", "x-classical"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("change", [
    {"skew": 5}, {"skew": [[None, 1], [-1, 0]]}, {"skew": [[0, True], [-1, 0]]},
    {"skew": [[0, "1/0"], [-1, 0]]},
    {"rank": [2]},
    {"labels": ["A"]}, {"labels": [1, 2]}, {"labels": "X1"},
    {"d": [1.5, 1]}, {"d": ["1", 1]}, {"d": 2},
    {"unfrozen": [0, 0]}, {"unfrozen": [[0]]}, {"unfrozen": 0},
])
def test_malformed_seed_field_is_a_clean_error(change, capsys, tmp_path):
    with open(os.path.join(HERE, "..", "demos", "seeds", "a2.json")) as fh:
        data = json.load(fh)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**data, **change}))
    code, out, err = run(capsys, ["table", "--seed", str(bad), "--sequence", "1",
                                  "--mode", "x-classical"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_rank_zero_seed_names_the_rank(capsys, tmp_path):
    bad = tmp_path / "rank0.json"
    bad.write_text(json.dumps({"rank": 0, "skew": []}))
    code, out, err = run(capsys, ["table", "--seed", str(bad), "--mode", "x-classical"])
    assert (code, out) == (2, "")
    assert err == "error: rank must be a positive integer, got 0\n"


@pytest.mark.parametrize("verb", ["scatter", "theta"])
def test_scattering_names_the_frozen_direction(verb, capsys, tmp_path):
    path = tmp_path / "a2_frozen.json"
    save_seed_file(make_fixed_data([[0, 1], [-1, 0]], unfrozen=[0]), path)
    argv = {"scatter": ["scatter"],
            "theta": ["theta", "--gvector=-3,5", "--basepoint", "1,1"]}[verb]
    code, out, err = run(capsys, argv + ["--seed", str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: scattering diagrams need rank 2 with both directions "
                   "unfrozen, got rank 2 with unfrozen [0]\n")


def test_directory_as_seed_is_a_clean_error(capsys, tmp_path):
    code, out, err = run(capsys, ["table", "--seed", str(tmp_path),
                                  "--mode", "x-classical"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("verb", ["scatter", "theta"])
def test_directory_as_svg_path_is_a_clean_error(verb, seeds, capsys, tmp_path):
    argv = {"scatter": ["scatter", "--seed", seeds["a2_scat"]],
            "theta": ["theta", "--seed", seeds["a23"], "--gvector=-3,5",
                      "--basepoint", "1,1", "--order", "2"]}[verb]
    code, out, err = run(capsys, argv + ["--emit-svg", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag,values", [
    ("--gvector", ["1", "1,2,3"]),
    ("--basepoint", ["1", "1,1,1"]),
    ("--filter-exponent", ["1", "1,-1,0"]),
])
def test_theta_vectors_have_two_entries(flag, values, seeds, capsys):
    for value in values:
        argv = {"--gvector": "-3,5", "--basepoint": "1,1"}
        argv[flag] = value
        code, out, err = run(capsys, ["theta", "--seed", seeds["a23"]]
                             + [f"{k}={v}" for k, v in argv.items()])
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} takes two comma-separated entries, got {value!r}\n"


def test_zero_denominator_is_a_usage_error(seeds, capsys, tmp_path):
    # Fraction(1, 0) is bad input, not a failed computation
    code, out, err = run(capsys, ["theta", "--seed", seeds["a23"], "--gvector=-3,5",
                                  "--basepoint", "1/0,1"])
    assert (code, out) == (2, "")
    assert err == "error: --basepoint has a zero denominator: '1/0,1'\n"
    with open(seeds["a2"]) as fh:
        data = json.load(fh)
    data["skew"][0][1] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, ["table", "--seed", str(bad), "--mode", "x-classical"])
    assert (code, out) == (2, "")
    assert err == "error: skew entry '1/0' has a zero denominator\n"


@pytest.mark.parametrize("k", ["0", "3", "-1"])
def test_poisson_direction_is_checked(k, seeds, capsys):
    # --k 0 used to check every direction; 3 and -1 named directions 2, -2
    code, out, err = run(capsys, ["poisson", "--seed", seeds["a2"], f"--k={k}"])
    assert (code, out) == (2, "")
    assert err == "error: mutation indices are 1-based directions\n"


@pytest.mark.parametrize("argv", [
    ["poisson", "--k", "3"],
    ["table", "--sequence", "1,3", "--mode", "x-classical"],
    ["mutate", "--sequence", "3", "--mode", "a-quantum"],
])
def test_frozen_direction_is_named_one_based(argv, capsys, tmp_path):
    path = tmp_path / "rank3_frozen.json"
    save_seed_file(fixtures.rank3_frozen(), path)
    code, out, err = run(capsys, [argv[0], "--seed", str(path)] + argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: direction 3 is frozen\n"


@pytest.fixture()
def coefficient_free(tmp_path):
    path = tmp_path / "none.json"
    save_seed_file(make_fixed_data([[0, -1], [1, 0]], coefficients="none"), path)
    return str(path)


@pytest.mark.parametrize("mode", ["x-family", "x-quantum-coeff", "a-prin", "a-quantum"])
def test_principal_modes_refuse_a_coefficient_free_seed(mode, coefficient_free, capsys):
    for verb in ("table", "mutate"):
        code, out, err = run(capsys, [verb, "--seed", coefficient_free,
                                      "--sequence", "1", "--mode", mode])
        assert (code, out) == (2, "")
        assert err == f"error: mode {mode} requires principal coefficients\n"


@pytest.mark.parametrize("mode", ["x-classical", "x-quantum", "a-classical"])
def test_coefficient_free_modes_run_on_a_coefficient_free_seed(mode, coefficient_free,
                                                               capsys):
    code, out, err = run(capsys, ["mutate", "--seed", coefficient_free,
                                  "--sequence", "1", "--mode", mode])
    assert (code, err) == (0, "")
    assert "X1 = " in out and "t1" not in out and "t2" not in out


@pytest.mark.parametrize("argv,text", [
    (["table", "--seed", "a2", "--sequence", "1,,2", "--mode", "x-classical"], "1,,2"),
    (["mutate", "--seed", "a2", "--sequence=,1", "--mode", "x-quantum"], ",1"),
    (["mutate", "--seed", "a2", "--sequence", "1,", "--mode", "x-quantum"], "1,"),
    (["theta", "--seed", "a23", "--gvector=,1,0,", "--basepoint", "1,1"], ",1,0,"),
    (["theta", "--seed", "a23", "--gvector=-3,5", "--basepoint", "1,,2"], "1,,2"),
    (["theta", "--seed", "a23", "--gvector=-3,5", "--basepoint", "1,1",
      "--filter-exponent=1,-1,"], "1,-1,"),
])
def test_an_empty_list_entry_is_a_usage_error(argv, text, seeds, capsys):
    code, out, err = run(capsys, [seeds.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: empty entry in the comma-separated list {text!r}\n"


def test_an_empty_sequence_is_the_empty_sequence(seeds, capsys):
    for verb in ("table", "mutate"):
        code, out, err = run(capsys, [verb, "--seed", seeds["a2"], "--sequence", "",
                                      "--mode", "x-classical"])
        assert (code, err) == (0, "")
        assert out.startswith("step 0 (initial)\n") and "step 1" not in out


@pytest.mark.parametrize("argv", [
    ["pstar", "--seed", "a2", "--check-intertwining", "--order=-1"],
    ["theta", "--seed", "a23", "--gvector=-3,5", "--basepoint", "1,1", "--order=-1"],
    ["theta", "--seed", "a23", "--gvector=-3,5", "--basepoint", "1,1",
     "--diagram-order=-1"],
    ["scatter", "--seed", "a23", "--quantum", "--order=-1"],
])
def test_negative_orders_are_usage_errors(argv, seeds, capsys):
    argv = [seeds.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = argv[-1].split("=")[0]
    assert f"argument {flag}: must be nonnegative, got -1" in capsys.readouterr().err


def test_parser_suites_are_the_check_suites():
    from qca import checks, cli

    assert cli.SUITES == tuple(checks.SUITES)


def test_parser_is_reused_across_calls(seeds, capsys, monkeypatch):
    from qca import cli

    # different verbs in a row on the one parser, then a usage error; no
    # option value carries over from one call to the next
    code, out, _ = run(capsys, ["poisson", "--seed", seeds["a2"], "--k", "1"])
    assert code == 0 and "mu_1: ok" in out and "mu_2" not in out
    code, out, _ = run(capsys, ["table", "--seed", seeds["a2"],
                                "--mode", "x-classical"])
    assert code == 0 and out.startswith("step 0 (initial)")
    code, out, _ = run(capsys, ["poisson", "--seed", seeds["a2"]])
    assert code == 0 and "mu_1: ok" in out and "mu_2: ok" in out
    with pytest.raises(SystemExit) as exc:
        main(["poisson", "--seed", seeds["a2"], "--mode", "x-classical"])
    assert exc.value.code == 2
    assert cli._parser() is cli._parser()
    # the command is looked up by name on each call, so a rebound
    # cmd_<verb> (as the benchmark's tracer installs) is the one that runs
    calls = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: calls.append(args.suite) or 0)
    assert main(["check", "--suite", "tables"]) == 0
    assert calls == ["tables"]


@pytest.mark.parametrize("argv", [
    # 80 kB of JSON, more than the stream buffer: the error shows in print
    ["table", "--seed", "a23", "--sequence", "1,2,1,2", "--mode", "x-quantum",
     "--format", "json"],
    # a few lines that stay buffered until the output is flushed
    ["table", "--seed", "a2", "--sequence", "1", "--mode", "x-classical"],
])
def test_closed_stdout_exits_quietly(seeds, argv):
    """`qca ... | head` with the reader gone before anything is written:
    no traceback and nothing on stderr, exit code 141 as the README says."""
    src = os.path.join(HERE, os.pardir, "src")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as by default
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qca.cli"] + [seeds.get(a, a) for a in argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141
