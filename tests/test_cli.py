import json
import os

import pytest

from qca.cli import main
from qca.seeds import save_seed_file
from qca import fixtures

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
    assert "step 5" in out and "X1 = X1*(1+t2*q*X2)" in out
    code, js, _ = run(capsys, ["table", "--seed", seeds["a2"],
                               "--sequence", "2,1,2,1,2",
                               "--mode", "x-family", "--format", "json"])
    assert code == 0
    rows = json.loads(js)
    assert len(rows) == 6
    assert rows[5]["cvectors"] == [[0, 1], [1, 0]]
    # (1 + t1 X1 + t1 t2 X1 X2)/X2 as a Laurent polynomial
    assert rows[2]["variables"][1] == "X2^-1+t1*X1*X2^-1+t1*t2*X1"


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
    code, _, err = run(capsys, ["table", "--seed", "/nonexistent.json",
                                "--mode", "x-classical"])
    assert code == 2
    code, _, err = run(capsys, ["table", "--seed", seeds["a2"],
                                "--sequence", "7", "--mode", "x-classical"])
    assert code == 2


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
