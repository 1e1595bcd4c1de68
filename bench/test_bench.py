"""The benchmark's own tests: ``python -m pytest bench`` from the root."""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracer as tracing
import workloads
from qca import fixtures
from qca.scalars import QScalar
from qca.seeds import Seed, load_seed_file

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_seeded(name):
    wl = workloads.WORKLOADS[name]
    for size in ("full", "tiny"):
        assert wl.generate(7, size) == wl.generate(7, size)
    assert wl.generate(7) != wl.generate(8)


def test_cli_session_has_the_same_failing_share_on_every_seed():
    wl = workloads.WORKLOADS["cli-session"]
    for seed in range(1, 11):
        seqs = [argv[argv.index("--sequence") + 1].split(",")
                for _, argv in wl.generate(seed) if "a-quantum" in argv]
        assert len(seqs) == 12
        assert sum(len(set(seq)) > 1 for seq in seqs) == 4


def test_times_are_scaled_by_the_reference(tmp_path, monkeypatch):
    # a machine twice as slow as the nominal one: every time is halved
    monkeypatch.setattr(run, "reference_seconds", lambda: 2 * run.REF_S)
    wl = workloads.WORKLOADS["identities"]
    times, scaled, _ = run.run_pass(wl, wl.generate(3, "tiny"), str(tmp_path))
    assert scaled == pytest.approx([t / 2 for t in times])


def _tiny_pass(wl, tmp_path, tracer=None):
    ops = wl.generate(3, "tiny")
    refs = wl.prepare(ops)
    _, _, results = run.run_pass(wl, ops, str(tmp_path), tracer)
    return run.check_pass(wl, ops, results, refs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    statuses, plain, messages = _tiny_pass(wl, tmp_path)
    assert not messages
    first, second = tracing.Tracer(), tracing.Tracer()
    assert _tiny_pass(wl, tmp_path, first)[1] == plain
    assert _tiny_pass(wl, tmp_path, second)[1] == plain
    counts = {k: v for k, v in first.metrics().items()
              if not (k.endswith(".s") or k.endswith(".self_s"))}
    assert counts == {k: second.metrics()[k] for k in counts}
    assert all(s in (workloads.OK, workloads.KNOWN_FAILURE) for s in statuses)


def test_tracer_wraps_every_alias_and_restores_them():
    import qca.cli
    import qca.scalars
    import qca.words

    original = qca.words.words_equal
    rmul = qca.scalars.QScalar.__dict__["__rmul__"]
    with tracing.Tracer() as tr:
        assert tracing.unwrapped_aliases(tr) == []
        assert qca.cli.words_equal is qca.words.words_equal is not original
        assert qca.scalars.QScalar.__dict__["__rmul__"].__wrapped__ is rmul
        product = QScalar.integer(2) * QScalar.integer(3)
        assert product == QScalar.integer(6)
        assert tr.stats["scalars.QScalar.mul"].calls == 1
    assert qca.words.words_equal is original
    assert qca.cli.words_equal is original
    assert qca.scalars.QScalar.__dict__["__rmul__"] is rmul


def test_self_time_excludes_wrapped_children():
    from qca.mutation import x_torus
    from qca.words import FactoredWord
    import qca.words

    fd = fixtures.a2_tables()
    w = FactoredWord.monomial(x_torus(fd), (1, 0))
    with tracing.Tracer() as tr:
        assert qca.words.words_equal(w, w, 4)
    eq = tr.stats["words.words_equal"]
    expand = tr.stats["words.FactoredWord.expand"]
    assert eq.calls == 1 and expand.calls == 1
    assert eq.self_time <= eq.total - expand.total + 1e-9
    assert tr.metrics()["words.words_equal.atoms_in"] == 2 * len(w.atoms)
    assert len(tr.spans) == 2 and tr.spans[1][1] == tr.spans[0][0]
    assert tr.spans[0][2] == "words.words_equal" and tr.spans[0][5] is None


def test_nested_render_counts_once(tmp_path, capsys, monkeypatch):
    import qca.cli

    monkeypatch.chdir(ROOT)
    with tracing.Tracer() as tr:
        rc = qca.cli.main(["theta", "--seed", "demos/seeds/a23.json",
                           "--gvector=-3,5", "--basepoint", "1,1", "--order", "4",
                           "--filter-exponent", "1,-1",
                           "--emit-svg", str(tmp_path / "theta.svg")])
    capsys.readouterr()
    assert rc == 0
    # broken_line_svg calls diagram_svg; only the outer call is counted
    assert tr.stats["render.svg"].calls == 1
    assert [s[2] for s in tr.spans].count("render.svg") == 1


def test_metric_names():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.match(n) for n in declared)
    assert all(NAME.match(n) for n in tracing.Tracer().metrics())


def test_oracle_matches_the_engine_seeds():
    rng = random.Random(0)
    for name in ("a2", "a23", "rank3", "rank3_frozen", "a2_scat"):
        path = ROOT / "demos" / "seeds" / f"{name}.json"
        fd = load_seed_file(path)
        for _ in range(5):
            seq = [rng.choice(fd.unfrozen) for _ in range(rng.randint(0, 6))]
            rows = oracle.seed_rows(oracle.load_seed(path), seq)
            seed = Seed(fd)
            for step, row in enumerate(rows):
                if step:
                    seed = seed.mutate(seq[step - 1])
                assert row["epsilon"] == [list(map(int, r)) for r in seed.epsilon()]
                assert row["cvectors"] == [list(c) for c in seed.cvectors()]
    # the A2 pentagon's c-vector column
    rows = oracle.seed_rows(oracle.load_seed(ROOT / "demos/seeds/a2.json"),
                            [1, 0, 1, 0, 1])
    assert [r["cvectors"] for r in rows][-1] == [[0, 1], [1, 0]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "5",
         "--seconds", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    ok = result["metrics"]["ops_ok_frac"]["value"]
    assert ok == 1 - result["failed"] / result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identities", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
