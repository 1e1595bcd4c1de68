"""The benchmark's three workloads.

Each workload turns a seed into a list of operations (plain data: mutation
prefixes, monomials, g-vectors, basepoints, argv lists), executes one
operation at a time as a single closed-loop client, and checks every result
after the pass.  Executors reach qca functions through their modules
(``words.words_equal``, not a copied name) so that the tracer sees them.

* identities  -- mutation identities checked by ``words_equal``: the words
  layer under heavy expansion.
* scattering  -- Kontsevich-Soibelman completions, loop probes and broken
  lines: series products with cutoffs; words only as dilog conjugation.
* cli-session -- in-process ``qca`` CLI calls on ``demos/seeds/``: words
  built and rendered but never expanded; the classical layer and SVG output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
from fractions import Fraction

import oracle
from qca import cli, duality, fixtures, mutation, scatter, theta, words
from qca.scalars import ONE, QScalar, vpow
from qca.seeds import Seed, load_seed_file

OK, KNOWN_FAILURE, WRONG = "ok", "known-failure", "wrong"

# Truncation order of every identity check (criterion 6(a) runs at 10).  At
# K = 6 the same two A(2,3) checks are the most expensive, and a pass is
# short enough that a run times several.
K = 6


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _depth2_prefixes(unfrozen):
    out = [()]
    for k1 in unfrozen:
        out.append((k1,))
        for k2 in unfrozen:
            out.append((k1, k2))
    return out


# ---------------------------------------------------------------------------
# identities


class Identities:
    """mu_k mu_k = id and the *-homomorphism for every prefix of length <= 2
    on A(2,3) (the criterion-6(a) set, at K = 6), seeded random prefixes on A2
    and rank 3, and p* intertwining on A(2,3) and rank 3 with a frozen
    direction."""

    name = "identities"
    seed_fixtures = ("a23", "a2", "rank3", "rank3-frozen")

    def generate(self, seed: int, size: str = "full"):
        rng = _rng(self.name, seed)
        if size == "full":
            prefixes = [("a23", p) for p in _depth2_prefixes((0, 1))]
            # Every length-3 A2 prefix: their checks (5-100 ms each) are the
            # ones around the 90th percentile, so a seeded subset of them
            # moved op_p90_ms from seed to seed.
            prefixes += [("a2", p) for p in itertools.product((0, 1), repeat=3)]
            # (fixture, prefix length, how many distinct prefixes to draw)
            draws = [("rank3", 1, 2)]
            pstar = ("a23", "rank3-frozen")
        else:
            prefixes = [("a2", p) for p in _depth2_prefixes((0,))]
            draws = [("rank3", 1, 1)]
            pstar = ("a23",)
        for fx, length, count in draws:
            pool = list(itertools.product(fixtures.ALL[fx]().unfrozen, repeat=length))
            prefixes += [(fx, p) for p in rng.sample(pool, count)]
        ops = []
        for fx, prefix in prefixes:
            fd = fixtures.ALL[fx]()
            for k in fd.unfrozen:
                for i in range(fd.n):
                    ops.append(("involution", fx, prefix, k, i))
                    ops.append(("star", fx, prefix, k, i))
        for fx in pstar:
            fd = fixtures.ALL[fx]()
            for k in fd.unfrozen:
                for i in range(fd.n):
                    ops.append(("pstar", fx, (), k, i))
        rng.shuffle(ops)
        return ops

    def prepare(self, ops):
        return {}

    def new_context(self, tmpdir):
        return None

    def execute(self, op, ctx):
        kind, fx, prefix, k, i = op
        fd = fixtures.ALL[fx]()
        if kind == "involution":
            _, before = mutation.quantum_x_variables(fd, list(prefix), True)
            _, after = mutation.quantum_x_variables(fd, list(prefix) + [k, k], True)
            return words.words_equal(before[i], after[i], K)
        seed = Seed(fd).mutate_sequence(prefix)
        nxt = seed.mutate(k)
        alg = mutation.x_torus(fd)
        w = words.FactoredWord.monomial(alg, nxt.basis[i])
        if kind == "star":
            return words.words_equal(mutation.mutate_word(w, k, seed).star(),
                                     mutation.mutate_word(w.star(), k, seed), K)
        hom = duality.PStarHom(fd)
        lhs = hom.apply(mutation.mutate_word(w, k, seed))
        aw = words.FactoredWord.monomial(hom.atorus, hom.pmap.apply(nxt.basis[i]))
        rhs = mutation.mutate_a_word(aw, k, seed)
        return words.words_equal(lhs, rhs, K)

    def check(self, op, result, ref):
        return (OK if result is True else WRONG), repr(result)


# ---------------------------------------------------------------------------
# scattering

# Wall rays of each completion: the paper's walls where it states them
# (classical A2 gains only (1,-1), quantum A(2,3) at order 2 only (-2,3)),
# otherwise the engine's own output at the time the benchmark was written.
_OUTGOING = {
    ("a23", True, 2): [(-2, 3)],
    ("a23", True, 3): [(-2, 3), (-1, 3), (-4, 3)],
    ("a23", False, 4): [(-2, 3), (-1, 3), (-4, 3), (-2, 1)],
    ("a2-scattering", False, 4): [(1, -1)],
    ("a2-scattering", False, 6): [(1, -1)],
}
_INCOMING = {"a23": [(0, -1), (1, 0)], "a2-scattering": [(0, 1), (-1, 0)]}


def _generic_point(rng: random.Random):
    """A basepoint off every ray spanned by a vector with entries in
    [-6, 6]; the walls of every diagram completed here lie on such rays."""
    while True:
        q = (Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.choice((2, 3, 5, 7))),
             Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.choice((2, 3, 5, 7))))
        if all(q[0] * b != q[1] * a for a in range(-6, 7) for b in range(-6, 7)
               if (a, b) != (0, 0)):
            return q


def _nonzero_vector(rng: random.Random, bound: int):
    while True:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0):
            return v


def _paired_sample(rng: random.Random, bound: int):
    """One vector from each pair of lexicographically adjacent nonzero
    vectors of [-bound, bound]^2, in random order.  Loop and broken-line
    costs vary smoothly with the vector, so this stratified sample keeps
    each pass's cost distribution close to that of the whole grid, which
    an independent draw does not."""
    grid = sorted((a, b) for a in range(-bound, bound + 1)
                  for b in range(-bound, bound + 1) if (a, b) != (0, 0))
    picks = [rng.choice(grid[j:j + 2]) for j in range(0, len(grid), 2)]
    rng.shuffle(picks)
    return picks


class Scattering:
    """Completions of quantum A(2,3) to order 3, classical A(2,3) to order 4
    and classical A2 to order 6 (plus quantum A(2,3) at order 2 for the
    paper's single wall and theta coefficient), then seeded loop-consistency
    probes at random monomials on the quantum A(2,3) and classical A2
    diagrams and seeded broken-line / theta calls on the completed quantum
    diagram."""

    name = "scattering"
    seed_fixtures = ("a23", "a2-scattering")

    def generate(self, seed: int, size: str = "full"):
        rng = _rng(self.name, seed)
        if size == "full":
            quantum, classical = ("a23", True, 3), ("a2-scattering", False, 6)
            big, loop_bound, theta_bound = [quantum, ("a23", False, 4), classical], 4, 3
        else:
            quantum, classical = ("a23", True, 2), ("a2-scattering", False, 4)
            big, loop_bound, theta_bound = [classical], 1, 1
        ops = [("complete",) + key for key in big + [("a23", True, 2)]]
        ops.append(("paper_theta",))
        for key in (quantum, classical):
            ops += [("loop", key, u) for u in _paired_sample(rng, loop_bound)]
        for m0 in _paired_sample(rng, theta_bound):
            q = _generic_point(rng)
            ops.append(("theta", quantum, m0, (str(q[0]), str(q[1])), 4))
        return ops

    def prepare(self, ops):
        return {}

    def new_context(self, tmpdir):
        return {}

    def execute(self, op, ctx):
        kind = op[0]
        if kind == "complete":
            _, fx, quantum, order = op
            dg = scatter.complete_to_order(
                scatter.initial_diagram(fixtures.ALL[fx](), quantum=quantum,
                                        order=order), order)
            ctx[op[1:]] = dg
            return dg
        if kind == "paper_theta":
            dg = ctx[("a23", True, 2)]
            return theta.enumerate_broken_lines((-3, 5), (Fraction(1), Fraction(1)),
                                                dg, 4, final_exponent=(1, -1))
        if kind == "loop":
            _, key, u = op
            return ctx[key].is_consistent([u], key[2])
        _, key, m0, q, order = op
        dg = ctx[key]
        point = (Fraction(q[0]), Fraction(q[1]))
        lines = theta.enumerate_broken_lines(m0, point, dg, order)
        return lines, theta.theta_function(m0, point, dg, order)

    def check(self, op, result, ref):
        kind = op[0]
        if kind == "complete":
            key = op[1:]
            walls = result.walls
            ok = ([w.ray for w in walls if w.incoming] == _INCOMING[key[0]]
                  and [w.ray for w in walls if not w.incoming] == _OUTGOING[key])
            if key[0] == "a2-scattering":  # 1 + A1^-1 A2 on (1,-1)
                out = [w for w in walls if not w.incoming]
                ok = ok and out[0].function == {1: ONE}
            return (OK if ok else WRONG), json.dumps(result.to_json(), sort_keys=True)
        if kind == "paper_theta":
            coeff = sum((bl.final_decoration.coeff for bl in result),
                        QScalar.integer(0))
            ok = len(result) == 1 and coeff == vpow(-2) - 1 + vpow(2)
            return (OK if ok else WRONG), coeff.render_v()
        if kind == "loop":
            return (OK if result is True else WRONG), repr(result)
        lines, th = result
        m0 = tuple(op[2])
        total = {}
        for bl in lines:
            seg = bl.final_decoration
            total[seg.exponent] = total.get(seg.exponent, QScalar.integer(0)) + seg.coeff
        total = {e: c for e, c in total.items() if not c.is_zero()}
        ok = (total == dict(th.terms)
              and any(len(bl.segments) == 1 and bl.segments[0].exponent == m0
                      for bl in lines))
        dump = json.dumps([bl.to_json() for bl in lines], sort_keys=True)
        return (OK if ok else WRONG), th.render() + dump


# ---------------------------------------------------------------------------
# cli-session

MODES = ("x-classical", "x-family", "x-quantum", "x-quantum-coeff",
         "a-classical", "a-prin", "a-quantum")
SEED_DIR = "demos/seeds"
# Depth caps: quantum words grow exponentially with the sequence length, and
# on A(2,3) (infinite type) the classical expressions grow as well.
QUANTUM_CAP = {"a2": 6, "a23": 3, "rank3": 4, "rank3_frozen": 4, "a2_scat": 6}
CLASSICAL_CAP = {"a2": 6, "a23": 4, "rank3": 6, "rank3_frozen": 6, "a2_scat": 6}
UNFROZEN = {"a2": 2, "a23": 2, "rank3": 3, "rank3_frozen": 2, "a2_scat": 2}
RANK = {"a2": 2, "a23": 2, "rank3": 3, "rank3_frozen": 3, "a2_scat": 2}
# `check` suites and their line counts; the scatter suite is left out, as it
# repeats the completions the scatter calls below already make.
CHECK_LINES = {"tables": 4, "theta": 4, "pstar": 2, "poisson": 2}
MIXED_A_QUANTUM = ("A-mutation of a polynomial atom with mixed coordinates "
                   "along the mutated direction is not supported")
_SCATTER_CONFIGS = [("a2_scat", False, 2), ("a2_scat", False, 3),
                    ("a2_scat", True, 2), ("a23", True, 2), ("a23", False, 3), ("a2", True, 2), ("a2", False, 3)]
_SCATTER_RAYS = {
    "a2_scat": ([(0, 1), (-1, 0)], {2: [(1, -1)], 3: [(1, -1)]}),
    "a2": ([(0, -1), (1, 0)], {2: [(-1, 1)], 3: [(-1, 1)]}),
    "a23": ([(0, -1), (1, 0)], {2: [(-2, 3)], 3: [(-2, 3), (-1, 3), (-4, 3)]}),
}
_RAY_TEXT = re.compile(r"^  ray \((-?\d+), (-?\d+)\) normal .* (incoming|outgoing) ")


def _seed_path(name: str) -> str:
    return f"{SEED_DIR}/{name}.json"


def _dealer(rng: random.Random, options):
    """Deal options from shuffled decks that hold each once: seeded like a
    random choice, but every option comes up equally often, so that one
    seed's mix of calls costs about what another's does."""
    while True:
        deck = list(options)
        rng.shuffle(deck)
        yield from deck


def _sequence(rng: random.Random, unfrozen: int, length: int, mixed=None) -> str:
    """A random mutation sequence; with ``mixed`` set, one that does (True)
    or does not (False) mutate in two different directions."""
    while True:
        seq = [rng.randint(1, unfrozen) for _ in range(length)]
        if mixed is None or (len(set(seq)) > 1) == mixed:
            return ",".join(map(str, seq))


class CliSession:
    """One closed-loop client making in-process ``qca.cli.main(argv)``
    calls: tables and final rows in all seven modes on random sequences,
    scatter with SVG and JSON output, theta, pstar, poisson and check."""

    name = "cli-session"
    seed_files = tuple(_seed_path(s) for s in sorted(RANK))

    def generate(self, seed: int, size: str = "full"):
        rng = _rng(self.name, seed)
        formats = _dealer(rng, ("text", "json"))
        verbs = _dealer(rng, ("table", "mutate"))
        calls = []
        reps = 3 if size == "full" else 1
        # Half of the a-quantum sequences longer than one step mutate in two
        # directions (the known failure); the seed picks which.
        mixed = _dealer(rng, (True, False))
        for name in ("a2", "a23", "rank3", "rank3_frozen"):
            for mode in MODES:
                # rank3 has no compatible pair, so a-quantum runs on a2_scat
                target = "a2_scat" if (mode == "a-quantum" and name == "rank3") else name
                if mode == "a-quantum":
                    cap = 3
                elif mode.startswith("x-quantum"):
                    cap = QUANTUM_CAP[target]
                else:
                    cap = CLASSICAL_CAP[target]
                # lengths spread evenly up to the cap; directions are random
                for rep in range(reps):
                    length = -(-cap * (rep + 1) // reps)
                    want = next(mixed) if mode == "a-quantum" and length > 1 else None
                    seq = _sequence(rng, UNFROZEN[target], length, want)
                    calls.append([next(verbs), "--seed",
                                  _seed_path(target), "--sequence", seq,
                                  "--mode", mode, "--format", next(formats)])
        configs = _SCATTER_CONFIGS if size == "full" else _SCATTER_CONFIGS[:1]
        for name, quantum, order in configs:
            calls.append(["scatter", "--seed", _seed_path(name), "--order", str(order)]
                         + (["--quantum"] if quantum else [])
                         + ["--emit-svg", "{out}.svg", "--emit-json", "{out}.json",
                            "--format", next(formats)])
        calls.append(["theta", "--seed", _seed_path("a23"), "--gvector=-3,5",
                      "--basepoint", "1,1", "--order", "4",
                      "--filter-exponent", "1,-1", "--emit-svg", "{out}.svg"])
        thetas = ([("a23", False)] + [("a2_scat", False)] * 2
                  + [("a2_scat", True)]) if size == "full" else [("a2_scat", True)]
        for name, classical in thetas:
            g = _nonzero_vector(rng, 4)
            q = _generic_point(rng)
            calls.append(["theta", "--seed", _seed_path(name),
                          f"--gvector={g[0]},{g[1]}", f"--basepoint={q[0]},{q[1]}",
                          "--order", "4",
                          "--emit-json", "{out}.json",
                          "--format", next(formats)]
                         + (["--classical"] if classical else []))
        for name in ("a2", "a23", "rank3_frozen"):
            calls.append(["pstar", "--seed", _seed_path(name), "--check-intertwining",
                          "--format", next(formats)])
        for name in ("a2", "a23", "rank3", "rank3_frozen"):
            k = rng.randint(0, UNFROZEN[name])
            calls.append(["poisson", "--seed", _seed_path(name),
                          "--format", next(formats)]
                         + ([f"--k={k}"] if k else []))
        suites = sorted(CHECK_LINES) if size == "full" else ["poisson"]
        for suite in suites:
            calls.append(["check", "--suite", suite])
        rng.shuffle(calls)
        return [("cli", tuple(argv)) for argv in calls]

    def prepare(self, ops):
        """Reference values computed before timing, outside any trace:
        exchange matrices and c-vectors from the oracle, broken-line counts
        from the library."""
        refs = {}
        diagrams = {}
        for idx, (_, argv) in enumerate(ops):
            args = _argv_dict(argv)
            if argv[0] in ("table", "mutate"):
                seq = [int(x) - 1 for x in args["--sequence"].split(",")]
                refs[idx] = oracle.seed_rows(oracle.load_seed(args["--seed"]), seq)
            elif argv[0] == "theta":
                key = (args["--seed"], "--classical" in argv)
                if key not in diagrams:
                    fd = load_seed_file(args["--seed"])
                    diagrams[key] = scatter.complete_to_order(
                        scatter.initial_diagram(fd, side="A", quantum=not key[1],
                                                order=2), 2)
                m0 = tuple(int(x) for x in args["--gvector"].split(","))
                point = tuple(Fraction(x) for x in args["--basepoint"].split(","))
                filt = args.get("--filter-exponent")
                filt = tuple(int(x) for x in filt.split(",")) if filt else None
                refs[idx] = len(theta.enumerate_broken_lines(
                    m0, point, diagrams[key], int(args["--order"]),
                    final_exponent=filt))
        return refs

    def new_context(self, tmpdir):
        return {"tmpdir": tmpdir, "counter": 0}

    def execute(self, op, ctx):
        ctx["counter"] += 1
        out_base = os.path.join(ctx["tmpdir"], f"call{ctx['counter']}")
        argv = [a.replace("{out}", out_base) for a in op[1]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback is a wrong answer, not a crash
                rc = f"uncaught {type(exc).__name__}: {exc}"
        return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                "out_base": out_base}

    def check(self, op, result, ref):
        argv = op[1]
        files = {}
        for ext in ("svg", "json"):
            path = f"{result['out_base']}.{ext}"
            if f"{{out}}.{ext}" in argv:
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        files[ext] = fh.read()
                except FileNotFoundError:
                    files[ext] = None
        digest = _digest([result["rc"], result["stdout"], files.get("svg"),
                          files.get("json")])
        try:
            status = _check_cli(argv, result, files, ref)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            # unparsable output is a wrong answer
            status = WRONG
            result["stderr"] += f"\n[check] {type(exc).__name__}: {exc}"
        return status, digest


def _argv_dict(argv) -> dict:
    out = {}
    items = list(argv[1:])
    j = 0
    while j < len(items):
        a = items[j]
        if "=" in a and a.startswith("--"):
            key, val = a.split("=", 1)
            out[key] = val
        elif a.startswith("--") and j + 1 < len(items) and not items[j + 1].startswith("--"):
            out[a] = items[j + 1]
            j += 1
        else:
            out[a] = True
        j += 1
    return out


def _check_cli(argv, result, files, ref) -> str:
    verb = argv[0]
    args = _argv_dict(argv)
    rc, out = result["rc"], result["stdout"]
    fmt = args.get("--format", "text")
    if verb in ("table", "mutate"):
        seq = args["--sequence"].split(",")
        if args["--mode"] == "a-quantum" and len(set(seq)) > 1 and rc == 2:
            return KNOWN_FAILURE if MIXED_A_QUANTUM in result["stderr"] else WRONG
        if rc != 0:
            return WRONG
        rows = _table_rows(out, fmt, verb)
        want = ref if verb == "table" else ref[-1:]
        n = RANK[os.path.basename(args["--seed"])[:-5]]
        ok = (len(rows) == len(want)
              and all(r["epsilon"] == w["epsilon"] and r["cvectors"] == w["cvectors"]
                      and r["nvars"] == n for r, w in zip(rows, want)))
        return OK if ok else WRONG
    if rc != 0:
        return WRONG
    if verb == "scatter":
        name = os.path.basename(args["--seed"])[:-5]
        incoming, outgoing = _SCATTER_RAYS[name]
        want = ([(r, True) for r in incoming]
                + [(r, False) for r in outgoing[int(args["--order"])]])
        if fmt == "json":
            got = _json_rays(json.loads(out))
        else:
            got = []
            for line in out.splitlines()[1:]:
                m = _RAY_TEXT.match(line)
                if m is None:
                    return WRONG
                got.append(((int(m[1]), int(m[2])), m[3] == "incoming"))
        ok = (got == want and files.get("json") is not None
              and _json_rays(json.loads(files["json"])) == want
              and _is_svg(files.get("svg")))
        return OK if ok else WRONG
    if verb == "theta":
        if fmt == "json":
            count = len(json.loads(out)["broken_lines"])
        else:
            count = int(re.search(r"^(\d+) broken line\(s\)", out, re.M)[1])
        ok = count == ref
        if "--filter-exponent" in args:  # the paper's unique line
            ok = ok and count == 1
        if "json" in files:
            ok = ok and files["json"] is not None and \
                len(json.loads(files["json"])["broken_lines"]) == ref
        if "svg" in files:
            ok = ok and _is_svg(files["svg"])
        return OK if ok else WRONG
    if verb == "pstar":
        name = os.path.basename(args["--seed"])[:-5]
        expected = UNFROZEN[name] * RANK[name]
        if fmt == "json":
            rep = json.loads(out)
            oks = [g["ok"] for g in rep["generators"]] + [rep["ok"]]
        else:
            lines = out.splitlines()
            gens = [ln for ln in lines if ln.startswith("mu_")]
            oks = [ln.endswith(": ok") for ln in gens] + [lines[-1] == "intertwining: ok"]
        return OK if (len(oks) == expected + 1 and all(oks)) else WRONG
    if verb == "poisson":
        name = os.path.basename(args["--seed"])[:-5]
        expected = 1 if "--k" in args else UNFROZEN[name]
        if fmt == "json":
            rep = json.loads(out)
            oks = [m["ok"] for m in rep["mutations"]]
            oks += [p["ok"] for m in rep["mutations"] for p in m["pairs"]]
            ok = rep["ok"] and len(rep["mutations"]) == expected and all(oks)
        else:
            heads = [ln for ln in out.splitlines() if ln.startswith("mu_")]
            ok = (len(heads) == expected and all(h.endswith(": ok") for h in heads)
                  and "FAIL" not in out)
        return OK if ok else WRONG
    if verb == "check":
        n = CHECK_LINES[args["--suite"]]
        lines = out.splitlines()
        ok = (sum(ln.startswith("[PASS] ") for ln in lines) == n
              and lines[-1] == f"{n}/{n} checks passed")
        return OK if ok else WRONG
    return WRONG


def _json_rays(data):
    return [(tuple(w["ray"]), w["incoming"]) for w in data["walls"]]


def _is_svg(text) -> bool:
    return bool(text) and text.lstrip().startswith("<svg") and \
        text.rstrip().endswith("</svg>")


def _table_rows(out: str, fmt: str, verb: str):
    if fmt == "json":
        data = json.loads(out)
        rows = data if verb == "table" else [data]
        return [{"epsilon": r["epsilon"], "cvectors": r["cvectors"],
                 "nvars": len(r["variables"])} for r in rows]
    rows = []
    for line in out.splitlines():
        if line.startswith("step "):
            rows.append({"nvars": 0})
        elif line.startswith("  epsilon  "):
            rows[-1]["epsilon"] = json.loads(line[len("  epsilon  "):])
        elif line.startswith("  cvectors "):
            rows[-1]["cvectors"] = json.loads(line[len("  cvectors "):])
        elif re.match(r"^  X\d+ = ", line):
            rows[-1]["nvars"] += 1
    return rows


WORKLOADS = {w.name: w for w in (Identities(), Scattering(), CliSession())}
