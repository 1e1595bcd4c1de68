"""Layered benchmark of the qca engine: one seeded workload per run.

    python3 bench/run.py --workload identities --seed 1 --seconds 36 --trace 0

Run it from the repository root; it imports ``qca`` from ``src/`` there and
refuses to run without it.  A run generates the workload's operations from
the seed, runs one warm-up pass that is checked but not timed, then repeats
the operation list (one pass = every operation once, in order, one at a
time) while another round of passes fits in ``--seconds`` (and at least
three times untraced, twice traced), checking every result of every pass.
Times are scaled to a fixed machine speed with a reference computation
(see ``REF_S``).

With ``--trace 0`` the passes run untraced, each is followed by set-up
timings of fresh interpreters, and the end-to-end metrics are reported.
With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics of the traced passes are reported; the spans of the first traced
pass go to ``bench/out/``.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# An untraced run times at least this many passes, even if it takes longer
# than --seconds; the passes are sized so that about six fit in a fast phase
# of the machine and this many in a slow one.  A traced run needs only two
# rounds, to compare the counts of two traced passes.
MIN_TIMED_PASSES = 3
# Fresh interpreters timed for setup_s after each timed pass (the one after
# the warm-up pass is discarded).
SETUP_PER_ROUND = 3
_SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "import qca, qca.cli\n"
    "from qca import fixtures\n"
    "from qca.seeds import load_seed_file\n"
    "for name in filter(None, sys.argv[1].split(',')):\n"
    "    fixtures.ALL[name]()\n"
    "for path in filter(None, sys.argv[2].split(',')):\n"
    "    load_seed_file(path)\n"
)


class Raised:
    """An operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


# The host's speed drifts: on the shared 2-core machine the baseline was
# measured on, the same code ran up to twice as fast in one phase as in
# another, and phases last from seconds to minutes.  Every time reported is
# therefore scaled to a fixed machine speed: a fixed reference computation
# (standard library only, so that no change to qca moves it) is timed before
# and after each stretch of at most REF_EVERY_S seconds of work, and a time t
# measured between two reference timings r0 and r1 is reported as
# t * REF_S / ((r0 + r1) / 2), the time it would take where the reference
# computation takes REF_S seconds (about its time there in a fast phase).
REF_S = 0.02
REF_EVERY_S = 0.2
_REF_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(6)}


def reference_seconds() -> float:
    """Time one product of two sparse polynomials with Fraction coefficients,
    the kind of loop the engine's base ring runs."""
    t0 = time.perf_counter()
    out: dict = {}
    for (i, j), c in _REF_POLY.items():
        for (k, l), d in _REF_POLY.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return time.perf_counter() - t0


def measure_setup(wl, count: int) -> list[tuple[float, float]]:
    """(seconds, scaled seconds) each of ``count`` fresh interpreters takes
    to set up."""
    argv = [sys.executable, "-c", _SETUP_CODE,
            ",".join(getattr(wl, "seed_fixtures", ())),
            ",".join(getattr(wl, "seed_files", ()))]
    samples = []
    for _ in range(count):
        # an interpreter takes about ten reference computations, so each
        # side takes the median of three to keep the scale as steady
        r0 = statistics.median(reference_seconds() for _ in range(3))
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        t = time.perf_counter() - t0
        r1 = statistics.median(reference_seconds() for _ in range(3))
        samples.append((t, t * REF_S / ((r0 + r1) / 2)))
    return samples


def run_pass(wl, ops, tmpdir, tracer=None):
    """Execute every operation once; returns (seconds per op, scaled seconds
    per op, results)."""
    ctx = wl.new_context(tmpdir)
    clock = time.perf_counter
    times, results = [], []
    marks = []   # (index of the next operation, reference seconds)
    if tracer is not None:
        tracer.install()
    try:
        last = -REF_EVERY_S
        for idx, op in enumerate(ops):
            if clock() - last >= REF_EVERY_S:
                marks.append((idx, reference_seconds()))
                last = clock()
            if tracer is not None:
                tracer.operation = idx
            t0 = clock()
            try:
                res = wl.execute(op, ctx)
            except Exception as exc:  # a failed operation is counted, the run goes on
                res = Raised(exc)
            times.append(clock() - t0)
            results.append(res)
        marks.append((len(ops), reference_seconds()))
    finally:
        if tracer is not None:
            tracer.uninstall()
    scaled = []
    for (start, r0), (stop, r1) in zip(marks, marks[1:]):
        factor = REF_S / ((r0 + r1) / 2)
        scaled += [t * factor for t in times[start:stop]]
    return times, scaled, results


def check_pass(wl, ops, results, refs):
    """Check every result; returns (statuses, pass digest, messages)."""
    import workloads

    statuses, messages = [], []
    h = hashlib.sha256()
    for idx, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, Raised):
            status, digest = workloads.WRONG, res.text
        else:
            status, digest = wl.check(op, res, refs.get(idx))
        statuses.append(status)
        h.update(digest.encode())
        h.update(b"\0")
        if status == workloads.WRONG:
            detail = res.text if isinstance(res, Raised) else \
                (res.get("stderr", "").strip() if isinstance(res, dict) else "")
            messages.append(f"wrong: {op!r} {detail}"[:500])
    return statuses, h.hexdigest(), messages


def _stdout_bytes(results) -> int:
    return sum(len(r["stdout"].encode()) for r in results if isinstance(r, dict))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few operations per workload, for the tests")
    args = p.parse_args(argv)

    if not (SRC / "qca" / "__init__.py").is_file():
        print(f"error: no qca sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import qca
    if Path(qca.__file__).resolve().parent != (SRC / "qca").resolve():
        print(f"error: imported qca from {qca.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = wl.generate(args.seed, args.size)
    refs = wl.prepare(ops)

    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT)
    plain, traced = [], []   # per timed pass: (op times, scaled op times, tracer or None)
    setup: list[tuple[float, float]] = []
    failed_ops: set[int] = set()
    wrong_messages: list[str] = []
    digests = set()
    stdout_bytes = None

    def one_pass(with_trace: bool):
        nonlocal stdout_bytes
        tr = tracing.Tracer() if with_trace else None
        times, scaled, results = run_pass(wl, ops, tmpdir, tr)
        statuses, digest, messages = check_pass(wl, ops, results, refs)
        digests.add(digest)
        failed_ops.update(i for i, s in enumerate(statuses) if s != workloads.OK)
        wrong_messages.extend(messages)
        if stdout_bytes is None:
            stdout_bytes = _stdout_bytes(results)
        return times, scaled, tr

    try:
        min_rounds = 2 if args.trace else MIN_TIMED_PASSES
        start = time.perf_counter()
        one_pass(False)            # warm-up, checked but not timed
        if not args.trace:
            measure_setup(wl, 1)
        while True:
            round_start = time.perf_counter()
            plain.append(one_pass(False))
            if args.trace:
                traced.append(one_pass(True))
            else:
                setup += measure_setup(wl, SETUP_PER_ROUND)
            now = time.perf_counter()
            if (len(plain) >= min_rounds
                    and now + (now - round_start) - start > args.seconds):
                break
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    # Every pass runs every operation; an operation that failed in any pass
    # counts once (passes must agree, or the outputs differ).
    attempted, failed = len(ops), len(failed_ops)
    correct = not wrong_messages and len(digests) == 1
    for msg in wrong_messages[:20]:
        print(msg, file=sys.stderr)
    if len(digests) != 1:
        print("error: outputs differ between passes", file=sys.stderr)

    run_s = [sum(scaled) for _, scaled, _ in plain]
    values: dict[str, float] = {}
    if not args.trace:
        per_op = [statistics.median(col) for col in zip(*(s for _, s, _ in plain))]
        values = {
            "setup_s": statistics.median(s for _, s in setup),
            "run_s": statistics.median(run_s),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_p90_ms": 1000 * statistics.quantiles(per_op, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_frac": 1 - failed / attempted,
        }
        names = spec["end_to_end"]
        wall = statistics.median(sum(t) for t, _, _ in plain)
        print(f"# {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
              f"{len(plain)} timed passes after a warm-up; p50/p90 over {len(ops)} "
              f"per-operation medians; setup_s over {len(setup)} interpreters; "
              f"unscaled: run {wall:.4f} s, setup "
              f"{statistics.median(t for t, _ in setup):.4f} s")
    else:
        layer = [tr.metrics() for _, _, tr in traced]
        first = layer[0]
        timed = {k for k in first if k.endswith(".s") or k.endswith(".self_s")}
        for m, (times, scaled, _) in zip(layer, traced):
            factor = sum(scaled) / sum(times)   # the pass's mean speed scaling
            for key in timed:
                m[key] *= factor
        if any(m[k] != first[k] for m in layer[1:] for k in first if k not in timed):
            correct = False
            print("error: traced counts differ between passes", file=sys.stderr)
        for key in first:
            values[key] = (statistics.median(m[key] for m in layer)
                           if key in timed else first[key])
        values["cli.stdout_bytes"] = stdout_bytes
        values["trace.overhead_frac"] = (
            statistics.median(sum(s) for _, s, _ in traced) / statistics.median(run_s) - 1)
        names = spec["per_layer"]
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["id", "parent", "name", "start", "end", "operation"],
                       "spans": traced[0][2].spans}, fh)
            fh.write("\n")
        print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced and "
              f"{len(traced)} traced passes of {len(ops)} operations after a "
              f"warm-up; spans in "
              f"{spans_path.relative_to(ROOT)}")
    metrics = {}
    for m in names:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
