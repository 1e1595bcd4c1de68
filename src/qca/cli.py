"""Command-line front end: mutation tables, scattering diagrams, theta
functions, the p* compatibility check, Poisson verification, and the
self-check suites.  All numeric input is exact (integers and fraction
strings); outputs are byte-deterministic for identical invocations."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .seeds import Seed, load_seed_file

# Each layer is imported by the cmd_<verb> that runs it, so that a call
# loads only what it uses.

# 128 + SIGPIPE, what a shell reports for a program stopped by a closed pipe
EXIT_BROKEN_PIPE = 141

# the names of qca.checks.SUITES (a test keeps them equal), listed here so
# that building the parser imports no check
SUITES = ("tables", "scatter", "theta", "pstar", "poisson")


def __getattr__(name):
    # qca.cli.words_equal reads words.words_equal on each access, so that a
    # rebinding of the latter shows here too
    if name == "words_equal":
        from .words import words_equal
        return words_equal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_list(text: str, parse) -> list:
    """The entries of a comma-separated list, each read by ``parse``; empty
    text is the empty list, and an empty entry is a usage error."""
    entries = text.split(",") if text else []
    if "" in entries:
        raise ValueError(f"empty entry in the comma-separated list {text!r}")
    return [parse(x) for x in entries]


def _directions(entries, fd) -> list[int]:
    """1-based mutation directions as 0-based indices of unfrozen directions."""
    if any(k < 1 or k > fd.n for k in entries):
        raise ValueError("mutation indices are 1-based directions")
    for k in entries:
        if k - 1 not in fd.unfrozen:
            raise ValueError(f"direction {k} is frozen")
    return [k - 1 for k in entries]


def nonnegative_int(text: str) -> int:
    """A truncation order: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _parse_pair(text: str, parse, flag: str) -> tuple:
    """A rank-2 vector: exactly two entries."""
    try:
        entries = _parse_list(text, parse)
    except ZeroDivisionError:  # bad input, not a failed computation
        raise ValueError(f"{flag} has a zero denominator: {text!r}") from None
    if len(entries) != 2:
        raise ValueError(f"{flag} takes two comma-separated entries, got {text!r}")
    return tuple(entries)


def _emit(data, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _table_text(rows):
    out = []
    for row in rows:
        mut = f"mu_{row['mutation']}" if row["mutation"] else "initial"
        out.append(f"step {row['step']} ({mut})")
        # JSON spelling: non-integral entries are exact strings such as "1/2"
        out.append(f"  epsilon  {json.dumps(row['epsilon'])}")
        out.append(f"  cvectors {row['cvectors']}")
        for i, v in enumerate(row["variables"]):
            out.append(f"  X{i + 1} = {v}")
    return out


def _table_args(args):
    """The fixed data, 0-based sequence and mode of a table or mutate call."""
    fd = load_seed_file(args.seed)
    return fd, _directions(_parse_list(args.sequence, int), fd), args.mode


def cmd_table(args) -> int:
    from .mutation import apply_mutation_sequence

    rows = apply_mutation_sequence(*_table_args(args))
    _emit(rows, args.format, _table_text(rows))
    return 0


def cmd_mutate(args) -> int:
    from .mutation import mutation_row, render_row

    fd, sequence, mode = _table_args(args)
    last = render_row(fd, len(sequence), *mutation_row(fd, sequence, mode))
    _emit(last, args.format, _table_text([last]))
    return 0


def cmd_scatter(args) -> int:
    from .scatter import complete_to_order, initial_diagram

    fd = load_seed_file(args.seed)
    dg = initial_diagram(fd, side=args.side, quantum=args.quantum,
                         order=args.order)
    dg = complete_to_order(dg, args.order)
    data = dg.to_json()
    if args.emit_json:
        with open(args.emit_json, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.emit_svg:
        from .render import diagram_svg

        with open(args.emit_svg, "w", encoding="utf-8") as fh:
            fh.write(diagram_svg(dg))
    lines = [f"{len(data['walls'])} walls (order {args.order}, "
             f"{'quantum' if args.quantum else 'classical'} {args.side}-side)"]
    for w in data["walls"]:
        kind = w["kind"]
        extra = w.get("function_terms") or w.get("log_coeffs") or w.get("dilog")
        lines.append(f"  ray {tuple(w['ray'])} normal {tuple(w['normal'])} "
                     f"{'incoming' if w['incoming'] else 'outgoing'} {kind}: {extra}")
    _emit(data, args.format, lines)
    return 0


def cmd_theta(args) -> int:
    from .scatter import complete_to_order, initial_diagram
    from .theta import enumerate_broken_lines, theta_of_lines

    m0 = _parse_pair(args.gvector, int, "--gvector")
    Q = _parse_pair(args.basepoint, Fraction, "--basepoint")
    filt = (_parse_pair(args.filter_exponent, int, "--filter-exponent")
            if args.filter_exponent else None)
    fd = load_seed_file(args.seed)
    dg = complete_to_order(
        initial_diagram(fd, side="A", quantum=not args.classical,
                        order=args.diagram_order), args.diagram_order)
    # one search serves both: the filter only selects lines for display
    lines = enumerate_broken_lines(m0, Q, dg, args.order)
    theta = theta_of_lines(dg.torus, lines)
    if filt is not None:
        lines = [bl for bl in lines if bl.final_decoration.exponent == filt]
    data = {
        "gvector": list(m0),
        "basepoint": [str(x) for x in Q],
        "order": args.order,
        "broken_lines": [bl.to_json() for bl in lines],
        "theta": theta.render(),
    }
    if args.emit_json:
        with open(args.emit_json, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.emit_svg:
        from .render import broken_line_svg

        with open(args.emit_svg, "w", encoding="utf-8") as fh:
            fh.write(broken_line_svg(dg, lines))
    text = [f"theta_{m0} = {theta.render()}",
            f"{len(lines)} broken line(s)" + (f" with final exponent {filt}"
                                              if filt else "")]
    for bl in lines:
        chain = " -> ".join(f"({s.coeff.render()})*A^{list(s.exponent)}"
                            for s in bl.segments)
        text.append(f"  {chain}")
    _emit(data, args.format, text)
    return 0


def cmd_pstar(args) -> int:
    from .duality import PStarHom

    if args.order is not None and not args.check_intertwining:
        raise ValueError("--order applies only with --check-intertwining")
    fd = load_seed_file(args.seed)
    hom = PStarHom(fd)
    report = {"Lambda": [list(r) for r in hom.Lambda],
              "pstar_rows": [list(r) for r in hom.pmap.rows]}
    ok_all = True
    lines = [f"Lambda = {report['Lambda']}", f"p* rows = {report['pstar_rows']}"]
    if args.check_intertwining:
        report["generators"] = []
        for k, i, ok in hom.intertwining(8 if args.order is None else args.order):
            ok_all = ok_all and ok
            report["generators"].append(
                {"mutation": k + 1, "generator": i + 1, "ok": ok})
            lines.append(f"mu_{k + 1} generator {i + 1}: "
                         f"{'ok' if ok else 'FAIL'}")
        report["ok"] = ok_all
        lines.append("intertwining: " + ("ok" if ok_all else "FAIL"))
    _emit(report, args.format, lines)
    return 0 if ok_all else 1


def cmd_poisson(args) -> int:
    from .poisson import check_poisson_map

    fd = load_seed_file(args.seed)
    seed = Seed(fd)
    ks = list(fd.unfrozen) if args.k is None else _directions([args.k], fd)
    ok_all = True
    reports = []
    lines = []
    for k in ks:
        rep = check_poisson_map(seed, k)
        reports.append({"mutation": k + 1, **rep})
        ok_all = ok_all and rep["ok"]
        lines.append(f"mu_{k + 1}: " + ("ok" if rep["ok"] else "FAIL"))
        for p in rep["pairs"]:
            lines.append(f"  {{{p['f']}, {p['g']}}}: "
                         f"{'ok' if p['ok'] else 'FAIL ' + str(p['difference'])}")
    _emit({"ok": ok_all, "mutations": reports}, args.format, lines)
    return 0 if ok_all else 1


def cmd_check(args) -> int:
    from .checks import run_suites

    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail and not ok else ""
        print(f"[{status}] {name}{suffix}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    from .mutation import MODES

    p = argparse.ArgumentParser(
        prog="qca",
        description="Exact engine for quantum cluster algebras with "
                    "principal coefficients")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_common(sp, seed=True):
        if seed:
            sp.add_argument("--seed", required=True, help="seed JSON file")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("table", help="mutation table along a sequence")
    add_common(sp)
    sp.add_argument("--sequence", default="", help="1-based directions, e.g. 2,1,2")
    sp.add_argument("--mode", choices=MODES, required=True)

    sp = sub.add_parser("mutate", help="final row after a mutation sequence")
    add_common(sp)
    sp.add_argument("--sequence", required=True)
    sp.add_argument("--mode", choices=MODES, required=True)

    sp = sub.add_parser("scatter", help="complete a rank-2 scattering diagram")
    add_common(sp)
    sp.add_argument("--order", type=nonnegative_int, default=2)
    sp.add_argument("--quantum", action="store_true")
    sp.add_argument("--side", choices=("A", "X"), default="A")
    sp.add_argument("--emit-svg")
    sp.add_argument("--emit-json")

    sp = sub.add_parser("theta", help="broken lines and theta functions")
    add_common(sp)
    sp.add_argument("--gvector", required=True, help="a,b")
    sp.add_argument("--basepoint", required=True, help="x,y (fractions)")
    sp.add_argument("--order", type=nonnegative_int, default=4, help="total bend degree")
    sp.add_argument("--diagram-order", type=nonnegative_int, default=2)
    sp.add_argument("--filter-exponent", help="p,q")
    sp.add_argument("--classical", action="store_true")
    sp.add_argument("--emit-svg")
    sp.add_argument("--emit-json")

    sp = sub.add_parser("pstar", help="compatible pair and p* intertwining")
    add_common(sp)
    sp.add_argument("--check-intertwining", action="store_true")
    sp.add_argument("--order", type=nonnegative_int, help="check order, default 8")

    sp = sub.add_parser("poisson", help="Poisson-map verification")
    add_common(sp)
    sp.add_argument("--k", type=int, help="1-based mutation direction")

    sp = sub.add_parser("check", help="run the self-check suites")
    sp.add_argument("--suite", choices=("all",) + tuple(SUITES), default="all")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name on each call, so a rebound cmd_<verb> takes effect
    command = globals()[f"cmd_{args.verb}"]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (qca ... | head): send what is still
        # buffered to devnull, so that the exit flush reports nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (OSError, ValueError, ArithmeticError) as exc:
        # a failed computation (an ArithmeticError) exits 3, bad input 2
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ArithmeticError) else 2


if __name__ == "__main__":
    sys.exit(main())
