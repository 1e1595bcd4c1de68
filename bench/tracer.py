"""Outside-in tracer for the qca layers.

The tracer wraps public functions and methods of the ``qca`` modules from
outside the package: nothing under ``src/`` knows it exists.  Each wrapped
function counts its calls and accumulates inclusive and self time (self time
subtracts the time spent in wrapped children, found with a call stack).
Functions marked hot (the base-ring and series products, called up to
millions of times per run) only keep counts and times; the others also
record one span per call (name, start, end, parent, operation) in memory.

``install`` rebinds every alias of a wrapped function in every loaded
``qca.*`` module and class (``from .words import words_equal`` copies and
``__rmul__ = __mul__`` class aliases alike) and ``uninstall`` restores every
original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _atoms(word) -> int:
    return len(word.atoms)


def _atoms_out(result) -> int:
    if isinstance(result, tuple):  # quantum_x_variables -> (seed, words)
        return sum(_atoms(w) for w in result[1])
    return _atoms(result)


def _outgoing_walls(diagram) -> int:
    return sum(1 for w in diagram.walls if not w.incoming)


_CRATIONAL_OPS = ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
                  "__truediv__", "__pow__", "inverse", "__eq__")

# (module, attribute path, metric prefix, hot)
TARGETS = (
    [("scalars", "QScalar.__mul__", "scalars.QScalar.mul", True),
     ("scalars", "QScalar.__add__", "scalars.QScalar.add", True),
     ("scalars", "QScalar.inverse", "scalars.QScalar.inverse", True),
     ("scalars", "TScalar.__mul__", "scalars.TScalar.mul", True),
     ("commutative", "CPoly.__mul__", "commutative.CPoly.mul", True)]
    + [("commutative", f"CRational.{op}", "commutative.CRational", True)
       for op in _CRATIONAL_OPS]
    + [("qtorus", "QTorusElement.__mul__", "qtorus.QTorusElement.mul", True),
       ("words", "Series.__mul__", "words.Series.mul", True),
       ("words", "Series.inverse", "words.Series.inverse", True),
       ("words", "FactoredWord.expand", "words.FactoredWord.expand", False),
       ("words", "words_equal", "words.words_equal", False),
       ("mutation", "quantum_x_variables", "mutation.quantum_x_variables", False),
       ("mutation", "mutate_word", "mutation.mutate_word", False),
       ("mutation", "mutate_a_word", "mutation.mutate_a_word", False),
       ("mutation", "apply_mutation_sequence", "mutation.apply_mutation_sequence",
        False),
       ("duality", "PStarHom.apply", "duality.PStarHom.apply", False),
       ("scatter", "complete_to_order", "scatter.complete_to_order", False),
       ("scatter", "ScatteringDiagram.path_ordered_product",
        "scatter.path_ordered_product", False),
       ("theta", "enumerate_broken_lines", "theta.enumerate_broken_lines", False),
       ("theta", "theta_function", "theta.theta_function", False),
       ("poisson", "check_poisson_map", "poisson.check_poisson_map", False),
       ("render", "diagram_svg", "render.svg", False),
       ("render", "broken_line_svg", "render.svg", False)]
    + [("cli", f"cmd_{verb}", f"cli.{verb}", False)
       for verb in ("table", "mutate", "scatter", "theta", "pstar", "poisson",
                    "check")]
)

# Metric names shared by several functions.  A call of one of them made
# inside another call of the same name (broken_line_svg draws the diagram
# with diagram_svg) counts as part of the outer call only.
_GROUPED = {name for _, _, name, hot in TARGETS if not hot
            and sum(t[2] == name for t in TARGETS) > 1}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Counts, times and spans for one traced pass.  Use as a context
    manager, or call ``install``/``uninstall``."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {
            "words.words_equal.atoms_in": 0,
            "mutation.atoms_out": 0,
            "scatter.walls_out": 0,
            "scatter.outgoing_walls_out": 0,
            "scatter.path_ordered_product.in_completion": 0,
            "theta.lines_out": 0,
            "words.Series.terms_max": 0,
        }
        self.spans: list[tuple] = []
        self.operation = None          # index of the operation being run
        self._stack: list[list] = []   # [child seconds, span id, name]
        self._completing = 0
        self._saved: list[tuple] = []  # (owner, attribute, original)
        self.originals: dict[int, object] = {}

    # -- hooks on arguments and results -----------------------------------------
    def _before(self, name, args):
        if name == "words.words_equal":  # expands args[0] * args[1]^{-1}
            self.counters["words.words_equal.atoms_in"] += \
                _atoms(args[0]) + _atoms(args[1])
        elif name == "scatter.path_ordered_product" and self._completing:
            self.counters["scatter.path_ordered_product.in_completion"] += 1
        elif name == "scatter.complete_to_order":
            self._completing += 1

    def _after(self, name, result):
        c = self.counters
        if name.startswith("mutation.") and name != "mutation.apply_mutation_sequence":
            c["mutation.atoms_out"] += _atoms_out(result)
        elif name == "scatter.complete_to_order":
            c["scatter.walls_out"] += len(result.walls)
            c["scatter.outgoing_walls_out"] += _outgoing_walls(result)
        elif name == "theta.enumerate_broken_lines":
            c["theta.lines_out"] += len(result)

    # -- wrapping ---------------------------------------------------------------
    def _wrap(self, fn, name: str, hot: bool):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        spans = self.spans
        tracer = self

        if hot:
            counters = self.counters
            track_terms = name in ("words.Series.mul", "words.Series.inverse")

            def wrapper(*args, **kwargs):
                frame = [0.0, None, name]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stat.calls += 1
                    stat.total += dt
                    stat.self_time += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                if track_terms and len(result.terms) > counters["words.Series.terms_max"]:
                    counters["words.Series.terms_max"] = len(result.terms)
                return result
        else:
            once = name in _GROUPED

            def wrapper(*args, **kwargs):
                if once and any(f[2] == name for f in stack):
                    return fn(*args, **kwargs)  # part of the enclosing call
                tracer._before(name, args)
                span_id = len(spans)
                parent = stack[-1][1] if stack else None
                frame = [0.0, span_id, name]
                spans.append(None)
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    stack.pop()
                    stat.calls += 1
                    stat.total += dt
                    stat.self_time += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                    spans[span_id] = (span_id, parent, name, t0, t1,
                                      tracer.operation)
                    if name == "scatter.complete_to_order":
                        tracer._completing -= 1
                tracer._after(name, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        replacements: dict[int, object] = {}
        for module_name, path, name, hot in TARGETS:
            owner = importlib.import_module(f"qca.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if id(original) in replacements:
                raise ValueError(f"{path} is listed twice")
            self.originals[id(original)] = original
            replacements[id(original)] = self._wrap(original, name, hot)
        for owner in _qca_namespaces():
            for attr, value in list(vars(owner).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and self.originals[id(value)] is value:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Flat ``<module>.<function>.<stat>`` metrics: ``.calls`` (exact),
        ``.s`` (inclusive seconds), ``.self_s`` (seconds minus wrapped
        children), plus the output counters."""
        out: dict[str, float] = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            out[f"{name}.s"] = st.total
            out[f"{name}.self_s"] = st.self_time
        out.update(self.counters)
        loops = self.counters["scatter.path_ordered_product.in_completion"]
        out["scatter.walls_per_loop_product"] = (
            self.counters["scatter.outgoing_walls_out"] / loops if loops else 0.0)
        return out


def _qca_namespaces():
    """Every loaded qca module and every class defined in one."""
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "qca" or mod_name.startswith("qca.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == mod_name:
                yield value


def unwrapped_aliases(tracer: Tracer) -> list[str]:
    """Names under qca.* that still refer to an original the tracer wrapped
    (empty while the tracer is installed correctly)."""
    left = []
    for owner in _qca_namespaces():
        for attr, value in vars(owner).items():
            if id(value) in tracer.originals and tracer.originals[id(value)] is value:
                left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return left
