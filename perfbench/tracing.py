"""Spans around pepcert's public functions, recorded from outside the package.

`install` replaces every public function of the traced modules with a
wrapper, on every module attribute that callers look up at call time (for
example `pepcert.solver.residual`, which the solver calls, and
`pepcert.cli.oracle_check`, which the command line calls). Each call appends
a span (name, start, end, parent, note) to a list held in memory; `layers`
turns the list into the per-layer metrics once the run has ended. Self time
is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

import numpy as np

MODULES = ("rates", "recursion", "solver", "verifier", "certfile", "cli")
# Parser construction stays in cli.main's self time, the per-invocation cost
# of the command line; `entry` only wraps main for the console script.
UNTRACED = {"cli.build_parser", "cli.entry"}

NAME, START, END, PARENT, NOTE = range(5)


def _rows(args, kwargs, result):
    shape = np.shape(args[1] if len(args) > 1 else kwargs["d"])
    return int(np.prod(shape[:-1]))


def _batch_bytes(args, kwargs, result):
    # the (2(N-1), N-1) float64 batch of perturbed d vectors, from its shape
    m = (args[0] if args else kwargs["params"]).N - 1
    return 2 * m * m * 8


NOTES = {
    "recursion.residual": _rows,
    "solver.jacobian": _batch_bytes,
    "solver.least_squares_step": lambda a, k, res: None if res is None else bool(res[1]),
    "solver.gauss_newton": lambda a, k, res: None if res is None else res.iterations,
    "verifier.aggregate": lambda a, k, res: int(np.count_nonzero(a[0].entries)),
    "certfile.read_certificate":
        lambda a, k, res: os.path.getsize(a[0]) if os.path.isfile(a[0]) else 0,
    "certfile.write_certificate": lambda a, k, res: None if res is None else os.path.getsize(res),
}


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        spans, open_, note = self.spans, self._open, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            result = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = time.perf_counter()
                open_.pop()
                if note is not None:
                    span[NOTE] = note(args, kwargs, result)

        return traced


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of `package`'s traced modules."""
    modules = [getattr(package, name) for name in MODULES]
    wrappers = {}
    for short, mod in zip(MODULES, modules):
        for attr, value in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                wrappers[value] = tracer.wrap(name, value)
    for mod in modules + [package]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])


# (metric, unit, better) in the order they are reported
LAYER_METRICS = [
    ("solver.jacobian.calls", "count", "lower"),
    ("solver.jacobian.s", "s", "lower"),
    ("solver.jacobian.batch_bytes", "B_computed", "lower"),
    ("solver.least_squares_step.calls", "count", "lower"),
    ("solver.least_squares_step.s", "s", "lower"),
    ("solver.rank_deficient_steps", "count", "lower"),
    ("solver.gauss_newton.calls", "count", "lower"),
    ("solver.gauss_newton.s", "s", "lower"),
    ("solver.gauss_newton.iterations", "count", "lower"),
    ("solver.line_search.trials", "count", "lower"),
    ("solver.line_search.s", "s", "lower"),
    ("solver.bootstrap_smallest.starts", "count", "lower"),
    ("solver.extrapolate_init.s", "s", "lower"),
    ("recursion.residual.calls", "count", "lower"),
    ("recursion.residual.rows", "count", "lower"),
    ("recursion.residual.s", "s", "lower"),
    ("recursion.derive_full.calls", "count", "lower"),
    ("recursion.derive_full.s", "s", "lower"),
    ("verifier.oracle_check.calls", "count", "lower"),
    ("verifier.oracle_check.s", "s", "lower"),
    ("verifier.assemble_lambda.s", "s", "lower"),
    ("verifier.aggregate.s", "s", "lower"),
    ("verifier.aggregate.pairs", "count", "lower"),
    ("verifier.rhs_with_errors.s", "s", "lower"),
    ("verifier.slack_psd_check.s", "s", "lower"),
    ("verifier.check_delta_certificate.s", "s", "lower"),
    ("certfile.write_certificate.calls", "count", "lower"),
    ("certfile.write_certificate.s", "s", "lower"),
    ("certfile.write_certificate.bytes", "B", "lower"),
    ("certfile.read_certificate.calls", "count", "lower"),
    ("certfile.read_certificate.s", "s", "lower"),
    ("certfile.read_certificate.bytes", "B", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("rates.solve_rate_params.calls", "count", "lower"),
    ("rates.solve_rate_params.s", "s", "lower"),
]


def layers(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer metrics per round, from the spans of `rounds` equal rounds."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    notes: dict[str, list] = {}
    children: list[list[int]] = [[] for _ in spans]
    for index, (name, start, end, parent, note) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        if note is not None:
            notes.setdefault(name, []).append(note)
        if parent >= 0:
            children[parent].append(index)

    main_self = sum(
        spans[i][END] - spans[i][START]
        - sum(spans[k][END] - spans[k][START] for k in children[i])
        for i, span in enumerate(spans) if span[NAME] == "cli.main"
    )
    starts = sum(1 for span in spans if span[NAME] == "solver.gauss_newton"
                 and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "solver.bootstrap_smallest")
    trials, search_s = _line_search(spans, children)

    def total(metric):
        name, _, kind = metric.rpartition(".")
        return calls.get(name, 0) if kind == "calls" else busy.get(name, 0.0)

    values = {
        "solver.jacobian.batch_bytes": max(notes.get("solver.jacobian", [0])),
        "solver.rank_deficient_steps": notes.get("solver.least_squares_step", []).count(False),
        "solver.gauss_newton.iterations": sum(notes.get("solver.gauss_newton", [])),
        "solver.line_search.trials": trials,
        "solver.line_search.s": search_s,
        "solver.bootstrap_smallest.starts": starts,
        "recursion.residual.rows": sum(notes.get("recursion.residual", [])),
        "verifier.aggregate.pairs": sum(notes.get("verifier.aggregate", [])),
        "certfile.write_certificate.bytes": sum(notes.get("certfile.write_certificate", [])),
        "certfile.read_certificate.bytes": sum(notes.get("certfile.read_certificate", [])),
        "cli.main.self_s": main_self,
    }
    out = {}
    for metric, _, _ in LAYER_METRICS:
        value = values[metric] if metric in values else total(metric)
        # a batch size is a peak, not a per-round total; rounds are equal, so
        # counts divide exactly
        if not metric.endswith("batch_bytes"):
            value = value // rounds if isinstance(value, int) else value / rounds
        out[metric] = value
    return out


def _line_search(spans, children):
    """Line-search trials and time inside gauss_newton spans.

    The line search is inline code, so it is read off the order of a
    gauss_newton span's children: after each least_squares_step come the
    trial residual evaluations, then the residual that opens the next
    iteration (absent only when the line search stagnated and the solve
    raised). Time runs from the end of the step to the start of that opening
    residual, or to the end of the solve.
    """
    trials, seconds = 0, 0.0
    for index, span in enumerate(spans):
        if span[NAME] != "solver.gauss_newton":
            continue
        kids = children[index]
        for pos, kid in enumerate(kids):
            if spans[kid][NAME] != "solver.least_squares_step":
                continue
            after = []
            for nxt in kids[pos + 1:]:
                if spans[nxt][NAME] != "recursion.residual":
                    break
                after.append(nxt)
            following = pos + 1 + len(after) < len(kids)
            if after and (following or span[NOTE] is not None):
                trials += len(after) - 1
                seconds += spans[after[-1]][START] - spans[kid][END]
            else:
                trials += len(after)
                seconds += span[END] - spans[kid][END]
    return trials, seconds
