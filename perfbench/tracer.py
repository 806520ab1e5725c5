"""Spans around copsep's public calls, recorded from outside the program.

While installed, the tracer replaces the names that copsep's modules look
up when they call each other (``copsep.inference.kendall_tau``,
``copsep.cli.cca_fit``, ...) and a few class methods with wrappers that
record one span per call: name, start, end, parent, the exception that
ended it (if any) and a few counts taken from the arguments or result.
Spans stay in memory; run.py writes them out when the run ends.
"""
from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

from copsep import cli, copulas, ica, inference, margins, signals


def _pair_key(args, kwargs, result):
    # Identify the two channels of a kendall_tau call by the order pattern
    # of their first samples, taken up to reversal: a sign flip of a
    # channel (u -> 1 - u) reverses it, and distinct channels differ.
    def channel(v):
        order = tuple(v[:16].argsort(kind="stable").tolist())
        return min(order, order[::-1])

    return {"pair": frozenset((channel(args[0]), channel(args[1])))}


def _iterations(args, kwargs, result):
    return {"iterations": result[1]}


def _file_bytes(position):
    def note(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        return {"bytes": os.path.getsize(path)}

    return note


# (owner, attribute, span name, note on the call). One span name may cover
# the same function looked up from several modules.
TARGETS = (
    (inference, "center_and_whiten", "signals.center_and_whiten", None),
    (signals.SeparationModel, "separate", "signals.separate", None),
    (inference, "fastica", "ica.fastica", _iterations),
    (inference, "mutual_information", "ica.mutual_information", None),
    (inference, "pseudo_observations", "margins.pseudo_observations", None),
    (ica, "pseudo_observations", "margins.pseudo_observations", None),
    (margins.MarginalModel, "fit", "margins.MarginalModel.fit", None),
    (margins.MarginalModel, "log_density", "margins.log_density", None),
    (margins.MarginalModel, "density_floor_hits", "margins.density_floor_hits", None),
    (inference, "kendall_tau", "copulas.kendall_tau", _pair_key),
    (copulas, "kendall_tau", "copulas.kendall_tau", _pair_key),
    (inference, "fit_copula", "copulas.fit_copula", None),
    (copulas.Copula, "sample", "copulas.sample", None),
    (inference, "copula_entropy", "copulas.copula_entropy", None),
    (inference, "detect_partition", "inference.detect_partition", None),
    (inference, "fit_dependence", "inference.fit_dependence", None),
    (inference, "kl_decomposition", "inference.kl_decomposition", None),
    (inference, "average_log_likelihood", "inference.average_log_likelihood", None),
    (inference, "cca_fit", "inference.cca_fit", None),
    (cli, "cca_fit", "inference.cca_fit", None),
    (cli, "cmd_synth", "cli.synth", None),
    (cli, "cmd_separate", "cli.separate", None),
    (cli, "cmd_evaluate", "cli.evaluate", None),
    (cli, "read_signal_csv", "cli.read_signal_csv", _file_bytes(0)),
    (cli, "write_signal_csv", "cli.write_signal_csv", _file_bytes(1)),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "notes")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.error = None
        self.notes = {}
        self.start = time.perf_counter()
        self.end = None

    def as_dict(self, index):
        notes = {k: sorted(map(list, v)) if k == "pair" else v for k, v in self.notes.items()}
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "error": self.error,
            "notes": notes,
        }


class Tracer:
    """Records spans; one root span named ``op`` per traced op, and one
    named ``setup`` around the traced set-up."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else None))
        self._stack.append(index)
        span = self.spans[index]
        try:
            yield span
        except BaseException as err:
            span.error = type(err).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if note is not None:
                span.notes.update(note(args, kwargs, result))
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, note in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, original.__func__, note)))
                else:
                    setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def per_root(self, root_name):
        """Per-root summaries for every root span named ``root_name``:
        total and self seconds, calls, errors and notes, keyed by span name."""
        summaries = {}
        child_time = [0.0] * len(self.spans)
        root_of = [None] * len(self.spans)
        for i, s in enumerate(self.spans):
            root_of[i] = i if s.parent is None else root_of[s.parent]
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        for i, s in enumerate(self.spans):
            root = root_of[i]
            if self.spans[root].name != root_name:
                continue
            summary = summaries.setdefault(root, {})
            entry = summary.setdefault(
                s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": {}, "notes": []}
            )
            entry["s"] += s.end - s.start
            entry["self_s"] += s.end - s.start - child_time[i]
            entry["calls"] += 1
            if s.error:
                entry["errors"][s.error] = entry["errors"].get(s.error, 0) + 1
            if s.notes:
                entry["notes"].append(s.notes)
        return list(summaries.values())

    def export(self):
        return [s.as_dict(i) for i, s in enumerate(self.spans)]


def layer_metrics(summary, outcome):
    """Per-layer values of one traced op from its span summary and the
    op's checked outcome. Spans that did not occur count as zero."""
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": {}, "notes": []}
    values = {}
    for name in {"op"} | {target[2] for target in TARGETS}:
        entry = summary.get(name, empty)
        for key in ("s", "self_s", "calls"):
            values[f"{name}.{key}"] = entry[key]

    def notes(name, key):
        return [n[key] for n in summary.get(name, empty)["notes"] if key in n]

    tau_calls = values["copulas.kendall_tau.calls"]
    fit_calls = values["copulas.fit_copula.calls"]
    pairs = len(set(notes("copulas.kendall_tau", "pair")))
    kept = outcome.kept_blocks if fit_calls else 0
    values.update({
        "ica.fastica.iterations": sum(notes("ica.fastica", "iterations")),
        "ica.amari_index": outcome.amari,
        "copulas.kendall_tau.distinct_pairs": pairs,
        "copulas.kendall_tau.distinct_ratio": pairs / tau_calls if tau_calls else 0.0,
        "copulas.fit_copula.domain_errors": summary.get("copulas.fit_copula", empty)["errors"].get("FamilyDomainError", 0),
        "copulas.fit_copula.kept": kept,
        "copulas.fit_copula.kept_ratio": kept / fit_calls if fit_calls else 0.0,
        "copulas.theta_abs_error": outcome.theta_error,
        "cli.csv_bytes": sum(notes("cli.read_signal_csv", "bytes")) + sum(notes("cli.write_signal_csv", "bytes")),
    })
    return values


def median_metrics(per_op):
    """Median over ops of each metric."""
    return {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
