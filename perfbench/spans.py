"""Spans and counts recorded from outside viquery.

A ``Tracer`` wraps the names a calling module looks up (``parser.tokenize``,
``cli.parse`` and so on) with functions that record one span per call:
name, start, end, parent span, operation id and, where it counts, the
length of the result (token groups from ``tokenize``, parses from
``parse``).  Spans stay in memory, in flat arrays, until the run writes
them out.  Nothing under ``src/`` is edited; ``patched`` puts the original
names back when it exits.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from array import array

#: (module, attribute, span name, count the result's length) for the calls
#: below the benchmark's own entry points.
PARSER_CALLS = (
    ("viquery.parser", "normalize", "lexicon.normalize", False),
    ("viquery.parser", "tokenize", "lexicon.tokenize", True),
    ("viquery.parser", "match_rule", "parser.match_rule", False),
    ("viquery.parser", "scan_constituent", "lexicon.scan_constituent", False),
)
#: The entry points, by the names ``viquery.cli`` uses for them.
PIPELINE_CALLS = (
    ("parse", "parser.parse", True),
    ("transform", "semantics.transform", False),
    ("classify", "semantics.classify", False),
    ("evaluate", "catalog.evaluate", False),
    ("format_answer", "catalog.format_answer", False),
)
LOAD_CALLS = (
    ("parse_rule_dsl", "grammar.parse_rule_dsl", False),
    ("load_lexicon", "lexicon.load_lexicon", False),
    ("load_catalog", "catalog.load_catalog", False),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("i")   # length of the result, or -1
        self.current_op = -1
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def clear(self) -> None:
        for column in (self.name, self.start, self.end, self.parent, self.op, self.size):
            del column[:]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, count_size: bool = False):
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.end.append(0)
            self.size.append(-1)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if count_size:
                self.size[index] = len(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap ``(object, attribute, span name, count_size)`` targets that exist."""
        saved = []
        try:
            for target, attribute, name, count_size in targets:
                original = getattr(target, attribute, None)
                if original is None:
                    continue  # the name is gone: its span reads 0
                saved.append((target, attribute, original))
                setattr(target, attribute, self.wrap(name, original, count_size))
            yield self
        finally:
            for target, attribute, original in reversed(saved):
                setattr(target, attribute, original)

    def durations(self, name: str) -> list[int]:
        return [self.end[i] - self.start[i] for i in range(len(self))
                if self.names[self.name[i]] == name]

    def rows(self):
        for i in range(len(self)):
            yield [self.names[self.name[i]], self.start[i], self.end[i],
                   self.parent[i], self.op[i], self.size[i]]

    def extend(self, rows, op: int) -> None:
        """Append spans another process recorded, as one more operation."""
        offset = len(self)
        for name, start, end, parent, _op, size in rows:
            self.name.append(self._name_id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.op.append(op)
            self.size.append(size)


def module_targets(module_calls):
    return [(importlib.import_module(module), attribute, name, count_size)
            for module, attribute, name, count_size in module_calls]


def object_targets(obj, calls):
    return [(obj, attribute, name, count_size)
            for attribute, name, count_size in calls]


def layer_totals(tracer: Tracer) -> dict[str, dict[str, int]]:
    """Per span name: calls, inclusive ns, self ns (minus child spans) and
    summed result lengths."""
    children = [0] * len(tracer)
    for i in range(len(tracer)):
        parent = tracer.parent[i]
        if parent >= 0:
            children[parent] += tracer.end[i] - tracer.start[i]
    totals: dict[str, dict[str, int]] = {}
    for i in range(len(tracer)):
        entry = totals.setdefault(tracer.names[tracer.name[i]],
                                  {"calls": 0, "total_ns": 0, "self_ns": 0, "size": 0})
        duration = tracer.end[i] - tracer.start[i]
        entry["calls"] += 1
        entry["size"] += max(tracer.size[i], 0)
        entry["total_ns"] += duration
        entry["self_ns"] += duration - children[i]
    return totals


def write(path, sources: dict[str, Tracer]) -> None:
    """One JSON line per span: source, name, start ns, end ns, parent index,
    operation id and result length (-1: not counted)."""
    with open(path, "w", encoding="utf-8") as out:
        for source, tracer in sources.items():
            for row in tracer.rows():
                out.write(json.dumps([source] + row, separators=(",", ":")) + "\n")
