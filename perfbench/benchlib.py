"""Statistics and trace analysis shared by run.py and steady.py.

Stdlib only. The quartiles are Python's statistics.quantiles(values, n=4),
the definition the benchmark's steadiness rule is stated in.
"""

import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_benchmark():
    """The benchmark definition at the repository root."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def load_provenance():
    """Workload provenance and the layer map (perfbench/provenance.json)."""
    return json.loads((HERE / "provenance.json").read_text())


def layer_map_table(provenance):
    """The layer map as the Markdown table README.md shows.

    provenance.json is the map's one source; README.md carries this
    rendering of it, and test_benchlib.py checks that the two agree.
    """
    def names(items, code=True):
        return ", ".join(f"`{i}`" if code else i for i in items) or "—"

    lines = ["| layer | metrics | should move | on | also on, smaller "
             "| bypassed by |",
             "|---|---|---|---|---|---|"]
    for row in provenance["layer_map"]:
        metrics = names(row["metrics"]) if row["metrics"] else ""
        if row["replay"]:
            metrics += ("; " if metrics else "") + "replay: " + names(row["replay"])
        if row["note"]:
            metrics += f" ({row['note']})"
        lines.append(" | ".join([
            f"| `{row['layer']}`", metrics, names(row["should_move"]),
            names(row["on"], code=False), row["also"] or "—",
            names(row["bypassed_by"], code=False)]) + " |")
    return "\n".join(lines)


# ---- order statistics ------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3). A single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def percentile(values, p):
    """The p-th percentile (0 < p < 100, integer) by statistics.quantiles."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


# ---- spans -----------------------------------------------------------------

class Span:
    __slots__ = ("id", "parent", "run", "name", "start", "end", "children")

    def __init__(self, row):
        self.id, self.parent, self.run, self.name, self.start, self.end = row
        self.children = []

    @property
    def duration(self):
        return self.end - self.start


def build_spans(rows):
    """Span objects by id, each with its children attached."""
    spans = {row[0]: Span(row) for row in rows}
    for span in spans.values():
        if span.parent in spans:
            spans[span.parent].children.append(span)
    return spans


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span):
    """The span's duration minus the part of it its children cover.

    Children opened on worker threads may overlap one another; the union
    of their intervals, clipped to the parent, is what is subtracted.
    """
    clipped = [(max(c.start, span.start), min(c.end, span.end))
               for c in span.children]
    return span.duration - covered([iv for iv in clipped if iv[1] > iv[0]])


def layer_of(name):
    """The module a span name belongs to: 'replay.linalg.x' -> 'linalg'.

    The root span of a timed repetition ('solve') holds the time no layer
    span covers: 'unattributed'.
    """
    if name == "solve":
        return "unattributed"
    parts = name.split(".")
    if parts[0] == "replay":
        parts = parts[1:]
    return parts[0]


def subtree(span):
    stack = [span]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(s.children)


def layer_self_times(root):
    """Self time per layer over the subtree of `root`."""
    out = defaultdict(float)
    for s in subtree(root):
        out[layer_of(s.name)] += self_time(s)
    return dict(out)
