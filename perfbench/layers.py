"""Per-layer self times from recorded spans.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Each layer metric is the summed self time of its
spans per unit of work (per request for the serve workloads, per
campaign for ``sim_campaign``), so the layer rows plus the unattributed
remainder add up to the end-to-end time of the traced run.
"""

from __future__ import annotations

from collections import Counter, defaultdict

#: span name -> per-layer metric that its self time feeds
LAYER_OF_SPAN = {
    "service.canonicalize": "service.canonicalize_ms",
    "service.admission_wait": "service.admission_wait_ms",
    "service.pool_run": "service.pool_wait_ms",
    "service.batcher_submit": "service.batcher_wait_ms",
    "core.solve": "core.solve_ms",
    "core.bounds": "core.bounds_ms",
    "core.hungarian": "core.hungarian_ms",
    "core.global": "core.global_ms",
    "core.mc": "core.mc_ms",
    "core.sa": "core.sa_ms",
    "core.sss": "core.sss_ms",
    "noc.run_batch": "noc.run_batch_ms",
    "noc.traffic_build": "noc.traffic_build_ms",
    "noc.simulate_batch": "noc.traffic_build_ms",
    "experiments.run_algorithms": "experiments.run_algorithms_ms",
}

#: every time layer, in table order
LAYER_METRICS = list(dict.fromkeys(LAYER_OF_SPAN.values()))

#: largest share by which the layers plus the remainder may miss the
#: traced end-to-end time; past it, spans were lost or overlapped
ADD_UP_TOLERANCE = 0.01


def _covered(interval, children) -> float:
    """Length of the union of ``children`` intervals inside ``interval``."""
    lo, hi = interval
    total, end = 0.0, lo
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, end), min(c1, hi)
        if c1 > c0:
            total += c1 - c0
            end = c1
    return total


class SpanTree:
    """Spans indexed by parent."""

    def __init__(self, spans) -> None:
        self.children = defaultdict(list)
        for s in spans:
            self.children[s[1]].append(s)

    def self_time(self, span) -> float:
        kids = [(c[3], c[4]) for c in self.children.get(span[0], ())]
        return (span[4] - span[3]) - _covered((span[3], span[4]), kids)

    def descendants(self, root):
        stack = [root]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(self.children.get(span[0], ()))


class LayerTable:
    """Self time, call counts and batch sizes per layer over some roots."""

    def __init__(self, spans, roots, unit_count: int) -> None:
        tree = SpanTree(spans)
        # A simulation batch runs under the request whose submit flushed
        # it; the other requests in the batch wait for it inside their own
        # submit span, and that part of their wait is engine time too.
        batches = [(s[3], s[4]) for s in spans if s[2] == "noc.run_batch"]
        self.units = max(1, unit_count)
        self.self_s = Counter()
        self.calls = Counter()
        self.batch_sizes = Counter()
        self.delivered = 0
        self.flit_hops = 0
        self.unattributed_s = 0.0
        self.root_s = 0.0
        #: run_batch self time as measured by its own spans only
        self.engine_s = 0.0
        for root in roots:
            self.root_s += root[4] - root[3]
            for span in tree.descendants(root):
                own = tree.self_time(span)
                layer = LAYER_OF_SPAN.get(span[2])
                if layer is None:
                    self.unattributed_s += own
                    continue
                if span[2] == "service.batcher_submit" and not tree.children.get(span[0]):
                    shared = _covered((span[3], span[4]), batches)
                    own -= shared
                    self.self_s["noc.run_batch_ms"] += shared
                self.self_s[layer] += own
                self.calls[span[2]] += 1
                if span[2] == "noc.run_batch":
                    self.engine_s += own
                    attrs = span[5]
                    if attrs:
                        self.batch_sizes[attrs["batch"]] += 1
                        self.delivered += attrs["delivered"]
                        self.flit_hops += attrs["flit_hops"]

    def per_unit_ms(self, layer: str) -> float:
        return 1000.0 * self.self_s[layer] / self.units

    @property
    def layered_s(self) -> float:
        return sum(self.self_s.values())

    def rows(self, end_to_end_s: float, extra: dict) -> list[list[str]]:
        """Table rows: layer, calls, self ms total, ms per unit, share."""
        out = [["layer", "calls", "self_ms_total", "ms_per_unit", "share"]]
        span_of = defaultdict(list)
        for span, layer in LAYER_OF_SPAN.items():
            span_of[layer].append(span)
        items = [(layer, self.self_s[layer], sum(self.calls[s] for s in span_of[layer]))
                 for layer in LAYER_METRICS]
        items += [(name, seconds, count) for name, (seconds, count) in extra.items()]
        items.append(("(unattributed)", self.unattributed_s, self.units))
        for name, seconds, count in items:
            if seconds == 0 and count == 0:
                continue
            share = seconds / end_to_end_s if end_to_end_s > 0 else 0.0
            out.append([name, str(count), f"{1000 * seconds:.3f}",
                        f"{1000 * seconds / self.units:.4f}", f"{100 * share:.1f}%"])
        return out

