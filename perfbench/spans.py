"""Per-layer spans of one traced job, recorded from outside the program.

`install()` replaces each listed perigrowth function by a wrapper in every
perigrowth module whose namespace holds it, so calls are caught where the
caller looks the name up (`ball.distances_upto` inside `ball`, and the
`distances_upto` that `vab` imported, alike). A span's self time is its
duration minus the spans nested in it on the same thread. Spans with no
recorded caller are top-level; the job's wall time not covered by them is
the CLI's own work (argparse, formatting, emit).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


def _count(name, measure):
    """A counter adding measure(result) to counts[name]."""

    def count(counts, result):
        counts[name] += measure(result)

    return count


# layer -> (functions as (module, name), counters applied to each result)
LAYERS = {
    "periodic_graph.parse": ([("periodic_graph", "parse_periodic_graph"),
                              ("periodic_graph", "validate")], []),
    "vab.parse": ([("vab", "parse_vag"), ("vab", "validate_group"), ("vab", "parse_set")], []),
    "vab.build_cayley": ([("vab", "build_cayley")], []),
    "ball.growth_sequence": ([("ball", "growth_sequence")], []),
    "ball.distances": ([("ball", "distances_upto")],
                       [_count("ball.vertices", lambda r: len(r.entries))]),
    "ball.graded_slice": ([("ball", "graded_growth_slice")],
                          [_count("ball.graded_pairs", len)]),
    "ball.relative_counts": ([("ball", "relative_counts")], []),
    "walks.enumerate_cycles": ([("walks", "enumerate_cycles")],
                               [_count("walks.cycles", len)]),
    "decomposition.support_distances": ([("decomposition", "support_distances")],
                                        [_count("decomposition.support_states", len)]),
    "decomposition.build_MS": ([("decomposition", "build_MS")], []),
    "decomposition.build_XS": ([("decomposition", "build_XS_generators")], []),
    "decomposition.verify_action": ([("decomposition", "verify_module_action")], []),
    "decomposition.verify_cover": (
        [("decomposition", "verify_cover")],
        [_count("decomposition.saturated_elements", lambda r: sum(r.module_sizes.values())),
         _count("decomposition.covered_pairs", lambda r: r.covered)]),
    "decomposition.module_elements": ([("decomposition", "module_elements_upto")], []),
    "series.default_denominator": ([("series", "default_denominator")],
                                   [_count("series.ansatz_degree",
                                           lambda r: sum(w * e for w, e in r))]),
    "series.fit": ([("series", "fit_univariate_auto"), ("series", "fit_univariate")], []),
    "series.canonicalize": ([("series", "canonicalize")], []),
    "series.fit_multivariate": ([("series", "fit_multivariate_auto"),
                                 ("series", "fit_multivariate")], []),
    "vab.enumerate_set": ([("vab", "enumerate_monoid_module_set")], []),
    "vab.relative_terms": ([("vab", "relative_growth_terms")], []),
    "vab.univariate_terms": ([("vab", "univariate_terms")], []),
    "vab.default_set_denominator": ([("vab", "default_set_denominator")], []),
}

# call counts reported per function rather than per layer
CALLS = {
    ("ball", "distances_upto"): "ball.distances_calls",
    ("walks", "enumerate_cycles"): "walks.enumerate_cycles_calls",
    ("decomposition", "support_distances"): "decomposition.support_distances_calls",
    ("series", "fit_univariate"): "series.fit_attempts",
    ("vab", "build_cayley"): "vab.build_cayley_calls",
}


class Recorder:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.top: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, layer, fn, calls, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            nested = [0.0]
            stack.append(nested)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                with self._lock:
                    self.self_s[layer] += end - start - nested[0]
                    if calls:
                        self.counts[calls] += 1
                    if not stack:
                        self.top.append((start, end))
            with self._lock:
                for counter in counters:
                    counter(self.counts, result)
            return result

        return wrapper

    def summary(self, wall: float) -> dict[str, float]:
        """Self seconds per layer, counters, and the CLI's own time."""
        covered, reach = 0.0, None
        for start, end in sorted(self.top):
            if reach is None or start > reach:
                covered += end - start
                reach = end
            elif end > reach:
                covered += end - reach
                reach = end
        out = {f"{layer}_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out.update(self.counts)
        out["trace.top_level_s"] = covered
        out["cli.self_s"] = wall - covered
        return out


def install() -> Recorder:
    """Wrap every listed function wherever perigrowth modules refer to it."""
    recorder = Recorder()
    modules = [m for name, m in list(sys.modules.items())
               if (name == "perigrowth" or name.startswith("perigrowth.")) and m]
    for layer, (functions, counters) in LAYERS.items():
        for module_name, attr in functions:
            fn = getattr(sys.modules[f"perigrowth.{module_name}"], attr)
            wrapper = recorder.wrap(layer, fn, CALLS.get((module_name, attr)), counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
    return recorder
