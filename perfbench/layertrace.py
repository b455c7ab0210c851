"""Span tracing of extbloch's layers from outside the package.

Each traced public function is replaced, in every extbloch module namespace
that binds it (the names callers look up), by a wrapper that records a span:
name, start, end and the index of the enclosing span.  Spans are kept in
flat arrays in memory and written out once, when the run ends.  A layer's
self time is its span's duration minus the durations of its direct child
spans; calls within one layer nest like any others.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from array import array
from pathlib import Path

# span name -> (module, public function names); order fixes the name ids.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "dilog.li2": ("extbloch.dilog", ("li2",)),
    "dilog.log": ("extbloch.dilog", ("principal_log", "log_one_minus")),
    "rogers.l_bar": ("extbloch.rogers", ("rogers_l_bar",)),
    "cover.make_ft": ("extbloch.cover", ("make_flattened_ft",)),
    "cover.is_ft": ("extbloch.cover", ("is_flattened_ft",)),
    "cover.parse": ("extbloch.cover", ("parse_flattened",)),
    "prebloch.relation": ("extbloch.prebloch", (
        "five_term_element", "curly", "curly_product_relation", "cycle_relation",
        "index_relations", "mirror_relation", "kappa_hat", "chi_hat",
        "symmetry_relation",
    )),
    "prebloch.eval_lhat": ("extbloch.prebloch", ("eval_lhat",)),
    "bloch.nu_hat": ("extbloch.bloch", ("nu_hat",)),
    "bloch.wedge": ("extbloch.bloch", ("wedge_necessary_zero",)),
    "ccs.load": ("extbloch.ccs", ("load",)),
    "ccs.volume_report": ("extbloch.ccs", ("volume_report",)),
    "sweeps.run_sweep": ("extbloch.sweeps", ("run_sweep",)),
}

OP_SPAN = "op"  # the benchmark's own root span around one operation


def _load_bytes(source, *args, **kwargs) -> int:
    try:
        return os.path.getsize(source)
    except TypeError:  # a stream: its size is not known up front
        return 0


# span name -> (counter name, amount of work in the call's arguments)
COUNTERS = {
    "prebloch.eval_lhat": ("prebloch.eval_lhat.terms", lambda s, *a, **k: len(s.terms)),
    "bloch.wedge": ("bloch.wedge.terms", lambda w, *a, **k: len(w.terms)),
    "ccs.load": ("ccs.load.bytes", _load_bytes),
}


class Tracer:
    """Records nested spans in flat arrays; single-threaded by design."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN, *LAYERS]
        self._ids = {n: k for k, n in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("l")
        self.counters: dict[str, int] = {c: 0 for c, _ in COUNTERS.values()}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, span_name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        idx = self._open(self._ids[span_name])
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrapper(self, span_name: str, fn):
        nid = self._ids[span_name]
        open_, close = self._open, self._close
        cname, amount = COUNTERS.get(span_name, (None, None))
        counters = self.counters

        def traced(*args, **kwargs):
            if amount is not None:
                counters[cname] += amount(*args, **kwargs)
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever an extbloch module binds it."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "extbloch" or name.startswith("extbloch."))
        ]
        for span_name, (mod_name, fn_names) in LAYERS.items():
            home = sys.modules[mod_name]
            for fn_name in fn_names:
                fn = getattr(home, fn_name)
                wrapped = self._wrapper(span_name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, attr, value))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._patches):
            setattr(m, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and self seconds."""
        start, end, parent = self.start, self.end, self.parent
        n = len(start)
        child = array("d", bytes(8 * n))  # time covered by direct children
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        return {
            name: {"calls": calls[k], "self_s": self_s[k]}
            for k, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span as 'index name start end parent' lines, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\n"
                )
