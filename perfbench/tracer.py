"""Span tracer that wraps niepkit's public functions from outside the library.

Every wrapped function is replaced at each of its import sites (for example
both ``niepkit.realize.enumerate_skew_permutations`` and
``niepkit.spectra.enumerate_skew_permutations``), so calls between modules
are seen as well as calls from the benchmark.  Each call records one span:
function id, parent span, start, end, and one integer annotation (orderings
returned by an enumeration, 1 for a satisfied check).  Spans live in flat
arrays in memory and are written once, when the traced phase ends.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.  Calls run on one thread and nest
properly, so the children of a span never overlap and this subtraction is
exact; the self times of all layers therefore add up to the duration of the
root spans.
"""

import time
from array import array

#: Public function name -> layer, per niepkit module that defines it.
LAYERS = {
    "niepkit._util": {
        "as_float_vector": "util.coerce",
        "as_complex_vector": "util.coerce",
        "as_float_matrix": "util.coerce",
    },
    "niepkit.spectra": {
        "enumerate_circulant_permutations": "spectra.enumerate",
        "enumerate_skew_permutations": "spectra.enumerate",
    },
    "niepkit.dft": {
        "circulant_row_from_spectrum": "dft.recover",
        "skew_row_from_spectrum": "dft.recover",
        "circulant_eigenvalues": "dft.forward",
        "skew_eigenvalues": "dft.forward",
    },
    "niepkit.structured": {
        "circulant": "structured.dense",
        "skew_circulant": "structured.dense",
        "abs_circulant": "structured.dense",
        "is_permutative": "structured.permutative",
    },
    "niepkit.blocks": {
        "build_even": "blocks.build",
        "build_circ_skew": "blocks.build",
        "build_odd": "blocks.build",
    },
    "niepkit.realize": {
        "check_conditions": "realize.check",
        "circulant_head_bound": "realize.head_bound",
        "brauer_plan": "realize.brauer",
        "brauer_augment": "realize.brauer",
        "skew_row_bound": "realize.brauer",
        "build_from_witness": "realize.construct",
        "realize_four": "realize.construct",
        "realize_region": "realize.construct",
    },
    "niepkit.oracle": {
        "spectrum": "oracle.spectrum",
        "match_spectra": "oracle.match",
    },
    "niepkit.cli": {
        "main": "cli.main",
    },
}

#: Pairing predicates are counted, not spanned: an n = 8 enumeration calls
#: them 40320 times and their cost belongs to the enumeration.
COUNTED = {
    "niepkit.spectra": ("satisfies_circulant_pairing", "satisfies_skew_pairing"),
}

#: Modules whose namespaces are patched (every import site in the package).
SITES = (
    "niepkit",
    "niepkit._util",
    "niepkit.spectra",
    "niepkit.dft",
    "niepkit.structured",
    "niepkit.blocks",
    "niepkit.realize",
    "niepkit.oracle",
    "niepkit.cli",
)

ROOT_LAYER = "harness.op"


def _orderings(result):
    return len(result)


def _satisfied(result):
    return int(bool(result.satisfied))


_ANNOTATE = {
    "enumerate_circulant_permutations": _orderings,
    "enumerate_skew_permutations": _orderings,
    "check_conditions": _satisfied,
}


class Tracer:
    """Records nested spans of wrapped niepkit functions.

    ``fids[i]`` names the function as ``(layer, qualified name)``; span
    arrays are ``fid``, ``parent`` (-1 for a root), ``start``, ``end`` and
    ``note``.  ``pairing_checks`` counts pairing predicates evaluated while
    an enumeration span is innermost.
    """

    def __init__(self):
        self.fids = [(ROOT_LAYER, ROOT_LAYER)]
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.note = array("q")
        self.pairing_checks = 0
        self._stack = []
        self._patched = []
        self._enumerate_fids = set()

    def _open(self, fid):
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.note.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def root(self):
        """Context manager recording one benchmark operation as a root span."""
        return _Root(self)

    def _wrap(self, fn, layer, qualname):
        fid = len(self.fids)
        self.fids.append((layer, qualname))
        annotate = _ANNOTATE.get(fn.__name__)
        if layer == "spectra.enumerate":
            self._enumerate_fids.add(fid)

        def traced(*args, **kwargs):
            idx = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if annotate is not None:
                self.note[idx] = annotate(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn):
        def counted(*args, **kwargs):
            if self._stack and self.fid[self._stack[-1]] in self._enumerate_fids:
                self.pairing_checks += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Replace every listed function at every import site in niepkit."""
        import importlib

        modules = {name: importlib.import_module(name) for name in SITES}
        replacement = {}
        for mod_name, table in LAYERS.items():
            for name, layer in table.items():
                fn = getattr(modules[mod_name], name)
                replacement[id(fn)] = self._wrap(fn, layer, f"{mod_name}.{name}")
        for mod_name, names in COUNTED.items():
            for name in names:
                fn = getattr(modules[mod_name], name)
                replacement[id(fn)] = self._count(fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path):
        """Write all spans to ``path`` as a compressed ``.npz`` archive."""
        import numpy as np

        np.savez_compressed(
            path,
            fids=np.array(["\t".join(f) for f in self.fids]),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            note=np.frombuffer(self.note, dtype=np.int64),
            pairing_checks=np.int64(self.pairing_checks),
        )


class _Root:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.idx = self.tracer._open(0)
        return self.idx

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def self_times(tracer):
    """Per-span self time: duration minus the durations of direct children."""
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    own = list(dur)
    for idx, par in enumerate(tracer.parent):
        if par >= 0:
            own[par] -= dur[idx]
    return dur, own
