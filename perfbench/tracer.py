"""Per-layer tracing from outside the program.

The tracer replaces each traced public function, by object identity, in
every loaded jumploci module.  Modules that bind a function with
``from .x import f`` hold their own reference, and lie imports rank_mod_p
inside a function body, so patching only the defining module would miss
calls; patching every binding of the same object catches them all.

Spans are kept in memory as (name, start, end, parent, item) and written
out at the end.  Self time is a span's duration minus the time covered by
its child spans; calls are single threaded, so children never overlap.
"""

import functools
import gzip
import sys
import time

# layer (module under jumploci) -> traced public functions
TRACED = {
    "cli": ("main",),
    "presentations": (
        "parse_presentation",
        "raag_presentation",
        "abelianization",
        "cyclic_cover_presentation",
    ),
    "graphs": ("parse_graph",),
    "exact.smith": ("smith_with_transforms",),
    "fox": ("alexander_matrix", "h1_dim_finite_character"),
    "magnus": ("cup_tensor",),
    "resonance": ("resonance_components", "resonance_member", "certify_subspace"),
    "charvar": ("charvar_ideal", "subtorus_verify"),
    "lie": ("malcev_truncation", "relator_logs", "morgan_degree_check"),
    "obstructions": ("run_battery", "check_isotropy", "check_tangent_cone", "check_morgan"),
    "exact.linalg": ("rank_mod_p", "rank_rational", "poly_rank_generic", "minors", "nullspace"),
}

SPAN_NAMES = tuple("%s.%s" % (m, f) for m, fs in TRACED.items() for f in fs)
ITEM = "item"

# spans whose arguments or results feed the count and ratio metrics
CERTIFY = "resonance.certify_subspace"
MEMBER = "resonance.resonance_member"
COMPONENTS = "resonance.resonance_components"
CHARVAR = "charvar.charvar_ideal"
BATTERY = "obstructions.run_battery"


class Tracer:
    """Records spans and a few call results while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, item id)
        self.errors = {}  # span index -> exception type name
        self.observed = {}  # span index -> what _observe kept
        self._stack = []
        self._item = None
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every binding of the traced functions in loaded jumploci modules."""
        wrappers = {}
        for layer, names in TRACED.items():
            mod = sys.modules["jumploci." + layer]
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap("%s.%s" % (layer, fname), fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "jumploci" or modname.startswith("jumploci.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = name in (CERTIFY, MEMBER, COMPONENTS, CHARVAR, BATTERY)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._item)
            if observe:
                self._observe(idx, name, args, out)
            return out

        return traced

    def _observe(self, idx, name, args, out):
        if name == CERTIFY:
            # certify_subspace(cup, k, basis_rows) -> (ok, generic_rank)
            self.observed[idx] = (tuple(tuple(r) for r in args[2]), bool(out[0]))
        elif name == MEMBER:
            self.observed[idx] = bool(out)
        elif name == COMPONENTS:
            self.observed[idx] = (len(out[0]), len(out[1]))
        elif name == CHARVAR:
            self.observed[idx] = len(out.gens)
        elif name == BATTERY:
            self.observed[idx] = out.overall

    def item(self, item_id):
        """Context manager: a root span covering one item."""
        return _ItemSpan(self, item_id)

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Spans as gzipped TSV: index, name, start, end, parent, item, error."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\titem\terror\n")
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(
                    "%d\t%s\t%.9f\t%.9f\t%d\t%s\t%s\n"
                    % (i, name, start, end, parent, item, self.errors.get(i, ""))
                )


class _ItemSpan:
    def __init__(self, tracer, item_id):
        self.tracer = tracer
        self.item_id = item_id

    def __enter__(self):
        t = self.tracer
        t._item = self.item_id
        self.idx = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.idx)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        self.end = time.perf_counter()
        t._stack.pop()
        t.spans[self.idx] = (ITEM, self.start, self.end, -1, self.item_id)
        t._item = None
        return False


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def enclosing(spans, target):
    """For each span, the index of its nearest ancestor-or-self named target."""
    out = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == target:
            out.append(i)
        else:
            out.append(out[parent] if parent >= 0 else -1)
    return out
