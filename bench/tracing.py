"""Tracing from outside the program: spans around each module's public
entry points, and a separate counting pass for element operations.

Wrappers replace a function in every quivermoduli module that binds it
(`from .stability import stability_verdict` makes a second binding), and
replace methods on their classes.  Nothing in `src/` changes.

Spans live in flat arrays (name, start, end, parent, item) while the run
goes on; self times are derived afterwards, in reference seconds, as a
span's duration minus the durations of its direct children.
"""

import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import quivermoduli
from quivermoduli import (
    census,
    ffields,
    galois,
    linalg,
    quaternions,
    quiver,
    rings,
    stability,
)

# Modules whose public functions become spans.
SPAN_MODULES = (
    "brauer",
    "census",
    "cli",
    "descent",
    "ffields",
    "galois",
    "homs",
    "morita",
    "numtheory",
    "quaternions",
    "quiver",
    "rings",
    "serialize",
    "stability",
)

# Public methods that do real work.  Accessors and element arithmetic are
# left out: the former are cheap enough that a span would mostly measure
# itself, the latter are counted in the separate counting pass.
SPAN_METHODS = [
    (linalg.Mat, "linalg", ("__matmul__", "rank", "nullspace", "inverse", "solve",
                            "canonical_cols", "cols_contained_in")),
    (stability.SubrepWitness, "stability", ("is_closed_in", "contains", "canonical")),
    (quiver.Representation, "quiver", ("act", "map_entries", "direct_sum")),
    (galois.FinitePair, "galois", ("norm", "is_norm", "norm_witness")),
    (galois.QuadraticPair, "galois", ("norm", "is_norm", "norm_witness")),
]
METHOD_LABELS = {"__matmul__": "matmul"}

RING_KINDS = {
    ffields.PrimeField: "fq",
    ffields.ExtensionField: "fq",
    rings.RationalField: "q",
    rings.QuadraticField: "qi",
    quaternions.QuaternionAlgebra: "quat",
}

OP_CLASSES = [
    (ffields.PrimeField, "ffields.ops"),
    (ffields.ExtensionField, "ffields.ops"),
    (rings.RationalField, "rings.ops"),
    (rings.QuadraticField, "rings.ops"),
    (quaternions.QuaternionAlgebra, "quaternions.ops"),
]
OPS = ("add", "sub", "neg", "mul", "inv")


def _library_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if name == "quivermoduli" or name.startswith("quivermoduli.")
    ]


def replace_everywhere(original, replacement):
    """Rebind every module-level name in the package bound to `original`."""
    for mod in _library_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def public_functions(mod):
    return [
        (name, fn)
        for name, fn in sorted(vars(mod).items())
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == mod.__name__
    ]


class Tracer:
    """Span recorder; `active` gates recording so set-up and checks stay out."""

    def __init__(self):
        self.labels = []
        self._ids = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item = array("q")
        self.failures = Counter()
        self.stack = [-1]
        self.item_id = -1
        self.active = False

    def label_id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _span(self, fn, pick_id):
        tracer = self
        name, start, end, parent, item = self.name, self.start, self.end, self.parent, self.item
        stack, failures = self.stack, self.failures

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(pick_id(args))
            parent.append(stack[-1])
            item.append(tracer.item_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failures[name[idx]] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return span

    def wrap(self, fn, label):
        nid = self.label_id(label)
        return self._span(fn, lambda args: nid)

    def wrap_rref(self, fn):
        ids = {cls: self.label_id(f"linalg.rref.{kind}") for cls, kind in RING_KINDS.items()}
        return self._span(fn, lambda args: ids[type(args[0].ring)])

    def install(self):
        for short in SPAN_MODULES:
            mod = getattr(quivermoduli, short)
            for fname, fn in public_functions(mod):
                replace_everywhere(fn, self.wrap(fn, f"{short}.{fname}"))
        linalg.Mat.rref = self.wrap_rref(linalg.Mat.rref)
        for cls, short, methods in SPAN_METHODS:
            for meth in methods:
                label = f"{short}.{METHOD_LABELS.get(meth, meth)}"
                setattr(cls, meth, self.wrap(getattr(cls, meth), label))

    # --- results --------------------------------------------------------

    def self_times(self, clock):
        """Per-label (calls, self reference seconds), plus the summed
        duration of top-level spans."""
        import numpy as np

        n = len(self.start)
        if n == 0:
            return {}, 0.0
        dur = clock.many(self.end) - clock.many(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int64)
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        selfs = dur - child
        out = {}
        for nid, label in enumerate(self.labels):
            mask = names == nid
            calls = int(mask.sum())
            if calls:
                out[label] = (calls, float(selfs[mask].sum()))
        return out, float(dur[~nested].sum())

    def write(self, path, clock):
        """All spans as tab-separated text: label, item, parent, start and end
        in reference seconds since the first span."""
        starts = clock.many(self.start)
        ends = clock.many(self.end)
        t0 = float(starts[0]) if len(starts) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span\tlabel\titem\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.labels[self.name[i]]}\t{self.item[i]}\t{self.parent[i]}\t"
                    f"{starts[i] - t0:.7f}\t{ends[i] - t0:.7f}\n"
                )


class Counters:
    """The counting pass: element operations and a few event counts, taken
    with cheap wrappers in a run of their own so spans stay unskewed."""

    def __init__(self):
        self.counts = Counter()
        self.active = False

    def _counted(self, fn, key, hit_key=None):
        counters, counts = self, self.counts

        def counted(*args, **kwargs):
            if not counters.active:
                return fn(*args, **kwargs)
            counts[key] += 1
            result = fn(*args, **kwargs)
            if hit_key is not None and result is True:
                counts[hit_key] += 1
            return result

        return counted

    def install(self):
        for cls, key in OP_CLASSES:
            for op in OPS:
                setattr(cls, op, self._counted(getattr(cls, op), key))
        for cls in (ffields.PrimeField, ffields.ExtensionField):
            cls.__init__ = self._counted(cls.__init__, "ffields.fields_built")
        stability.SubrepWitness.is_closed_in = self._counted(
            stability.SubrepWitness.is_closed_in,
            "stability.closure_checks",
            "stability.closure_hits",
        )
        replace_everywhere(
            census._closed_pairs,
            self._counted(census._closed_pairs, "census.closure_memo_misses"),
        )
        replace_everywhere(
            stability.reduce_mod_prime,
            self._counted(stability.reduce_mod_prime, "stability.certificate_primes_tried"),
        )
        certificate = stability.geom_stability_certificate
        counts = self.counts

        def certificate_counted(*args, **kwargs):
            verdict = certificate(*args, **kwargs)
            if self.active and verdict.kind == stability.UNKNOWN:
                counts["stability.certificate_unknown"] += 1
            return verdict

        replace_everywhere(certificate, certificate_counted)


def census_counts(censuses):
    """Orbit-machinery counts derived from the census objects a census
    workload's items built (deterministic for fixed inputs)."""
    out = Counter()
    for c in censuses:
        if isinstance(c, census.OrbitCensus):
            stable = len(c.uf.parent)
            gens = len(quiver.group_generators(c.quiver, c.field, c.dims))
            entries = sum(c.dims[a.dst] * c.dims[a.src] for a in c.quiver.arrows)
            out["census.points_scanned"] += c.field.size**entries
            out["census.stable_points"] += stable
            out["census.orbits"] += len(c.orbit_category)
            # one union-find pass and one BFS pass, each applying every
            # generator once to every stable point
            out["census.generator_applications"] += 2 * stable * gens
        elif isinstance(c, census.LoopClassCensus):
            out["census.points_scanned"] += len(c.entries)
            out["census.similarity_classes"] += len(c.entries)
            out["census.orbits"] += sum(
                1 for e in c.entries
                if e[2] in (census.GEOM_STABLE, census.STABLE_NOT_SCHUR)
            )
    return out
