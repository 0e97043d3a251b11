"""Span tracing of calls into the library's public functions.

Each wrapped function records one span per call: name, start, end and the
index of the enclosing span (-1 at the top).  Spans are kept in memory and
written out by :meth:`Tracer.write`.  A span's self time is its duration minus
the time its child spans cover; the tracer accumulates it as calls return.

Functions are wrapped by replacing the module attribute.  Calls inside a
module resolve through the module's globals, so they are traced too.  Only the
functions listed in :data:`LAYERS` are wrapped: wrapping tiny hot helpers
would make the trace measure the tracer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# module -> functions wrapped; "*" means every public plain function
LAYERS = {
    "seeds": ("canonical_form", "mutate_quiver", "mutation_class_explore",
              "mutate_seed", "seed_from_graph", "expressions_agree"),
    "pluecker": ("determinant", "plucker", "sample_schubert_cell"),
    "plabic": ("square_eligible_labels", "face_labeling", "faces", "trips",
               "square_move", "bridge_graph", "relabel_boundary"),
    "ppalg": ("tilting_summand", "soc_chain", "functor_E_dagger_word",
              "region_module", "plucker_of_module"),
    "perm": ("positive_distinguished_subexpression", "standard_reduced_expression",
             "apply_word", "grassmann_necklace"),
    "shapes": "*",
    "lediag": ("leify", "skew_oplus", "le_decoration"),
    "cli": ("main",),
}
# layers reported as one aggregate (calls and self time summed over the module)
AGGREGATED = {"shapes"}


def _faces_in(G) -> int:
    """Interior faces of a connected plabic graph in a disk, by Euler's
    formula (the check ``plabic.faces`` itself makes)."""
    return len(G.edges) - len(G.colors) + 1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._child: list[float] = []  # time covered by children, per open span
        self._originals: list[tuple[object, str, object]] = []
        # ratio inputs, gathered where the work happens
        self.canonical_forms: set = set()
        self.pds_args: set = set()
        self.eligible_found = 0
        self.faces_examined = 0

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        for mod_name, funcs in LAYERS.items():
            mod = importlib.import_module(f"positroids.{mod_name}")
            if funcs == "*":
                funcs = tuple(
                    name for name, fn in vars(mod).items()
                    if not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                )
            for name in funcs:
                fn = getattr(mod, name)
                label = mod_name if mod_name in AGGREGATED else f"{mod_name}.{name}"
                self._originals.append((mod, name, fn))
                setattr(mod, name, self._wrap(fn, label, self._observer(mod_name, name)))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._originals):
            setattr(mod, name, fn)
        self._originals.clear()

    def _observer(self, mod_name: str, name: str):
        """Per-function hook run after the call, outside every span's self
        time, that gathers the inputs of the useful/distinct ratios."""
        if (mod_name, name) == ("seeds", "canonical_form"):
            return lambda args, result: self.canonical_forms.add(result)
        if (mod_name, name) == ("perm", "positive_distinguished_subexpression"):
            return lambda args, result: self.pds_args.add((tuple(args[0]), tuple(args[1])))
        if (mod_name, name) == ("plabic", "square_eligible_labels"):
            def observe(args, result):
                self.eligible_found += len(result)
                self.faces_examined += _faces_in(args[0])
            return observe
        return None

    def _wrap(self, fn, label: str, observe):
        if label not in self.name_id:
            self.name_id[label] = len(self.names)
            self.names.append(label)
        nid = self.name_id[label]

        if inspect.isgeneratorfunction(fn):
            # a generator's work happens while the caller iterates, so it
            # counts calls only
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[label] += 1
                return fn(*args, **kwargs)
            return gen_wrapper

        stack, child = self._stack, self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                covered = child.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.calls[label] += 1
                self.self_s[label] += (t1 - t0) - covered
            if observe is not None:
                observe(args, result)
            if child:
                # the hook's time belongs to no span
                child[-1] += perf_counter() - t0
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def table(self) -> dict[str, float]:
        """Per-layer metrics: ``<label>.calls`` and ``<label>.self_s`` for
        every wrapped function or aggregated module, plus the ratios."""
        out: dict[str, float] = {}
        for label in self.names:
            out[f"{label}.calls"] = self.calls[label]
            out[f"{label}.self_s"] = self.self_s[label]
        cf = self.calls["seeds.canonical_form"]
        out["seeds.canonical_form.useful_ratio"] = len(self.canonical_forms) / cf if cf else 0.0
        pds = self.calls["perm.positive_distinguished_subexpression"]
        out["perm.positive_distinguished_subexpression.distinct_ratio"] = (
            len(self.pds_args) / pds if pds else 0.0
        )
        out["plabic.square_eligible_labels.useful_ratio"] = (
            self.eligible_found / self.faces_examined if self.faces_examined else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write every span as ``name,start,end,parent`` lines (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]}\n")
