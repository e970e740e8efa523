"""Per-layer tracing of opmc from outside the package.

Each module of ``src/opmc`` is one layer.  ``Tracer.install`` replaces
every function and method the module defines with a wrapper; a function
that another module imported by name is replaced under that name too,
because a module-level wrapper sees only the calls that go through the
name it is installed on.  The benchmark's own files call opmc through
module attributes for the same reason.  ``uninstall`` puts every
original back, and an untraced run never installs anything.

A wrapped call opens a frame when it crosses into a layer from another
layer, or when it is one of the named spans below.  A layer's self time
is the time its frames cover minus the time of the frames they enclose.
Named spans are also kept in memory as (id, parent id, name, start,
end) records and written out when the run ends; a span's inclusive time
counts only its outermost occurrence.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "rings", "graded", "symmetric", "operads", "cooperad", "builders",
    "cofree", "twisting", "simplex_chains", "mc_space", "instances", "cli",
)

# Implicit protocol methods are left alone: dict and set code calls them
# on every probe, and they do no work a layer could speed up.
SKIP = {"__repr__", "__eq__", "__hash__", "__len__", "__contains__"}

# function qualname -> span name.  Spans are timed even inside their own layer.
SPANS = {
    "builders.ass_cochains": "builders.build",
    "builders.com_cochains": "builders.build",
    "builders.barratt_eccles": "builders.build",
    "builders.en_restriction_morphism": "builders.build",
    "builders.be1_to_ass_iso": "builders.build",
    "cooperad.validate_cooperad": "cooperad.validate_cooperad",
    "cooperad.validate_hopf": "cooperad.validate_hopf",
    "cooperad.validate_morphism": "cooperad.validate_morphism",
    "cofree.CofreeCoalgebra.expand": "cofree.expand",
    "cofree.CofreeCoalgebra.expand_key": "cofree.expand",
    "cofree.CofreeCoalgebra.decompose": "cofree.decompose",
    "twisting.twist": "twisting.twist",
    "twisting._shuffle_plain": "twisting.shuffle_plain",
    "twisting.shuffle": "twisting.shuffle",
    "twisting.mc_residual": "twisting.residual",
    "simplex_chains.c_coalgebra_decompose": "simplex_chains.decompose",
    "simplex_chains.einfty_decompose": "simplex_chains.decompose",
    "mc_space.MCProblem.mu": "mc_space.mu",
    "mc_space.MCProblem.horn_fill": "mc_space.horn_fill",
    "instances.load_instance": "instances.load",
    "instances.parse_instance": "instances.load",
}
VALIDATORS = ("cooperad.validate_cooperad", "cooperad.validate_hopf",
              "cooperad.validate_morphism")
MAX_SPANS = 200000

# function qualname -> counter bumped on every call
COUNTED = {
    "builders.compose_permutations": "builders.compose_calls",
    "twisting.shuffle": "twisting.shuffle_calls",
    "twisting._shuffle_plain": "twisting.shuffle_calls",
    "mc_space.MCProblem.mu": "mc_space.mu_calls",
    "mc_space.MCProblem.mc_check": "mc_space.mc_check_calls",
    "instances.load_instance": "instances.load_calls",
}

# function qualname -> Tracer method that wraps it with its own counters
HOOKS = {
    "cofree.coderivation_extend": "_extend",
    "cofree.CofreeCoalgebra.__init__": "_cofree_init",
    "simplex_chains.c_coalgebra_decompose": "_chain_decompose",
    "simplex_chains.einfty_decompose": "_chain_decompose",
    "mc_space.MCProblem._decompose": "_mc_decompose",
    "mc_space.MCProblem.horn_fill": "_horn_fill",
}


class Tracer:
    def __init__(self):
        # a frame is [layer, child seconds]; the bottom one is the benchmark
        self.stack = [["bench", 0.0]]
        # per layer: [self seconds, calls crossing into the layer]
        self.layers = {layer: [0.0, 0] for layer in LAYERS}
        self.counts = defaultdict(int)
        self.span_s = defaultdict(float)
        self.span_depth = defaultdict(int)
        self.span_ids = [0]
        self.next_span_id = 1
        self.spans = []
        self.dropped = 0
        self.build_depth = 0
        self.validate_in_build_s = 0.0
        self.max_rank = 0
        self.installed = []
        self._wrappers = {}

    # -- installation --------------------------------------------------

    def install(self):
        if self.installed:
            return
        if not self._wrappers:
            self._make_wrappers()
        for owner, attr, new in self._targets():
            self.installed.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self.installed):
            setattr(owner, attr, old)
        self.installed = []

    def _modules(self):
        return [sys.modules[f"opmc.{layer}"] for layer in LAYERS]

    def _make_wrappers(self):
        """Map (owner, attr) of each definition to its wrapped value."""
        for layer, mod in zip(LAYERS, self._modules()):
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._wrappers[(mod, name)] = (
                        obj, self._wrap(obj, layer, f"{layer}.{name}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        if attr in SKIP:
                            continue
                        qual = f"{layer}.{name}.{attr}"
                        new = self._wrap_member(val, layer, qual)
                        if new is not None:
                            self._wrappers[(obj, attr)] = (val, new)

    def _wrap_member(self, val, layer, qual):
        if inspect.isfunction(val):
            return self._wrap(val, layer, qual)
        if isinstance(val, property) and val.fget is not None:
            return property(self._wrap(val.fget, layer, qual), val.fset, val.fdel)
        if isinstance(val, classmethod):
            return classmethod(self._wrap(val.__func__, layer, qual))
        if isinstance(val, staticmethod):
            return staticmethod(self._wrap(val.__func__, layer, qual))
        return None

    def _targets(self):
        """Every (owner, attr, wrapper) to set, including imported names."""
        originals = {}
        for (owner, attr), (old, new) in self._wrappers.items():
            yield owner, attr, new
            if inspect.isfunction(old):
                originals[id(old)] = (old, new)
        defining = {(owner, attr) for owner, attr in self._wrappers}
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val and (mod, attr) not in defining:
                    yield mod, attr, hit[1]

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn, layer, qual):
        if qual == "graded.Element.__init__":
            return self._counter(fn, "graded.elements")
        if qual in ("twisting._tilde", "twisting._tilde_plain"):
            return self._tilde(fn)
        inner = fn
        if qual in HOOKS:
            inner = getattr(self, HOOKS[qual])(fn)
        if qual in COUNTED:
            inner = self._counter(inner, COUNTED[qual])
        return functools.wraps(fn)(self._frame(inner, layer, SPANS.get(qual)))

    def _frame(self, fn, layer, span):
        stack = self.stack
        push, pop = stack.append, stack.pop
        acc = self.layers[layer]
        perf = time.perf_counter
        tracer = self

        if span is None:
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                if parent[0] is layer:
                    return fn(*args, **kwargs)
                frame = [layer, 0.0]
                push(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    pop()
                    acc[0] += dur - frame[1]
                    acc[1] += 1
                    parent[1] += dur
            return wrapper

        def spanned(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            push(frame)
            t0 = tracer.open_span(span)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                pop()
                acc[0] += dur - frame[1]
                if parent[0] is not layer:
                    acc[1] += 1
                parent[1] += dur
                tracer.close_span(span, t0, t1)
        return spanned

    def open_span(self, span):
        self.span_depth[span] += 1
        if span == "builders.build":
            self.build_depth += 1
        self.span_ids.append(self.next_span_id)
        self.next_span_id += 1
        return time.perf_counter()

    def close_span(self, span, t0, t1):
        dur = t1 - t0
        self.span_depth[span] -= 1
        if self.span_depth[span] == 0:
            self.span_s[span] += dur
        if span == "builders.build":
            self.build_depth -= 1
        elif span in VALIDATORS and self.build_depth > 0:
            self.validate_in_build_s += dur
        sid = self.span_ids.pop()
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, self.span_ids[-1], span, t0, t1))
        else:
            self.dropped += 1

    def _counter(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(counted)

    def _tilde(self, fn):
        counts = self.counts

        def tilde(*args):
            counts["twisting.tilde_calls"] += 1
            out = fn(*args)
            if out is not None:
                counts["twisting.tilde_hits"] += 1
            return out
        return functools.wraps(fn)(tilde)

    def _cofree_init(self, fn):
        def init(cf, *args, **kwargs):
            fn(cf, *args, **kwargs)
            self.max_rank = max(self.max_rank, len(cf.module))
        return init

    def _mc_decompose(self, fn):
        counts = self.counts

        def decompose(problem, n, I, r):
            counts["mc_space.dec_lookups"] += 1
            if (n, I, r) in problem._dec:
                counts["mc_space.dec_hits"] += 1
            return fn(problem, n, I, r)
        return decompose

    def _horn_fill(self, fn):
        counts = self.counts

        def horn_fill(problem, horn, verify=True, trace=None):
            steps = [] if trace is None else trace
            before = len(steps)
            try:
                return fn(problem, horn, verify=verify, trace=steps)
            finally:
                counts["mc_space.horn_steps"] += len(steps) - before
        return horn_fill

    def _chain_decompose(self, fn):
        counts = self.counts

        def decompose(*args, **kwargs):
            outer = self.span_depth["simplex_chains.decompose"] == 1
            out = fn(*args, **kwargs)
            if outer:
                counts["simplex_chains.decompose_calls"] += 1
                counts["simplex_chains.decompose_terms"] += len(out)
            return out
        return decompose

    def _extend(self, fn):
        """Time and count the operator that coderivation_extend returns.

        The operator memoises per-key images in a closure dict; a lookup
        is a hit when the key was computed before.
        """
        counts = self.counts
        frame = self._frame

        def extend(*args, **kwargs):
            Q = fn(*args, **kwargs)
            on_key = Q.on_key
            cache = on_key.__closure__[
                on_key.__code__.co_freevars.index("cache")].cell_contents

            def traced_on_key(key):
                counts["cofree.extend_lookups"] += 1
                if key in cache:
                    counts["cofree.extend_hits"] += 1
                return on_key(key)

            def traced_Q(x):
                # Q looks keys up through its own closure, one per term
                size = len(cache)
                counts["cofree.extend_lookups"] += len(x.terms)
                out = Q(x)
                counts["cofree.extend_hits"] += len(x.terms) - (len(cache) - size)
                return out

            new_Q = frame(traced_Q, "cofree", "cofree.extend")
            new_Q.on_key = frame(traced_on_key, "cofree", "cofree.extend")
            new_Q.corestriction = Q.corestriction
            return new_Q
        return extend

    # -- results -------------------------------------------------------

    def metrics(self):
        c = self.counts
        s = self.span_s
        layer = self.layers

        def ratio(hits, total):
            return c[hits] / c[total] if c[total] else 0.0

        return {
            "rings.calls": (layer["rings"][1], "count"),
            "rings.self_s": (layer["rings"][0], "s"),
            "graded.elements": (c["graded.elements"], "count"),
            "graded.self_s": (layer["graded"][0], "s"),
            "symmetric.self_s": (layer["symmetric"][0], "s"),
            "operads.self_s": (layer["operads"][0], "s"),
            "builders.build_s": (s["builders.build"] - self.validate_in_build_s, "s"),
            "builders.compose_calls": (c["builders.compose_calls"], "count"),
            "cooperad.validate_cooperad_s": (s["cooperad.validate_cooperad"], "s"),
            "cooperad.validate_hopf_s": (s["cooperad.validate_hopf"], "s"),
            "cooperad.validate_morphism_s": (s["cooperad.validate_morphism"], "s"),
            "cofree.rank": (self.max_rank, "count"),
            "cofree.expand_s": (s["cofree.expand"], "s"),
            "cofree.decompose_s": (s["cofree.decompose"], "s"),
            "cofree.extend_s": (s["cofree.extend"], "s"),
            "cofree.extend_lookups": (c["cofree.extend_lookups"], "count"),
            "cofree.extend_hit_ratio": (
                ratio("cofree.extend_hits", "cofree.extend_lookups"), "ratio"),
            "twisting.twist_s": (s["twisting.twist"], "s"),
            "twisting.shuffle_plain_s": (s["twisting.shuffle_plain"], "s"),
            "twisting.shuffle_s": (s["twisting.shuffle"], "s"),
            "twisting.shuffle_calls": (c["twisting.shuffle_calls"], "count"),
            "twisting.tilde_calls": (c["twisting.tilde_calls"], "count"),
            "twisting.tilde_hit_ratio": (
                ratio("twisting.tilde_hits", "twisting.tilde_calls"), "ratio"),
            "twisting.residual_s": (s["twisting.residual"], "s"),
            "simplex_chains.decompose_s": (s["simplex_chains.decompose"], "s"),
            "simplex_chains.decompose_calls": (
                c["simplex_chains.decompose_calls"], "count"),
            "simplex_chains.decompose_terms": (
                c["simplex_chains.decompose_terms"], "count"),
            "mc_space.mu_s": (s["mc_space.mu"], "s"),
            "mc_space.mu_calls": (c["mc_space.mu_calls"], "count"),
            "mc_space.mc_check_calls": (c["mc_space.mc_check_calls"], "count"),
            "mc_space.horn_fill_s": (s["mc_space.horn_fill"], "s"),
            "mc_space.horn_steps": (c["mc_space.horn_steps"], "count"),
            "mc_space.dec_lookups": (c["mc_space.dec_lookups"], "count"),
            "mc_space.dec_hit_ratio": (
                ratio("mc_space.dec_hits", "mc_space.dec_lookups"), "ratio"),
            "instances.load_s": (s["instances.load"], "s"),
            "instances.load_calls": (c["instances.load_calls"], "count"),
            "cli.self_s": (layer["cli"][0], "s"),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "start", "end"],
                "dropped": self.dropped,
                "spans": self.spans,
            }, fh)
            fh.write("\n")
