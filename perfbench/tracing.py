"""Per-layer tracing installed from outside the program.

``install`` replaces every module attribute of the ``cprojective`` package that
binds one of its public functions with a timing wrapper.  A function imported
by name into another module (``from .jets import jmul`` in ``geometry``,
``tractor`` and ``cproj``) is replaced there as well, so every call site goes
through the same wrapper.  Further hooks: the ``Jet`` arithmetic methods, the
jet builder of every ``TensorField`` (leaf or composite), ``TensorField.jet``
(a request counter), ``GeometryContext.__init__``, and the certificate
boundaries of ``cli.run_certificates``.

Spans nest on one stack.  A span's self time is its duration minus the time
covered by its child spans; time inside an operation that no span covers is
self time of the root span ``cli.main``.  Spans are aggregated in memory per
name, never written while an operation runs.
"""

from __future__ import annotations

import collections
import importlib
import time
import types

MODULES = ("fieldexpr", "jets", "geometry", "tractor", "cproj", "examples",
           "boundary", "cli")

# Module -> layer.  Field composition lives in geometry, tractor and cproj;
# examples only assembles symbolic metrics for geometry.
LAYER_OF = {"fieldexpr": "fieldexpr", "jets": "jets", "geometry": "geometry",
            "tractor": "geometry", "cproj": "geometry", "examples": "geometry",
            "boundary": "boundary", "cli": "cli"}
LAYERS = ("fieldexpr", "jets", "geometry", "boundary", "cli")

# Public functions that get no span of their own.  The expression node
# constructors run thousands of times per operation inside symbolic
# differentiation and parsing, and sym_last is the body of the jet products;
# their time stays self time of the enclosing span (derivative_trees,
# parse_expression, jmul, ...).
NO_SPAN = {
    "fieldexpr": {"const", "var", "add", "neg", "mul", "div", "pow_", "exp",
                  "log", "sqrt"},
    "jets": {"sym_last"},
}

JET_METHODS = ("__add__", "__sub__", "__neg__", "scaled", "truncated", "copy")


class Tracer:
    def __init__(self):
        # Root frame: collects the spans opened outside any other span.
        self.stack = [[0.0, 0]]
        # name -> [calls, total_s, raw_self_s, direct children]
        self.stats = {}
        self.counts = collections.Counter()
        self.leaf_by_field = collections.Counter()
        self.cert_time = collections.Counter()
        self._cert_mark = None
        self.wrapped = {}          # id(original) -> wrapper
        self.cost_inside = self.cost_outside = 0.0

    # -- spans ---------------------------------------------------------------
    def span(self, name, fn, after=None):
        stack = self.stack
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += duration
                parent[1] += 1
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[0]
                st[3] += frame[1]
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def calibrate(self, reps=20000):
        """Measures what one span adds to its own self time (clock reads and
        bookkeeping inside its interval) and to its parent's (the call into
        the wrapper and the bookkeeping after its clock stops), so reported
        self times can be corrected by call and child counts."""
        probe = Tracer()

        def noop():
            return None

        child = probe.span("child", noop)

        def parent_wrapped():
            for _ in range(reps):
                child()

        def parent_plain():
            for _ in range(reps):
                noop()

        outer = probe.span("wrapped", parent_wrapped)
        plain = probe.span("plain", parent_plain)
        inside, outside = [], []
        for _ in range(5):
            for name in ("child", "wrapped", "plain"):
                probe.stats[name][:] = [0, 0.0, 0.0, 0]
            plain()
            outer()
            inside.append(probe.stats["child"][2] / reps)
            outside.append((probe.stats["wrapped"][2] - probe.stats["plain"][2]) / reps)
        self.cost_inside = sorted(inside)[2]
        self.cost_outside = sorted(outside)[2]

    def self_time(self, name):
        """Self time of a span name, less the calibrated span costs."""
        calls, _, raw, children = self.stats[name]
        return raw - calls * self.cost_inside - children * self.cost_outside

    # -- installation ----------------------------------------------------------
    def install(self):
        """Wrap the package in place.  Returns the list of
        ``module.attribute`` bindings replaced."""
        mods = {short: importlib.import_module(f"cprojective.{short}")
                for short in MODULES}
        home = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and attr not in NO_SPAN.get(short, ())):
                    home[id(obj)] = (short, obj)
        for key, (short, fn) in home.items():
            self.wrapped[key] = self.span(f"{short}.{fn.__name__}", fn,
                                          self._after_for(short, fn.__name__))
        bound = []
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                wrapper = self.wrapped.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    bound.append(f"{short}.{attr}")
        self._install_hooks(mods)
        return bound

    def unwrapped_bindings(self):
        """Module attributes that still bind an original, wrapped function."""
        left = []
        for short in MODULES:
            mod = importlib.import_module(f"cprojective.{short}")
            for attr, obj in vars(mod).items():
                if id(obj) in self.wrapped:
                    left.append(f"{short}.{attr}")
        return left

    def _after_for(self, short, name):
        if short != "jets":
            if (short, name) == ("boundary", "richardson"):
                return self._after_richardson
            return None
        if name == "jmul":
            return self._after_jmul
        return self._after_jet_out

    def _after_jet_out(self, args, result):
        # Views (transposes, moved axes, truncations) compute no new bytes.
        terms = getattr(result, "terms", None)
        if terms is not None:
            self.counts["jets.out_bytes"] += sum(t.nbytes for t in terms
                                                 if t.base is None)

    def _after_jmul(self, args, result):
        self._after_jet_out(args, result)
        self.counts[f"jets.jmul.k{len(result.terms) - 1}"] += 1

    def _after_richardson(self, args, result):
        self.counts["boundary.richardson.samples"] += len(args[0])

    def _install_hooks(self, mods):
        geo, jets, cli = mods["geometry"], mods["jets"], mods["cli"]
        tracer = self

        for meth in JET_METHODS:
            setattr(jets.Jet, meth, self.span(f"jets.Jet.{meth}",
                                              getattr(jets.Jet, meth),
                                              self._after_jet_out))
        constant = jets.Jet.__dict__["constant"].__func__
        jets.Jet.constant = staticmethod(self.span("jets.Jet.constant", constant,
                                                   self._after_jet_out))

        leaf_qualname = "tensor_from_exprs.<locals>.jet_fn"
        field_init = geo.TensorField.__init__

        def init(field, chart, variance, weight, jet_fn, name=""):
            if jet_fn.__qualname__ == leaf_qualname:
                def leaf(x, order, _fn=jet_fn, _field=field):
                    tracer.counts[f"geometry.leaf.k{order}"] += 1
                    tracer.leaf_by_field[(_field.name, order)] += 1
                    return _fn(x, order)
                wrapped = self.span("geometry.leaf", leaf)
            else:
                wrapped = self.span("geometry.compose", jet_fn)
            field_init(field, chart, variance, weight, wrapped, name)

        geo.TensorField.__init__ = init

        field_jet = geo.TensorField.jet

        def jet(field, x, order):
            tracer.counts["geometry.jet.requests"] += 1
            return field_jet(field, x, order)

        geo.TensorField.jet = jet

        cli.GeometryContext.__init__ = self.span("cli.GeometryContext",
                                                 cli.GeometryContext.__init__)

        # Certificate boundaries: run_certificates opens the battery and every
        # verdict is recorded through cli._cert_entry, so each certificate is
        # the interval since the previous boundary.
        run = cli.run_certificates

        def run_certificates(*args, **kwargs):
            tracer._cert_mark = time.perf_counter()
            return run(*args, **kwargs)

        cli.run_certificates = run_certificates
        entry = cli._cert_entry

        def cert_entry(name, *args):
            now = time.perf_counter()
            tracer.cert_time[name] += now - tracer._cert_mark
            tracer._cert_mark = now
            return entry(name, *args)

        cli._cert_entry = cert_entry

    # -- results ---------------------------------------------------------------
    def summary(self):
        spans = {name: {"calls": st[0], "total_s": st[1], "raw_self_s": st[2],
                        "self_s": self.self_time(name)}
                 for name, st in sorted(self.stats.items()) if st[0]}
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, span in spans.items():
            layers[LAYER_OF[name.split(".", 1)[0]]] += span["self_s"]
        return {"spans": spans, "layer_self": layers,
                "counts": dict(self.counts), "cert": dict(self.cert_time),
                "leaf_by_field": [[name, order, count] for (name, order), count
                                  in sorted(self.leaf_by_field.items())],
                "span_cost_s": {"inside": self.cost_inside,
                                "outside": self.cost_outside}}
