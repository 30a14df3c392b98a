"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each nilnov module, and
the methods named in METHODS, by timing wrappers; `uninstall()` puts the
originals back.  A function bound into other modules with
`from .groupring import ring_mul` is replaced wherever it is bound, so the
calls from homology, novikov, presentations and fracparse are seen too.

Each call pushes a frame on a stack.  Its self time is its duration minus
the time covered by the wrapped calls made inside it.  Calls of the
functions in SPANS are also kept as spans (name, start, end, parent span);
all calls are summed per function.  Counters (terms in and out, cache
misses, pivots) are taken at the same boundaries by hooks.  Everything is
kept in memory and written out by the caller when the run ends.
"""

import importlib
import inspect
import sys
import time

LAYER_MODULES = ("pcgroup", "groupring", "fields", "charorder", "novikov",
                 "presentations", "homology", "iterfrac", "intlinalg", "fracparse")

# methods and private functions that carry a layer's work
METHODS = [
    ("pcgroup", "PcGroup", "collect"),
    ("groupring", "FreeGroup", "collect"),
    ("fields", "Rationals", "add"), ("fields", "Rationals", "mul"),
    ("fields", "Rationals", "inv"),
    ("fields", "PrimeField", "add"), ("fields", "PrimeField", "mul"),
    ("fields", "PrimeField", "inv"),
    ("charorder", "MultiChar", "deg"),
    ("novikov", "NovContext", "deg"),
    ("presentations", "QuotientMap", "apply_word"),
    ("homology", None, "_run_elimination"),
]

SPANS = {"op", "setup", "homology.theorem_f", "homology.nov_cohomology",
         "homology._run_elimination", "novikov.nov_invert", "novikov.expand",
         "presentations.parse_presentation", "presentations.nilpotent_quotient",
         "presentations.fox_complex", "pcgroup.parse_pc"}

FIELD_OPS = ("fields.Rationals.add", "fields.Rationals.mul", "fields.Rationals.inv",
             "fields.PrimeField.add", "fields.PrimeField.mul", "fields.PrimeField.inv")

PRESENTATION_SETUP = ("presentations.parse_presentation",
                      "presentations.nilpotent_quotient", "presentations.fox_complex")


# -- hooks: (tracer, args, kwargs) before the call, plus (result, duration) after it

def _collect_pre(tr, args, kwargs):
    word = args[1]
    if not isinstance(word, (list, tuple)):
        word = list(word)
        args = (args[0], word) + args[2:]
    tr.counters["pcgroup.collect.syllables_in"] += len(word)
    return args


def _ring_mul_post(tr, args, kwargs, result, dur):
    tr.counters["groupring.ring_mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
    tr.counters["groupring.ring_mul.terms_out"] += len(result.terms)


def _nov_deg_pre(tr, args, kwargs):
    if args[1] not in args[0]._cache:
        tr.counters["novikov.deg.misses"] += 1
    return args


def _truncate_post(tr, args, kwargs, result, dur):
    tr.counters["novikov.truncate.terms_in"] += len(args[1].terms)
    tr.counters["novikov.truncate.terms_kept"] += len(result.terms)
    # nov_invert truncates exactly once per geometric-series iteration
    if tr.stack and tr.stack[-1][0] == "novikov.nov_invert":
        tr.counters["novikov.nov_invert.series_iters"] += 1


def _nov_cohomology_pre(tr, args, kwargs):
    tr.first_trunc = args[3] if len(args) > 3 else kwargs["trunc"]
    return args


def _run_elimination_post(tr, args, kwargs, result, dur):
    stage = "first" if args[2] is tr.first_trunc else "doubled"
    tr.counters[f"homology.elim.{stage}_s"] += dur
    elim = result[0]
    tr.counters["homology.pivots"] += elim.rank1 + elim.rank2
    tr.counters["homology.stalls"] += (elim.stall1 is not None) + (elim.stall2 is not None)


HOOKS = {
    "pcgroup.PcGroup.collect": (_collect_pre, None),
    "groupring.ring_mul": (None, _ring_mul_post),
    "novikov.NovContext.deg": (_nov_deg_pre, None),
    "novikov.truncate_elt": (None, _truncate_post),
    "homology.nov_cohomology": (_nov_cohomology_pre, None),
    "homology._run_elimination": (None, _run_elimination_post),
}


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack = []        # frames [name, child time, span index]
        self.spans = []        # [name, start, end, parent span index or -1]
        self.calls = {}        # name -> [calls, total_s, self_s]
        self.counters = _Counters()
        self.first_trunc = None
        self._targets = None
        self._undo = []

    # -- wrapping

    def _find_targets(self):
        targets = []
        for short in LAYER_MODULES:
            mod = importlib.import_module("nilnov." + short)
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    targets.append((f"{short}.{name}", None, name, obj))
        for short, cls_name, attr in METHODS:
            mod = sys.modules["nilnov." + short]
            owner = getattr(mod, cls_name) if cls_name else None
            obj = vars(owner)[attr] if owner else vars(mod)[attr]
            name = f"{short}.{cls_name}.{attr}" if cls_name else f"{short}.{attr}"
            targets.append((name, owner, attr, obj))
        return targets

    def install(self):
        if self._targets is None:
            self._targets = [(owner, attr, obj, self._wrap(name, obj))
                             for name, owner, attr, obj in self._find_targets()]
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == "nilnov" or n.startswith("nilnov.")]
        for owner, attr, obj, wrapper in self._targets:
            if owner is not None:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, obj))
                continue
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is obj:
                        ns[key] = wrapper
                        self._undo.append((ns, key, obj))

    def uninstall(self):
        for where, key, obj in reversed(self._undo):
            if isinstance(where, dict):
                where[key] = obj
            else:
                setattr(where, key, obj)
        self._undo = []

    def _wrap(self, name, fn):
        pre, post = HOOKS.get(name, (None, None))
        record = name in SPANS
        stack, spans = self.stack, self.spans
        agg = self.calls.setdefault(name, [0, 0.0, 0.0])
        perf = time.perf_counter
        tr = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(tr, args, kwargs)
            parent = stack[-1][2] if stack else -1
            if record:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            else:
                idx = parent
            frame = [name, 0.0, idx]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if record:
                    spans[idx][1] = start - tr.t0
                    spans[idx][2] = end - tr.t0
            if post is not None:
                post(tr, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def span(self, name, fn, *args):
        """Run fn(*args) as a root-level span of its own."""
        return self._wrap(name, fn)(*args)

    # -- results

    def reset_totals(self):
        for agg in self.calls.values():
            agg[:] = [0, 0.0, 0.0]
        self.counters.clear()

    def total(self, name):
        return self.calls.get(name, [0, 0.0, 0.0])

    def setup_seconds(self, names):
        """Summed duration of the spans with these names (used right after set-up)."""
        return sum((end - start for n, start, end, _ in self.spans if n in names), 0.0)

    def dump(self):
        return {
            "spans": self.spans,
            "functions": {n: {"calls": c, "total_s": t, "self_s": s}
                          for n, (c, t, s) in sorted(self.calls.items()) if c},
            "counters": dict(self.counters),
        }


def layer_metrics(tr, n_ops, op_s_traced, overhead, presentations_setup_s):
    """Per-operation layer metrics from the totals of n_ops traced operations."""
    def per(v):
        return v / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    cnt = tr.counters
    collect = tr.total("pcgroup.PcGroup.collect")
    ring_mul = tr.total("groupring.ring_mul")
    free_collect = tr.total("groupring.FreeGroup.collect")
    field = [sum(tr.total(n)[k] for n in FIELD_OPS) for k in range(3)]
    chi_deg = tr.total("charorder.MultiChar.deg")
    nov_deg = tr.total("novikov.NovContext.deg")
    invert = tr.total("novikov.nov_invert")
    apply_word = tr.total("presentations.QuotientMap.apply_word")
    doubled_s = per(cnt["homology.elim.doubled_s"])
    m = {
        "pcgroup.collect.calls": (per(collect[0]), "count"),
        "pcgroup.collect.syllables_in": (per(cnt["pcgroup.collect.syllables_in"]), "count"),
        "pcgroup.collect.self_s": (per(collect[2]), "s"),
        "groupring.ring_mul.calls": (per(ring_mul[0]), "count"),
        "groupring.ring_mul.term_pairs": (per(cnt["groupring.ring_mul.term_pairs"]), "count"),
        "groupring.ring_mul.terms_out": (per(cnt["groupring.ring_mul.terms_out"]), "count"),
        "groupring.ring_mul.self_s": (per(ring_mul[2]), "s"),
        "groupring.free_collect.calls": (per(free_collect[0]), "count"),
        "groupring.free_collect.self_s": (per(free_collect[2]), "s"),
        "fields.ops.calls": (per(field[0]), "count"),
        "fields.ops.self_s": (per(field[2]), "s"),
        "charorder.deg.calls": (per(chi_deg[0]), "count"),
        "charorder.deg.self_s": (per(chi_deg[2]), "s"),
        "novikov.deg.calls": (per(nov_deg[0]), "count"),
        "novikov.deg.misses": (per(cnt["novikov.deg.misses"]), "count"),
        "novikov.deg.hit_ratio": (ratio(nov_deg[0] - cnt["novikov.deg.misses"], nov_deg[0]),
                                  "ratio"),
        "novikov.truncate.terms_in": (per(cnt["novikov.truncate.terms_in"]), "count"),
        "novikov.truncate.terms_kept": (per(cnt["novikov.truncate.terms_kept"]), "count"),
        "novikov.truncate.kept_ratio": (ratio(cnt["novikov.truncate.terms_kept"],
                                              cnt["novikov.truncate.terms_in"]), "ratio"),
        "novikov.nov_invert.calls": (per(invert[0]), "count"),
        "novikov.nov_invert.series_iters": (per(cnt["novikov.nov_invert.series_iters"]),
                                            "count"),
        "novikov.nov_invert.self_s": (per(invert[2]), "s"),
        "presentations.apply_word.calls": (per(apply_word[0]), "count"),
        "presentations.apply_word.self_s": (per(apply_word[2]), "s"),
        "presentations.setup_s": (presentations_setup_s, "s"),
        "homology.elim.first_s": (per(cnt["homology.elim.first_s"]), "s"),
        "homology.elim.doubled_s": (doubled_s, "s"),
        "homology.elim.doubled_share": (ratio(doubled_s, op_s_traced), "ratio"),
        "homology.pivots": (per(cnt["homology.pivots"]), "count"),
        "homology.stalls": (per(cnt["homology.stalls"]), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
