"""Per-layer tracing by wrapping the library's functions from outside.

Only the traced run installs it.  A layer is one milnorforge module.  Each
wrapped callable counts its calls and raised calls and, per layer, adds
its self time: its own duration minus that of the wrapped calls nested in
it, so time in an unwrapped helper is charged to the nearest wrapped
caller.  Inclusive time is kept per callable, counting only the outermost
of recursive calls.  Everything stays in memory until aggregates() is
read once at the end; no per-call spans are kept.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "milnorforge"

# layer -> (module, the hot methods wrapped besides the module's public
# functions, which are all wrapped)
LAYERS = {
    "finite_field": ("arith.finite_field", [
        "FiniteFieldCtx.__init__", "FFElement.__add__", "FFElement.__sub__",
        "FFElement.__neg__", "FFElement.__mul__", "FFElement.__truediv__",
        "FFElement.inverse", "FFElement.__pow__", "FFElement.dlog"]),
    "padic": ("arith.padic", [
        "PadicNumber.__mul__", "PadicNumber.__add__", "PadicNumber.__sub__",
        "PadicNumber.inverse", "PadicNumber.__pow__"]),
    "laurent": ("arith.laurent", [
        "LaurentSeries.__mul__", "LaurentSeries.__add__",
        "LaurentSeries.__sub__", "LaurentSeries.inverse",
        "LaurentSeries.__pow__"]),
    "local": ("arith.local", ["LocalFieldCtx.__init__", "LocalFieldCtx.parse"]),
    "poly": ("arith.poly", [
        "Poly.__mul__", "Poly.__divmod__", "Poly.__add__", "Poly.__sub__",
        "Poly.gcd", "Poly.xgcd", "Poly.resultant", "Poly.pow_mod",
        "Poly.eval"]),
    "factor": ("arith.factor", []),
    "snf": ("snf", ["AbGroupPresentation.__init__",
                    "AbGroupPresentation.coordinates",
                    "AbGroupPresentation.express_in_relators"]),
    "symbols": ("symbols", ["MilnorClass.__init__", "MilnorClass.__add__",
                            "MilnorClass.__mul__", "MilnorClass.serialize",
                            "FFKGroup.vector_of"]),
    "localk": ("localk", ["CertStep.relator"]),
    "ratfunc": ("ratfunc", ["Place.__init__", "RatFuncElem.__init__",
                            "QuotElem.__mul__", "QuotElem.inverse",
                            "QuotElem.norm_to_base"]),
    "bass_tate": ("bass_tate", []),
    "rational_ring": ("rational_ring", ["MultiPoly.__mul__",
                                        "RationalRingElem.__init__",
                                        "RationalRingElem.same_as"]),
    "cli": ("cli", []),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    """Counts and self time per layer; one instance per process."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.funcs = {}      # "layer:qualname" -> [calls, raised, incl_s, depth]
        self.extra = {"snf_max_rows": 0, "cert_steps": 0, "cert_bytes": 0}
        self._stack = []     # per active wrapped call: time of wrapped callees
        self._kgroup = None

    def _observers(self):
        extra = self.extra

        def snf_rows(args, result):
            extra["snf_max_rows"] = max(extra["snf_max_rows"], len(args[0]))

        def steps(args, result):
            extra["cert_steps"] += len(result.steps)

        def text_bytes(args, result):
            extra["cert_bytes"] += len(result)

        return {"snf:snf": snf_rows,
                "localk:divisibility_witness": steps,
                "localk:serialize_certificate": text_bytes}

    def _wrap(self, key, layer, fn, observe):
        stats = self.funcs.setdefault(key, [0, 0, 0.0, 0])
        self_s, stack, clock = self.self_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            stats[3] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[1] += 1
                raise
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                stats[3] -= 1
                if stats[3] == 0:
                    stats[2] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer, rebinding each `from .x import f` copy too."""
        observers = self._observers()
        for layer, (modname, methods) in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            for name, fn in list(_public_functions(module)):
                key = f"{layer}:{name}"
                wrapper = self._wrap(key, layer, fn, observers.get(key))
                if name == "ff_kgroup":
                    self._kgroup = fn
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith(PACKAGE):
                        for attr, val in list(vars(mod).items()):
                            if val is fn:
                                setattr(mod, attr, wrapper)
            for qual in methods:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                key = f"{layer}:{qual}"
                setattr(cls, meth, self._wrap(key, layer, cls.__dict__[meth],
                                              observers.get(key)))

    def aggregates(self) -> dict:
        hits = misses = 0
        if self._kgroup is not None:
            info = self._kgroup.cache_info()
            hits, misses = info.hits, info.misses
        return {"self_s": self.self_s,
                "funcs": {k: {"calls": v[0], "raised": v[1], "incl_s": v[2]}
                          for k, v in self.funcs.items()},
                "extra": dict(self.extra, kgroup_hits=hits,
                              kgroup_misses=misses)}


def merge(parts) -> dict:
    """Sum the aggregates of several processes (max for the row maximum)."""
    out = {"self_s": {layer: 0.0 for layer in LAYERS}, "funcs": {},
           "extra": {}}
    for agg in parts:
        for layer, v in agg["self_s"].items():
            out["self_s"][layer] += v
        for key, f in agg["funcs"].items():
            acc = out["funcs"].setdefault(key, {"calls": 0, "raised": 0,
                                                "incl_s": 0.0})
            for field in acc:
                acc[field] += f[field]
        for key, v in agg["extra"].items():
            if key == "snf_max_rows":
                out["extra"][key] = max(out["extra"].get(key, 0), v)
            else:
                out["extra"][key] = out["extra"].get(key, 0) + v
    return out


def layer_metrics(agg: dict) -> dict:
    """The named per-layer metrics (without the cli counters) of one pass."""
    funcs, extra = agg["funcs"], agg["extra"]

    def calls(*keys):
        return sum(funcs.get(k, {}).get("calls", 0) for k in keys)

    def incl(key):
        return funcs.get(key, {}).get("incl_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    bc = calls("rational_ring:base_change_roundtrip")
    bc_raised = funcs.get("rational_ring:base_change_roundtrip",
                          {}).get("raised", 0)
    kg = extra.get("kgroup_hits", 0) + extra.get("kgroup_misses", 0)
    m = {
        "finite_field.add_calls": calls("finite_field:FFElement.__add__",
                                        "finite_field:FFElement.__sub__",
                                        "finite_field:FFElement.__neg__"),
        "finite_field.ctx_builds": calls("finite_field:FiniteFieldCtx.__init__"),
        "finite_field.ctx_build_s": incl("finite_field:FiniteFieldCtx.__init__"),
        "padic.mul_calls": calls("padic:PadicNumber.__mul__"),
        "laurent.mul_calls": calls("laurent:LaurentSeries.__mul__"),
        "local.hensel_calls": calls("local:hensel_lift", "local:teichmuller",
                                    "local:principal_unit_root"),
        "poly.divmod_calls": calls("poly:Poly.__divmod__"),
        "poly.mul_calls": calls("poly:Poly.__mul__"),
        "factor.factor_calls": calls("factor:poly_factor"),
        "factor.irreducible_calls": calls("factor:is_irreducible"),
        "snf.snf_calls": calls("snf:snf"),
        "snf.det_calls": calls("snf:mat_det"),
        "snf.max_rows": extra.get("snf_max_rows", 0),
        "symbols.kgroup_calls": calls("symbols:ff_kgroup"),
        "symbols.kgroup_hit_ratio": ratio(extra.get("kgroup_hits", 0), kg),
        "localk.witness_calls": calls("localk:divisibility_witness"),
        "localk.witness_s": incl("localk:divisibility_witness"),
        "localk.verify_s": incl("localk:verify_certificate"),
        "localk.parse_s": incl("localk:parse_certificate"),
        "localk.cert_steps": extra.get("cert_steps", 0),
        "localk.cert_bytes": extra.get("cert_bytes", 0),
        "localk.tame_calls": calls("localk:tame"),
        "localk.qf_oracle_calls": calls("localk:qf_oracle"),
        "localk.qf_oracle_s": incl("localk:qf_oracle"),
        "ratfunc.support_calls": calls("ratfunc:support"),
        "ratfunc.place_inits": calls("ratfunc:Place.__init__"),
        "ratfunc.irreducible_over_calls": calls("ratfunc:irreducible_over"),
        "ratfunc.tame_at_calls": calls("ratfunc:tame_at"),
        "bass_tate.section_calls": calls("bass_tate:bt_section"),
        "bass_tate.norm_calls": calls("bass_tate:norm"),
        "rational_ring.base_change_calls": bc,
        "rational_ring.base_change_accept_ratio": ratio(bc - bc_raised, bc),
        "rational_ring.delta_calls": calls("rational_ring:delta_kernel_check"),
    }
    for layer, v in agg["self_s"].items():
        m[f"{layer}.self_s"] = v
    return m
