"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each traced function at every name through
which callers look it up (``laurent._lp.find_point``, ``evalmap.snf`` as
well as ``intlat.snf``, ``LaurentPoly.eval`` ...) with a wrapper that
times the call, and ``uninstall`` puts the originals back.  A span's self
time is its duration minus the durations of the spans opened inside it, so
the self times of one pass never add up to more than the pass's wall time.

``semiring`` is not wrapped: its functions run once per coefficient and
are too fine to time one by one, so their cost lands in the ``laurent``
spans that call them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import tropfan
from tropfan import _lp, cli, evalmap, fan, intlat, laurent, morphism

MODULES = (tropfan, _lp, laurent, intlat, evalmap, fan, morphism, cli)


def _bits(*matrices) -> int:
    return max(abs(x).bit_length() for M in matrices for row in M.data for x in row)


def _lp_name(cons, nvars):
    return "lp.find_point.low_dim" if nvars <= _lp.FM_MAX_VARS else "lp.find_point.high_dim"


class Tracer:
    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_bits = 0
        self._open: list = []  # child time accumulated by each open span
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()
        self.max_bits = 0

    def _wrap(self, name, fn, before=None, after=None):
        """``name`` is a span name or a function of the call's arguments;
        ``before(args)`` returns a token handed to ``after(token, result)``."""
        tracer = self

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args, **kwargs)
            token = before(args) if before else None
            tracer._open.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter_ns() - start
                children = tracer._open.pop()
                tracer.self_ns[span] += spent - children
                tracer.calls[span] += 1
                if tracer._open:
                    tracer._open[-1] += spent
            if after:
                after(token, result)
            return result

        return traced

    # -- hooks ---------------------------------------------------------------

    def _count_constraints(self, args):
        self.counts["lp.find_point.constraints"] += len(args[0])

    def _count_truncated(self, _, result):
        self.counts["lp.integer_point_search.truncated"] += bool(result[1])

    def _transform_bits(self, pick):
        """An ``after`` hook recording the widest entry of the transforms
        ``pick(result)`` returns."""
        def after(_, result):
            self.max_bits = max(self.max_bits, _bits(*pick(result)))
        return after

    def _stdout_before(self, args):
        return sys.stdout.tell()

    def _stdout_after(self, start, result):
        self.counts["cli.bytes_out"] += sys.stdout.tell() - start

    # -- patching ------------------------------------------------------------

    def _functions(self):
        """(original, span name, before, after) for every traced function."""
        text = "laurent.text"
        return [
            (_lp.find_point, _lp_name, self._count_constraints, None),
            (_lp.integer_point_search, "lp.integer_point_search", None, self._count_truncated),
            (laurent.canonicalize, "laurent.canonicalize", None, None),
            (laurent.fn_eq, "laurent.fn_eq", None, None),
            (laurent.fn_witness, "laurent.fn_witness", None, None),
            (laurent.germ_localize, "laurent.germ_localize", None, None),
            (laurent.parse_poly_text, text, None, None),
            (laurent.poly_to_text, text, None, None),
            (laurent.poly_from_json, text, None, None),
            (laurent.poly_to_json, text, None, None),
            (laurent.parse_point, text, None, None),
            (intlat.snf, "intlat.snf", None, self._transform_bits(lambda PDQ: (PDQ[0], PDQ[2]))),
            (intlat.hnf, "intlat.hnf", None, self._transform_bits(lambda HU: (HU[1],))),
            (intlat.lattice_solve, "intlat.lattice_solve", None, None),
            (intlat.det, "intlat.det", None, None),
            (intlat.unimodular_transport, "intlat.transport", None, self._transform_bits(lambda T: (T,))),
            (evalmap.image_membership, "evalmap.image_membership", None, None),
            (evalmap.eval_map, "evalmap.eval_map", None, None),
            (evalmap.is_smooth, "evalmap.is_smooth", None, None),
            (fan.standard_model, "fan.build", None, None),
            (fan.support_contains, "fan.support_contains", None, None),
            (morphism.validate_morphism, "morphism.validate", None, None),
            (morphism.pullback_poly, "morphism.pullback", None, None),
            (morphism.pullback_evalmap, "morphism.pullback", None, None),
            (morphism.induced_homspec, "morphism.pullback", None, None),
            (morphism.realize_morphism, "morphism.realize", None, None),
            (cli.run, "cli.run", self._stdout_before, self._stdout_after),
        ]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for fn, name, before, after in self._functions():
            wrapper = self._wrap(name, fn, before, after)
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)
        self._set(laurent.LaurentPoly, "eval",
                  self._wrap("laurent.eval", laurent.LaurentPoly.eval))
        for attr in ("build", "from_json"):
            method = fan.WeightedFan.__dict__[attr].__func__
            self._set(fan.WeightedFan, attr, classmethod(self._wrap("fan.build", method)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        ms = lambda span: self.self_ns[span] / 1e6  # noqa: E731
        low, high = "lp.find_point.low_dim", "lp.find_point.high_dim"
        lp_calls = self.calls[low] + self.calls[high]
        out = {
            "lp.find_point.calls": lp_calls,
            "lp.find_point.self_ms": ms(low) + ms(high),
            "lp.find_point.low_dim.self_ms": ms(low),
            "lp.find_point.high_dim.self_ms": ms(high),
            "lp.find_point.constraints_mean":
                self.counts["lp.find_point.constraints"] / lp_calls if lp_calls else 0.0,
            "lp.integer_point_search.calls": self.calls["lp.integer_point_search"],
            "lp.integer_point_search.self_ms": ms("lp.integer_point_search"),
            "lp.integer_point_search.truncated": self.counts["lp.integer_point_search.truncated"],
            "laurent.canonicalize.calls": self.calls["laurent.canonicalize"],
            "laurent.eval.calls": self.calls["laurent.eval"],
            "intlat.lattice_solve.calls": self.calls["intlat.lattice_solve"],
            "intlat.max_entry_bits": self.max_bits,
            "evalmap.image_membership.calls": self.calls["evalmap.image_membership"],
            "fan.support_contains.calls": self.calls["fan.support_contains"],
            "cli.bytes_out": self.counts["cli.bytes_out"],
            "trace.layers_self_ms": sum(self.self_ns.values()) / 1e6,
        }
        for span in ("laurent.canonicalize", "laurent.fn_eq", "laurent.fn_witness",
                     "laurent.germ_localize", "laurent.eval", "laurent.text", "intlat.snf",
                     "intlat.hnf", "intlat.lattice_solve", "intlat.det", "intlat.transport",
                     "evalmap.image_membership", "evalmap.eval_map", "evalmap.is_smooth",
                     "fan.build", "morphism.validate", "morphism.pullback", "morphism.realize",
                     "cli.run"):
            out[span + ".self_ms"] = ms(span)
        return out
