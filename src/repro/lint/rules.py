"""The per-file determinism rules (DET001–DET005, MP001).

Each rule encodes one invariant this reproduction has already paid for
dynamically (see ``docs/determinism.md`` for the war stories):

* DET001 — unseeded / process-global RNG.  Every run derives all
  randomness from ``spec.seed``; module-level RNG state breaks
  shard/worker/completion-order invariance.
* DET002 — wall-clock reads.  ``time.time`` & friends in result-affecting
  paths make runs unreproducible; timing belongs in ``benchmarks/`` or
  behind an explicit suppression justifying a reporting-only use.
* DET003 — iteration over sets feeding order-sensitive consumers.
  Set iteration order is hash-seed dependent; anything folded, joined,
  hashed or spawned from it must go through ``sorted(...)``.
* DET004 — bitwise-hazard numpy ops in bit-parity hot paths.  The PR 6
  lesson: ``np.clip`` drifts bitwise from branchy clamps; hot-path
  modules must stay on the branchy forms, and every existing exception
  carries a machine-checked justification.
* DET005 — bare float accumulation in aggregator modules.  Streaming
  reports are bit-identical at any shard count only because sums route
  through ``ExactMoments``' exact sums; a bare ``sum()`` or
  loop-carried ``+=`` silently reintroduces order sensitivity.
* MP001 — fork-unsafety around worker entry points: mutable default
  arguments, and module-global mutable state reachable from functions
  that run inside pool workers.

All rules are syntactic: they see names and call shapes, not types.
They deliberately over-approximate inside their configured scopes and
rely on justified ``# repro-lint: disable=...`` suppressions for the
sanctioned exceptions — that is the point: every exception becomes
grep-able, justified, and enforced (unused suppressions are themselves
findings).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from repro.lint.framework import FileContext, SourceFile, SyntaxRule, register

__all__ = [
    "UnseededGlobalRNG",
    "WallClockRead",
    "UnorderedSetIteration",
    "BitwiseHazardOp",
    "BareFloatAccumulation",
    "ForkUnsafeState",
]


# ---------------------------------------------------------------------------
# Shared per-file import table
# ---------------------------------------------------------------------------


class _Imports:
    """Which local names refer to the modules the rules care about."""

    def __init__(self, tree: ast.Module) -> None:
        self.numpy: set[str] = set()
        self.np_random: set[str] = set()      # import numpy.random as npr
        self.random: set[str] = set()         # import random [as r]
        self.time: set[str] = set()           # import time [as t]
        self.datetime_mod: set[str] = set()   # import datetime [as dt]
        self.datetime_cls: set[str] = set()   # from datetime import datetime
        self.from_random: set[str] = set()    # from random import shuffle
        self.from_np_random: dict[str, str] = {}  # from numpy.random import X
        self.from_time: set[str] = set()      # from time import perf_counter
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        self.numpy.add(bound)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.np_random.add(alias.asname)
                        else:
                            self.numpy.add("numpy")
                    elif alias.name == "random":
                        self.random.add(bound)
                    elif alias.name == "time":
                        self.time.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_mod.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module == "random":
                        self.from_random.add(bound)
                    elif node.module == "numpy.random":
                        self.from_np_random[bound] = alias.name
                    elif node.module == "numpy" and alias.name == "random":
                        self.np_random.add(bound)
                    elif node.module == "time":
                        self.from_time.add(bound)
                    elif node.module == "datetime" and alias.name == "datetime":
                        self.datetime_cls.add(bound)


def _imports(ctx: FileContext) -> _Imports:
    return ctx.shared("imports", lambda: _Imports(ctx.src.tree))


def _np_random_base(node: ast.expr, imports: _Imports) -> bool:
    """Whether ``node`` denotes the ``numpy.random`` module."""
    if isinstance(node, ast.Name) and node.id in imports.np_random:
        return True
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in imports.numpy
    )


# ---------------------------------------------------------------------------
# DET001 — unseeded / process-global RNG
# ---------------------------------------------------------------------------


#: ``numpy.random`` constructors that are deterministic *when seeded*.
_SEEDABLE_CTORS = frozenset(
    {"default_rng", "Generator", "RandomState", "SeedSequence",
     "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
)


@register
class UnseededGlobalRNG(SyntaxRule):
    """DET001: randomness not derived from an explicit seed."""

    code = "DET001"
    description = (
        "unseeded or process-global RNG: every run must derive all "
        "randomness from spec.seed"
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        """Flag random.*, numpy.random.* state, and unseeded constructors."""
        imports = _imports(ctx)
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base in imports.random:
                if func.attr == "Random" and node.args:
                    return  # seeded private instance
                ctx.report(
                    self.code, node,
                    f"random.{func.attr} uses the process-global RNG "
                    "(or OS entropy); derive randomness from the spec seed "
                    "via a private seeded generator",
                )
                return
        if isinstance(func, ast.Attribute) and _np_random_base(func.value, imports):
            self._np_random(node, func.attr, ctx)
            return
        if isinstance(func, ast.Name):
            if func.id in imports.from_random:
                if func.id == "Random" and node.args:
                    return
                ctx.report(
                    self.code, node,
                    f"{func.id}() was imported from random and uses the "
                    "process-global RNG; derive randomness from the spec seed",
                )
            elif func.id in imports.from_np_random:
                self._np_random(node, imports.from_np_random[func.id], ctx)

    def _np_random(self, node: ast.Call, attr: str, ctx: FileContext) -> None:
        if attr in _SEEDABLE_CTORS:
            if not node.args and not node.keywords:
                ctx.report(
                    self.code, node,
                    f"numpy.random.{attr}() without a seed draws OS entropy; "
                    "pass the spec-derived seed explicitly",
                )
            return
        ctx.report(
            self.code, node,
            f"numpy.random.{attr} mutates/reads numpy's module-level RNG "
            "state, which is shared per process; use "
            "numpy.random.default_rng(seed) instead",
        )


# ---------------------------------------------------------------------------
# DET002 — wall-clock reads
# ---------------------------------------------------------------------------


_CLOCK_ATTRS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
     "perf_counter_ns", "process_time", "process_time_ns", "clock_gettime"}
)
_DATETIME_CLS_ATTRS = frozenset({"now", "utcnow", "today"})


@register
class WallClockRead(SyntaxRule):
    """DET002: wall-clock reads in result-affecting paths.

    Two config options refine the scope without weakening it:

    * ``sanctioned_paths`` — fnmatch patterns for the files that ARE the
      sanctioned clock site (``repro.obs.clock``); reads there are not
      findings, so the module needs no per-line suppressions.
    * ``hint`` — appended to every finding message outside the
      sanctioned paths, steering authors to the sanctioned site instead
      of a fresh suppression.
    """

    code = "DET002"
    description = (
        "wall-clock read: results must be a function of the spec alone; "
        "timing belongs in benchmarks/ or behind a justified suppression"
    )

    def _report(self, ctx: FileContext, node: ast.AST, message: str) -> None:
        """Report unless the file is a sanctioned clock site; add the hint."""
        rel = ctx.src.rel
        if any(
            fnmatch(rel, pattern)
            for pattern in self.options.get("sanctioned_paths", ())
        ):
            return
        hint = self.options.get("hint")
        if hint:
            message = f"{message} ({hint})"
        ctx.report(self.code, node, message)

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        """Flag ``time.<clock>`` and ``datetime[.datetime].now``-style reads."""
        if not isinstance(node.ctx, ast.Load):
            return
        imports = _imports(ctx)
        if isinstance(node.value, ast.Name):
            base = node.value.id
            if base in imports.time and node.attr in _CLOCK_ATTRS:
                self._report(
                    ctx, node,
                    f"time.{node.attr} reads the wall clock; simulated time "
                    "must advance from the spec, not the host",
                )
            elif base in imports.datetime_cls and node.attr in _DATETIME_CLS_ATTRS:
                self._report(
                    ctx, node,
                    f"datetime.{node.attr} reads the wall clock",
                )
        elif (
            isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in imports.datetime_mod
            and node.value.attr in ("datetime", "date")
            and node.attr in _DATETIME_CLS_ATTRS
        ):
            self._report(
                ctx, node,
                f"datetime.{node.value.attr}.{node.attr} reads the wall clock",
            )

    def visit_Name(self, node: ast.Name, ctx: FileContext) -> None:
        """Flag clocks imported directly (``from time import perf_counter``)."""
        if not isinstance(node.ctx, ast.Load):
            return
        imports = _imports(ctx)
        if node.id in imports.from_time and node.id in _CLOCK_ATTRS:
            self._report(
                ctx, node,
                f"{node.id} (imported from time) reads the wall clock",
            )


# ---------------------------------------------------------------------------
# DET003 — set iteration feeding order-sensitive consumers
# ---------------------------------------------------------------------------


#: Builtins whose result does not depend on iteration order.
_ORDER_NEUTRAL = frozenset(
    {"sorted", "len", "min", "max", "any", "all", "set", "frozenset", "bool"}
)


@register
class UnorderedSetIteration(SyntaxRule):
    """DET003: hash-ordered set iteration reaching an ordered consumer."""

    code = "DET003"
    description = (
        "iteration over a set feeds an order-sensitive consumer; wrap the "
        "set in sorted(...) so downstream hashing/aggregation/spawn order "
        "is deterministic"
    )

    def start_file(self, src: SourceFile, ctx: FileContext) -> None:
        """Prepass: names assigned (or annotated as) sets anywhere in the file."""
        known: set[str] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value, ()):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        known.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if self._is_set_annotation(node.annotation) or (
                    node.value is not None and self._is_set_expr(node.value, ())
                ):
                    known.add(node.target.id)
        ctx.shared("det003_set_names", lambda: known)

    @staticmethod
    def _is_set_annotation(node: ast.expr) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Name) and node.id in ("set", "frozenset")

    @staticmethod
    def _is_set_expr(node: ast.expr, known: tuple | set) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in known
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # union/intersection/difference of sets stays a set
            return UnorderedSetIteration._is_set_expr(
                node.left, known
            ) and UnorderedSetIteration._is_set_expr(node.right, known)
        return False

    def _known(self, ctx: FileContext) -> set:
        return ctx.shared("det003_set_names", set)

    def visit_For(self, node: ast.For, ctx: FileContext) -> None:
        """Flag ``for ... in <set>`` statement loops."""
        if self._is_set_expr(node.iter, self._known(ctx)):
            ctx.report(
                self.code, node.iter,
                "for-loop over a set iterates in hash order; "
                "iterate sorted(...) instead",
            )

    def visit_comprehension(self, node: ast.comprehension, ctx: FileContext) -> None:
        """Flag comprehensions drawing from a set, unless the result is a set."""
        if not self._is_set_expr(node.iter, self._known(ctx)):
            return
        owner = ctx.parent  # the ListComp/SetComp/DictComp/GeneratorExp
        if isinstance(owner, ast.SetComp):
            return  # set -> set: order cannot escape
        if isinstance(owner, ast.GeneratorExp):
            consumer = self._consumer_of(owner, ctx)
            if consumer in _ORDER_NEUTRAL:
                return
        ctx.report(
            self.code, node.iter,
            "comprehension over a set materializes hash order; "
            "draw from sorted(...) instead",
        )

    @staticmethod
    def _consumer_of(gen: ast.GeneratorExp, ctx: FileContext) -> str | None:
        for ancestor in reversed(ctx.ancestors):
            if ancestor is gen:
                continue
            if isinstance(ancestor, ast.Call) and isinstance(
                ancestor.func, ast.Name
            ):
                return ancestor.func.id
            return None
        return None

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        """Flag order-sensitive calls consuming a set directly."""
        known = self._known(ctx)
        consumers: tuple[str, ...]
        if isinstance(node.func, ast.Name):
            if node.func.id in _ORDER_NEUTRAL:
                return
            consumers = ("list", "tuple", "enumerate", "iter", "sum", "map",
                         "filter", "zip", "reversed", "dict")
            if node.func.id not in consumers:
                return
        elif isinstance(node.func, ast.Attribute) and node.func.attr in (
            "join", "extend", "fromkeys"
        ):
            pass
        else:
            return
        for arg in node.args:
            if self._is_set_expr(arg, known):
                ctx.report(
                    self.code, arg,
                    "set consumed in hash order by an order-sensitive "
                    "callable; pass sorted(...) instead",
                )


# ---------------------------------------------------------------------------
# DET004 — bitwise-hazard numpy ops in bit-parity hot paths
# ---------------------------------------------------------------------------


@register
class BitwiseHazardOp(SyntaxRule):
    """DET004: numpy ops with known bitwise-drift hazards in hot paths."""

    code = "DET004"
    description = (
        "bitwise-hazard numpy op in a bit-parity hot path (the PR 6 "
        "lesson: np.clip drifts from branchy clamps); use the branchy "
        "form, or suppress with the justification that makes the site "
        "load-bearing"
    )
    #: Only meaningful with a configured hot-path module list.
    default_enabled = False

    _DEFAULT_OPS = ("clip", "where")

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        """Flag ``np.<op>`` references for the configured op set."""
        if not isinstance(node.ctx, ast.Load):
            return
        ops = tuple(self.options.get("ops", self._DEFAULT_OPS))
        imports = _imports(ctx)
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in imports.numpy
            and node.attr in ops
        ):
            ctx.report(
                self.code, node,
                f"np.{node.attr} in a bit-parity hot path: its bit "
                "behaviour is load-bearing here (branchy clamps replaced "
                "np.clip in PR 6; candidate lattices must come from "
                "np.arange's incremental accumulation since PR 7) — "
                "rewrite, or suppress with the constraint spelled out",
            )


# ---------------------------------------------------------------------------
# DET005 — bare float accumulation in aggregator modules
# ---------------------------------------------------------------------------


@register
class BareFloatAccumulation(SyntaxRule):
    """DET005: order-sensitive accumulation outside the sanctioned types."""

    code = "DET005"
    description = (
        "bare sum()/loop += accumulation in an aggregator module; route "
        "through ExactMoments (or math.fsum) so results "
        "stay bit-identical at any shard/worker/completion order"
    )
    #: Only meaningful with a configured aggregator-module list.
    default_enabled = False

    def _exempt(self, ctx: FileContext) -> bool:
        owner = ctx.enclosing(ast.ClassDef)
        exempt = self.options.get("exempt_classes", ())
        return owner is not None and owner.name in exempt

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        """Flag builtin ``sum(...)`` outside the sanctioned classes."""
        if not (isinstance(node.func, ast.Name) and node.func.id == "sum"):
            return
        if self._exempt(ctx):
            return
        ctx.report(
            self.code, node,
            "bare sum() accumulates left-to-right in iteration order; use "
            "math.fsum or fold through ExactMoments",
        )

    def visit_AugAssign(self, node: ast.AugAssign, ctx: FileContext) -> None:
        """Flag loop-carried ``+=`` accumulation (int counters excluded)."""
        if not isinstance(node.op, ast.Add):
            return
        if not ctx.in_loop():
            return
        if self._exempt(ctx):
            return
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, int):
            return  # integer counter
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and (
            value.func.id in ("len", "int")
        ):
            return  # integer-valued accumulation
        ctx.report(
            self.code, node,
            "loop-carried += accumulation is order-sensitive for floats; "
            "fold through ExactMoments (int counters: "
            "use an integer literal step or len(...))",
        )


# ---------------------------------------------------------------------------
# MP001 — fork-unsafety around worker entry points
# ---------------------------------------------------------------------------


_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
)


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in _MUTABLE_CTORS
        if isinstance(func, ast.Attribute):
            return func.attr in _MUTABLE_CTORS
    return False


@register
class ForkUnsafeState(SyntaxRule):
    """MP001: mutable defaults and worker-reachable module-global state."""

    code = "MP001"
    description = (
        "fork-unsafe state: mutable default arguments, and module-global "
        "mutable containers reachable from worker entry points (state "
        "mutated pre-fork leaks into workers; state mutated in workers "
        "silently diverges from the parent)"
    )

    def start_file(self, src: SourceFile, ctx: FileContext) -> None:
        """Prepass: module-global mutables + the worker-reachable call closure."""
        tree = src.tree
        mutable_globals: dict[str, int] = {}
        functions: dict[str, ast.AST] = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and _is_mutable_value(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        mutable_globals[target.id] = node.lineno
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.value is not None
                and _is_mutable_value(node.value)
            ):
                mutable_globals[node.target.id] = node.lineno
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = node

        entries = [
            name for name in self.options.get("worker_entry_points", ())
            if name in functions
        ]
        reachable: list[str] = []
        pending = list(entries)
        while pending:
            name = pending.pop()
            if name in reachable:
                continue
            reachable.append(name)
            for called in ast.walk(functions[name]):
                if (
                    isinstance(called, ast.Call)
                    and isinstance(called.func, ast.Name)
                    and called.func.id in functions
                    and called.func.id not in reachable
                ):
                    pending.append(called.func.id)

        for name in sorted(reachable):
            func = functions[name]
            reported: set[str] = set()
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in mutable_globals
                    and node.id not in reported
                ):
                    reported.add(node.id)
                    ctx.report(
                        self.code, node,
                        f"worker-reachable function {name}() reads "
                        f"module-global mutable {node.id} (defined at line "
                        f"{mutable_globals[node.id]}); per-process state "
                        "diverges across fork/spawn boundaries — pass it "
                        "through the spec, or suppress with the argument "
                        "why divergence cannot change results",
                    )
                elif isinstance(node, ast.Global):
                    for gname in node.names:
                        if gname in mutable_globals and gname not in reported:
                            reported.add(gname)
                            ctx.report(
                                self.code, node,
                                f"worker-reachable function {name}() declares "
                                f"'global {gname}' over a mutable binding",
                            )

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: FileContext) -> None:
        """Flag mutable default argument values."""
        self._check_defaults(node, ctx)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, ctx: FileContext
    ) -> None:
        """Flag mutable default argument values on async functions."""
        self._check_defaults(node, ctx)

    def _check_defaults(self, node, ctx: FileContext) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_value(default):
                ctx.report(
                    self.code, default,
                    f"mutable default argument on {node.name}(): the object "
                    "is created once at import and shared by every call "
                    "(and every forked worker); default to None and build "
                    "inside the function",
                )
