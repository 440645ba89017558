"""simlint checker: pure probes must not mutate observable state.

A function is a *probe* when its name matches ``*_pure`` / ``would_*``
or it carries a ``@pure_probe`` decorator.  Inside a probe (including
nested helpers) the checker flags:

* assignment (plain, augmented, annotated) through an attribute or
  subscript whose root is a parameter (``self`` included) or any
  non-local name;
* ``del`` of such a target;
* calls to known-mutating methods (``append``, ``heappush``,
  ``__setitem__``-family, ...) whose receiver roots outside the probe's
  own locals, including ``heapq.heappush(target, ...)``-style
  free-function forms;
* any RNG draw (``random.*``, method calls on ``rng``-ish names,
  ``Random(...)`` construction).

Mutating *fresh local* state (a list the probe just built) is fine --
that is how ``_quiet_chain`` assembles its growth heap.
"""

from __future__ import annotations

import ast

from repro.staticcheck.astutil import (
    FunctionNode,
    decorator_names,
    local_names,
    root_name,
)
from repro.staticcheck.core import Checker, register

#: Method names that mutate their receiver.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "push",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
        "write",
    }
)

#: Free functions whose first argument is mutated in place.
MUTATING_FUNCTIONS = frozenset(
    {"heappush", "heappop", "heapify", "heappushpop", "heapreplace", "setattr", "delattr"}
)

#: RNG method names drawn from ``random.Random``'s public surface.
RNG_METHODS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

_RNG_NAME_HINTS = ("rng", "random")


def is_probe(fn: FunctionNode) -> bool:
    if fn.name.endswith("_pure") or fn.name.startswith("would_"):
        return True
    return "pure_probe" in decorator_names(fn)


def _rngish(name: str | None) -> bool:
    return name is not None and any(hint in name.lower() for hint in _RNG_NAME_HINTS)


class _ProbeBody(ast.NodeVisitor):
    """Walks one probe's body with knowledge of its local bindings."""

    def __init__(self, checker: PurityChecker, fn: FunctionNode) -> None:
        self.checker = checker
        self.fn = fn
        params = {a.arg for a in fn.args.args}
        params.update(a.arg for a in fn.args.posonlyargs)
        params.update(a.arg for a in fn.args.kwonlyargs)
        if fn.args.vararg is not None:
            params.add(fn.args.vararg.arg)
        if fn.args.kwarg is not None:
            params.add(fn.args.kwarg.arg)
        self.params = params
        self.locals = local_names(fn)

    def _is_local(self, name: str | None) -> bool:
        return name is not None and name in self.locals and name not in self.params

    def _check_store_target(self, target: ast.expr, verb: str) -> None:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = root_name(target)
            if not self._is_local(root):
                where = root or "<expression>"
                self.checker.report(
                    target,
                    f"probe {self.fn.name!r} {verb} through non-local "
                    f"{where!r} (attribute/subscript write)",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store_target(elt, verb)
        elif isinstance(target, ast.Starred):
            self._check_store_target(target.value, verb)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target, "assigns")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target, "assigns")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_store_target(node.target, "assigns")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store_target(target, "deletes")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver_root = root_name(func.value)
            if func.attr in MUTATING_METHODS and not self._is_local(receiver_root):
                self.checker.report(
                    node,
                    f"probe {self.fn.name!r} calls mutating method "
                    f".{func.attr}() on non-local {receiver_root or '<expression>'!r}",
                )
            if func.attr in RNG_METHODS and _rngish(receiver_root):
                self.checker.report(
                    node,
                    f"probe {self.fn.name!r} draws RNG via "
                    f"{receiver_root}.{func.attr}()",
                )
            if func.attr in MUTATING_FUNCTIONS and node.args:
                first = root_name(node.args[0])
                if not self._is_local(first):
                    self.checker.report(
                        node,
                        f"probe {self.fn.name!r} calls {func.attr}() on "
                        f"non-local {first or '<expression>'!r}",
                    )
        elif isinstance(func, ast.Name):
            if func.id in MUTATING_FUNCTIONS and node.args:
                first = root_name(node.args[0])
                if not self._is_local(first):
                    self.checker.report(
                        node,
                        f"probe {self.fn.name!r} calls {func.id}() on "
                        f"non-local {first or '<expression>'!r}",
                    )
            if func.id == "Random" or _rngish(func.id):
                self.checker.report(
                    node, f"probe {self.fn.name!r} constructs/draws RNG via {func.id}()"
                )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.fn:
            self.generic_visit(node)
        # Nested defs were folded into ``local_names``; keep walking so
        # their bodies obey the enclosing probe's contract too.
        else:
            self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


@register
class PurityChecker(Checker):
    name = "purity"

    def _visit_fn(self, node: FunctionNode) -> None:
        if is_probe(node):
            _ProbeBody(self, node).visit(node)
        else:
            # Only recurse looking for nested probes.
            self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_fn(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_fn(node)
