"""RNG discipline rules.

Every stochastic draw in this codebase must flow from a
:class:`numpy.random.Generator` threaded through :mod:`repro.rng`.
Global entropy (``np.random.*`` module functions, the stdlib
``random`` module) breaks the seed-to-output contract the equivalence
suites rely on, and a hard-coded seed buried inside library code makes
a component *look* stochastic while silently pinning its draws.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint._util import build_import_map, qualified_name
from repro.lint.core import Finding, LintContext, Rule, register_rule
from repro.lint.dataflow import iter_scopes

#: Deterministic constructors living under ``numpy.random`` that are
#: legitimate everywhere (types and bit generators, not entropy draws).
_ALLOWED_NP_RANDOM = frozenset(
    {
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: ``repro.rng`` coercion helpers whose *literal-seed* use RNG002 flags.
_RNG_FACTORIES = frozenset({"make_rng", "derive_rng"})


@register_rule
class GlobalRandomRule(Rule):
    """RNG001: no global RNG calls outside ``repro/rng.py``."""

    rule_id = "RNG001"
    summary = (
        "global RNG call (np.random.* / random.*); thread a seeded "
        "np.random.Generator through repro.rng instead"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        # rng.py is the single sanctioned owner of default_rng().
        return not ctx.is_rng_module

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        imports = build_import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, imports)
            if qual is None:
                continue
            if qual.startswith("numpy.random."):
                leaf = qual.rsplit(".", 1)[1]
                if leaf not in _ALLOWED_NP_RANDOM:
                    yield self.finding(
                        ctx,
                        node,
                        f"call to {qual} bypasses seeded-RNG plumbing; "
                        "use repro.rng.make_rng / an injected Generator",
                    )
            elif qual == "random" or qual.startswith("random."):
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib random call {qual} is unseedable per-component; "
                    "use repro.rng.make_rng / an injected Generator",
                )


@register_rule
class HardcodedSeedRule(Rule):
    """RNG002: no literal seeds baked into library code.

    ``make_rng(42)`` inside the package pins a component's draws no
    matter what the caller seeded the scenario with.  Literal seeds
    belong in experiment drivers, benchmarks and tests — library code
    must accept the seed (or Generator) from its caller.
    """

    rule_id = "RNG002"
    summary = "hard-coded integer seed in library code"

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.is_library_code

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        imports = build_import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            qual = qualified_name(node.func, imports)
            if qual is None:
                continue
            leaf = qual.rsplit(".", 1)[-1]
            if leaf not in _RNG_FACTORIES and qual != "numpy.random.default_rng":
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, int
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{leaf}({first.value!r}) pins this component's draws; "
                    "accept the seed/Generator from the caller",
                )


#: Leaf names that *derive* rather than capture: passing a Generator
#: into these is legal borrowing (they coerce or fork, never store).
_DERIVE_LEAVES = frozenset(
    {"make_rng", "derive_rng", "spawn_rng", "default_rng"}
)

#: Keyword names whose argument is a hand-off: the callee adopts the
#: stream as its own (stores or coerces it into private state).
_HANDOFF_KEYWORDS = frozenset({"seed", "rng"})


@register_rule
class StreamAliasRule(Rule):
    """RNG003: no Generator reuse after a hand-off (stream aliasing).

    Flow-aware: per scope, local ``Generator`` variables (created by an
    RNG factory, or ``rng``-named / ``Generator``-annotated
    parameters) are tracked through the scope in program order.  Once
    the stream is *handed off* — passed to a constructor
    (capitalised callee) or bound to a ``seed=`` / ``rng=`` keyword —
    any further use aliases it: two subsystems now interleave draws
    from one bit stream, so adding a draw in one silently shifts every
    draw in the other.  Derivation helpers (``derive_rng``,
    ``spawn_rng``, ``make_rng``) are exempt — forking a child stream
    is exactly the sanctioned alternative — and plain lowercase calls
    (``jitter(rng, ...)``) are borrows, not hand-offs.

    The call-site-only RNG001 cannot see this: every individual call
    is legal; only the *sequence* (hand-off, then reuse) is the bug.
    """

    rule_id = "RNG003"
    summary = (
        "Generator reused after being handed off to a subsystem; "
        "derive a child stream (repro.rng.derive_rng/spawn_rng) "
        "per consumer instead"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.is_library_code and not ctx.is_rng_module

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for scope, body in iter_scopes(ctx.tree):
            yield from self._check_scope(ctx, scope, body)

    @staticmethod
    def _leaf(func: ast.expr) -> str | None:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _is_factory(self, value: ast.expr) -> bool:
        return (
            isinstance(value, ast.Call)
            and self._leaf(value.func) in _DERIVE_LEAVES
        )

    @staticmethod
    def _is_rng_param(arg: ast.arg) -> bool:
        if arg.arg == "rng":
            return True
        ann = arg.annotation
        return ann is not None and "Generator" in ast.unparse(ann)

    def _check_scope(
        self,
        ctx: LintContext,
        scope: ast.FunctionDef | ast.AsyncFunctionDef | None,
        body: list[ast.stmt],
    ) -> Iterator[Finding]:
        #: var -> None (owned, not yet handed off) | hand-off label.
        owned: dict[str, str | None] = {}
        if scope is not None:
            args = scope.args
            params = (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            )
            for arg in params:
                if self._is_rng_param(arg):
                    owned[arg.arg] = None
        events = sorted(
            (
                node
                for node in _scope_nodes(body)
                if isinstance(node, (ast.Assign, ast.Call))
            ),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for node in events:
            if isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    name = node.targets[0].id
                    if self._is_factory(node.value):
                        owned[name] = None  # fresh stream
                    else:
                        owned.pop(name, None)  # rebound away
                continue
            yield from self._check_call(ctx, node, owned)

    def _check_call(
        self,
        ctx: LintContext,
        call: ast.Call,
        owned: dict[str, str | None],
    ) -> Iterator[Finding]:
        leaf = self._leaf(call.func)
        derives = leaf in _DERIVE_LEAVES
        # Drawing from (or touching) a handed-off stream, e.g.
        # ``rng.random()`` after ``Mac(..., seed=rng)``.
        if (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and owned.get(call.func.value.id) is not None
        ):
            name = call.func.value.id
            yield self.finding(
                ctx,
                call,
                f"generator '{name}' was handed off to "
                f"{owned[name]} and is drawn from again here; the "
                "two consumers now interleave one bit stream — "
                "derive a child stream per consumer",
            )
            return
        for kind, value in _call_argument_slots(call):
            if not isinstance(value, ast.Name):
                continue
            name = value.id
            if name not in owned:
                continue
            handed = owned[name]
            if handed is not None and not derives:
                yield self.finding(
                    ctx,
                    call,
                    f"generator '{name}' was handed off to {handed} "
                    "and is passed to a second consumer here; one "
                    "stream now feeds two subsystems — derive a "
                    "child stream per consumer",
                )
                continue
            if derives:
                continue  # forking a child stream is the sanctioned path
            is_ctor = leaf is not None and leaf[:1].isupper()
            if kind in _HANDOFF_KEYWORDS or is_ctor:
                target = leaf if leaf is not None else "a callee"
                owned[name] = f"'{target}' (line {call.lineno})"


def _scope_nodes(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """All AST nodes in one scope, nested scopes excluded."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _call_argument_slots(
    call: ast.Call,
) -> Iterator[tuple[str | None, ast.expr]]:
    """Yield ``(keyword_or_None, value)`` for every argument."""
    for arg in call.args:
        yield None, arg
    for kw in call.keywords:
        yield kw.arg, kw.value
