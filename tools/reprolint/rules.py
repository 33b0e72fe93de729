"""The six engine-invariant rules (R001-R006).

Each rule is a class with a ``code``, a one-line ``summary``, an
``autofixable`` flag, and a ``check(ctx)`` generator yielding
:class:`~reprolint.engine.Finding` objects.  Path-sensitive rules scope
themselves via the module-path suffixes below, so fixture tests can
exercise them by linting snippets under the real engine paths.

The scoping constants encode where each invariant lives today; a new
hot-path module (e.g. a compiled-kernel backend) joins the contract by
adding its suffix here.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import Finding, ModuleContext, ancestors, idents_in

__all__ = ["ALL_RULES", "Rule", "RULES_BY_CODE"]

# ----------------------------------------------------------------------
# Scoping: which invariant applies to which engine modules.
# ----------------------------------------------------------------------
#: Modules whose flooding rounds are the library's hot path (R001, R003).
#: The kernel-backend modules are part of the contract (their bodies ARE
#: the hot path), but see PATH_RULE_EXEMPTIONS below.
HOT_PATH_MODULES = (
    "repro/core/batch.py",
    "repro/sim/flood.py",
    "repro/sim/backends/numpy_backend.py",
    "repro/sim/backends/numba_backend.py",
)

#: Path-scoped rule exemptions: path fragment -> rule codes suppressed for
#: every module whose normalized path contains the fragment.  The compiled
#: kernel backends intentionally write scalar loops (numba compiles them;
#: the pure-Python twins exist so the logic is testable without numba) and
#: allocate per call (the njit kernels fill caller buffers; the fallback
#: shims allocate like numpy always did), so R001/R003 — written for
#: *interpreted* engine code — do not apply there.  Scoped here rather
#: than via inline disables so the exemption is one audited policy line,
#: not a scatter of per-line pragmas (see CONTRIBUTING.md).
#: ``repro/exec/chaos.py`` is the fault-injection harness: its crash/hang/
#: raise schedules must be drawn from a seed universe that can never
#: collide with (or perturb) the simulation streams, so it deliberately
#: builds its own salted ``numpy.random`` generators instead of going
#: through ``repro.sim.rng`` — exactly what R005 exists to forbid in
#: engine code.  The exemption is load-bearing: a test pins that chaos.py
#: trips R005 without it.
PATH_RULE_EXEMPTIONS: dict[str, tuple[str, ...]] = {
    "repro/sim/backends/": ("R001", "R003"),
    "repro/exec/chaos.py": ("R005",),
}

#: Modules that are nothing *but* per-round kernel code: every function
#: there runs once per flooding round, so R001/R003 treat all of their
#: function bodies as kernel scope (no ``neighbor_max*`` name or lexical
#: round loop required).  Today that is exactly the set the path-scoped
#: exemption above suppresses — the contract stays visible and any new
#: non-compiled module under the fragment would need its own entry.
KERNEL_MODULE_FRAGMENTS = ("repro/sim/backends/",)


def _is_kernel_module(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in KERNEL_MODULE_FRAGMENTS)


def exempt_codes_for(path: str) -> frozenset[str]:
    """Rule codes suppressed for ``path`` by the path-scoped config."""
    normalized = path.replace("\\", "/")
    codes: set[str] = set()
    for fragment, fragment_codes in PATH_RULE_EXEMPTIONS.items():
        if fragment in normalized:
            codes.update(fragment_codes)
    return frozenset(codes)

#: The module owning the dtype-ladder color state (R002).
DTYPE_MODULES = ("repro/core/batch.py",)

#: The one module allowed to construct numpy Generators (R005 exemption).
RNG_MODULES = ("repro/sim/rng.py",)

#: Public engine entry points that must validate before array compute
#: (R006): module suffix -> function names.
ENTRY_POINTS = {
    "repro/core/batch.py": ("run_counting_batch", "run_counting_unionstack"),
    "repro/core/sweep.py": ("run_sweep", "run_multi_sweep"),
}

#: Helpers sanctioned to build int64 plan state (R002 exemption): the
#: typed plan validator owns the adversary-value interface, and the
#: widening guards (``if plan_max > _INT32_MAX ...`` or a test of the
#: current ``state_dtype``) own the escalation up the ladder.
SANCTIONED_WIDENING_HELPERS = ("_validate_batch_plan",)
WIDENING_GUARD_IDENTS = {"_INT32_MAX", "_INT32_MIN", "state_dtype"}

#: Identifiers that name per-trial or per-node extents in the engines;
#: a Python loop drawing its iteration space from one of these inside a
#: flooding round is a scalar de-optimization (R001).
TRIAL_NODE_TOKENS = {
    "n",
    "n_pad",
    "rows_n",
    "n_nodes",
    "batch",
    "b_live",
    "n_trials",
    "trials",
    "live",
    "nodes",
    "cols",
}

#: Engine color/plan state arrays covered by the dtype policy (R002).
STATE_TOKENS = {
    "colors",
    "colors_bn",
    "colors_cn",
    "cur",
    "cur_t",
    "sent",
    "recv",
    "recv_t",
    "prev_kt",
    "prev_t",
    "k_last",
    "k_last_t",
}

#: numpy constructors that allocate fresh arrays (R003).
ALLOC_FUNCS = {
    "zeros",
    "empty",
    "full",
    "ones",
    "zeros_like",
    "empty_like",
    "full_like",
    "ones_like",
    "concatenate",
    "stack",
    "hstack",
    "vstack",
    "column_stack",
    "arange",
    "array",
    "tile",
}

#: Scalar adversary hooks and the batch hooks that must accompany them
#: (R004).  ``bind`` is exempt: the base ``bind_batch`` delegates to it.
BATCH_HOOK_PAIRS = (
    ("subphase_plan", "batch_subphase_plan"),
    ("topology_claims", "batch_topology_claims"),
)

#: Entry-point calls whose names mark typed validation (R006).
VALIDATOR_PREFIXES = ("_validate", "_normalize", "_split_seed")


# ----------------------------------------------------------------------
# Shared AST predicates.
# ----------------------------------------------------------------------
def _np_attr_path(node: ast.AST) -> tuple[str, ...] | None:
    """``np.maximum.reduceat`` -> ("np", "maximum", "reduceat")."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        path = tuple(reversed(parts))
        if path[0] in ("np", "numpy"):
            return path
    return None


def _is_round_loop(node: ast.AST) -> bool:
    """A ``for t in range(1, phase + 1)``-shaped flooding-round loop."""
    if not isinstance(node, ast.For):
        return False
    if isinstance(node.target, ast.Name) and node.target.id in ("t", "_t"):
        return True
    call = node.iter
    if (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "range"
    ):
        span = idents_in(ast.Tuple(elts=list(call.args), ctx=ast.Load()))
        return bool(span & {"phase", "rounds"})
    return False


def _in_round_loop(node: ast.AST) -> bool:
    return any(_is_round_loop(parent) for parent in ancestors(node))


def _in_widening_context(node: ast.AST) -> bool:
    """Inside a sanctioned helper or a lazy-widening ``if`` guard."""
    for parent in ancestors(node):
        if (
            isinstance(parent, ast.FunctionDef)
            and parent.name in SANCTIONED_WIDENING_HELPERS
        ):
            return True
        if isinstance(parent, ast.If) and (
            idents_in(parent.test) & WIDENING_GUARD_IDENTS
        ):
            return True
    return False


def _enclosing_function(node: ast.AST) -> ast.FunctionDef | None:
    for parent in ancestors(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return parent  # type: ignore[return-value]
    return None


# ----------------------------------------------------------------------
# Rule base.
# ----------------------------------------------------------------------
class Rule:
    """One engine invariant; subclasses yield findings from ``check``."""

    code = "R000"
    name = "abstract-rule"
    summary = ""
    autofixable = False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            autofixable=self.autofixable,
        )


class ScalarLoopRule(Rule):
    """R001: no Python loops over trials/nodes inside flooding rounds.

    The batched engines spend their rounds in single ``neighbor_max``
    kernel calls over ``(n, B)`` state; a ``for``/``while`` that draws
    its iteration space from a trial or node extent inside a round loop
    (or inside a ``neighbor_max*`` kernel method) reintroduces the
    O(rounds * B) Python overhead the whole stack exists to amortize.
    Per-trial work is legal at subphase granularity and above.
    """

    code = "R001"
    name = "no-scalar-hot-loop"
    summary = "Python loop over trials/nodes inside a flooding round"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.matches(*HOT_PATH_MODULES):
            return
        kernel_module = _is_kernel_module(ctx.path)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.While):
                if _in_round_loop(node):
                    yield self.finding(
                        ctx,
                        node,
                        "while loop inside a flooding round loop; rounds "
                        "must be straight-line vectorized kernel calls",
                    )
                continue
            if not isinstance(node, ast.For) or _is_round_loop(node):
                continue
            span = idents_in(node.iter)
            hot = span & TRIAL_NODE_TOKENS
            if not hot:
                continue
            where = None
            if _in_round_loop(node):
                where = "inside a flooding round loop"
            else:
                func = _enclosing_function(node)
                if func is not None and (
                    func.name.startswith("neighbor_max") or kernel_module
                ):
                    where = f"in kernel method {func.name}()"
            if where is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"Python for-loop over {'/'.join(sorted(hot))} {where}; "
                    "vectorize over the batch axis instead",
                )


class DtypePolicyRule(Rule):
    """R002: engine color state runs on the int8 -> int32 dtype ladder.

    Each phase's color/plan state arrays take the narrowest of int8,
    int16 and int32 that holds the phase's value bound (``state_dtype``
    from the ladder helper) and may only become int64 through the
    sanctioned widening sites: the typed plan validator and blocks
    guarded by the ``_INT32_MAX`` overflow test or a ``state_dtype``
    check.  An unconditional int64 allocation moves eight times the
    bytes of the int8 state a bounded phase needs, on every round.
    ``dtype=int`` is flagged everywhere: it is the platform default
    integer, which breaks the explicit-width policy silently.
    """

    code = "R002"
    name = "dtype-policy"
    summary = "int64/platform-int state allocation off the dtype ladder"
    autofixable = True  # dtype=int -> dtype=np.int64 is a mechanical rewrite

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if (
                    keyword.arg == "dtype"
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id == "int"
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "dtype=int is the platform default integer; spell "
                        "the width explicitly (np.int32 / np.int64)",
                    )
        if not ctx.matches(*DTYPE_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Name) and target.id in STATE_TOKENS):
                continue
            mentions_int64 = any(
                path is not None and path[-1] == "int64"
                for path in map(_np_attr_path, ast.walk(node.value))
            )
            if mentions_int64 and not _in_widening_context(node):
                yield self.finding(
                    ctx,
                    node,
                    f"int64 allocation for engine state '{target.id}' off the "
                    "dtype ladder; allocate with the phase's state_dtype, which "
                    "reaches int64 only under the _INT32_MAX widening guard",
                )


class AllocDisciplineRule(Rule):
    """R003: no array allocation lexically inside per-round loops.

    Every scratch array a flooding round touches is preallocated at
    subphase setup and updated in place (``out=``, ``np.copyto``); an
    allocator call inside the round loop turns O(1) allocations per
    subphase into O(phase) per subphase and defeats the buffer reuse
    the kernels are written around.
    """

    code = "R003"
    name = "no-alloc-in-round"
    summary = "array allocation inside a flooding round loop"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.matches(*HOT_PATH_MODULES):
            return
        kernel_module = _is_kernel_module(ctx.path)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = _np_attr_path(node.func)
            if path is None or len(path) != 2 or path[1] not in ALLOC_FUNCS:
                continue
            in_kernel_body = kernel_module and _enclosing_function(node) is not None
            if (_in_round_loop(node) or in_kernel_body) and not _in_widening_context(
                node
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"np.{path[1]} inside a flooding round loop; preallocate "
                    "the buffer at subphase setup and update in place",
                )


class BatchProtocolRule(Rule):
    """R004: ``Adversary`` subclasses must port the batch protocol.

    A subclass that overrides a scalar hook without the matching batch
    hook silently diverges on the batched engines: the inherited batch
    implementation replays the *base* semantics (or a stale parent's)
    column by column.  Either port the hook pair or wrap the scalar
    class in ``PerTrialAdversaryBatch`` and disable this rule at the
    class definition.
    """

    code = "R004"
    name = "adversary-batch-protocol"
    summary = "Adversary subclass missing its batch protocol hook"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = {
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            }
            if not any(name.endswith("Adversary") for name in base_names):
                continue
            if "PerTrialAdversaryBatch" in base_names:
                continue
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for scalar, batch in BATCH_HOOK_PAIRS:
                if scalar in methods and batch not in methods:
                    yield self.finding(
                        ctx,
                        node,
                        f"{node.name} overrides {scalar}() without "
                        f"{batch}(); port the batch hook or wrap the class "
                        "in PerTrialAdversaryBatch",
                    )


class RngDisciplineRule(Rule):
    """R005: seeded Generators from ``sim/rng.py`` only.

    Global-state ``np.random.*`` calls (and ad-hoc ``default_rng``
    construction) bypass the salted stream-splitting discipline that
    keeps every consumer's draws independent of every other consumer;
    one stray call makes trial reproducibility depend on call order.
    Only ``repro/sim/rng.py`` may construct numpy Generators.
    """

    code = "R005"
    name = "rng-discipline"
    summary = "global-state np.random call outside sim/rng.py"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.matches(*RNG_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = _np_attr_path(node.func)
            if path is not None and len(path) >= 2 and path[1] == "random":
                called = ".".join(path)
                yield self.finding(
                    ctx,
                    node,
                    f"{called}() call outside sim/rng.py; use "
                    "repro.sim.rng.make_rng / stream for seeded Generators",
                )


class EagerValidationRule(Rule):
    """R006: entry points validate inputs before any array compute.

    The public engines promise typed ``ValueError``/``TypeError``
    rejections *before* touching numpy state, so a malformed sweep axis
    fails in microseconds instead of after a partial allocation.  Each
    configured entry point must therefore call one of its validators
    (``_validate*`` / ``_normalize*`` / ``_split_seed*``) before the
    first ``np.*`` call in its body.
    """

    code = "R006"
    name = "eager-validation"
    summary = "entry point computes on arrays before validating inputs"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        entry_names: tuple[str, ...] = ()
        for suffix, names in ENTRY_POINTS.items():
            if ctx.matches(suffix):
                entry_names = names
                break
        if not entry_names:
            return
        for node in ctx.tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name not in entry_names:
                continue
            first_validator: ast.Call | None = None
            first_compute: ast.Call | None = None
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                callee = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else ""
                )
                if callee.startswith(VALIDATOR_PREFIXES):
                    if first_validator is None or (
                        (sub.lineno, sub.col_offset)
                        < (first_validator.lineno, first_validator.col_offset)
                    ):
                        first_validator = sub
                elif _np_attr_path(func) is not None:
                    if first_compute is None or (
                        (sub.lineno, sub.col_offset)
                        < (first_compute.lineno, first_compute.col_offset)
                    ):
                        first_compute = sub
            if first_validator is None:
                yield self.finding(
                    ctx,
                    node,
                    f"entry point {node.name}() never calls a typed "
                    "validator (_validate* / _normalize* / _split_seed*)",
                )
            elif first_compute is not None and (
                (first_compute.lineno, first_compute.col_offset)
                < (first_validator.lineno, first_validator.col_offset)
            ):
                yield self.finding(
                    ctx,
                    first_compute,
                    f"entry point {node.name}() calls "
                    f"np.{_np_attr_path(first_compute.func)[-1]} at line "
                    f"{first_compute.lineno} before its first validator "
                    f"call at line {first_validator.lineno}",
                )


ALL_RULES: tuple[Rule, ...] = (
    ScalarLoopRule(),
    DtypePolicyRule(),
    AllocDisciplineRule(),
    BatchProtocolRule(),
    RngDisciplineRule(),
    EagerValidationRule(),
)

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}
