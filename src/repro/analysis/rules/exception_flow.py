"""EXC — whole-program exception-flow rules.

DEC-003 checks each service handler's ``try`` discipline *locally*; this
family turns that into an end-to-end statement over the call graph: for
every entry point, the set of exception types that can escape must be
covered by the declared vocabulary.

Entry points and their vocabularies:

* ``repro.service`` handlers (``do_*`` / ``handle_*``) — may raise
  :class:`ServiceError` subclasses or ``DECODE_ERRORS`` members; the
  cluster infrastructure modules (``cluster`` / ``router`` /
  ``supervise``) additionally declare the transport family
  (``ConnectionError`` / ``OSError`` / ``TimeoutError``), since their
  handlers speak raw sockets to shard processes and their callers
  absorb exactly those.
* the ``repro.parallel`` public API — ``DECODE_ERRORS`` members plus the
  module's own error types (``ParallelJobError``,
  ``DeadlineExceededError``), ``TypeError`` for contract violations,
  ``TimeoutError``, and the injected faults strict mode re-raises in
  their own class (``FaultInjectedError``, ``InjectedKillError``).
* codec entry points (public ``compress*``/``decompress*`` in
  ``repro.core`` / ``repro.baselines``, same definition as OBS-001) —
  ``DECODE_ERRORS`` members plus ``TypeError``.

The analysis is a fixpoint over per-function *escape summaries*: the set
of exception types each function can let out, seeded from its explicit
``raise`` statements and widened through call edges, with ``try`` blocks
absorbing covered types (subclass-aware, through the project/builtin
boundary). It is **optimistic about code it cannot see**: calls into the
stdlib or numpy contribute nothing, so EXC proves that *declared* raises
are covered — it is not a substitute for runtime backstops (DEC-003
still requires them).

Raises whose type cannot be resolved statically (``raise type(e)(...)``,
re-raising a parameter) poison the summary with a ``<dynamic>`` marker
that only a broad ``except Exception`` absorbs. ``raise type(e)(...)``
is proven when ``e`` is bounded: inside ``except T as e`` it escapes as
whatever that handler absorbed (like ``raise e``), and inside
``if isinstance(e, T):`` as the types of ``T``. A dynamic escape at an
entry point is EXC-002 — an *unproven* edge, eligible for the committed
baseline file (see ``repro.analysis.baseline``), unlike EXC-001 findings
which must be fixed.
"""

from __future__ import annotations

import ast
import builtins
import re
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.project import FunctionInfo, ModuleInfo, ProjectModel
from repro.analysis.registry import WholeProgramRule, dotted_name, register

#: Marker for a raise whose type the analysis cannot determine.
DYNAMIC = "<dynamic>"

#: Edge kinds that carry exception flow (refs/spawns do not: a function
#: handed to a thread or server raises on *that* stack, not the caller's).
FLOW_KINDS = ("call", "dynamic", "partial", "higher-order")

HANDLER_NAME = re.compile(r"^(do|handle)_\w+$")
CODEC_NAME = re.compile(r"^(compress|decompress)\w*$")

#: The declared vocabularies, resolved against the model at check time so
#: fixture trees can supply minimal stand-ins at the same module paths.
SERVICE_ERROR_CLASS = "repro.service.schemas.ServiceError"
DECODE_ERRORS_TUPLE = ("repro.encoding.container", "DECODE_ERRORS")
PARALLEL_MODULE = "repro.parallel"
PARALLEL_API = ("compress_chunked", "decompress_chunked",
                "compress_many", "decompress_many")
PARALLEL_EXTRA_VOCAB = ("TypeError", "TimeoutError",
                        "repro.faults.FaultInjectedError",
                        "repro.runtime.durable.InjectedKillError")
CODEC_MODULE_PREFIXES = ("repro.core", "repro.baselines")
CODEC_EXTRA_VOCAB = ("TypeError",)
#: Cluster infrastructure handlers (router forwarding, supervisor
#: probes) additionally speak raw sockets to shard processes, so the
#: transport family is part of their declared contract — their callers
#: (the router's dispatch, the probe loop) absorb exactly these.
CLUSTER_MODULES = ("repro.service.cluster", "repro.service.router",
                   "repro.service.supervise")
CLUSTER_EXTRA_VOCAB = ("ConnectionError", "OSError", "TimeoutError")

_MAX_ROUNDS = 40


def _builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name.rpartition(".")[2], None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


class EscapeAnalyzer:
    """Fixpoint computation of per-function escaping-exception summaries.

    A summary maps type name (project qualname, bare builtin name, or
    ``DYNAMIC``) to a human-readable origin — the qualname of the function
    whose ``raise`` introduced it. Origins are qualnames, not line
    numbers, so baseline entries keyed on them survive unrelated edits.
    """

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.summaries: dict[str, dict[str, str]] = {
            q: {} for q in model.functions}
        self._edges_by_line: dict[str, dict[int, list[str]]] = {}
        for qual, fn in model.functions.items():
            lines: dict[int, list[str]] = {}
            for edge in fn.edges:
                if edge.kind in FLOW_KINDS:
                    lines.setdefault(edge.line, []).append(edge.callee)
            self._edges_by_line[qual] = lines

    # -- driver ------------------------------------------------------------

    def run(self) -> None:
        for _ in range(_MAX_ROUNDS):
            changed = False
            for qual, fn in self.model.functions.items():
                new = self._function_escapes(fn)
                if new.keys() != self.summaries[qual].keys():
                    self.summaries[qual] = new
                    changed = True
            if not changed:
                return

    # -- per-function analysis ---------------------------------------------

    def _function_escapes(self, fn: FunctionInfo) -> dict[str, str]:
        mod = self.model.modules[fn.module]
        local_exc = self._local_exception_assigns(fn, mod)
        if isinstance(fn.node, ast.Lambda):
            return self._expr_escapes(fn, fn.node.body)
        body = getattr(fn.node, "body", [])
        return self._block(fn, mod, body, local_exc, absorbed=None,
                           bound_name=None)

    def _local_exception_assigns(self, fn: FunctionInfo,
                                 mod: ModuleInfo) -> dict[str, list[str]]:
        """``name -> [type]`` for ``x = SomeError(...)`` assigns in ``fn``."""
        out: dict[str, list[str]] = {}
        for node in ast.walk(fn.node):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)):
                name = dotted_name(node.value.func)
                if name is None:
                    continue
                typ = self._resolve_type(mod, name)
                if typ is not None:
                    out[node.targets[0].id] = [typ]
        return out

    def _isinstance_bound(self, mod: ModuleInfo,
                          test: ast.expr) -> dict[str, list[str]]:
        """``name -> types`` when ``test`` is ``isinstance(name, T)`` with
        every entry of ``T`` resolvable; ``{}`` otherwise."""
        if not (isinstance(test, ast.Call)
                and isinstance(test.func, ast.Name)
                and test.func.id == "isinstance" and len(test.args) == 2
                and isinstance(test.args[0], ast.Name)):
            return {}
        types = self._type_list(mod, test.args[1])
        if "<unresolved>" in types:
            return {}
        return {test.args[0].id: types}

    def _block(self, fn, mod, stmts, local_exc,
               absorbed, bound_name) -> dict[str, str]:
        esc: dict[str, str] = {}
        for stmt in stmts:
            esc.update(self._stmt(fn, mod, stmt, local_exc,
                                  absorbed, bound_name))
        return esc

    def _stmt(self, fn, mod, stmt, local_exc,
              absorbed, bound_name) -> dict[str, str]:
        if isinstance(stmt, ast.Try):
            return self._try(fn, mod, stmt, local_exc, absorbed, bound_name)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return {}
        if isinstance(stmt, ast.Raise):
            esc = self._expr_escapes(fn, stmt)
            esc.update(self._raised(fn, mod, stmt, local_exc,
                                    absorbed, bound_name))
            return esc
        if isinstance(stmt, ast.If):
            esc = self._expr_escapes(fn, stmt.test)
            bound = self._isinstance_bound(mod, stmt.test)
            esc.update(self._block(fn, mod, stmt.body,
                                   {**local_exc, **bound},
                                   absorbed, bound_name))
            esc.update(self._block(fn, mod, stmt.orelse, local_exc,
                                   absorbed, bound_name))
            return esc
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            esc = self._expr_escapes(fn, stmt.iter)
            esc.update(self._block(fn, mod, stmt.body, local_exc,
                                   absorbed, bound_name))
            esc.update(self._block(fn, mod, stmt.orelse, local_exc,
                                   absorbed, bound_name))
            return esc
        if isinstance(stmt, ast.While):
            esc = self._expr_escapes(fn, stmt.test)
            esc.update(self._block(fn, mod, stmt.body, local_exc,
                                   absorbed, bound_name))
            esc.update(self._block(fn, mod, stmt.orelse, local_exc,
                                   absorbed, bound_name))
            return esc
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            esc = {}
            for item in stmt.items:
                esc.update(self._expr_escapes(fn, item.context_expr))
            esc.update(self._block(fn, mod, stmt.body, local_exc,
                                   absorbed, bound_name))
            return esc
        return self._expr_escapes(fn, stmt)

    def _try(self, fn, mod, stmt: ast.Try, local_exc,
             absorbed, bound_name) -> dict[str, str]:
        body = self._block(fn, mod, stmt.body, local_exc,
                           absorbed, bound_name)
        body.update(self._block(fn, mod, stmt.orelse, local_exc,
                                absorbed, bound_name))
        remaining = dict(body)
        out: dict[str, str] = {}
        for handler in stmt.handlers:
            caught = self._handler_types(mod, handler)
            hit = {t: o for t, o in remaining.items()
                   if self._absorbs(caught, t)}
            for t in hit:
                remaining.pop(t)
            out.update(self._block(
                fn, mod, handler.body, local_exc,
                absorbed=hit, bound_name=handler.name))
        out.update(remaining)
        out.update(self._block(fn, mod, stmt.finalbody, local_exc,
                               absorbed, bound_name))
        return out

    def _handler_types(self, mod: ModuleInfo,
                       handler: ast.ExceptHandler) -> list[str]:
        if handler.type is None:
            return ["BaseException"]
        return self._type_list(mod, handler.type)

    def _type_list(self, mod: ModuleInfo, expr: ast.expr,
                   _depth: int = 0) -> list[str]:
        """Flatten a handler type expression into resolved type names.

        Follows module-level tuple aliases (``except DECODE_ERRORS``)
        across modules; unresolvable entries become ``<unresolved>``,
        which absorbs nothing.
        """
        if _depth > 6:
            return ["<unresolved>"]
        if isinstance(expr, ast.Tuple):
            out: list[str] = []
            for elt in expr.elts:
                out.extend(self._type_list(mod, elt, _depth + 1))
            return out
        if isinstance(expr, ast.Starred):          # (*DECODE_ERRORS, ...)
            return self._type_list(mod, expr.value, _depth + 1)
        name = dotted_name(expr)
        if name is None:
            return ["<unresolved>"]
        typ = self._resolve_type(mod, name)
        if typ is not None:
            return [typ]
        alias = self._resolve_tuple_alias(mod, name)
        if alias is not None:
            amod, value = alias
            return self._type_list(amod, value, _depth + 1)
        return ["<unresolved>"]

    def _resolve_type(self, mod: ModuleInfo, name: str) -> str | None:
        qual = self.model.resolve_class(mod, name)
        if qual is not None:
            return qual
        if "." not in name and _builtin_exception(name):
            return name
        return None

    def _resolve_tuple_alias(
            self, mod: ModuleInfo,
            name: str) -> tuple[ModuleInfo, ast.expr] | None:
        """Find the Tuple expression behind a name like ``DECODE_ERRORS``."""
        head, _, rest = name.partition(".")
        if not rest and head in mod.assigns:
            return mod, mod.assigns[head]
        expanded = self.model.expand_name(mod, name)
        hit = self.model._split_module(expanded)
        if hit is None:
            return None
        amod, attr = hit
        if "." not in attr and attr in amod.assigns:
            return amod, amod.assigns[attr]
        return None

    def _absorbs(self, caught: list[str], raised: str) -> bool:
        for c in caught:
            if c == "<unresolved>":
                continue
            if raised == DYNAMIC:
                if c in ("BaseException", "Exception"):
                    return True
                continue
            if self.model.is_subtype(raised, c):
                return True
        return False

    def _raised(self, fn, mod, node: ast.Raise, local_exc,
                absorbed, bound_name) -> dict[str, str]:
        origin = fn.qualname
        if node.exc is None:                       # bare raise: re-raise
            if absorbed:
                return dict(absorbed)
            return {}
        exc = node.exc
        if isinstance(exc, ast.Call):
            func = exc.func
            if (isinstance(func, ast.Call) and dotted_name(func.func) == "type"
                    and len(func.args) == 1
                    and isinstance(func.args[0], ast.Name)):
                # raise type(e)(...): e's own class, when e is bounded
                arg = func.args[0].id
                if arg == bound_name:
                    return dict(absorbed or {})
                if arg in local_exc:
                    return {t: origin for t in local_exc[arg]}
            name = dotted_name(exc.func)
            if name is not None:
                typ = self._resolve_type(mod, name)
                if typ is not None:
                    return {typ: origin}
                if self.model.resolve_function(mod, name) is not None:
                    # raising a factory's return value: unprovable
                    return {DYNAMIC: origin}
            return {DYNAMIC: origin}
        name = dotted_name(exc)
        if name is not None:
            if name == bound_name:                 # raise e  (as-bound)
                # re-raise exactly what the handler provably absorbed —
                # possibly nothing, matching the optimism about externals
                return dict(absorbed or {})
            if name in local_exc:                  # e = Err(...); raise e
                return {t: origin for t in local_exc[name]}
            typ = self._resolve_type(mod, name)
            if typ is not None:                    # raise ValueError
                return {typ: origin}
        return {DYNAMIC: origin}

    def _expr_escapes(self, fn: FunctionInfo,
                      node: ast.AST) -> dict[str, str]:
        """Escapes contributed by calls inside one expression/statement."""
        esc: dict[str, str] = {}
        lines = self._edges_by_line.get(fn.qualname, {})
        stack: list[ast.AST] = [node]
        while stack:
            cur = stack.pop()
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(cur, ast.Call):
                for callee in lines.get(cur.lineno, ()):
                    esc.update(self.summaries.get(callee, {}))
            stack.extend(ast.iter_child_nodes(cur))
        return esc


def get_escape_analyzer(model: ProjectModel) -> EscapeAnalyzer:
    """Build (or reuse) the fixpoint for this model — EXC-001/002 share it."""
    cached = getattr(model, "_escape_analyzer", None)
    if cached is None:
        cached = EscapeAnalyzer(model)
        cached.run()
        model._escape_analyzer = cached  # type: ignore[attr-defined]
    return cached


# --------------------------------------------------------------------------
# entry points and vocabularies


def _decode_errors(model: ProjectModel) -> list[str]:
    modname, attr = DECODE_ERRORS_TUPLE
    mod = model.modules.get(modname)
    if mod is None or attr not in mod.assigns:
        return []
    analyzer = get_escape_analyzer(model)
    return [t for t in analyzer._type_list(mod, mod.assigns[attr])
            if t != "<unresolved>"]


def _vocab_closure(model: ProjectModel, names: Iterable[str]) -> list[str]:
    return [n for n in names if n]


def iter_entry_points(model: ProjectModel):
    """Yield (FunctionInfo, vocabulary type names, vocabulary label)."""
    decode = _decode_errors(model)
    service_err = ([SERVICE_ERROR_CLASS]
                   if SERVICE_ERROR_CLASS in model.classes else [])
    for qual, fn in sorted(model.functions.items()):
        if fn.parent is not None or fn.cls is not None:
            continue
        in_service = (fn.module == "repro.service"
                      or fn.module.startswith("repro.service."))
        in_codec = any(fn.module == p or fn.module.startswith(p + ".")
                       for p in CODEC_MODULE_PREFIXES)
        if fn.module in CLUSTER_MODULES and HANDLER_NAME.match(fn.name):
            vocab = _vocab_closure(
                model, service_err + decode + list(CLUSTER_EXTRA_VOCAB))
            yield fn, vocab, "cluster transport vocabulary"
        elif in_service and HANDLER_NAME.match(fn.name):
            vocab = _vocab_closure(model, service_err + decode)
            yield fn, vocab, "ServiceError/DECODE_ERRORS vocabulary"
        elif fn.module == PARALLEL_MODULE and fn.name in PARALLEL_API:
            own_errors = [
                c for c in model.classes
                if model.classes[c].module == PARALLEL_MODULE
                and model.is_subtype(c, "Exception")]
            vocab = _vocab_closure(
                model, decode + own_errors + list(PARALLEL_EXTRA_VOCAB))
            yield fn, vocab, "parallel API error vocabulary"
        elif in_codec and CODEC_NAME.match(fn.name):
            vocab = _vocab_closure(model, decode + list(CODEC_EXTRA_VOCAB))
            yield fn, vocab, "DECODE_ERRORS vocabulary"


def _simple(type_name: str) -> str:
    return type_name.rpartition(".")[2]


@register
class ExceptionVocabularyCovered(WholeProgramRule):
    id = "EXC-001"
    family = "exception-flow"
    description = ("exception type escaping a service/codec entry point "
                   "outside the declared error vocabulary")
    rationale = ("clients and retry logic dispatch on the declared error "
                 "types; an undeclared escape turns into a 500 with no "
                 "reason slug and breaks the error-handling contract the "
                 "paper's robustness claims rest on")

    def check_program(self, model: ProjectModel) -> Iterable[Diagnostic]:
        analyzer = get_escape_analyzer(model)
        for fn, vocab, label in iter_entry_points(model):
            esc = analyzer.summaries.get(fn.qualname, {})
            for typ in sorted(esc):
                if typ == DYNAMIC:
                    continue
                if not any(model.is_subtype(typ, v) for v in vocab):
                    yield self.pdiag(
                        fn.relpath, fn.line,
                        f"{fn.qualname}: {_simple(typ)} can escape "
                        f"(raised in {esc[typ]}) but is not in the "
                        f"declared {label}")


@register
class ExceptionFlowProven(WholeProgramRule):
    id = "EXC-002"
    family = "exception-flow"
    description = ("dynamically-typed raise reaches an entry point: the "
                   "escape set cannot be proven statically")
    rationale = ("a `raise type(e)(...)` or re-raised unknown value makes "
                 "the whole-program proof vacuous for this entry point; "
                 "either type the raise or record the edge in the reviewed "
                 "baseline file with a justification")

    def check_program(self, model: ProjectModel) -> Iterable[Diagnostic]:
        analyzer = get_escape_analyzer(model)
        for fn, _vocab, label in iter_entry_points(model):
            esc = analyzer.summaries.get(fn.qualname, {})
            if DYNAMIC in esc:
                yield self.pdiag(
                    fn.relpath, fn.line,
                    f"{fn.qualname}: a dynamically-typed raise in "
                    f"{esc[DYNAMIC]} can escape this entry point, so "
                    f"coverage of the {label} cannot be proven")
