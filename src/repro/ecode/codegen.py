"""Code generation: E-code AST → native Python function.

This is the reproduction of E-code's *dynamic binary code generation*:
a filter arrives as a source string, is parsed and type-checked, and is
then translated into a Python :mod:`ast` module function which
``compile()`` turns into CPython bytecode — compiled **at the host that
will execute it**, exactly as the paper describes (only the target ISA
differs; see DESIGN.md §2).

Safety properties of the generated code:

* no access to anything but the filter's ``input``/``output`` arrays,
  declared variables, whitelisted builtins, and the guarded
  :class:`~repro.ecode.runtime.ExecEnv`;
* every loop body is instrumented with an execution-budget check, so a
  runaway filter raises :class:`~repro.errors.EcodeLimitError` instead
  of hanging the (simulated) kernel.
"""

from __future__ import annotations

import ast as py
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.ecode import ast_nodes as A
from repro.ecode.analyzer import AnalysisResult, EType, analyze
from repro.ecode.parser import parse
from repro.ecode.runtime import (BUILTINS, ExecEnv, FilterResult,
                                 InputView, KEYED_BUILTINS, KeyedSample,
                                 MetricRecord, OutputArray,
                                 SKETCH_BUILTINS, SketchSpace)
from repro.errors import EcodeError, EcodeRuntimeError, EcodeSyntaxError

__all__ = ["CompiledFilter", "compile_filter", "DEFAULT_MAX_STEPS"]

#: Default loop-iteration budget for one filter invocation.
DEFAULT_MAX_STEPS = 100_000

_FUNC_NAME = "__ecode_filter__"


def _name(ident: str, store: bool = False) -> py.Name:
    return py.Name(id=ident, ctx=py.Store() if store else py.Load())


def _const(value: object) -> py.Constant:
    return py.Constant(value=value)


def _call(func: py.expr, args: list[py.expr]) -> py.Call:
    return py.Call(func=func, args=args, keywords=[])


def _method(obj: str, method: str, args: list[py.expr]) -> py.Call:
    return _call(py.Attribute(value=_name(obj), attr=method,
                              ctx=py.Load()), args)


def _truthy(expr: py.expr) -> py.expr:
    """C truthiness: expression != 0."""
    return py.Compare(left=expr, ops=[py.NotEq()],
                      comparators=[_const(0)])


def _bool_to_int(test: py.expr) -> py.expr:
    """Wrap a Python boolean expression as a C int (1/0)."""
    return py.IfExp(test=test, body=_const(1), orelse=_const(0))


_ARITH_OPS: dict[str, py.operator] = {
    "+": py.Add(), "-": py.Sub(), "*": py.Mult(),
}

_CMP_OPS: dict[str, py.cmpop] = {
    "==": py.Eq(), "!=": py.NotEq(), "<": py.Lt(),
    "<=": py.LtE(), ">": py.Gt(), ">=": py.GtE(),
}


def _block_has_loop_control(block: A.Block) -> bool:
    """True when ``break``/``continue`` binds to *this* loop level
    (nested loops capture their own control statements)."""
    def scan(stmts: list[A.Stmt]) -> bool:
        for stmt in stmts:
            if isinstance(stmt, (A.Break, A.Continue)):
                return True
            if isinstance(stmt, A.If):
                if scan(stmt.then_body.statements):
                    return True
                if stmt.else_body is not None \
                        and scan(stmt.else_body.statements):
                    return True
            elif isinstance(stmt, A.Block):
                if scan(stmt.statements):
                    return True
            # For/While swallow their own break/continue: don't descend.
        return False

    return scan(block.statements)


class _Generator:
    def __init__(self, analysis: AnalysisResult) -> None:
        self.analysis = analysis
        #: Innermost-first loop contexts: "while" (native Python
        #: break/continue) or a break-flag name for wrapped for-loops.
        self._loop_stack: list[str] = []
        self._flag_ids = 0

    # -- expressions -----------------------------------------------------------

    def expr(self, node: A.Expr) -> py.expr:
        if isinstance(node, A.IntLiteral):
            return _const(node.value)
        if isinstance(node, A.FloatLiteral):
            return _const(node.value)
        if isinstance(node, A.Name):
            const = getattr(node, "_const", None)
            if const is not None:
                value = float(const)
                return _const(int(value) if value.is_integer() else value)
            return _name(node._symbol.mangled)  # type: ignore[attr-defined]
        if isinstance(node, A.Binary):
            return self.binary(node)
        if isinstance(node, A.Unary):
            inner = self.expr(node.operand)
            if node.op == "-":
                return py.UnaryOp(op=py.USub(), operand=inner)
            if node.op == "+":
                return inner
            # '!'
            return _bool_to_int(py.Compare(
                left=inner, ops=[py.Eq()], comparators=[_const(0)]))
        if isinstance(node, A.Index):
            # Only input[] reads reach codegen as expressions.
            return _method("__input__", "fetch", [self.expr(node.index)])
        if isinstance(node, A.Attribute):
            return py.Attribute(value=self.expr(node.base),
                                attr=node.name, ctx=py.Load())
        if isinstance(node, A.Call):
            args = [self.expr(a) for a in node.args]
            if node.func in SKETCH_BUILTINS:
                return _method("__sketch__", node.func, args)
            if node.func in KEYED_BUILTINS:
                return _method("__env__", node.func, args)
            return _call(_name(f"__bi_{node.func}__"), args)
        raise EcodeError(  # pragma: no cover - analyzer is exhaustive
            f"cannot generate code for {type(node).__name__}")

    def binary(self, node: A.Binary) -> py.expr:
        op = node.op
        if op in ("&&", "||"):
            left = _truthy(self.expr(node.left))
            right = _truthy(self.expr(node.right))
            boolop = py.And() if op == "&&" else py.Or()
            return _bool_to_int(py.BoolOp(op=boolop,
                                          values=[left, right]))
        if op in _CMP_OPS:
            return _bool_to_int(py.Compare(
                left=self.expr(node.left), ops=[_CMP_OPS[op]],
                comparators=[self.expr(node.right)]))
        left = self.expr(node.left)
        right = self.expr(node.right)
        both_int = (self._etype(node.left) is EType.INT
                    and self._etype(node.right) is EType.INT)
        if op == "/":
            method = "idiv" if both_int else "fdiv"
            return _method("__env__", method, [left, right])
        if op == "%":
            return _method("__env__", "imod", [left, right])
        return py.BinOp(left=left, op=_ARITH_OPS[op], right=right)

    @staticmethod
    def _etype(node: A.Expr) -> EType:
        return node._etype  # type: ignore[attr-defined]

    def _coerce(self, expr: py.expr, target: EType,
                source: EType) -> py.expr:
        """Apply C conversion on assignment (double → int truncates)."""
        if target is EType.INT and source is EType.DOUBLE:
            return _call(_name("__trunc__"), [expr])
        if target is EType.DOUBLE and source is EType.INT:
            return _call(_name("float"), [expr])
        return expr

    # -- statements -----------------------------------------------------------

    def block(self, block: A.Block) -> list[py.stmt]:
        out: list[py.stmt] = []
        for stmt in block.statements:
            out.extend(self.statement(stmt))
        return out

    def statement(self, stmt: A.Stmt) -> list[py.stmt]:
        if isinstance(stmt, A.VarDecl):
            sym = stmt._symbol  # type: ignore[attr-defined]
            if stmt.init is not None:
                value = self._coerce(self.expr(stmt.init), sym.etype,
                                     self._etype(stmt.init))
            else:
                value = _const(0 if sym.etype is EType.INT else 0.0)
            return [py.Assign(targets=[_name(sym.mangled, store=True)],
                              value=value)]
        if isinstance(stmt, A.Assign):
            return [self.assign(stmt)]
        if isinstance(stmt, A.IncDec):
            sym = stmt.target._symbol  # type: ignore[attr-defined]
            one: py.expr = _const(1 if sym.etype is EType.INT else 1.0)
            op = py.Add() if stmt.op == "++" else py.Sub()
            return [py.AugAssign(target=_name(sym.mangled, store=True),
                                 op=op, value=one)]
        if isinstance(stmt, A.ExprStmt):
            return [py.Expr(value=self.expr(stmt.expr))]
        if isinstance(stmt, A.If):
            orelse = (self.block(stmt.else_body)
                      if stmt.else_body is not None else [])
            return [py.If(test=_truthy(self.expr(stmt.cond)),
                          body=self.block(stmt.then_body) or [py.Pass()],
                          orelse=orelse)]
        if isinstance(stmt, A.For):
            return self._for_loop(stmt)
        if isinstance(stmt, A.While):
            self._loop_stack.append("while")
            try:
                body = [py.Expr(value=_method("__env__", "tick", []))]
                body.extend(self.block(stmt.body))
            finally:
                self._loop_stack.pop()
            return [py.While(test=_truthy(self.expr(stmt.cond)),
                             body=body, orelse=[])]
        if isinstance(stmt, A.Break):
            ctx = self._loop_stack[-1]
            if ctx == "while":
                return [py.Break()]
            # Wrapped for-loop: set the flag, leave the once-wrapper.
            return [py.Assign(targets=[_name(ctx, store=True)],
                              value=_const(True)),
                    py.Break()]
        if isinstance(stmt, A.Continue):
            ctx = self._loop_stack[-1]
            if ctx == "while":
                return [py.Continue()]
            # Wrapped for-loop: leaving the once-wrapper runs the step.
            return [py.Break()]
        if isinstance(stmt, A.Return):
            value = (self.expr(stmt.value)
                     if stmt.value is not None else _const(None))
            return [py.Return(value=value)]
        if isinstance(stmt, A.Block):
            return self.block(stmt)
        raise EcodeError(  # pragma: no cover - exhaustive
            f"cannot generate code for {type(stmt).__name__}")

    def _for_loop(self, stmt: A.For) -> list[py.stmt]:
        """Compile a C for-loop.

        Without loop-control statements the body and step inline into a
        Python ``while``.  With ``break``/``continue`` the body runs
        inside a single-pass ``for`` wrapper so that ``continue`` (a
        Python ``break`` of the wrapper) still executes the step, and
        ``break`` sets a flag checked after the wrapper.
        """
        out: list[py.stmt] = []
        if stmt.init is not None:
            out.extend(self.statement(stmt.init))
        test = (_truthy(self.expr(stmt.cond))
                if stmt.cond is not None else _const(True))
        tick = py.Expr(value=_method("__env__", "tick", []))
        needs_wrapper = _block_has_loop_control(stmt.body)
        if not needs_wrapper:
            self._loop_stack.append("while")  # unused but balanced
            try:
                body: list[py.stmt] = [tick]
                body.extend(self.block(stmt.body))
            finally:
                self._loop_stack.pop()
            if stmt.step is not None:
                body.extend(self.statement(stmt.step))
            out.append(py.While(test=test, body=body, orelse=[]))
            return out

        self._flag_ids += 1
        flag = f"__brk{self._flag_ids}__"
        self._loop_stack.append(flag)
        try:
            inner = self.block(stmt.body) or [py.Pass()]
        finally:
            self._loop_stack.pop()
        once = py.For(
            target=_name(f"__once{self._flag_ids}__", store=True),
            iter=py.Tuple(elts=[_const(0)], ctx=py.Load()),
            body=inner, orelse=[])
        body = [tick,
                py.Assign(targets=[_name(flag, store=True)],
                          value=_const(False)),
                once,
                py.If(test=_name(flag), body=[py.Break()], orelse=[])]
        if stmt.step is not None:
            body.extend(self.statement(stmt.step))
        out.append(py.While(test=test, body=body, orelse=[]))
        return out

    def assign(self, stmt: A.Assign) -> py.stmt:
        target = stmt.target
        if isinstance(target, A.Name):
            sym = target._symbol  # type: ignore[attr-defined]
            if stmt.op == "=":
                value = self._coerce(self.expr(stmt.value), sym.etype,
                                     self._etype(stmt.value))
                return py.Assign(
                    targets=[_name(sym.mangled, store=True)], value=value)
            # Desugar augmented assignment: x op= v  →  x = x op v,
            # applying the same operator typing rules as Binary.
            op = stmt.op[0]
            synthetic = A.Binary(op=op, left=target, right=stmt.value,
                                 line=stmt.line, column=stmt.column)
            vt = self._etype(stmt.value)
            result_type = (EType.DOUBLE
                           if EType.DOUBLE in (sym.etype, vt)
                           else EType.INT)
            synthetic._etype = result_type  # type: ignore[attr-defined]
            value = self._coerce(self.binary(synthetic), sym.etype,
                                 result_type)
            return py.Assign(
                targets=[_name(sym.mangled, store=True)], value=value)
        if isinstance(target, A.Index):
            return py.Expr(value=_method(
                "__output__", "store",
                [self.expr(target.index), self.expr(stmt.value)]))
        # Attribute on an output slot: output[i].field = value
        assert isinstance(target, A.Attribute)
        base = target.base
        assert isinstance(base, A.Index)
        return py.Expr(value=_method(
            "__output__", "set_field",
            [self.expr(base.index), _const(target.name),
             self.expr(stmt.value)]))

    # -- function assembly ------------------------------------------------------

    def build_module(self) -> py.Module:
        args = py.arguments(
            posonlyargs=[],
            args=[py.arg(arg="__input__"), py.arg(arg="__output__"),
                  py.arg(arg="__env__"), py.arg(arg="__sketch__")],
            kwonlyargs=[], kw_defaults=[], defaults=[])
        body = self.block(self.analysis.program.body) or [py.Pass()]
        func = py.FunctionDef(name=_FUNC_NAME, args=args, body=body,
                              decorator_list=[], returns=None)
        module = py.Module(body=[func], type_ignores=[])
        py.fix_missing_locations(module)
        return module


@dataclass
class CompiledFilter:
    """A dynamically generated, executable monitoring filter."""

    source: str
    constants: dict[str, float]
    max_steps: int
    _pyfunc: object
    has_loops: bool
    #: Sketch calls make a filter *stateful*: the same sketch space is
    #: handed to every invocation, so count-min/top-K contents persist
    #: across polls until :meth:`reset_state`.
    uses_sketch: bool = False
    #: Filter reads the keyed record stream (per-PID table) or emits.
    uses_keyed: bool = False
    _sketch: SketchSpace = field(default_factory=SketchSpace)

    def run(self, records: Sequence[MetricRecord],
            keyed: Optional[Sequence[KeyedSample]] = None) -> FilterResult:
        """Execute the filter over ``records``.

        Returns the records the filter placed in ``output[]`` (what
        d-mon will publish) plus any explicit return value, and — for
        keyed filters — the ``(key, value)`` pairs it emitted over the
        optional per-key record table ``keyed``.
        """
        view = InputView(records)
        output = OutputArray()
        env = ExecEnv(self.max_steps, keyed=keyed)
        try:
            returned = self._pyfunc(  # type: ignore[operator]
                view, output, env, self._sketch)
        except EcodeError:
            raise
        except ZeroDivisionError as exc:  # pragma: no cover - guarded
            raise EcodeRuntimeError(str(exc)) from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise EcodeRuntimeError(
                f"filter execution failed: {exc}") from exc
        return FilterResult(outputs=output.collect(),
                            returned=returned, steps=env.steps,
                            emitted=env.emitted)

    __call__ = run

    def reset_state(self) -> None:
        """Drop persistent sketch state (restart-epoch hygiene)."""
        self._sketch.reset()

    def sketch_state(self) -> bytes:
        """Deterministic serialisation of the filter's sketch state."""
        return self._sketch.snapshot()


def compile_filter(source: str,
                   constants: Optional[Mapping[str, float]] = None,
                   max_steps: int = DEFAULT_MAX_STEPS) -> CompiledFilter:
    """Compile E-code ``source`` into an executable filter.

    Parameters
    ----------
    constants:
        Named integer/float constants visible to the filter — in dproc
        these are the metric indices (``LOADAVG``, ``FREEMEM``, ...).
    max_steps:
        Loop-iteration budget per invocation.
    """
    constants = dict(constants or {})
    program = parse(source)
    analysis = analyze(program, constants)
    module = _Generator(analysis).build_module()
    try:
        code = compile(module, filename="<ecode>", mode="exec")
    except SyntaxError as exc:
        # CPython's fixed static limits, such as 20 nested loops: the
        # same source fails the same way wherever it is compiled.
        raise EcodeSyntaxError(
            f"filter exceeds a compiler limit: {exc.msg}") from None
    namespace: dict[str, object] = {
        "__builtins__": {"float": float, "int": int},
        "__trunc__": lambda x: int(x) if x >= 0 else -int(-x),
    }
    for name, (_arity, impl) in BUILTINS.items():
        namespace[f"__bi_{name}__"] = impl
    exec(code, namespace)  # noqa: S102 - deliberate dynamic codegen
    return CompiledFilter(source=source, constants=constants,
                          max_steps=max_steps,
                          _pyfunc=namespace[_FUNC_NAME],
                          has_loops=analysis.has_loops,
                          uses_sketch=analysis.uses_sketch,
                          uses_keyed=analysis.uses_keyed)
