"""Every wait in the live backend is bounded.

Each ``await`` under ``src/repro/live/`` either runs inside
``asyncio.wait_for`` with a timeout, or sits on :data:`BOUNDED` with
the bound that ends it.  ``asyncio.wait_for`` rather than
``asyncio.timeout``, because the package supports Python 3.10.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.live

LIVE = Path(repro.live.__file__).parent

_BINDS = "binds a localhost listening socket: no peer to wait for"

#: (module, enclosing function, awaited callable or expression) ->
#: what ends the wait.
BOUNDED = {
    ("pool.py", "wait_ready", "loop.run_in_executor"):
        "READY_TIMEOUT: _recv's pipe.poll(timeout) raises TimeoutError",
    ("pool.py", "collect", "loop.run_in_executor"):
        "HARVEST_TIMEOUT: _recv's pipe.poll(timeout), then _join's "
        "join(timeout), terminate() and join(5.0)",
    ("transport.py", "start", "loop.create_server"): _BINDS,
    ("registry.py", "start", "asyncio.start_server"): _BINDS,
    ("scrape.py", "start", "asyncio.start_server"): _BINDS,
    ("registry.py", "_serve", "reader.readline"):
        "one client's connection: the loop ends when the client "
        "leaves or stop() closes its writer",
    ("registry.py", "close", "self._reader_task"):
        "the task is cancelled on the line before; it ends at its "
        "next await",
    ("registry.py", "_listen", "self._reader.readline"):
        "the listening task: ends when close() cancels it",
    ("scrape.py", "_handle", "self._respond"):
        "REQUEST_TIMEOUT: _respond bounds its drain",
    ("runtime.py", "_main", "self._registry_server.start"):
        "RegistryServer.start " + _BINDS,
    ("runtime.py", "_main", "self.registry_client.connect"):
        "DIAL_TIMEOUT",
    ("runtime.py", "_main", "node.stack.start"):
        "LiveStack.start " + _BINDS,
    ("runtime.py", "_main", "self.pool.wait_ready"):
        "READY_TIMEOUT per worker",
    ("runtime.py", "_main", "server.start"):
        "an aux server is a ScrapeServer, whose start " + _BINDS,
    ("runtime.py", "_main", "asyncio.sleep"):
        "the run's remaining seconds",
    ("runtime.py", "_main", "self.pool.collect"):
        "HARVEST_TIMEOUT per worker",
    ("runtime.py", "_main", "self._teardown"):
        "the awaits of _teardown, each on this list",
    ("runtime.py", "_teardown", "server.stop"):
        "ScrapeServer.stop: CLOSE_TIMEOUT",
    ("runtime.py", "_teardown", "asyncio.sleep"):
        "1 ms a turn, for at most SETTLE_SECONDS",
    ("runtime.py", "_teardown", "node.stack.stop"):
        "LiveStack.stop: CLOSE_TIMEOUT",
    ("runtime.py", "_teardown", "self.registry_client.close"):
        "RegistryClient.close: awaits the task it just cancelled",
    ("runtime.py", "_teardown", "self._registry_server.stop"):
        "RegistryServer.stop: CLOSE_TIMEOUT, twice",
}


class _Awaits(ast.NodeVisitor):
    """Collects ``(module, function, await node)`` for one module."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.function = "<module>"
        self.found: list[tuple[str, str, ast.Await]] = []
        self.async_blocks: list[ast.AST] = []

    def visit_FunctionDef(self, node) -> None:
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Await(self, node: ast.Await) -> None:
        self.found.append((self.module, self.function, node))
        self.generic_visit(node)

    def visit_AsyncFor(self, node) -> None:
        self.async_blocks.append(node)
        self.generic_visit(node)

    visit_AsyncWith = visit_AsyncFor


def _walk() -> _Awaits:
    every = _Awaits("")
    for path in sorted(LIVE.glob("*.py")):
        visitor = _Awaits(path.name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        every.found += visitor.found
        every.async_blocks += visitor.async_blocks
    return every


def _awaited(node: ast.Await) -> str:
    value = node.value
    return ast.unparse(value.func if isinstance(value, ast.Call)
                       else value)


def _has_timeout(node: ast.Await) -> bool:
    call = node.value
    if not (isinstance(call, ast.Call)
            and ast.unparse(call.func) == "asyncio.wait_for"):
        return False
    timeout = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "timeout"), None)
    return timeout is not None and not (
        isinstance(timeout, ast.Constant) and timeout.value is None)


def test_every_await_is_bounded():
    walk = _walk()
    assert walk.found, "no await found under repro/live"
    unbounded = [
        f"{module}:{node.lineno} in {function}: await {_awaited(node)}"
        for module, function, node in walk.found
        if not _has_timeout(node)
        and (module, function, _awaited(node)) not in BOUNDED]
    assert unbounded == []


def test_no_async_for_or_with_escapes_the_check():
    assert [ast.unparse(node).splitlines()[0]
            for node in _walk().async_blocks] == []


def test_the_list_names_only_awaits_that_exist():
    seen = {(module, function, _awaited(node))
            for module, function, node in _walk().found}
    assert set(BOUNDED) - seen == set()
