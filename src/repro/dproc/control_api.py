"""Control-file writes built in code.

The control-file grammar (:mod:`repro.dproc.control_file`) is the one
control API: an application writes text to
``/proc/cluster/<node>/control``.  :func:`topk_filter` returns such
text.  :class:`ControlRequest` and :class:`FilterCommand` render a
filter deployment to the same text; :meth:`repro.dproc.Dproc.write`
accepts a request in place of the string::

    dproc.write("/proc/cluster/maui/control", ControlRequest([
        FilterCommand(metric="cpu", filter_id="half",
                      source="{ return 1; }")]))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ControlSyntaxError

__all__ = ["ControlRequest", "FilterCommand", "topk_filter", "topk_source"]


@dataclass(frozen=True)
class FilterCommand:
    """``filter <metric|*> [id=<id>] <e-code source...>``.

    The grammar lets a filter consume the rest of the write, so a
    request may contain at most one filter command and it must come
    last (:class:`ControlRequest` enforces this).  The metric and the
    id are single words: the grammar splits them off at whitespace.
    """

    source: str
    metric: str = "*"
    filter_id: str = ""

    def __post_init__(self) -> None:
        if not self.source.strip():
            raise ControlSyntaxError("empty filter source")
        if not self.metric or any(c.isspace() for c in self.metric):
            raise ControlSyntaxError(f"bad filter metric {self.metric!r}")
        if any(c.isspace() for c in self.filter_id):
            raise ControlSyntaxError(f"bad filter id {self.filter_id!r}")
        if not self.filter_id and self.source.lstrip().startswith("id="):
            raise ControlSyntaxError(
                "filter source starting with 'id=' needs an explicit "
                "filter_id to render unambiguously")

    def render(self) -> str:
        head = f"filter {self.metric}"
        if self.filter_id:
            head += f" id={self.filter_id}"
        return f"{head} {self.source}"


@dataclass(frozen=True)
class ControlRequest:
    """An ordered batch of control commands for one control-file write."""

    commands: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "commands", tuple(self.commands))
        if not self.commands:
            raise ControlSyntaxError("empty control request")
        for i, cmd in enumerate(self.commands):
            if isinstance(cmd, FilterCommand) and i != len(self.commands) - 1:
                raise ControlSyntaxError(
                    "a filter command consumes the rest of the write "
                    "and must be the last command in a request")

    def render(self) -> str:
        """Render to the control-file text grammar."""
        return "\n".join(cmd.render() for cmd in self.commands)


#: Keyed-table column accessors a top-K filter can rank by.
_TOPK_COLUMNS = {"cpu": "proc_cpu", "mem": "proc_mem", "io": "proc_io"}


def topk_source(k: int, by: str = "cpu", *, width: int = 512,
                depth: int = 4, seed: int = 1) -> str:
    """E-code source for a sketch-backed top-K process filter.

    The generated filter folds every per-process row into a seeded
    count-min sketch (bounded memory, monotone estimates), keeps the
    ``k`` heaviest keys in a bounded heap, and ``emit``\\ s only those
    (pid, weight) pairs — so a monitor asking for "top-K processes by
    CPU" ships K pairs per poll instead of the full per-PID table.
    """
    try:
        column = _TOPK_COLUMNS[by]
    except KeyError:
        raise ControlSyntaxError(
            f"topk 'by' must be one of {sorted(_TOPK_COLUMNS)}, "
            f"got {by!r}") from None
    k, width, depth, seed = int(k), int(width), int(depth), int(seed)
    if k < 1:
        raise ControlSyntaxError("topk k must be >= 1")
    if width < 1 or depth < 1:
        raise ControlSyntaxError("sketch width and depth must be >= 1")
    return (
        "{\n"
        f"    int c = cms_new({width}, {depth}, {seed});\n"
        f"    int t = topk_new({k});\n"
        "    int n = nproc();\n"
        "    int i;\n"
        "    int pid;\n"
        "    double w;\n"
        "    for (i = 0; i < n; i = i + 1) {\n"
        "        pid = proc_pid(i);\n"
        f"        w = cms_add(c, pid, {column}(i));\n"
        "        topk_offer(t, pid, w);\n"
        "    }\n"
        "    n = topk_size(t);\n"
        "    for (i = 0; i < n; i = i + 1) {\n"
        "        emit(topk_key(t, i), topk_weight(t, i));\n"
        "    }\n"
        "    return cms_total(c);\n"
        "}\n")


def topk_filter(k: int, by: str = "cpu", *, width: int = 512,
                depth: int = 4, seed: int = 1, metric: str = "proc",
                filter_id: str = "topk") -> str:
    """Control-file text that deploys a top-K filter.

    ``metric`` scopes the filter (``"proc"`` governs just the process
    module's keyed rows; ``"*"`` governs every keyed row on the node)::

        dproc.write("/proc/cluster/maui/control", topk_filter(5))
    """
    source = topk_source(k, by, width=width, depth=depth, seed=seed)
    return FilterCommand(
        source=source, metric=metric, filter_id=filter_id).render()
