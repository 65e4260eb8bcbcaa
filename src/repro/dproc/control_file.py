"""Parsing of text written to dproc control files.

"For each node entry in /proc/cluster, there is also an associated
control file, which a user-space application can modify to (a) specify
monitoring parameters (e.g., thresholds or update periods) and
(b) deploy dynamically generated filters" (paper §2).

Command grammar (one command per line; ``filter`` consumes the rest of
the write so multi-line E-code sources pass through verbatim)::

    period    <metric|module|*> <seconds>
    threshold <metric|module|*> above <v> | below <v>
                                | change <pct> | range <lo> <hi>
    clear     <metric|module|*> period|threshold
    filter    <metric|module|*> [id=<filter-id>] <e-code source ...>
    unfilter  <filter-id>

Lines starting with ``#`` and blank lines are ignored.

This module is the only place that knows the grammar.  The writer
parses a write here, before anything is sent, and ships each command
as its normalized text (:attr:`ControlCommand.text`); the target d-mon
parses that text here again and applies the result.  What only the
target can check — which metrics its modules produce, whether a filter
compiles, which filter ids it holds — is checked there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.dproc.params import ThresholdRule, parse_threshold_spec
from repro.errors import ControlSyntaxError

__all__ = ["ControlCommand", "parse_control_text", "parse_command"]


@dataclass(frozen=True)
class ControlCommand:
    """One parsed control-file command.

    ``value`` is already checked: the period in seconds (finite,
    positive) for ``period``, a :class:`ThresholdRule` for
    ``threshold``, the parameter to clear (``"period"`` or
    ``"threshold"``) for ``clear``, the E-code source for ``filter``
    and None for ``unfilter``.  ``metric`` is the metric spec as
    written (``""`` for ``unfilter``); ``filter_id`` is the id a
    ``filter`` gave with ``id=`` or the id to ``unfilter``.  ``text``
    is the command's normalized text: its header words joined by
    single spaces, then a filter's source.  It parses back to an equal
    command.
    """

    verb: str
    metric: str
    value: Optional[float | ThresholdRule | str]
    text: str
    filter_id: str = ""


def parse_control_text(text: str) -> list[ControlCommand]:
    """Parse a control-file write into its commands, in order.

    Raises :class:`ControlSyntaxError` for the first command the
    grammar rejects, so a bad write sends nothing.
    """
    commands: list[ControlCommand] = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        verb = words[0].lower()
        if verb == "filter":
            # The filter source is everything after the header on this
            # line plus all remaining lines of the write.
            commands.append(_filter(words, lines[i + 1:]))
            break
        commands.append(_command(verb, words))
    if not commands:
        raise ControlSyntaxError("empty control write")
    return commands


def parse_command(text: str) -> ControlCommand:
    """Parse one control message's text, which holds one command."""
    commands = parse_control_text(text)
    if len(commands) != 1:
        raise ControlSyntaxError(
            f"a control message carries one command, not {len(commands)}")
    return commands[0]


def _command(verb: str, words: list[str]) -> ControlCommand:
    text = " ".join([verb, *words[1:]])
    if verb == "period":
        if len(words) != 3:
            raise ControlSyntaxError("usage: period <metric|*> <seconds>")
        return ControlCommand(verb, words[1], _period(words[2]), text)
    if verb == "threshold":
        if len(words) < 3:
            raise ControlSyntaxError(
                "usage: threshold <metric|*> <spec...>")
        return ControlCommand(verb, words[1],
                              parse_threshold_spec(words[2:]), text)
    if verb == "clear":
        if len(words) != 3:
            raise ControlSyntaxError(
                "usage: clear <metric|*> period|threshold")
        if words[2] not in ("period", "threshold"):
            raise ControlSyntaxError(f"unknown parameter {words[2]!r}")
        return ControlCommand(verb, words[1], words[2], text)
    if verb == "unfilter":
        if len(words) != 2:
            raise ControlSyntaxError("usage: unfilter <filter-id>")
        return ControlCommand(verb, "", None, text, filter_id=words[1])
    raise ControlSyntaxError(f"unknown control command {verb!r}")


def _filter(words: list[str], more: list[str]) -> ControlCommand:
    if len(words) < 2:
        raise ControlSyntaxError(
            "usage: filter <metric|*> [id=<id>] <source>")
    header, rest = ["filter", words[1]], words[2:]
    filter_id = ""
    if rest and rest[0].startswith("id="):
        filter_id = rest[0][3:]
        if not filter_id:
            raise ControlSyntaxError("empty filter id")
        header.append(rest.pop(0))
    source = "\n".join([" ".join(rest), *more]) if more \
        else " ".join(rest)
    if not source.strip():
        raise ControlSyntaxError("empty filter source")
    return ControlCommand("filter", words[1], source,
                          " ".join(header) + " " + source,
                          filter_id=filter_id)


def _period(word: str) -> float:
    try:
        seconds = float(word)
    except ValueError:
        raise ControlSyntaxError(f"bad period {word!r}") from None
    if not seconds > 0 or not math.isfinite(seconds):
        raise ControlSyntaxError(
            f"update period must be positive, got {word!r}")
    return seconds
