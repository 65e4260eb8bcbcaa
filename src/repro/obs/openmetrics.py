"""OpenMetrics / Prometheus text exposition over telemetry registries.

:func:`render_openmetrics` turns a cluster's per-node
:class:`~repro.telemetry.TelemetryRegistry` instruments (plus an
optional health verdict) into the OpenMetrics text format the live
``/metrics`` endpoint serves: counters as ``_total`` samples, gauges
plain, histograms as cumulative ``_bucket{le=...}`` ladders with
``_sum``/``_count``, every sample labelled ``node="<host>"``.

:func:`parse_openmetrics` is the deliberately tiny validating parser
the CI scrape smoke and ``harness obs --watch`` use: it checks the
family/sample grammar, ``# EOF`` termination, and type consistency,
and hands back the samples — it is not a full OpenMetrics
implementation (no exemplars, no timestamps).

Rendering is a pure read: sorted nodes, sorted instrument names, no
wall-clock timestamps, so the same cluster state always yields the
same bytes.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Optional

from repro.obs.tsdb import ObsError
from repro.telemetry.instruments import Counter, Gauge, Histogram

__all__ = ["render_openmetrics", "parse_openmetrics",
           "CONTENT_TYPE", "Sample"]

#: The content type the scrape endpoint declares.
CONTENT_TYPE = ("application/openmetrics-text; version=1.0.0; "
                "charset=utf-8")

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$")
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>[^"]*)"$')


def metric_name(instrument_name: str, prefix: str = "repro") -> str:
    """Map a dotted instrument name to an OpenMetrics family name."""
    flat = instrument_name.replace(".", "_").replace("-", "_")
    return f"{prefix}_{flat}" if prefix else flat


def _fmt(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labelstr(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def render_openmetrics(registries: Mapping[str, object],
                       health: Optional[dict] = None,
                       prefix: str = "repro") -> str:
    """Render per-node registries (name → registry) as OpenMetrics text.

    ``health`` is an optional health-engine verdict document
    (:meth:`repro.obs.health.HealthEngine.verdict`); when given, a
    ``<prefix>_health_ok`` gauge per rule/subject and an overall
    ``<prefix>_healthy`` gauge are appended.
    """
    # family name -> (type, [(labels, value), ...]); insertion keyed on
    # sorted traversal so the output is stable.
    families: dict[str, tuple[str, list]] = {}

    def fam(name: str, kind: str) -> list:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = (kind, [])
        elif entry[0] != kind:
            raise ObsError(
                f"metric family {name!r} rendered as both "
                f"{entry[0]} and {kind}")
        return entry[1]

    for node in sorted(registries):
        registry = registries[node]
        for iname in registry.names():
            instrument = registry.get(iname)
            base = metric_name(iname, prefix)
            labels = {"node": node}
            if isinstance(instrument, Counter):
                fam(base, "counter").append(
                    ({**labels}, instrument.value, "_total"))
            elif isinstance(instrument, Gauge):
                fam(base, "gauge").append(({**labels},
                                           instrument.value, ""))
            elif isinstance(instrument, Histogram):
                rows = fam(base, "histogram")
                cumulative = 0
                for edge, count in zip(instrument.bounds,
                                       instrument.counts):
                    cumulative += count
                    rows.append(({**labels, "le": _fmt(edge)},
                                 cumulative, "_bucket"))
                rows.append(({**labels, "le": "+Inf"},
                             instrument.count, "_bucket"))
                rows.append(({**labels}, instrument.total, "_sum"))
                rows.append(({**labels}, instrument.count, "_count"))
    if health is not None:
        rows = fam(f"{prefix}_health_ok", "gauge")
        for check in health.get("rules", []):
            rows.append(({"rule": check["rule"],
                          "subject": check.get("subject", "cluster")},
                         0.0 if check["status"] != "healthy" else 1.0,
                         ""))
        fam(f"{prefix}_healthy", "gauge").append(
            ({}, 1.0 if health.get("healthy", True) else 0.0, ""))

    lines: list[str] = []
    for name in families:
        kind, rows = families[name]
        if not _NAME_OK.match(name):  # pragma: no cover - defensive
            raise ObsError(f"bad metric name {name!r}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value, suffix in rows:
            lines.append(f"{name}{suffix}{_labelstr(labels)} "
                         f"{_fmt(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class Sample:
    """One parsed sample line."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str],
                 value: float) -> None:
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Sample {self.name}{self.labels} {self.value}>"


def parse_openmetrics(text: str) -> dict[str, dict]:
    """Validate exposition ``text``; returns family → parsed document.

    The result maps family name to ``{"type": ..., "samples":
    [Sample, ...]}``.  Raises :class:`ObsError` on grammar violations:
    missing ``# EOF``, samples for undeclared families with suffixes,
    malformed label sets, non-numeric values, duplicate TYPE lines.
    """
    if not text.endswith("\n"):
        raise ObsError("exposition must end with a newline")
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ObsError("exposition must terminate with '# EOF'")
    families: dict[str, dict] = {}
    for lineno, line in enumerate(lines[:-1], start=1):
        if not line:
            raise ObsError(f"line {lineno}: blank line in exposition")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP",
                                                  "UNIT"):
                raise ObsError(f"line {lineno}: bad comment {line!r}")
            if parts[1] == "TYPE":
                name = parts[2]
                if len(parts) < 4:
                    raise ObsError(
                        f"line {lineno}: TYPE without a type")
                if name in families:
                    raise ObsError(
                        f"line {lineno}: duplicate TYPE for {name!r}")
                families[name] = {"type": parts[3], "samples": []}
            continue
        m = _SAMPLE.match(line)
        if m is None:
            raise ObsError(f"line {lineno}: bad sample {line!r}")
        sample_name = m.group("name")
        family = _family_of(sample_name, families)
        if family is None:
            raise ObsError(
                f"line {lineno}: sample {sample_name!r} has no "
                f"preceding TYPE")
        labels: dict[str, str] = {}
        raw = m.group("labels")
        if raw:
            for part in raw.split(","):
                lm = _LABEL.match(part)
                if lm is None:
                    raise ObsError(
                        f"line {lineno}: bad label {part!r}")
                labels[lm.group("key")] = lm.group("val")
        value_text = m.group("value")
        try:
            value = float(value_text)
        except ValueError:
            raise ObsError(
                f"line {lineno}: non-numeric value {value_text!r}")
        families[family]["samples"].append(
            Sample(sample_name, labels, value))
    return families


def _family_of(sample_name: str,
               families: Mapping[str, dict]) -> Optional[str]:
    if sample_name in families:
        return sample_name
    for suffix in ("_total", "_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families:
                return base
    return None
