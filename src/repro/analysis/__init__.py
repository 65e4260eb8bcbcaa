"""Statistical analysis helpers and durable experiment records."""

from repro.analysis.stats import Summary, replicate, summarize
from repro.analysis.traces import (dump_result, load_result,
                                   result_from_json, result_to_json)

__all__ = ["Summary", "replicate", "summarize",
           "dump_result", "load_result", "result_from_json",
           "result_to_json"]
