"""Statistical analysis helpers and durable experiment records."""

from repro.analysis.stats import replicate
from repro.analysis.traces import (dump_result, load_result,
                                   result_from_json, result_to_json)

__all__ = ["replicate", "dump_result", "load_result", "result_from_json",
           "result_to_json"]
