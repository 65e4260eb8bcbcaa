"""ControlRequest and FilterCommand: rendering a filter deployment to the
control-file text, and the checks that keep that text unambiguous."""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.dproc import (ControlRequest, DMonConfig, FilterCommand,
                         parse_control_text, topk_filter)
from repro.errors import ControlSyntaxError


class TestRender:
    def test_filter_with_id(self):
        cmd = FilterCommand(metric="cpu", filter_id="f1",
                            source="{ output[0] = input[LOADAVG]; }")
        assert cmd.render() == \
            "filter cpu id=f1 { output[0] = input[LOADAVG]; }"

    def test_rendered_text_parses_to_the_same_filter(self):
        cmd = FilterCommand(metric="cpu", filter_id="f1",
                            source="{ return 1; }")
        (msg,) = parse_control_text(ControlRequest([cmd]).render())
        assert (msg.verb, msg.metric, msg.filter_id, msg.value) == \
            ("filter", "cpu", "f1", "{ return 1; }")

    def test_topk_filter_is_control_text(self):
        text = topk_filter(3, "cpu")
        assert isinstance(text, str)
        assert text.startswith("filter proc id=topk {")


class TestValidation:
    def test_empty_filter_source(self):
        with pytest.raises(ControlSyntaxError):
            FilterCommand(source="   ")

    def test_ambiguous_filter_source(self):
        with pytest.raises(ControlSyntaxError):
            FilterCommand(source="id=looks-like-an-id { }")

    def test_bad_filter_id(self):
        # "filter cpu id=two words { ... }" would deploy filter "two"
        # with source "words { ... }".
        with pytest.raises(ControlSyntaxError, match="filter id"):
            FilterCommand(source="{ return 1; }", filter_id="two words")
        with pytest.raises(ControlSyntaxError, match="filter id"):
            topk_filter(3, filter_id="my top")

    @pytest.mark.parametrize("metric", ["", "cpu mem", "cpu\tmem"])
    def test_bad_filter_metric(self, metric):
        with pytest.raises(ControlSyntaxError, match="filter metric"):
            FilterCommand(source="{ return 1; }", metric=metric)

    def test_empty_filter_id_means_no_id(self):
        assert FilterCommand(source="{ return 1; }", metric="cpu",
                             filter_id="").render() == \
            "filter cpu { return 1; }"

    def test_empty_request(self):
        with pytest.raises(ControlSyntaxError):
            ControlRequest([])

    def test_filter_must_be_last(self):
        with pytest.raises(ControlSyntaxError):
            ControlRequest([FilterCommand(source="{ }"),
                            FilterCommand(source="{ }")])


class TestDprocWrite:
    def test_write_accepts_request(self):
        sc = Scenario(nodes=2, seed=3,
                      dmon=DMonConfig(poll_interval=1.0)).run_until(2.0)
        dprocs = sc.dprocs
        dprocs["alan"].write(
            "/proc/cluster/maui/control",
            ControlRequest([FilterCommand(
                metric="cpu", filter_id="half",
                source="{ output[0] = input[LOADAVG];"
                       " output[0].value = input[LOADAVG].value * 0.5; }")]))
        sc.run_until(4.0)
        deployed = dprocs["maui"].dmon.filters.filter_for("cpu")
        assert deployed is not None and deployed.filter_id == "half"
        log = dprocs["alan"].read("/proc/cluster/maui/control")
        assert "filter cpu id=half" in log
