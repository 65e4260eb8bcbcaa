"""Unit tests for control-file command parsing."""

from __future__ import annotations

import pytest

from repro.dproc import AboveThreshold, RangeThreshold, parse_control_text
from repro.dproc.control_file import parse_command
from repro.errors import ControlSyntaxError


def parse(text):
    return parse_control_text(text)


class TestPeriod:
    def test_simple(self):
        (msg,) = parse("period cpu 2")
        assert msg.verb == "period"
        assert msg.metric == "cpu" and msg.value == 2.0
        assert msg.text == "period cpu 2"

    def test_wildcard_metric(self):
        (msg,) = parse("period * 0.5")
        assert msg.metric == "*"

    def test_bad_period_value(self):
        with pytest.raises(ControlSyntaxError):
            parse("period cpu fast")
        with pytest.raises(ControlSyntaxError):
            parse("period cpu 0")
        with pytest.raises(ControlSyntaxError):
            parse("period cpu")

    def test_nonfinite_period_fails_at_writer(self):
        """``period cpu inf`` used to pass the writer and be rejected
        only at the target: one grammar now refuses it at both."""
        for bad in ("inf", "nan", "1e400", "-inf"):
            with pytest.raises(ControlSyntaxError, match="positive"):
                parse(f"period cpu {bad}")


class TestThreshold:
    def test_above(self):
        (msg,) = parse("threshold loadavg above 0.8")
        assert msg.verb == "threshold"
        assert msg.value == AboveThreshold(0.8)
        assert msg.text == "threshold loadavg above 0.8"

    def test_range(self):
        (msg,) = parse("threshold freemem range 1e6 5e7")
        assert msg.value == RangeThreshold(1e6, 5e7)
        assert msg.text == "threshold freemem range 1e6 5e7"

    def test_change(self):
        (msg,) = parse("threshold * change 15")
        assert msg.value.spec() == "change 15"

    def test_invalid_spec_fails_at_writer(self):
        with pytest.raises(ControlSyntaxError):
            parse("threshold cpu sideways 5")
        with pytest.raises(ControlSyntaxError):
            parse("threshold cpu")
        with pytest.raises(ControlSyntaxError, match="bad number"):
            parse("threshold cpu above nan")


class TestClear:
    def test_clear_period(self):
        (msg,) = parse("clear cpu period")
        assert msg.verb == "clear"
        assert msg.value == "period"

    def test_clear_threshold(self):
        (msg,) = parse("clear * threshold")
        assert msg.value == "threshold"

    def test_bad_clear(self):
        with pytest.raises(ControlSyntaxError, match="unknown parameter"):
            parse("clear cpu everything")


class TestFilter:
    def test_single_line_filter(self):
        (msg,) = parse("filter * { output[0] = input[LOADAVG]; }")
        assert msg.verb == "filter"
        assert msg.metric == "*"
        assert "output[0]" in msg.value

    def test_multiline_filter_consumes_rest(self):
        text = """filter cpu id=f9
{
    int i = 0;
    if (input[LOADAVG].value > 2) {
        output[i] = input[LOADAVG];
    }
}"""
        (msg,) = parse(text)
        assert msg.filter_id == "f9"
        assert msg.metric == "cpu"
        assert "int i = 0;" in msg.value
        assert msg.value.count("{") == msg.value.count("}")
        assert msg.text == "filter cpu id=f9 " + msg.value

    def test_filter_id_optional(self):
        (msg,) = parse("filter mem { output[0] = input[FREEMEM]; }")
        assert msg.filter_id == ""

    def test_empty_filter_rejected(self):
        with pytest.raises(ControlSyntaxError, match="empty"):
            parse("filter *")
        with pytest.raises(ControlSyntaxError, match="empty"):
            parse("filter * id=x")

    def test_empty_id_rejected(self):
        with pytest.raises(ControlSyntaxError, match="empty filter id"):
            parse("filter * id= { }")

    def test_unfilter(self):
        (msg,) = parse("unfilter f9")
        assert msg.verb == "unfilter"
        assert msg.filter_id == "f9"

    def test_unfilter_needs_id(self):
        with pytest.raises(ControlSyntaxError):
            parse("unfilter")


class TestGeneral:
    def test_multiple_commands(self):
        msgs = parse("period cpu 2\nthreshold cpu above 0.8")
        assert len(msgs) == 2

    def test_comments_and_blanks_ignored(self):
        msgs = parse("# tune cpu\n\nperiod cpu 2\n# done\n")
        assert len(msgs) == 1

    def test_empty_write_rejected(self):
        with pytest.raises(ControlSyntaxError, match="empty control"):
            parse("")
        with pytest.raises(ControlSyntaxError):
            parse("# only a comment")

    def test_unknown_command_rejected(self):
        with pytest.raises(ControlSyntaxError, match="unknown"):
            parse("frobnicate cpu 2")

    def test_commands_after_filter_belong_to_source(self):
        # Everything after `filter` is E-code, even things that look
        # like commands.
        (msg,) = parse("filter *\nperiod cpu 2")
        assert msg.verb == "filter"
        assert "period cpu 2" in msg.value

    def test_a_message_carries_one_command(self):
        assert parse_command(" period  cpu 2 ").text == "period cpu 2"
        with pytest.raises(ControlSyntaxError, match="one command"):
            parse_command("period cpu 2\nperiod mem 3")


class TestRoundTrip:
    """Control text -> commands -> text -> identical commands."""

    def test_threshold_specs_survive_the_grammar(self):
        from repro.dproc import parse_threshold_spec
        for spec in ("above 0.8", "below 1e-06", "change 15",
                     "range 0 1", "range -10 10"):
            (msg,) = parse(f"threshold cpu {spec}")
            assert msg.verb == "threshold"
            # The command's text parses to the same rule the original
            # text described.
            assert parse_command(msg.text).value \
                == parse_threshold_spec(spec.split())

    def test_period_value_survives(self):
        (msg,) = parse("period mem 2.5")
        assert parse_command(msg.text).value == 2.5

    def test_messages_rerender_to_equal_messages(self):
        """Join the parsed commands' texts; reparse; compare."""
        text = ("period cpu 2\n"
                "threshold cpu above 0.8\n"
                "threshold mem range 0 1e9\n"
                "clear disk threshold\n")
        first = parse(text)
        second = parse("\n".join(m.text for m in first))
        assert second == first

    def test_comments_and_spacing_do_not_change_messages(self):
        plain = parse("period cpu 2\nthreshold cpu above 0.8")
        noisy = parse("# tune the cpu stream\n\n"
                      "  period   cpu   2  \n"
                      "\n# and gate it\n"
                      "threshold cpu above 0.8\n")
        assert noisy == plain

    def test_filter_source_passes_through_verbatim(self):
        source = "{ if (input[0].value > 2) { output[0] = input[0]; } }"
        (msg,) = parse(f"filter cpu id=f1 {source}")
        assert msg.verb == "filter"
        assert msg.value == source
        # Reparse the command's text: still the same deployment.
        assert parse_command(msg.text) == msg
