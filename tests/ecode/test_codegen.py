"""Execution-semantics tests for compiled E-code filters."""

from __future__ import annotations

import pytest

from repro.ecode import MetricRecord, compile_filter
from repro.errors import (EcodeLimitError, EcodeRuntimeError,
                          EcodeSyntaxError, EcodeTypeError)

CONSTS = {"LOADAVG": 0, "DISKUSAGE": 1, "FREEMEM": 2, "CACHE_MISS": 3}


def run(source: str, records=(), constants=CONSTS, **kw):
    return compile_filter(source, constants=constants, **kw)(list(records))


def returned(source: str, **kw):
    return run(source, **kw).returned


class TestArithmetic:
    def test_integer_arithmetic(self):
        assert returned("return 2 + 3 * 4 - 1;") == 13

    def test_division_int_truncates_toward_zero(self):
        assert returned("return 7 / 2;") == 3
        assert returned("return -7 / 2;") == -3  # C semantics, not floor

    def test_division_double(self):
        assert returned("return 7.0 / 2;") == pytest.approx(3.5)

    def test_modulo_c_semantics(self):
        assert returned("return 7 % 3;") == 1
        assert returned("return -7 % 3;") == -1  # sign of dividend

    def test_division_by_zero_raises(self):
        with pytest.raises(EcodeRuntimeError, match="zero"):
            run("return 1 / 0;")
        with pytest.raises(EcodeRuntimeError, match="zero"):
            run("return 1.0 / 0.0;")
        with pytest.raises(EcodeRuntimeError, match="zero"):
            run("return 1 % 0;")

    def test_unary_operators(self):
        assert returned("return -(3 + 4);") == -7
        assert returned("return +5;") == 5
        assert returned("return !0;") == 1
        assert returned("return !3;") == 0

    def test_scientific_literal(self):
        assert returned("return 50e6;") == 50e6

    def test_double_to_int_assignment_truncates(self):
        assert returned("int x = 3.9; return x;") == 3
        assert returned("int x = -3.9; return x;") == -3

    def test_int_to_double_assignment(self):
        assert returned("double x = 3; return x;") == 3.0

    def test_augmented_assignment(self):
        assert returned("int x = 10; x += 5; return x;") == 15
        assert returned("int x = 10; x -= 3; return x;") == 7
        assert returned("int x = 10; x *= 2; return x;") == 20
        assert returned("int x = 10; x /= 3; return x;") == 3
        assert returned("int x = 10; x %= 3; return x;") == 1

    def test_augmented_division_keeps_int_semantics(self):
        assert returned("int x = -7; x /= 2; return x;") == -3

    def test_increment_decrement(self):
        assert returned("int i = 5; i++; i++; i--; return i;") == 6

    def test_builtins(self):
        assert returned("return abs(-4);") == 4
        assert returned("return fabs(-4.5);") == 4.5
        assert returned("return min(3, 7);") == 3
        assert returned("return max(3, 7);") == 7
        assert returned("return floor(2.9);") == 2
        assert returned("return ceil(2.1);") == 3
        assert returned("return sqrt(16.0);") == 4.0

    def test_sqrt_of_negative_raises(self):
        with pytest.raises(EcodeRuntimeError):
            run("return sqrt(-1.0);")


class TestComparisonsAndLogic:
    def test_comparisons_yield_int(self):
        assert returned("return 3 < 4;") == 1
        assert returned("return 3 > 4;") == 0
        assert returned("return (1 < 2) + (3 >= 3);") == 2

    def test_equality(self):
        assert returned("return 2 == 2;") == 1
        assert returned("return 2 != 2;") == 0

    def test_logical_and_or(self):
        assert returned("return 1 && 2;") == 1
        assert returned("return 1 && 0;") == 0
        assert returned("return 0 || 3;") == 1
        assert returned("return 0 || 0;") == 0

    def test_short_circuit_and(self):
        # RHS would divide by zero; && must not evaluate it.
        assert returned("return 0 && (1 / 0);") == 0

    def test_short_circuit_or(self):
        assert returned("return 1 || (1 / 0);") == 1

    def test_no_short_circuit_when_needed(self):
        with pytest.raises(EcodeRuntimeError):
            run("return 1 && (1 / 0);")


class TestControlFlow:
    def test_if_taken(self):
        assert returned("if (2 > 1) return 10; return 20;") == 10

    def test_if_not_taken(self):
        assert returned("if (2 < 1) return 10; return 20;") == 20

    def test_if_else(self):
        assert returned(
            "int x = 5;"
            "if (x > 10) { return 1; } else { return 2; }") == 2

    def test_else_if_chain(self):
        src = """
        int x = 0;
        if (x > 0) return 1;
        else if (x < 0) return -1;
        else return 0;
        """
        assert returned(src) == 0

    def test_for_loop_sum(self):
        assert returned(
            "int s = 0; for (int i = 1; i <= 10; i++) s += i;"
            "return s;") == 55

    def test_for_loop_with_assignment_step(self):
        assert returned(
            "int s = 0; for (int i = 0; i < 8; i = i + 2) s += i;"
            "return s;") == 12

    def test_nested_loops(self):
        assert returned(
            "int s = 0;"
            "for (int i = 0; i < 3; i++)"
            "  for (int j = 0; j < 4; j++) s++;"
            "return s;") == 12

    def test_while_loop(self):
        assert returned(
            "int n = 100; int steps = 0;"
            "while (n > 1) { n = n / 2; steps++; }"
            "return steps;") == 6

    def test_early_return_from_loop(self):
        assert returned(
            "for (int i = 0; i < 100; i++) if (i == 7) return i;"
            "return -1;") == 7

    def test_no_return_yields_none(self):
        assert returned("int i = 0;") is None

    def test_return_void(self):
        assert returned("return;") is None

    def test_block_scoping_preserves_outer_value(self):
        # Inner i must not clobber outer i (unique mangling).
        assert returned(
            "int i = 42; { int i = 0; i = 7; } return i;") == 42

    def test_infinite_loop_hits_budget(self):
        with pytest.raises(EcodeLimitError, match="budget"):
            run("while (1) { }", max_steps=1000)

    def test_budget_counts_all_loops(self):
        result = run("for (int i = 0; i < 10; i++) { }")
        assert result.steps == 10


class TestCompilerLimits:
    def test_loops_nested_past_cpython_limit_are_a_syntax_error(self):
        """CPython compiles at most 20 statically nested blocks; a
        filter past that is an E-code error, not Python's SyntaxError
        escaping whoever compiles it (a remote d-mon among them)."""
        def nested(k):
            return ("int i = 0; " + "while (i < 1) { " * k + "i = i + 1; "
                    + "}" * k + " return i;")
        assert returned(nested(20)) == 1
        with pytest.raises(EcodeSyntaxError, match="compiler limit"):
            compile_filter(nested(21), constants=CONSTS)


class TestRecordsAndOutput:
    def make_records(self):
        return [
            MetricRecord("loadavg", 3.0, last_value_sent=1.0,
                         timestamp=10.0),
            MetricRecord("diskusage", 20000.0),
            MetricRecord("freemem", 40e6),
            MetricRecord("cache_miss", 100.0, last_value_sent=50.0),
        ]

    def test_read_fields(self):
        recs = self.make_records()
        assert run("return input[LOADAVG].value;",
                   recs).returned == 3.0
        assert run("return input[LOADAVG].last_value_sent;",
                   recs).returned == 1.0
        assert run("return input[LOADAVG].timestamp;",
                   recs).returned == 10.0

    def test_copy_through_filter(self):
        result = run("output[0] = input[LOADAVG];", self.make_records())
        assert len(result.outputs) == 1
        assert result.outputs[0].name == "loadavg"
        assert result.outputs[0].value == 3.0

    def test_output_is_a_copy_not_alias(self):
        recs = self.make_records()
        result = run(
            "output[0] = input[LOADAVG]; output[0].value = 99.0;", recs)
        assert result.outputs[0].value == 99.0
        assert recs[0].value == 3.0  # input untouched

    def test_outputs_in_slot_order(self):
        src = """
        output[2] = input[FREEMEM];
        output[0] = input[LOADAVG];
        output[1] = input[DISKUSAGE];
        """
        result = run(src, self.make_records())
        assert [o.name for o in result.outputs] == [
            "loadavg", "diskusage", "freemem"]

    def test_empty_output_blocks_event(self):
        result = run("int i = 0;", self.make_records())
        assert result.outputs == []

    def test_out_of_range_input_index(self):
        with pytest.raises(EcodeRuntimeError, match="out of range"):
            run("return input[99].value;", self.make_records())

    def test_negative_output_index(self):
        with pytest.raises(EcodeRuntimeError, match="outside"):
            run("output[0 - 1] = input[0];", self.make_records())

    def test_field_write_before_store_rejected(self):
        with pytest.raises(EcodeRuntimeError, match="before being"):
            run("output[0].value = 1.0;", self.make_records())

    def test_figure3_full_semantics(self):
        """The paper's Figure 3 filter end to end."""
        src = """
        {
            int i = 0;
            if(input[LOADAVG].value > 2){
                output[i] = input[LOADAVG];
                i = i + 1;
            }
            if(input[DISKUSAGE].value > 10000 &&
               input[FREEMEM].value < 50e6){
                output[i] = input[DISKUSAGE];
                i = i + 1;
                output[i] = input[FREEMEM];
                i = i + 1;
            }
            if(input[CACHE_MISS].value >
               input[CACHE_MISS].last_value_sent){
                output[i] = input[CACHE_MISS];
                i = i + 1;
            }
        }
        """
        filt = compile_filter(src, constants=CONSTS)
        # all conditions true
        full = filt(self.make_records())
        assert [o.name for o in full.outputs] == [
            "loadavg", "diskusage", "freemem", "cache_miss"]
        # all conditions false
        quiet = filt([
            MetricRecord("loadavg", 0.5),
            MetricRecord("diskusage", 10.0),
            MetricRecord("freemem", 400e6),
            MetricRecord("cache_miss", 10.0, last_value_sent=50.0),
        ])
        assert quiet.outputs == []


class TestSandboxing:
    def test_no_python_builtins_leak(self):
        # Python-level names must not be visible in E-code.
        with pytest.raises(EcodeTypeError, match="undeclared"):
            run("return len;")

    def test_no_dunder_access(self):
        with pytest.raises(EcodeTypeError):
            run("return __import__;")

    def test_compiled_filter_is_reusable(self):
        filt = compile_filter("return input[0].value * 2;",
                              constants=CONSTS)
        for v in (1.0, 2.0, 3.0):
            assert filt([MetricRecord("x", v)]).returned == 2 * v

    def test_deterministic_compilation(self):
        src = "int i = 0; for (i = 0; i < 5; i++) { } return i;"
        a = compile_filter(src, constants=CONSTS)
        b = compile_filter(src, constants=CONSTS)
        assert a([]).returned == b([]).returned == 5
