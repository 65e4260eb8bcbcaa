"""Unit tests for the E-code parser."""

from __future__ import annotations

import pytest

from repro.ecode import parse
from repro.ecode import ast_nodes as A
from repro.ecode.parser import MAX_NESTING
from repro.errors import EcodeSyntaxError


def body(source: str) -> list[A.Stmt]:
    return parse(source).body.statements


class TestPrograms:
    def test_braced_program(self):
        prog = parse("{ int i = 0; }")
        assert isinstance(prog.body, A.Block)
        assert len(prog.body.statements) == 1

    def test_bare_statement_list(self):
        stmts = body("int i = 0; i = i + 1;")
        assert len(stmts) == 2

    def test_empty_program(self):
        assert body("") == []

    def test_trailing_garbage_rejected(self):
        with pytest.raises(EcodeSyntaxError):
            parse("{ int i = 0; } extra")

    def test_unterminated_block_rejected(self):
        with pytest.raises(EcodeSyntaxError, match="missing '}'"):
            parse("{ int i = 0;")


class TestDeclarations:
    @pytest.mark.parametrize("ctype", ["int", "long", "double", "float"])
    def test_all_types(self, ctype):
        (decl,) = body(f"{ctype} x;")
        assert isinstance(decl, A.VarDecl)
        assert decl.ctype == ctype and decl.init is None

    def test_initialised_declaration(self):
        (decl,) = body("int i = 41 + 1;")
        assert isinstance(decl.init, A.Binary)

    def test_missing_semicolon_rejected(self):
        with pytest.raises(EcodeSyntaxError, match="';'"):
            parse("int i = 0")

    def test_missing_name_rejected(self):
        with pytest.raises(EcodeSyntaxError, match="variable name"):
            parse("int = 0;")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        (stmt,) = body("int x = 1 + 2 * 3;")
        expr = stmt.init
        assert expr.op == "+"
        assert isinstance(expr.right, A.Binary) and expr.right.op == "*"

    def test_parentheses_override(self):
        (stmt,) = body("int x = (1 + 2) * 3;")
        assert stmt.init.op == "*"

    def test_comparison_precedence(self):
        (stmt,) = body("int x = a + 1 < b * 2;")
        assert stmt.init.op == "<"

    def test_logical_precedence(self):
        # && binds tighter than ||
        (stmt,) = body("int x = a || b && c;")
        assert stmt.init.op == "||"
        assert stmt.init.right.op == "&&"

    def test_left_associativity(self):
        (stmt,) = body("int x = 10 - 4 - 3;")
        expr = stmt.init
        assert expr.op == "-" and isinstance(expr.left, A.Binary)

    def test_unary_minus(self):
        (stmt,) = body("int x = -y;")
        assert isinstance(stmt.init, A.Unary) and stmt.init.op == "-"

    def test_double_unary(self):
        (stmt,) = body("int x = !!y;")
        assert isinstance(stmt.init.operand, A.Unary)

    def test_index_and_attribute_chain(self):
        (stmt,) = body("double v = input[LOADAVG].value;")
        attr = stmt.init
        assert isinstance(attr, A.Attribute) and attr.name == "value"
        assert isinstance(attr.base, A.Index)
        assert attr.base.base.ident == "input"

    def test_call_with_args(self):
        (stmt,) = body("double m = max(a, b);")
        call = stmt.init
        assert isinstance(call, A.Call)
        assert call.func == "max" and len(call.args) == 2

    def test_call_no_args(self):
        (stmt,) = body("double m = foo();")
        assert stmt.init.args == []

    def test_unclosed_paren_rejected(self):
        with pytest.raises(EcodeSyntaxError):
            parse("int x = (1 + 2;")

    def test_bad_expression_start_rejected(self):
        with pytest.raises(EcodeSyntaxError, match="unexpected"):
            parse("int x = * 2;")


class TestAssignments:
    def test_simple_assign(self):
        (stmt,) = body("x = 5;")
        assert isinstance(stmt, A.Assign) and stmt.op == "="

    @pytest.mark.parametrize("op", ["+=", "-=", "*=", "/=", "%="])
    def test_augmented_assign(self, op):
        (stmt,) = body(f"x {op} 5;")
        assert stmt.op == op

    def test_output_slot_assign(self):
        (stmt,) = body("output[i] = input[LOADAVG];")
        assert isinstance(stmt.target, A.Index)

    def test_field_assign(self):
        (stmt,) = body("output[0].value = 3.5;")
        assert isinstance(stmt.target, A.Attribute)

    def test_literal_target_rejected(self):
        with pytest.raises(EcodeSyntaxError, match="assignment target"):
            parse("5 = x;")

    def test_increment_statement(self):
        (stmt,) = body("i++;")
        assert isinstance(stmt, A.IncDec) and stmt.op == "++"

    def test_decrement_statement(self):
        (stmt,) = body("i--;")
        assert stmt.op == "--"

    def test_increment_of_expression_rejected(self):
        with pytest.raises(EcodeSyntaxError, match="simple variables"):
            parse("input[0]++;")


class TestControlFlow:
    def test_if_without_else(self):
        (stmt,) = body("if (x > 0) { y = 1; }")
        assert isinstance(stmt, A.If) and stmt.else_body is None

    def test_if_else(self):
        (stmt,) = body("if (x > 0) { y = 1; } else { y = 2; }")
        assert stmt.else_body is not None

    def test_else_if_chain(self):
        (stmt,) = body(
            "if (x > 0) { y = 1; } else if (x < 0) { y = 2; } "
            "else { y = 3; }")
        nested = stmt.else_body.statements[0]
        assert isinstance(nested, A.If)
        assert nested.else_body is not None

    def test_unbraced_body(self):
        (stmt,) = body("if (x) y = 1;")
        assert len(stmt.then_body.statements) == 1

    def test_for_full_header(self):
        (stmt,) = body("for (int i = 0; i < 10; i = i + 1) { x = i; }")
        assert isinstance(stmt, A.For)
        assert isinstance(stmt.init, A.VarDecl)
        assert stmt.cond is not None and stmt.step is not None

    def test_for_with_incdec_step(self):
        (stmt,) = body("for (i = 0; i < 10; i++) x = i;")
        assert isinstance(stmt.step, A.IncDec)

    def test_for_empty_header(self):
        (stmt,) = body("for (;;) { x = 1; }")
        assert stmt.init is None and stmt.cond is None \
            and stmt.step is None

    def test_while(self):
        (stmt,) = body("while (x < 10) { x = x + 1; }")
        assert isinstance(stmt, A.While)

    def test_return_value(self):
        (stmt,) = body("return x + 1;")
        assert isinstance(stmt, A.Return) and stmt.value is not None

    def test_return_void(self):
        (stmt,) = body("return;")
        assert stmt.value is None

    def test_nested_blocks(self):
        (stmt,) = body("{ { int i = 0; } }")
        assert isinstance(stmt, A.Block)

    def test_empty_statement(self):
        stmts = body(";;")
        assert len(stmts) == 2

    def test_missing_condition_paren_rejected(self):
        with pytest.raises(EcodeSyntaxError):
            parse("if x > 0 { }")


class TestPaperExample:
    def test_figure3_filter_parses(self):
        """The filter from the paper's Figure 3, verbatim."""
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
        prog = parse(src)
        assert len(prog.body.statements) == 4  # decl + three ifs


class TestNesting:
    """A source nests at most MAX_NESTING levels, whatever does the
    nesting; past it the answer is a positioned syntax error, never
    the interpreter's RecursionError."""

    DEEP = {
        "parentheses": "return " + "(" * 100 + "1" + ")" * 100 + ";",
        "ifs": "if (1) " * 400 + "return 1;",
        "else_ifs": "if (1) return 1; " + "else if (1) return 1; " * 100,
        "blocks": "{" * 100 + "}" * 100,
        "operator_chain": "return " + " + ".join(["1"] * 2000) + ";",
        "prefix_operators": "return " + "- " * 100 + "1;",
        "postfix_chain": "return input" + "[0]" * 100 + ";",
        "call_arguments": "return " + "abs(" * 100 + "1" + ")" * 100
                          + ";",
    }

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_past_the_bound_is_a_syntax_error(self, shape):
        with pytest.raises(EcodeSyntaxError, match="nested deeper") as err:
            parse(self.DEEP[shape])
        assert err.value.line == 1 and err.value.column is not None

    def test_just_inside_the_bound_parses(self):
        # One statement and one expression level around the parentheses.
        depth = MAX_NESTING - 2
        parse("return " + "(" * depth + "1" + ")" * depth + ";")
        with pytest.raises(EcodeSyntaxError):
            parse("return " + "(" * (depth + 1) + "1"
                  + ")" * (depth + 1) + ";")
