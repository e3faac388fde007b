#!/usr/bin/env python3
"""Unit tests for capstan-lint's lexer, token view, suppressions and
include-graph builder.

Runs as the `lint_units` ctest (lint label). Python stdlib unittest
only; fixture trees are built in a tempdir so the tests are hermetic.
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import capstan_lint  # noqa: E402
import cpplex  # noqa: E402


def kinds(tokens):
    return [(t.kind, t.text) for t in tokens]


class LexerTest(unittest.TestCase):
    def test_identifiers_numbers_puncts(self):
        toks = cpplex.lex("int x = 42 + 0x1f;")
        self.assertEqual(kinds(toks), [
            ("id", "int"), ("id", "x"), ("punct", "="),
            ("num", "42"), ("punct", "+"), ("num", "0x1f"),
            ("punct", ";")])

    def test_multichar_operators_maximal_munch(self):
        toks = cpplex.lex("a<<=b; c->d; e::f; g>>=h; i.*j;")
        ops = [t.text for t in toks if t.kind == "punct"]
        self.assertIn("<<=", ops)
        self.assertIn("->", ops)
        self.assertIn("::", ops)
        self.assertIn(">>=", ops)
        self.assertIn(".*", ops)

    def test_line_numbers(self):
        toks = cpplex.lex("a\n\nb /* multi\nline */ c\n// note\nd\n")
        lines = {t.text: t.line for t in toks}
        self.assertEqual(lines["a"], 1)
        self.assertEqual(lines["b"], 3)
        self.assertEqual(lines["c"], 4)
        self.assertEqual(lines["d"], 6)

    def test_comments_stripped(self):
        toks = cpplex.lex("x // hidden(ident)\ny /* \"quoted\" */ z")
        self.assertEqual([t.text for t in toks], ["x", "y", "z"])

    def test_string_escapes_and_char(self):
        toks = cpplex.lex(r'f("a\"b", '
                          r"'\''"
                          r");")
        strs = [t for t in toks if t.kind == "str"]
        chars = [t for t in toks if t.kind == "char"]
        self.assertEqual(len(strs), 1)
        self.assertEqual(strs[0].text, r'"a\"b"')
        self.assertEqual(len(chars), 1)

    def test_raw_string(self):
        toks = cpplex.lex('auto s = R"x(no "escape" )done)x";')
        strs = [t for t in toks if t.kind == "str"]
        self.assertEqual(len(strs), 1)
        self.assertTrue(strs[0].text.startswith('R"x('))
        self.assertTrue(strs[0].text.endswith(')x"'))

    def test_numeric_literals(self):
        toks = cpplex.lex("1e-3 1'000'000 0b1010 3.14f .5")
        self.assertTrue(all(t.kind == "num" for t in toks))
        self.assertEqual(len(toks), 5)

    def test_quoted_includes(self):
        text = ('#include "a/b.hpp"\n#include <vector>\n'
                '#include "c.hpp"\n')
        incs = cpplex.quoted_includes(cpplex.lex(text))
        self.assertEqual(incs, [("a/b.hpp", 1), ("c.hpp", 3)])

    def test_match_forward(self):
        toks = cpplex.lex("f(a, g(b), h(c))")
        self.assertEqual(cpplex.match_forward(toks, 1, "(", ")"),
                         len(toks) - 1)


class FunctionBodyTest(unittest.TestCase):
    def test_call_sites_are_not_definitions(self):
        toks = cpplex.lex(
            "void use() { for (auto k : keys()) eat(k); }\n"
            "int keys() { return 7; }\n")
        span = capstan_lint.function_body_span(toks, "keys")
        self.assertIsNotNone(span)
        body = toks[span[0]:span[1] + 1]
        self.assertIn(("id", "return"), kinds(body))
        self.assertIn(("num", "7"), kinds(body))

    def test_struct_fields(self):
        toks = cpplex.lex(
            "struct Opt {\n"
            "  std::string app = \"x\";\n"
            "  std::vector<std::pair<int, int>> pairs;\n"
            "  bool flag() const { return ok; }\n"
            "  bool ok = true;\n"
            "};\n")
        self.assertEqual(capstan_lint.struct_fields(toks, "Opt"),
                         ["app", "pairs", "ok"])

    def test_logical_strings_concatenate(self):
        toks = cpplex.lex('const char *s = "ab"\n  "cd";\n'
                          'const char *t = "ef";')
        strs = [s for s, _ in capstan_lint.logical_strings(toks)]
        self.assertEqual(strs, ["abcd", "ef"])


class TreeTest(unittest.TestCase):
    """A throwaway repository root."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, text):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def lint(self, rel, text):
        """(line, class) findings in @p rel, repository classes aside."""
        self.write(rel, text)
        return sorted((f.line, f.cls)
                      for f in capstan_lint.lint_tree(self.root)
                      if f.path == rel
                      and f.cls not in capstan_lint.REPO_CLASSES)


class TokenViewTest(TreeTest):
    def test_comment_text_never_matches(self):
        self.assertEqual(self.lint("src/a/x.cpp",
                                   "int f() {\n"
                                   "    // rand()\n"
                                   "    /* srand(1) */ return 0;\n"
                                   "}\n"), [])

    def test_printf_p_inside_a_string_literal(self):
        self.assertEqual(self.lint("src/a/x.cpp",
                                   'void f(void *p) {\n'
                                   '    std::printf("at %p\\n", p);\n'
                                   '}\n'),
                         [(2, "pointer-print")])

    def test_lines_after_a_multiline_raw_string(self):
        self.assertEqual(self.lint("src/a/x.cpp",
                                   'auto s = R"(one\ntwo\n)";\n'
                                   "int r = rand();\n"),
                         [(4, "nondet-source")])

    def test_pragma_once_after_a_leading_comment_block(self):
        self.assertEqual(self.lint("src/a/x.hpp",
                                   "// About this header.\n"
                                   "/* More about it,\n"
                                   "   over two lines. */\n"
                                   "#pragma once\n"
                                   "int f();\n"), [])


class SuppressionTest(TreeTest):
    def test_span_is_the_comment_block_and_one_code_line(self):
        self.assertEqual(self.lint("src/a/x.cpp",
                                   "// capstan-lint: allow(nondet-source)"
                                   " -- a fixed\n"
                                   "// seed keeps the draw reproducible.\n"
                                   "\n"
                                   "int a = rand();\n"
                                   "int b = rand();\n"),
                         [(5, "nondet-source")])


class IncludeGraphTest(TreeTest):
    def test_relative_and_include_dir_resolution(self):
        self.write("src/a/one.hpp", "#pragma once\n")
        self.write("src/a/two.hpp",
                   '#pragma once\n#include "one.hpp"\n')
        self.write("src/b/three.cpp",
                   '#include "a/two.hpp"\n#include <vector>\n'
                   '#include "no/such/file.hpp"\n')
        edges = capstan_lint.build_include_graph(
            capstan_lint.Tree(self.root))
        self.assertEqual(
            sorted((s, d) for s, d, _ in edges),
            [("src/a/two.hpp", "src/a/one.hpp"),
             ("src/b/three.cpp", "src/a/two.hpp")])

    def test_transitive_closure(self):
        edges = [("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
                 ("d", "a", 1)]
        closure = capstan_lint.transitive_includes(edges)
        self.assertEqual(closure["d"], {"a", "b", "c"})
        self.assertEqual(closure["a"], {"b", "c", "a"})

    def test_layer_of(self):
        self.assertEqual(capstan_lint.layer_of("src/sim/dram.cpp"),
                         "sim")
        self.assertIsNone(capstan_lint.layer_of("src/stray.cpp"))
        self.assertIsNone(capstan_lint.layer_of("tools/x/y.cpp"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
