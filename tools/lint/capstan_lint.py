#!/usr/bin/env python3
"""capstan-lint: the project's one static-analysis tool.

The reproduction's correctness claims rest on invariants the compiler
cannot see: byte-identical stats across thread counts and platforms, a
single validated CLI parse path with an exit-2 usage-error contract,
an output schema that documents every emitted stat key, and `src/`
layers that stay layered. This tool turns those conventions into
machine-checked properties (the `lint`-labeled ctests and the CI lint
job). It lexes each C++ file once (tools/lint/cpplex.py) and runs
every class in one pass: all of them over src/, the determinism
classes also over the C++ under tests/ and tools/ (seeded fixture
trees excluded).

Classes (docs/STATIC_ANALYSIS.md states each one's full contract)
-----------------------------------------------------------------
unordered-iter     Iterating a std::unordered_map/unordered_set.
nondet-source      rand()/srand() (unqualified, std:: or ::),
                   std::random_device, time(), a chrono clock's now(),
                   getenv().
pointer-print      Streaming or printf-ing a pointer value.
raw-parse          stoi/stod/atoi/strtol-family calls outside
                   src/driver/options.cpp.
pragma-once        A header whose first code is not `#pragma once`.
using-namespace    `using namespace` in a header.
schema-sync        An emitted stat key missing from
                   docs/OUTPUT_SCHEMA.md, or a reference study missing
                   from src/report/study.cpp.
layer-dag          An `#include` outside the DAG in
                   tools/lint/layers.json, or a layer diagram in
                   docs/ARCHITECTURE.md out of sync with it.
flag-plumbing      A DriverOptions field not plumbed as
                   tools/lint/plumbing.json declares.
thread-escape      A lambda run on per-call worker threads writing
                   shared state, directly or through the member
                   functions it calls.
bad-suppression    A malformed allow-comment.
stale-suppression  An allow-comment that absorbed no finding.

Suppressing a finding
---------------------
On the flagged line or an immediately preceding comment line:

    // capstan-lint: allow(<class>) -- <why this one is safe>

The suppression covers its comment block and the first code line
after it. The justification after `--` is mandatory. Neither
suppression class can itself be suppressed.

Exit codes: 0 clean, 1 findings, 2 usage error (matching the repo's
CLI contract). Python 3.8+, standard library only.
"""

import argparse
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cpplex  # noqa: E402

CLASSES = (
    "unordered-iter",
    "nondet-source",
    "pointer-print",
    "raw-parse",
    "pragma-once",
    "using-namespace",
    "schema-sync",
    "layer-dag",
    "flag-plumbing",
    "thread-escape",
    "bad-suppression",
    "stale-suppression",
)

# The determinism classes also run over tests/ and tools/: goldens and
# fixtures feed byte-compared artifacts, so they must be as
# deterministic as src/. The structural/layering classes stay
# src-only (tests legitimately parse strings and include what they
# like).
DETERMINISM_CLASSES = frozenset(
    {"unordered-iter", "nondet-source", "pointer-print"})

# Classes that check a repository-wide contract against fixed input
# files. A fixture tree seeded for another class lacks those inputs,
# so the self-test ignores their findings there.
REPO_CLASSES = frozenset(
    {"schema-sync", "layer-dag", "flag-plumbing"})

UNSUPPRESSIBLE = ("bad-suppression", "stale-suppression")

# The one place raw numeric parsing is allowed: the validated parse
# helpers every CLI funnels through.
RAW_PARSE_ALLOWED = "src/driver/options.cpp"

# JSON writers whose .set("key") literals define the output schema.
SCHEMA_EMITTERS = (
    "src/driver/runner.cpp",
    "src/driver/sweep.cpp",
    "src/report/render.cpp",
)
SCHEMA_DOC = "docs/OUTPUT_SCHEMA.md"
REFERENCE_JSON = "data/paper_reference.json"
STUDY_REGISTRY = "src/report/study.cpp"

LAYERS_JSON = "tools/lint/layers.json"
PLUMBING_JSON = "tools/lint/plumbing.json"
ARCHITECTURE_MD = "docs/ARCHITECTURE.md"

DIAGRAM_BEGIN = "<!-- capstan-lint:layers:begin -->"
DIAGRAM_END = "<!-- capstan-lint:layers:end -->"

# The line classes match each line's token view: the tokens that start
# on the line, joined by single spaces. Comments never match; string
# and character literals keep their text, which `\s*` between tokens
# also matches. A lookbehind that rejects a qualifier (`ns::`, `obj.`)
# reads past the joining space, as `(?<![:.] )` does.
NONDET_PATTERNS = (
    # Unqualified, std:: or ::; another namespace's rand() is not the
    # C library's.
    (re.compile(r"(?:\bstd\s*::\s*|(?<![\w:])(?<!\w :: ))s?rand\s*\("),
     "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w_])time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "time()"),
    (re.compile(r"_clock\s*::\s*now\s*\("), "chrono clock now()"),
    # An environment variable is an input no report records.
    (re.compile(r"\bgetenv\s*\("), "getenv()"),
)

POINTER_PRINT_PATTERNS = (
    (re.compile(r"<<\s*&\s*[A-Za-z_]"), "streams an address-of"),
    (re.compile(r"<<\s*static_cast\s*<\s*(?:const\s+)?void\s*\*"),
     "streams a void* cast"),
    (re.compile(r"<<\s*reinterpret_cast\s*<"),
     "streams a reinterpret_cast"),
    (re.compile(r'%p[^A-Za-z0-9]|%p$'), "printf-style %p"),
)

RAW_PARSE_RE = re.compile(
    r"(?<![\w:.])(?<![:.] )(?:std\s*::\s*)?"
    r"(stoi|stol|stoll|stoul|stoull|stof|stod|stold|"
    r"atoi|atol|atoll|atof|"
    r"strtol|strtoll|strtoul|strtoull|strtof|strtod|strtold|"
    r"sscanf)\s*\(")

USING_NAMESPACE_RE = re.compile(r"(?<![\w_])using\s+namespace\s+[\w:]+")
SET_KEY_RE = re.compile(r'\.\s*set\s*\(\s*"([^"]+)"')

# Whole-file patterns, matched over the token views joined by newlines.
UNORDERED_DECL_RE = re.compile(r"std\s*::\s*unordered_(?:map|set)\s*<")
STUDY_DECL_RE = re.compile(r'\{\s*"([A-Za-z0-9_]+)"\s*,\s*"')

ALLOW_RE = re.compile(
    r"capstan-lint:\s*allow\(([a-z-]+)\)\s*(?:--\s*(.*))?")

# Mutating std-container methods: the fallback verdict when a member
# object's type cannot be resolved to a class defined in src/.
MUTATING_METHODS = frozenset({
    "push_back", "emplace_back", "push_front", "emplace_front",
    "emplace", "push", "pop", "pop_back", "pop_front", "insert",
    "erase", "clear", "resize", "assign", "swap", "reset", "reserve",
})

WRITE_OPS = frozenset({
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<=", ">>=", "++", "--",
})


class Finding:
    def __init__(self, path, line, cls, message):
        self.path = path
        self.line = line
        self.cls = cls
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.cls}] {self.message}"


# ---------------------------------------------------------------------
# Shared infrastructure: sources, suppressions, the tree
# ---------------------------------------------------------------------

class Source:
    """One C++ file: raw lines (allow-comments live in comments), the
    token stream, and each line's token view."""

    def __init__(self, root, rel, aux):
        self.rel = rel
        self.aux = aux  # under tests/ or tools/: determinism classes only
        text = (root / rel).read_text(encoding="utf-8")
        self.lines = text.split("\n")  # numbered as the lexer does
        self.tokens = cpplex.lex(text)
        last = self.tokens[-1].line if self.tokens else 0
        view = [[] for _ in range(max(len(self.lines), last))]
        for t in self.tokens:
            view[t.line - 1].append(t.text)
        self.code = [" ".join(texts) for texts in view]


class Suppressions:
    """Every allow-comment in the tree: coverage, use, hygiene."""

    def __init__(self, sources):
        self.covered = {}    # (rel, line) -> {cls: allow_line}
        self.comments = []   # well-formed: (rel, allow_line, cls)
        self.malformed = []  # bad-suppression findings
        self.used = set()    # (rel, allow_line, cls)
        for source in sources:
            self._load(source.rel, source.lines)

    def _load(self, rel, lines):
        for idx, line in enumerate(lines, start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            cls, why = m.group(1), (m.group(2) or "").strip()
            if cls not in CLASSES:
                problem = f"allow({cls}) names an unknown class"
            elif cls in UNSUPPRESSIBLE:
                problem = f"{cls} findings cannot be suppressed"
            elif not why:
                problem = f"allow({cls}) without a justification after '--'"
            else:
                problem = None
            if problem:
                self.malformed.append(
                    Finding(rel, idx, "bad-suppression", problem))
                continue
            self.comments.append((rel, idx, cls))
            # The comment's own line, any comment-only lines after it,
            # and the first code line after the block.
            span = [idx]
            j = idx  # 0-based index of the next line
            while j < len(lines):
                stripped = lines[j].strip()
                span.append(j + 1)
                if stripped and not stripped.startswith("//"):
                    break
                j += 1
            for ln in span:
                self.covered.setdefault((rel, ln), {}).setdefault(cls, idx)

    def check(self, rel, line, cls):
        """True when (rel, line) is covered for @p cls; records use."""
        allow_line = self.covered.get((rel, line), {}).get(cls)
        if allow_line is None:
            return False
        self.used.add((rel, allow_line, cls))
        return True

    def stale(self):
        return [Finding(rel, line, "stale-suppression",
                        f"allow({cls}) no longer suppresses any live "
                        f"finding; delete it (its justification now "
                        f"documents a hazard that does not exist)")
                for rel, line, cls in self.comments
                if (rel, line, cls) not in self.used]


class Tree:
    """A repository root: every C++ file it lints, lexed once, and the
    findings the checks report through its suppressions."""

    def __init__(self, root):
        self.root = Path(root)
        self.files = {}  # rel -> Source
        for top in ("src", "tests", "tools"):
            for path in sorted((self.root / top).rglob("*")):
                rel = path.relative_to(self.root)
                # Seeded fixture trees are deliberately violating.
                if path.suffix in (".hpp", ".cpp", ".h") \
                        and "fixtures" not in rel.parts:
                    self.files[rel.as_posix()] = Source(
                        self.root, rel.as_posix(), top != "src")
        self.src = [s for s in self.files.values() if not s.aux]
        self.supp = Suppressions(self.files.values())
        self.findings = []

    def tokens(self, rel):
        return self.files[rel].tokens

    def read(self, rel):
        path = self.root / rel
        return path.read_text(encoding="utf-8") if path.is_file() else None

    def add(self, rel, line, cls, message):
        if not self.supp.check(rel, line, cls):
            self.findings.append(Finding(rel, line, cls, message))


def logical_strings(tokens):
    """String literals with C++ adjacent-literal concatenation."""
    out = []
    cur = None
    for t in tokens:
        if t.kind == "str":
            piece = t.text
            if piece.startswith('R"'):
                piece = piece[piece.find("(") + 1:piece.rfind(")")]
            else:
                piece = piece.strip('"')
            if cur is None:
                cur = [piece, t.line]
            else:
                cur[0] += piece
        elif cur is not None:
            out.append((cur[0], cur[1]))
            cur = None
    if cur is not None:
        out.append((cur[0], cur[1]))
    return out


def function_body_span(tokens, func_name):
    """(start, end) token indices of the `{...}` body of the function
    definition `func_name(...) [const ...] { ... }`.

    Call sites (`x = func_name()`, `for (... : func_name())`) never
    match: the token right after the closing paren must open the body
    (allowing cv/ref qualifiers), which a call expression never does.
    """
    n = len(tokens)
    for i in range(n - 1):
        if not (tokens[i].kind == "id" and tokens[i].text == func_name
                and tokens[i + 1].kind == "punct"
                and tokens[i + 1].text == "("):
            continue
        close = cpplex.match_forward(tokens, i + 1, "(", ")")
        j = close + 1
        while j < n and tokens[j].kind == "id" and tokens[j].text in (
                "const", "noexcept", "override", "final"):
            j += 1
        if j < n and tokens[j].kind == "punct" \
                and tokens[j].text == "{":
            return (j, cpplex.match_forward(tokens, j, "{", "}"))
    return None


def function_strings(tokens, func_name):
    span = function_body_span(tokens, func_name)
    if span is None:
        return None
    return {s for s, _ in logical_strings(tokens[span[0]:span[1] + 1])}


# ---------------------------------------------------------------------
# Line classes: unordered-iter, nondet-source, pointer-print,
# raw-parse, pragma-once, using-namespace
# ---------------------------------------------------------------------

def unordered_names(text):
    """Names of variables/members declared as unordered containers."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(text):
        depth, j = 0, m.end() - 1
        while j < len(text):
            if text[j] == "<":
                depth += 1
            elif text[j] == ">":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        tail = text[j + 1:j + 200]
        dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]", tail)
        if dm:
            names.add(dm.group(1))
    return names


def check_lines(tree, source):
    """The line classes over one file's token view."""
    def add(line_no, cls, message):
        if not source.aux or cls in DETERMINISM_CLASSES:
            tree.add(source.rel, line_no, cls, message)

    code_lines = [(idx, text) for idx, text in enumerate(source.code, 1)
                  if text]

    if source.rel.endswith((".hpp", ".h")):
        if not any("# pragma once" in text for _, text in code_lines):
            add(1, "pragma-once", "header without #pragma once")
        elif not code_lines[0][1].startswith("# pragma once"):
            add(code_lines[0][0], "pragma-once",
                "header code before #pragma once")
        for idx, text in code_lines:
            if USING_NAMESPACE_RE.search(text):
                add(idx, "using-namespace",
                    "using-namespace in a header leaks into every "
                    "includer")

    stem = source.rel.rsplit(".", 1)[0]
    names = set()
    for other in tree.files.values():
        if other.rel.rsplit(".", 1)[0] == stem:
            names |= unordered_names("\n".join(other.code))
    iter_res = ()
    if names:
        name_alt = "|".join(sorted(re.escape(n) for n in names))
        iter_res = (
            re.compile(r"for\s*\([^;)]*:\s*(?:this\s*->\s*)?(" + name_alt +
                       r")\s*\)"),
            # begin() only: a bare end() comparison is the find/erase
            # lookup idiom and touches no bucket order.
            re.compile(r"\b(" + name_alt + r")\s*\.\s*c?r?begin\s*\("),
        )

    for idx, text in code_lines:
        for rx in iter_res:
            m = rx.search(text)
            if m:
                add(idx, "unordered-iter",
                    f"iteration over unordered container "
                    f"'{m.group(1)}' (bucket order is platform-"
                    f"dependent)")
                break
        for rx, what in NONDET_PATTERNS:
            if rx.search(text):
                add(idx, "nondet-source",
                    f"{what}: entropy, wall-clock and environment "
                    f"must not flow into results")
        for rx, what in POINTER_PRINT_PATTERNS:
            if rx.search(text):
                add(idx, "pointer-print",
                    f"{what}: addresses are randomized per run")
        m = RAW_PARSE_RE.search(text)
        if m and source.rel != RAW_PARSE_ALLOWED:
            add(idx, "raw-parse",
                f"raw {m.group(1)}() outside the validated parse "
                f"helpers in {RAW_PARSE_ALLOWED}")


# ---------------------------------------------------------------------
# schema-sync
# ---------------------------------------------------------------------

def documented_tokens(doc_text):
    """Tokens the schema doc counts as documenting a key."""
    tokens = set(re.findall(r"`([^`\s]+)`", doc_text))
    tokens |= set(re.findall(r'"([A-Za-z0-9_.-]+)"', doc_text))
    # `a`, `b` inside backticks like `row_hits / (row_hits + ...)`.
    for expr in re.findall(r"`([^`]+)`", doc_text):
        tokens |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", expr))
    # CSV header listings are bare comma-separated words.
    for line in doc_text.splitlines():
        if "," in line and " " not in line.strip():
            tokens |= set(line.strip().split(","))
    return tokens


def check_schema_sync(tree):
    doc = tree.read(SCHEMA_DOC)
    if doc is None:
        tree.add(SCHEMA_DOC, 1, "schema-sync",
                 "output schema document is missing")
        return
    tokens = documented_tokens(doc)

    for rel in SCHEMA_EMITTERS:
        if rel not in tree.files:
            tree.add(rel, 1, "schema-sync", "schema emitter missing")
            continue
        for idx, text in enumerate(tree.files[rel].code, start=1):
            for key in SET_KEY_RE.findall(text):
                if key not in tokens:
                    tree.add(rel, idx, "schema-sync",
                             f"emitted stat key '{key}' is not "
                             f"documented in {SCHEMA_DOC}")

    ref_text = tree.read(REFERENCE_JSON)
    if ref_text is None or STUDY_REGISTRY not in tree.files:
        return
    try:
        ref = json.loads(ref_text)
    except ValueError as e:
        tree.add(REFERENCE_JSON, 1, "schema-sync",
                 f"unparseable reference: {e}")
        return
    registered = set(STUDY_DECL_RE.findall(
        "\n".join(tree.files[STUDY_REGISTRY].code)))
    for study in ref.get("studies", {}):
        if study not in registered:
            tree.add(REFERENCE_JSON, 1, "schema-sync",
                     f"reference study '{study}' is not registered in "
                     f"{STUDY_REGISTRY}")


# ---------------------------------------------------------------------
# layer-dag
# ---------------------------------------------------------------------

def load_layers(root):
    data = json.loads((Path(root) / LAYERS_JSON).read_text(
        encoding="utf-8"))
    order = [layer["name"] for layer in data["layers"]]
    deps = {layer["name"]: set(layer["deps"])
            for layer in data["layers"]}
    return order, deps, data


def build_include_graph(tree):
    """Direct-include edges among src/ files as (src, dst, line).

    Quoted includes resolve like the compiler's: the including file's
    directory first, then src/ (the build's only repo-local -I).
    Unresolvable quoted includes (external headers) are skipped — the
    graph covers the repository only.
    """
    root = tree.root.resolve()
    edges = []
    for source in tree.src:
        here = (root / source.rel).parent
        for inc, line in cpplex.quoted_includes(source.tokens):
            for base in (here, root / "src"):
                cand = base / inc
                if cand.is_file():
                    try:
                        dst = cand.resolve().relative_to(root)
                    except ValueError:
                        break
                    edges.append((source.rel, dst.as_posix(), line))
                    break
    return edges


def transitive_includes(edges):
    """rel -> set of all files reachable through includes."""
    direct = {}
    for s, d, _ in edges:
        direct.setdefault(s, set()).add(d)
    closure = {}

    def visit(node, stack):
        if node in closure:
            return closure[node]
        if node in stack:
            return set()  # include cycle; reported elsewhere
        stack.add(node)
        out = set()
        for d in direct.get(node, ()):
            out.add(d)
            out |= visit(d, stack)
        stack.discard(node)
        closure[node] = out
        return out

    for node in list(direct):
        visit(node, set())
    return closure


def layer_of(rel):
    parts = Path(rel).parts
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def render_diagram(data):
    """The ARCHITECTURE.md layer block generated from layers.json."""
    lines = [
        "```text",
        f"layer       may include ({LAYERS_JSON})",
        "-----       ------------------------------------",
    ]
    for layer in reversed(data["layers"]):
        deps = ", ".join(layer["deps"]) if layer["deps"] else "(nothing)"
        lines.append(f"{layer['name']:<11} {deps}")
    lines.append("```")
    return "\n".join(lines)


def render_dot(edges, order):
    """The file-level include graph, clustered by layer."""
    by_layer = {}
    nodes = set()
    for s, d, _ in edges:
        nodes.add(s)
        nodes.add(d)
    for n in sorted(nodes):
        by_layer.setdefault(layer_of(n) or "(other)", []).append(n)
    out = [
        "// Generated by tools/lint/capstan_lint.py --dot.",
        "// One node per src/ file, clustered by layer; edges are",
        "// direct quoted #includes.",
        "digraph capstan_includes {",
        "  rankdir=BT;",
        "  node [shape=box, fontsize=9];",
    ]
    cluster_order = [n for n in order if n in by_layer]
    cluster_order += sorted(set(by_layer) - set(cluster_order))
    for layer in cluster_order:
        out.append(f'  subgraph "cluster_{layer}" {{')
        out.append(f'    label="{layer}";')
        for n in by_layer[layer]:
            out.append(f'    "{n}";')
        out.append("  }")
    for s, d in sorted({(s, d) for s, d, _ in edges}):
        out.append(f'  "{s}" -> "{d}";')
    out.append("}")
    return "\n".join(out) + "\n"


def check_diagram_sync(tree, data, rewrite):
    text = tree.read(ARCHITECTURE_MD)
    if text is None:
        return  # fixture trees have no docs/
    want = f"{DIAGRAM_BEGIN}\n{render_diagram(data)}\n{DIAGRAM_END}"
    begin = text.find(DIAGRAM_BEGIN)
    end = text.find(DIAGRAM_END)
    if begin < 0 or end < 0:
        tree.add(ARCHITECTURE_MD, 1, "layer-dag",
                 f"missing the generated layer block ({DIAGRAM_BEGIN} "
                 f"... {DIAGRAM_END}); run capstan_lint.py "
                 f"--write-diagram")
        return
    if text[begin:end + len(DIAGRAM_END)] == want:
        return
    if rewrite:
        (tree.root / ARCHITECTURE_MD).write_text(
            text[:begin] + want + text[end + len(DIAGRAM_END):],
            encoding="utf-8")
        print(f"capstan-lint: rewrote layer diagram in {ARCHITECTURE_MD}")
    else:
        tree.add(ARCHITECTURE_MD, text.count("\n", 0, begin) + 1,
                 "layer-dag",
                 f"layer diagram is out of sync with {LAYERS_JSON}; "
                 f"run capstan_lint.py --write-diagram")


def check_layer_dag(tree, dot_path=None, write_diagram=False):
    try:
        order, deps, data = load_layers(tree.root)
    except (OSError, ValueError, KeyError) as e:
        tree.add(LAYERS_JSON, 1, "layer-dag",
                 f"cannot load layer map: {e}")
        return
    rank = {name: i for i, name in enumerate(order)}
    edges = build_include_graph(tree)

    for source in tree.src:
        if layer_of(source.rel) not in rank:
            tree.add(source.rel, 1, "layer-dag",
                     f"file is not inside a declared layer directory "
                     f"(layers: {', '.join(order)})")

    for s, d, line in edges:
        ls, ld = layer_of(s), layer_of(d)
        if ls not in rank or ld not in rank:
            continue  # unmapped; flagged above
        if ls == ld or ld in deps[ls]:
            continue
        direction = ("upward" if rank[ld] > rank[ls]
                     else "undeclared cross-layer")
        allowed = ", ".join(sorted(deps[ls] | {ls}))
        tree.add(s, line, "layer-dag",
                 f"{direction} #include of '{d}' (layer '{ld}'); "
                 f"layer '{ls}' may only include: {allowed}")

    check_diagram_sync(tree, data, write_diagram)

    if dot_path:
        Path(dot_path).write_text(render_dot(edges, order),
                                  encoding="utf-8")


# ---------------------------------------------------------------------
# flag-plumbing
# ---------------------------------------------------------------------

def struct_fields(tokens, struct_name):
    """Data-member names of `struct struct_name { ... }`."""
    for i in range(len(tokens) - 2):
        if (tokens[i].kind == "id"
                and tokens[i].text in ("struct", "class")
                and tokens[i + 1].kind == "id"
                and tokens[i + 1].text == struct_name):
            j = i + 2
            while j < len(tokens) and not (
                    tokens[j].kind == "punct"
                    and tokens[j].text in ("{", ";")):
                j += 1
            if j >= len(tokens) or tokens[j].text == ";":
                continue  # forward declaration
            end = cpplex.match_forward(tokens, j, "{", "}")
            return _body_fields(tokens, j + 1, end)
    return None


def _body_fields(tokens, start, end):
    """Field names among the depth-0 statements of a class body."""
    fields = []
    stmt = []
    depth_paren = depth_brace = 0
    saw_brace = False
    i = start
    while i < end:
        t = tokens[i]
        if t.kind == "punct":
            if t.text == "(":
                depth_paren += 1
            elif t.text == ")":
                depth_paren -= 1
            elif t.text == "{":
                depth_brace += 1
                saw_brace = True
            elif t.text == "}":
                depth_brace -= 1
                if saw_brace and depth_brace == 0:
                    # A method body just closed: drop the statement.
                    stmt, saw_brace = [], False
                    i += 1
                    continue
            elif (t.text == ";" and depth_paren == 0
                  and depth_brace == 0):
                name = _field_name(stmt)
                if name:
                    fields.append(name)
                stmt, saw_brace = [], False
                i += 1
                continue
        if depth_brace == 0:
            stmt.append(t)
        i += 1
    return fields


def _field_name(stmt):
    """Field name of one member statement, or None for methods etc."""
    if not stmt:
        return None
    texts = [t.text for t in stmt]
    if texts[0] in ("using", "typedef", "static", "friend", "enum",
                    "public", "private", "protected"):
        # Access labels only prefix a statement when it is glued to
        # one (`public: int x;`); strip and retry.
        if texts[0] in ("public", "private", "protected") \
                and len(stmt) > 2 and texts[1] == ":":
            return _field_name(stmt[2:])
        return None
    if any(t.kind == "punct" and t.text == "(" for t in stmt):
        return None  # method (or function-typed member; none here)
    last_id = None
    for t in stmt:
        if t.kind == "punct" and t.text == "=":
            break
        if t.kind == "id":
            last_id = t.text
    return last_id


def check_flag_plumbing(tree):
    opts_hpp = "src/driver/options.hpp"
    opts_cpp = "src/driver/options.cpp"
    sweep_cpp = "src/driver/sweep.cpp"
    runner_hpp = "src/driver/runner.hpp"
    runner_cpp = "src/driver/runner.cpp"

    for req in (opts_hpp, opts_cpp, PLUMBING_JSON):
        if not (tree.root / req).is_file():
            tree.add(req, 1, "flag-plumbing", "required input is missing")
            return
    try:
        declared = json.loads(tree.read(PLUMBING_JSON))["fields"]
    except (ValueError, KeyError) as e:
        tree.add(PLUMBING_JSON, 1, "flag-plumbing",
                 f"cannot load plumbing contract: {e}")
        return

    fields = struct_fields(tree.tokens(opts_hpp), "DriverOptions")
    if fields is None:
        tree.add(opts_hpp, 1, "flag-plumbing",
                 "struct DriverOptions not found")
        return

    cpp_tokens = tree.tokens(opts_cpp)
    option_keys = function_strings(cpp_tokens, "optionKeys") or set()
    apply_strings = function_strings(cpp_tokens, "applyOption")
    all_cpp_strings = {s for s, _ in logical_strings(cpp_tokens)}
    readme = tree.read("README.md") or ""
    schema_doc = tree.read(SCHEMA_DOC)
    schema_tokens = documented_tokens(schema_doc) if schema_doc else set()

    csv_columns = set()
    if sweep_cpp in tree.files:
        for s, _ in logical_strings(tree.tokens(sweep_cpp)):
            if "app,dataset" in s:
                csv_columns |= set(s.replace("\n", ",").split(","))

    knob_fields = None
    if runner_hpp in tree.files:
        knob_fields = struct_fields(tree.tokens(runner_hpp), "RunKnobs")
    runner_text = "\n".join(tree.files[runner_cpp].code) \
        if runner_cpp in tree.files else ""

    def add(message):
        tree.add(opts_hpp, 1, "flag-plumbing", message)

    for field in fields:
        spec = declared.get(field)
        if spec is None:
            add(f"DriverOptions.{field} is not declared in "
                f"{PLUMBING_JSON} (sweep axis or never-serialized "
                f"denylist?)")
            continue
        axis = spec.get("axis")
        if axis:
            flag = "--" + axis
            if axis not in option_keys:
                add(f"axis field '{field}': key '{axis}' is missing "
                    f"from optionKeys() in {opts_cpp}")
            if apply_strings is not None and axis not in apply_strings:
                add(f"axis field '{field}': key '{axis}' is not "
                    f"handled in applyOption()")
            csv_col = axis.replace("-", "_")
            if csv_columns and csv_col not in csv_columns:
                add(f"axis field '{field}': no '{csv_col}' column in "
                    f"the sweep CSV header ({sweep_cpp})")
            if axis not in schema_tokens \
                    and csv_col not in schema_tokens:
                add(f"axis field '{field}': key '{axis}' is not "
                    f"documented in {SCHEMA_DOC}")
        else:
            flag = spec.get("flag", "")
            if not flag:
                add(f"denylist field '{field}' declares no flag in "
                    f"{PLUMBING_JSON}")
            if not spec.get("never_serialized", "").strip():
                add(f"denylist field '{field}' has no never_serialized "
                    f"justification")
            key = flag.lstrip("-")
            if key and key in option_keys:
                add(f"never-serialized field '{field}' ('{key}') "
                    f"appears in optionKeys(): it would leak into "
                    f"sweep identities")
        if flag:
            if not any(flag in s for s in all_cpp_strings):
                add(f"field '{field}': flag '{flag}' is not in the "
                    f"{opts_cpp} usage/parse strings")
            if readme and flag not in readme \
                    and f"`{flag.lstrip('-')}`" not in readme:
                add(f"field '{field}': flag '{flag}' is not documented "
                    f"in README.md")
        knob = spec.get("knob")
        if knob:
            if knob_fields is not None and knob not in knob_fields:
                add(f"field '{field}': declared knob '{knob}' is not "
                    f"a RunKnobs member ({runner_hpp})")
            if runner_text and f"knobs . {knob}" not in runner_text:
                add(f"field '{field}': knob '{knob}' is never assigned "
                    f"(knobs.{knob}) in {runner_cpp}")

    for field in declared:
        if field not in fields:
            tree.add(PLUMBING_JSON, 1, "flag-plumbing",
                     f"plumbing entry '{field}' has no matching "
                     f"DriverOptions field (stale contract entry)")


# ---------------------------------------------------------------------
# thread-escape
# ---------------------------------------------------------------------

THREAD_VECTOR = ("std", "::", "vector", "<", "std", "::", "thread", ">")


def worker_lambdas(tokens):
    """The opening `[` of every lambda started on a function-local
    `std::vector<std::thread>` (a fork/join loop's per-call workers;
    members end in `_` and are long-lived service threads that
    synchronize explicitly): `v.emplace_back([...] {...})` inline, or
    `v.emplace_back(name)` for an `auto name = [...]` bound earlier."""
    n = len(THREAD_VECTOR)
    vectors = {tokens[i + n].text for i in range(len(tokens) - n)
               if all(tokens[i + k].text == t
                      for k, t in enumerate(THREAD_VECTOR))
               and tokens[i + n].kind == "id"
               and not tokens[i + n].text.endswith("_")}
    found = []
    for i in range(len(tokens) - 4):
        if not (tokens[i].kind == "id" and tokens[i].text in vectors
                and tokens[i + 1].text == "."
                and tokens[i + 2].text == "emplace_back"
                and tokens[i + 3].text == "("):
            continue
        arg = tokens[i + 4]
        if arg.kind == "punct" and arg.text == "[":
            found.append(i + 4)
        elif arg.kind == "id":
            for j in range(i - 1, 2, -1):
                if (tokens[j].text == "[" and tokens[j - 1].text == "="
                        and tokens[j - 2].text == arg.text
                        and tokens[j - 3].text == "auto"):
                    found.append(j)
                    break
    return found


def parse_class_defs(tokens, rel, classes):
    """Collect class definitions: methods (constness, inline body
    spans) and member-object fields (name -> last type identifier)."""
    i = 0
    n = len(tokens)
    while i < n - 2:
        t = tokens[i]
        if (t.kind == "id" and t.text in ("class", "struct")
                and tokens[i + 1].kind == "id"
                and not (i > 0 and tokens[i - 1].kind == "id"
                         and tokens[i - 1].text == "enum")):
            name = tokens[i + 1].text
            j = i + 2
            while j < n and not (tokens[j].kind == "punct"
                                 and tokens[j].text in ("{", ";")):
                j += 1
            if j >= n or tokens[j].text == ";":
                i += 1
                continue
            end = cpplex.match_forward(tokens, j, "{", "}")
            entry = classes.setdefault(
                name, {"methods": {}, "fields": {}})
            _scan_class_body(tokens, j + 1, end, rel, entry)
            i = end + 1
        else:
            i += 1


def _scan_class_body(tokens, start, end, rel, entry):
    i = start
    stmt_start = start
    depth = 0
    while i < end:
        t = tokens[i]
        if t.kind == "punct" and t.text == "(" and depth == 0:
            # Possible method: identifier directly before the paren.
            m = tokens[i - 1] if i > 0 else None
            close = cpplex.match_forward(tokens, i, "(", ")")
            j = close + 1
            is_const = False
            body = None
            while j < end:
                tj = tokens[j]
                if tj.kind == "id" and tj.text == "const":
                    is_const = True
                elif tj.kind == "punct" and tj.text == "{":
                    body_end = cpplex.match_forward(tokens, j,
                                                    "{", "}")
                    body = (rel, j, body_end)
                    j = body_end
                    break
                elif tj.kind == "punct" and tj.text in (";", ":"):
                    break  # declaration (or ctor initializer list)
                j += 1
            if m is not None and m.kind == "id" and m.text not in (
                    "if", "for", "while", "switch", "return"):
                info = entry["methods"].setdefault(
                    m.text, {"const": is_const, "body": None})
                info["const"] = info["const"] or is_const
                if body is not None:
                    info["body"] = body
            i = j + 1
            stmt_start = i
            continue
        if t.kind == "punct" and t.text == "{":
            i = cpplex.match_forward(tokens, i, "{", "}") + 1
            stmt_start = i
            continue
        if t.kind == "punct" and t.text == ";":
            stmt = tokens[stmt_start:i]
            name = _field_name(stmt)
            if name:
                type_id = None
                for s in stmt:
                    if s.kind == "id" and s.text != name:
                        type_id = s.text
                    if s.kind == "id" and s.text == name:
                        break
                entry["fields"][name] = type_id
            i += 1
            stmt_start = i
            continue
        i += 1


def method_definitions(tokens, rel, classes):
    """Out-of-class `Class::method(...) { ... }` definitions; also
    returns (start, end, class) spans for enclosing-class lookup."""
    spans = []
    i = 0
    n = len(tokens)
    while i < n - 3:
        if (tokens[i].kind == "id"
                and tokens[i + 1].kind == "punct"
                and tokens[i + 1].text == "::"
                and tokens[i + 2].kind == "id"
                and i + 3 < n
                and tokens[i + 3].kind == "punct"
                and tokens[i + 3].text == "("):
            cls, method = tokens[i].text, tokens[i + 2].text
            close = cpplex.match_forward(tokens, i + 3, "(", ")")
            j = close + 1
            is_const = False
            paren = 0
            while j < n:
                tj = tokens[j]
                if tj.kind == "punct" and tj.text == "(":
                    paren += 1
                elif tj.kind == "punct" and tj.text == ")":
                    paren -= 1
                elif paren == 0 and tj.kind == "id" \
                        and tj.text == "const":
                    is_const = True
                elif paren == 0 and tj.kind == "punct" \
                        and tj.text == "{":
                    end = cpplex.match_forward(tokens, j, "{", "}")
                    entry = classes.setdefault(
                        cls, {"methods": {}, "fields": {}})
                    info = entry["methods"].setdefault(
                        method, {"const": is_const, "body": None})
                    info["const"] = info["const"] or is_const
                    info["body"] = (rel, j, end)
                    spans.append((j, end, cls))
                    j = end
                    break
                elif paren == 0 and tj.kind == "punct" \
                        and tj.text == ";":
                    break
                elif paren < 0:
                    break  # qualified call inside an expression
                j += 1
            i = close + 1
        else:
            i += 1
    return spans


def _capture_info(tokens, cap_start, cap_end):
    ref_default = False
    ref_captures = set()
    group = []
    for i in range(cap_start + 1, cap_end):
        t = tokens[i]
        if t.kind == "punct" and t.text == ",":
            _apply_capture_group(group, ref_captures)
            ref_default |= (len(group) == 1
                            and group[0].text == "&")
            group = []
        else:
            group.append(t)
    _apply_capture_group(group, ref_captures)
    ref_default |= (len(group) == 1 and group[0].text == "&")
    return ref_default, ref_captures


def _apply_capture_group(group, ref_captures):
    if len(group) >= 2 and group[0].kind == "punct" \
            and group[0].text == "&" and group[1].kind == "id":
        ref_captures.add(group[1].text)


class EscapeContext:
    def __init__(self, tree, classes):
        self.tree = tree
        self.classes = classes


def _analyze_span(ctx, rel, start, end, class_name, chain,
                  ref_default, ref_captures, visited, depth,
                  params=None):
    tokens = ctx.tree.tokens(rel)
    declared = set(params or ())
    via = "" if not chain else \
        " (reachable via " + " -> ".join(chain) + "())"
    i = start
    while i <= end:
        t = tokens[i]
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        prv = tokens[i - 1] if i > 0 else None
        if t.kind == "punct" and t.text in ("++", "--") \
                and nxt is not None and nxt.kind == "id" \
                and nxt.text.endswith("_"):
            after = tokens[i + 2] if i + 2 < len(tokens) else None
            if not (after and after.kind == "punct"
                    and after.text == "["):
                ctx.tree.add(rel, t.line, "thread-escape",
                             f"worker lambda writes shared member "
                             f"'{nxt.text}' without a subscript{via}")
                i += 2
                continue
        if t.kind != "id":
            i += 1
            continue
        prev_is_member_access = (
            prv is not None and prv.kind == "punct"
            and prv.text in (".", "->", "::"))
        this_access = (prev_is_member_access and prv.text == "->"
                       and i >= 2 and tokens[i - 2].kind == "id"
                       and tokens[i - 2].text == "this")
        # Local declarations: `Type name = ...` / `Type &name = ...`.
        if nxt is not None and prv is not None \
                and not prev_is_member_access \
                and (prv.kind == "id"
                     or (prv.kind == "punct"
                         and prv.text in ("&", "*", ">", ">>",
                                          ",", "["))) \
                and nxt.kind == "punct" \
                and nxt.text in ("=", ";", ",", ")", "{", ":", "]"):
            declared.add(t.text)
        if nxt is not None and nxt.kind == "punct" \
                and nxt.text in WRITE_OPS:
            if prev_is_member_access and not this_access:
                i += 1
                continue
            if t.text.endswith("_"):
                ctx.tree.add(rel, t.line, "thread-escape",
                             f"worker lambda writes shared member "
                             f"'{t.text}' without a subscript{via}")
            elif not chain and (
                    t.text in ref_captures
                    or (ref_default and t.text not in declared)):
                how = ("captured by reference"
                       if t.text in ref_captures
                       else "visible through the [&] default "
                            "capture")
                ctx.tree.add(rel, t.line, "thread-escape",
                             f"worker lambda writes '{t.text}', a "
                             f"local {how}; workers must write only "
                             f"per-worker/per-tile slots")
        elif nxt is not None and nxt.kind == "punct" \
                and nxt.text == "(":
            if prev_is_member_access and not this_access:
                base = tokens[i - 2] if i >= 2 else None
                if base is not None and base.kind == "id" \
                        and base.text.endswith("_"):
                    verdict = _member_call_verdict(
                        ctx, class_name, base.text, t.text)
                    if verdict:
                        ctx.tree.add(rel, t.line, "thread-escape",
                                     f"{verdict} on shared member "
                                     f"'{base.text}' in a worker "
                                     f"lambda{via}")
            elif not prev_is_member_access or this_access:
                _maybe_recurse(ctx, rel, t, class_name, chain,
                               visited, depth)
        i += 1


def _member_call_verdict(ctx, class_name, member, method):
    """Non-empty description when calling member.method() mutates."""
    type_id = ctx.classes.get(class_name, {}).get(
        "fields", {}).get(member)
    info = ctx.classes.get(type_id, {}).get(
        "methods", {}).get(method) if type_id else None
    if info is not None:
        if info["const"]:
            return ""
        return f"non-const call .{method}()"
    if method in MUTATING_METHODS:
        return f"mutating container call .{method}()"
    return ""


def _maybe_recurse(ctx, rel, tok, class_name, chain, visited, depth):
    if depth >= 6 or class_name is None:
        return
    info = ctx.classes.get(class_name, {}).get(
        "methods", {}).get(tok.text)
    if info is None or info["body"] is None:
        return
    key = (class_name, tok.text)
    if key in visited:
        return
    # A suppression on the call line prunes this reachability edge.
    if ctx.tree.supp.check(rel, tok.line, "thread-escape"):
        return
    visited.add(key)
    body_rel, body_start, body_end = info["body"]
    _analyze_span(ctx, body_rel, body_start + 1, body_end - 1,
                  class_name, chain + [tok.text], False, set(),
                  visited, depth + 1)


def check_thread_escape(tree):
    classes = {}
    for source in tree.src:
        parse_class_defs(source.tokens, source.rel, classes)
    def_spans = {}
    for source in tree.src:
        if source.rel.endswith(".cpp"):
            def_spans[source.rel] = method_definitions(
                source.tokens, source.rel, classes)

    ctx = EscapeContext(tree, classes)
    for source in tree.src:
        rel, tokens = source.rel, source.tokens
        spans = def_spans.get(rel, [])
        for lam in worker_lambdas(tokens):
            enclosing = None
            for s, e, cls_name in spans:
                if s <= lam <= e:
                    enclosing = cls_name
                    break
            cap_end = cpplex.match_forward(tokens, lam, "[", "]")
            body_start = None
            for j in range(cap_end + 1, len(tokens)):
                if tokens[j].kind == "punct" and tokens[j].text == "{":
                    body_start = j
                    break
            if body_start is None:
                continue
            body_end = cpplex.match_forward(tokens, body_start,
                                            "{", "}")
            ref_default, ref_captures = _capture_info(tokens, lam,
                                                      cap_end)
            lambda_params = {tokens[j].text
                             for j in range(cap_end + 1, body_start)
                             if tokens[j].kind == "id"}
            _analyze_span(ctx, rel, body_start + 1, body_end - 1,
                          enclosing, [], ref_default, ref_captures,
                          set(), 0, params=lambda_params)


# ---------------------------------------------------------------------
# Driver, self-test
# ---------------------------------------------------------------------

def lint_tree(root, dot_path=None, write_diagram=False):
    """Every class over the repository at @p root, in one pass."""
    tree = Tree(root)
    for source in tree.files.values():
        check_lines(tree, source)
    check_schema_sync(tree)
    check_layer_dag(tree, dot_path, write_diagram)
    check_flag_plumbing(tree)
    check_thread_escape(tree)
    return tree.supp.malformed + tree.findings + tree.supp.stale()


# Each class has a `bad` and a `clean` miniature repo root under
# fixtures/<class>/. A tree's `expected.txt` lists the findings it must
# produce as `path:line: [class]`, exactly; a tree without one must
# produce none. Only the class under test and the classes that need no
# repository inputs are compared (see REPO_CLASSES).
def self_test():
    failures = []
    for cls in CLASSES:
        for kind in ("bad", "clean"):
            root = HERE / "fixtures" / cls.replace("-", "_") / kind
            if not root.is_dir():
                failures.append(f"{cls}/{kind}: fixture missing")
                continue
            expected = root / "expected.txt"
            want = sorted(expected.read_text(encoding="utf-8")
                          .splitlines()) if expected.is_file() else []
            got = sorted(f"{f.path}:{f.line}: [{f.cls}]"
                         for f in lint_tree(root)
                         if f.cls == cls or f.cls not in REPO_CLASSES)
            if kind == "bad" and not any(f"[{cls}]" in w for w in want):
                failures.append(f"{cls}/bad: expects no {cls} finding")
            if got != want:
                failures.append(f"{cls}/{kind}: expected {want}, "
                                f"got {got}")

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}")
        return 1
    print(f"capstan-lint self-test: {2 * len(CLASSES)} fixture trees OK")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        prog="capstan-lint",
        description="Project-invariant static checks (see module "
                    "docstring and docs/STATIC_ANALYSIS.md).")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--dot", default=None, metavar="FILE",
                    help="write the file-level include graph as "
                         "Graphviz DOT")
    ap.add_argument("--write-diagram", action="store_true",
                    help="rewrite the generated layer diagram in "
                         f"{ARCHITECTURE_MD} from layers.json")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture self-test and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"capstan-lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings = lint_tree(root, args.dot, args.write_diagram)
    for f in findings:
        print(f)
    if findings:
        counts = {}
        for f in findings:
            counts[f.cls] = counts.get(f.cls, 0) + 1
        summary = ", ".join(f"{c} {k}" for k, c in sorted(counts.items()))
        print(f"capstan-lint: {len(findings)} finding(s): {summary}")
        return 1
    print("capstan-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
