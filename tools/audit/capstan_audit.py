#!/usr/bin/env python3
"""capstan-audit: cross-TU architectural analysis over src/.

capstan-lint (tools/lint/) checks line-level invariants one file at a
time. This tool checks the properties that only exist *between* files:
the include-layer DAG, the option-plumbing contract, the env-var kill
switch registry, and worker-lambda escape paths that cross function
boundaries. It is python3-stdlib only, driven by the build's
compile_commands.json (for TU include paths) and a real lightweight
C++ lexer (tools/audit/cpplex.py) — not regexes over raw text.

Audit classes
-------------
layer-dag        Every `#include` between src/ layer directories must
                 conform to the declared DAG in tools/audit/layers.json
                 (an allowlist of dependencies per layer). An include
                 of a *higher* layer is an `upward` finding; one of an
                 undeclared lower/sibling layer is `undeclared`. The
                 layer diagram in docs/ARCHITECTURE.md (between the
                 capstan-audit:layers markers) must match the map;
                 --write-diagram regenerates it. --dot FILE emits the
                 full file-level include graph as Graphviz.
flag-plumbing    Every DriverOptions field (src/driver/options.hpp)
                 must be declared in tools/audit/plumbing.json as
                 either a sweep axis (then: present in optionKeys(),
                 handled in applyOption(), a sweep CSV column, and
                 documented in the usage text + README.md +
                 docs/OUTPUT_SCHEMA.md) or an explicit never-serialized
                 denylist entry with a justification (then: absent
                 from optionKeys(), documented in usage + README).
                 Fields that flow into RunKnobs declare `knob`; the
                 audit checks the knob exists and is assigned.
env-registry     Every getenv() in src/ must name its variable through
                 a constant in src/common/env.hpp (no raw string
                 literals at call sites), every registry constant must
                 be read somewhere, and every variable documented in
                 README.md or docs/.
thread-escape    Inside a lambda dispatched on a common::WorkerPool
                 (the sweep executor's worker slots), (a) writes to
                 reference-captured locals, (b) unsubscripted writes to
                 underscore members
                 — including through member functions the lambda calls,
                 transitively — and (c) non-const method calls on
                 unsubscripted member objects (constness resolved from
                 the class definitions across src/; std-container
                 mutating-method names as fallback).
stale-suppression
                 A `capstan-lint: allow(...)` or `capstan-audit:
                 allow(...)` comment that no longer suppresses a live
                 finding is itself a finding (suppression aging): the
                 justification now documents a hazard that does not
                 exist, and hides one that may appear later. Stale
                 findings cannot themselves be suppressed.

Suppressing a finding
---------------------
On the flagged line or an immediately preceding comment line:

    // capstan-audit: allow(<class>) -- <why this one is safe>

Same contract as capstan-lint: the justification is mandatory, a
suppression covers only the comment block and the first code line
after it, and a suppression that stops matching a live finding becomes
a stale-suppression finding.

Exit codes: 0 clean, 1 findings, 2 usage error (the repo's CLI
contract). Python 3.8+, standard library only.
"""

import argparse
import json
import re
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent / "lint"))

import capstan_lint  # noqa: E402
import cpplex  # noqa: E402

Finding = capstan_lint.Finding

AUDIT_CLASSES = (
    "layer-dag",
    "flag-plumbing",
    "env-registry",
    "thread-escape",
    "stale-suppression",
)

AUDIT_ALLOW_RE = re.compile(
    r"capstan-audit:\s*allow\(([a-z-]+)\)\s*(?:--\s*(.*))?")

LAYERS_JSON = Path("tools") / "audit" / "layers.json"
PLUMBING_JSON = Path("tools") / "audit" / "plumbing.json"
ENV_REGISTRY = Path("src") / "common" / "env.hpp"
ARCHITECTURE_MD = Path("docs") / "ARCHITECTURE.md"

DIAGRAM_BEGIN = "<!-- capstan-audit:layers:begin -->"
DIAGRAM_END = "<!-- capstan-audit:layers:end -->"

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


# ---------------------------------------------------------------------
# Shared infrastructure
# ---------------------------------------------------------------------

class TokenCache:
    """Lexed token streams by repo-relative path, lexed once."""

    def __init__(self, root):
        self.root = Path(root)
        self._tokens = {}
        self._text = {}

    def text(self, rel):
        if rel not in self._text:
            self._text[rel] = (self.root / rel).read_text(
                encoding="utf-8")
        return self._text[rel]

    def tokens(self, rel):
        if rel not in self._tokens:
            self._tokens[rel] = cpplex.lex(self.text(rel))
        return self._tokens[rel]


class Suppressions:
    """capstan-audit allow-comments: coverage, usage, hygiene."""

    def __init__(self):
        self.by_file = {}    # rel -> {line: {cls: allow_line}}
        self.comments = []   # (rel, allow_line, cls)
        self.malformed = []  # Finding
        self.used = set()    # (rel, allow_line, cls)

    def load(self, rel, text):
        lines = text.splitlines()
        covered = {}
        for idx, line in enumerate(lines, start=1):
            m = AUDIT_ALLOW_RE.search(line)
            if not m:
                continue
            cls, why = m.group(1), (m.group(2) or "").strip()
            if cls not in AUDIT_CLASSES:
                self.malformed.append(Finding(
                    rel, idx, "stale-suppression",
                    f"allow({cls}) names an unknown audit class"))
                continue
            if cls == "stale-suppression":
                self.malformed.append(Finding(
                    rel, idx, "stale-suppression",
                    "stale-suppression findings cannot be "
                    "suppressed"))
                continue
            if not why:
                self.malformed.append(Finding(
                    rel, idx, "stale-suppression",
                    f"allow({cls}) without a justification after "
                    f"'--'"))
                continue
            self.comments.append((rel, idx, cls))
            span = [idx]
            j = idx  # 0-based index of the next line
            while j < len(lines):
                stripped = lines[j].strip()
                span.append(j + 1)
                if stripped and not stripped.startswith("//"):
                    break
                j += 1
            for ln in span:
                covered.setdefault(ln, {}).setdefault(cls, idx)
        self.by_file[rel] = covered

    def check(self, rel, line, cls):
        """True when (rel, line) is covered for @p cls; records use."""
        allow_line = self.by_file.get(rel, {}).get(line, {}).get(cls)
        if allow_line is None:
            return False
        self.used.add((rel, allow_line, cls))
        return True


def add_finding(findings, supp, rel, line, cls, msg):
    if supp.check(rel, line, cls):
        return
    findings.append(Finding(rel, line, cls, msg))


def rel_str(path, root):
    return str(Path(path).resolve().relative_to(Path(root).resolve()))


def src_files(root):
    """All C++ files under src/, repo-relative, sorted."""
    out = []
    for path in sorted((Path(root) / "src").rglob("*")):
        if path.suffix in (".hpp", ".cpp", ".h"):
            out.append(rel_str(path, root))
    return out


def corpus_files(root):
    """Everything the suppression scan covers: src/ + tests/tools
    C++ sources (fixture corpora excluded, as in capstan-lint)."""
    out = src_files(root)
    for path in capstan_lint.iter_aux_source_files(Path(root)):
        out.append(rel_str(path, root))
    return out


def include_dirs_from_build(root, build_dir):
    """-I directories from compile_commands.json, repo-local only.

    Falls back to [root/src] when the build directory or the database
    is absent — the audit must be runnable on a fresh checkout.
    """
    root = Path(root).resolve()
    dirs = []
    cc = Path(build_dir) / "compile_commands.json" if build_dir else None
    if cc and cc.is_file():
        try:
            db = json.loads(cc.read_text(encoding="utf-8"))
        except ValueError:
            db = []
        for entry in db:
            args = entry.get("arguments")
            if not args:
                args = entry.get("command", "").split()
            for i, a in enumerate(args):
                path = None
                if a.startswith("-I"):
                    path = a[2:] or (args[i + 1]
                                     if i + 1 < len(args) else None)
                if not path:
                    continue
                p = Path(path)
                if not p.is_absolute():
                    p = Path(entry.get("directory", ".")) / p
                p = p.resolve()
                if root in p.parents and p.is_dir() and p not in dirs:
                    dirs.append(p)
    if not dirs:
        dirs = [root / "src"]
    return dirs


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
# layer-dag
# ---------------------------------------------------------------------

def load_layers(root):
    path = Path(root) / LAYERS_JSON
    data = json.loads(path.read_text(encoding="utf-8"))
    order = [layer["name"] for layer in data["layers"]]
    deps = {layer["name"]: set(layer["deps"])
            for layer in data["layers"]}
    return order, deps, data


def build_include_graph(root, files, include_dirs, cache):
    """Direct-include edges as (src_rel, dst_rel, line) triples.

    Quoted includes resolve like the compiler's: the including file's
    directory first, then the -I directories. Unresolvable quoted
    includes (external headers) are skipped — the graph covers the
    repository only.
    """
    root = Path(root).resolve()
    edges = []
    for rel in files:
        here = (root / rel).parent
        for inc, line in cpplex.quoted_includes(cache.tokens(rel)):
            resolved = None
            for base in [here] + list(include_dirs):
                cand = Path(base) / inc
                if cand.is_file():
                    resolved = cand.resolve()
                    break
            if resolved is None:
                continue
            try:
                dst = str(resolved.relative_to(root))
            except ValueError:
                continue
            edges.append((rel, dst, line))
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
        "layer       may include (tools/audit/layers.json)",
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
        "// Generated by tools/audit/capstan_audit.py --dot.",
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


def diagram_sync_findings(root, data, supp, rewrite=False):
    findings = []
    arch = Path(root) / ARCHITECTURE_MD
    if not arch.is_file():
        return findings  # fixture trees have no docs/
    text = arch.read_text(encoding="utf-8")
    block = render_diagram(data)
    want = f"{DIAGRAM_BEGIN}\n{block}\n{DIAGRAM_END}"
    begin = text.find(DIAGRAM_BEGIN)
    end = text.find(DIAGRAM_END)
    rel = str(ARCHITECTURE_MD)
    if begin < 0 or end < 0:
        add_finding(findings, supp, rel, 1, "layer-dag",
                    f"missing the generated layer block "
                    f"({DIAGRAM_BEGIN} ... {DIAGRAM_END}); run "
                    f"capstan_audit.py --write-diagram")
        return findings
    have = text[begin:end + len(DIAGRAM_END)]
    if have != want:
        line = text.count("\n", 0, begin) + 1
        if rewrite:
            arch.write_text(text[:begin] + want
                            + text[end + len(DIAGRAM_END):],
                            encoding="utf-8")
            print(f"capstan-audit: rewrote layer diagram in {rel}")
        else:
            add_finding(findings, supp, rel, line, "layer-dag",
                        "layer diagram is out of sync with "
                        "tools/audit/layers.json; run "
                        "capstan_audit.py --write-diagram")
    return findings


def audit_layer_dag(root, supp, cache=None, build_dir=None,
                    dot_path=None, write_diagram=False):
    root = Path(root)
    cache = cache or TokenCache(root)
    findings = []
    try:
        order, deps, data = load_layers(root)
    except (OSError, ValueError, KeyError) as e:
        return [Finding(str(LAYERS_JSON), 1, "layer-dag",
                        f"cannot load layer map: {e}")], []
    rank = {name: i for i, name in enumerate(order)}
    files = src_files(root)
    include_dirs = include_dirs_from_build(root, build_dir)
    edges = build_include_graph(root, files, include_dirs, cache)

    for rel in files:
        if layer_of(rel) is None or layer_of(rel) not in rank:
            add_finding(findings, supp, rel, 1, "layer-dag",
                        f"file is not inside a declared layer "
                        f"directory (layers: {', '.join(order)})")

    for s, d, line in edges:
        ls, ld = layer_of(s), layer_of(d)
        if ls is None or ld is None:
            continue
        if ls not in rank or ld not in rank:
            continue  # unmapped; flagged above
        if ls == ld or ld in deps[ls]:
            continue
        direction = ("upward" if rank.get(ld, 0) > rank.get(ls, 0)
                     else "undeclared cross-layer")
        allowed = ", ".join(sorted(deps[ls] | {ls})) or ls
        add_finding(findings, supp, s, line, "layer-dag",
                    f"{direction} #include of '{d}' (layer '{ld}'); "
                    f"layer '{ls}' may only include: {allowed}")

    findings += diagram_sync_findings(root, data, supp,
                                      rewrite=write_diagram)

    if dot_path:
        Path(dot_path).write_text(render_dot(edges, order),
                                  encoding="utf-8")
    return findings, edges


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


def audit_flag_plumbing(root, supp, cache=None):
    root = Path(root)
    cache = cache or TokenCache(root)
    findings = []
    opts_hpp = Path("src") / "driver" / "options.hpp"
    opts_cpp = Path("src") / "driver" / "options.cpp"
    sweep_cpp = Path("src") / "driver" / "sweep.cpp"
    runner_hpp = Path("src") / "driver" / "runner.hpp"
    runner_cpp = Path("src") / "driver" / "runner.cpp"

    for req in (opts_hpp, opts_cpp, PLUMBING_JSON):
        if not (root / req).is_file():
            return [Finding(str(req), 1, "flag-plumbing",
                            "required input is missing")]
    try:
        plumbing = json.loads(
            (root / PLUMBING_JSON).read_text(encoding="utf-8"))
        declared = plumbing["fields"]
    except (ValueError, KeyError) as e:
        return [Finding(str(PLUMBING_JSON), 1, "flag-plumbing",
                        f"cannot load plumbing contract: {e}")]

    fields = struct_fields(cache.tokens(str(opts_hpp)),
                           "DriverOptions")
    if fields is None:
        return [Finding(str(opts_hpp), 1, "flag-plumbing",
                        "struct DriverOptions not found")]

    cpp_tokens = cache.tokens(str(opts_cpp))
    option_keys = function_strings(cpp_tokens, "optionKeys") or set()
    apply_strings = function_strings(cpp_tokens, "applyOption")
    all_cpp_strings = {s for s, _ in logical_strings(cpp_tokens)}
    readme = (root / "README.md").read_text(encoding="utf-8") \
        if (root / "README.md").is_file() else ""
    schema_doc = root / Path("docs") / "OUTPUT_SCHEMA.md"
    schema_tokens = capstan_lint.documented_tokens(
        schema_doc.read_text(encoding="utf-8")) \
        if schema_doc.is_file() else set()

    csv_columns = set()
    if (root / sweep_cpp).is_file():
        for s, _ in logical_strings(cache.tokens(str(sweep_cpp))):
            if "app,dataset" in s:
                csv_columns |= set(s.replace("\n", ",").split(","))

    knob_fields = None
    if (root / runner_hpp).is_file():
        knob_fields = struct_fields(cache.tokens(str(runner_hpp)),
                                    "RunKnobs")
    runner_text = capstan_lint.strip_comments(
        cache.text(str(runner_cpp))) \
        if (root / runner_cpp).is_file() else ""

    rel = str(opts_hpp)

    def usage_documents(flag):
        return any(flag in s for s in all_cpp_strings)

    for field in fields:
        spec = declared.get(field)
        if spec is None:
            add_finding(findings, supp, rel, 1, "flag-plumbing",
                        f"DriverOptions.{field} is not declared in "
                        f"{PLUMBING_JSON} (sweep axis or "
                        f"never-serialized denylist?)")
            continue
        axis = spec.get("axis")
        if axis:
            flag = "--" + axis
            if axis not in option_keys:
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"axis field '{field}': key '{axis}' is "
                            f"missing from optionKeys() in {opts_cpp}")
            if apply_strings is not None and axis not in apply_strings:
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"axis field '{field}': key '{axis}' is "
                            f"not handled in applyOption()")
            csv_col = axis.replace("-", "_")
            if csv_columns and csv_col not in csv_columns:
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"axis field '{field}': no '{csv_col}' "
                            f"column in the sweep CSV header "
                            f"({sweep_cpp})")
            if axis not in schema_tokens \
                    and csv_col not in schema_tokens:
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"axis field '{field}': key '{axis}' is "
                            f"not documented in docs/OUTPUT_SCHEMA.md")
        else:
            flag = spec.get("flag", "")
            if not flag:
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"denylist field '{field}' declares no "
                            f"flag in {PLUMBING_JSON}")
            if not spec.get("never_serialized", "").strip():
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"denylist field '{field}' has no "
                            f"never_serialized justification")
            key = flag.lstrip("-")
            if key and key in option_keys:
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"never-serialized field '{field}' "
                            f"('{key}') appears in optionKeys(): it "
                            f"would leak into sweep identities")
        if flag:
            if not usage_documents(flag):
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"field '{field}': flag '{flag}' is not "
                            f"in the {opts_cpp} usage/parse strings")
            if readme and flag not in readme \
                    and f"`{flag.lstrip('-')}`" not in readme:
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"field '{field}': flag '{flag}' is not "
                            f"documented in README.md")
        knob = spec.get("knob")
        if knob:
            if knob_fields is not None and knob not in knob_fields:
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"field '{field}': declared knob "
                            f"'{knob}' is not a RunKnobs member "
                            f"({runner_hpp})")
            if runner_text and f"knobs.{knob}" not in runner_text:
                add_finding(findings, supp, rel, 1, "flag-plumbing",
                            f"field '{field}': knob '{knob}' is "
                            f"never assigned (knobs.{knob}) in "
                            f"{runner_cpp}")

    for field in declared:
        if field not in fields:
            add_finding(findings, supp, str(PLUMBING_JSON), 1,
                        "flag-plumbing",
                        f"plumbing entry '{field}' has no matching "
                        f"DriverOptions field (stale contract entry)")
    return findings


# ---------------------------------------------------------------------
# env-registry
# ---------------------------------------------------------------------

def parse_env_registry(tokens):
    """{constant name: env var} from src/common/env.hpp."""
    entries = {}
    for i in range(len(tokens) - 2):
        if (tokens[i].kind == "id" and tokens[i].text.startswith("k")
                and tokens[i + 1].kind == "punct"
                and tokens[i + 1].text == "="
                and tokens[i + 2].kind == "str"):
            entries[tokens[i].text] = tokens[i + 2].text.strip('"')
    return entries


def audit_env_registry(root, supp, cache=None):
    root = Path(root)
    cache = cache or TokenCache(root)
    findings = []
    reg_rel = str(ENV_REGISTRY)
    if not (root / ENV_REGISTRY).is_file():
        return [Finding(reg_rel, 1, "env-registry",
                        "env registry header is missing")]
    registry = parse_env_registry(cache.tokens(reg_rel))

    docs_blob = ""
    if (root / "README.md").is_file():
        docs_blob += (root / "README.md").read_text(encoding="utf-8")
    docs_dir = root / "docs"
    if docs_dir.is_dir():
        for doc in sorted(docs_dir.glob("*.md")):
            docs_blob += doc.read_text(encoding="utf-8")

    used_constants = set()
    for rel in src_files(root):
        tokens = cache.tokens(rel)
        if rel != reg_rel:
            for t in tokens:
                if t.kind == "id" and t.text in registry:
                    used_constants.add(t.text)
        for i, t in enumerate(tokens):
            if not (t.kind == "id" and t.text == "getenv"):
                continue
            if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
                continue
            close = cpplex.match_forward(tokens, i + 1, "(", ")")
            args = tokens[i + 2:close]
            str_args = [a for a in args if a.kind == "str"]
            if str_args:
                var = str_args[0].text.strip('"')
                add_finding(findings, supp, rel, t.line,
                            "env-registry",
                            f"getenv(\"{var}\") uses a raw string "
                            f"literal; declare the switch in "
                            f"{reg_rel} and reference the constant")
                continue
            ids = [a.text for a in args if a.kind == "id"]
            name = ids[-1] if ids else None
            if name is None or name not in registry:
                add_finding(findings, supp, rel, t.line,
                            "env-registry",
                            f"getenv({name or '<expr>'}) does not "
                            f"reference a constant declared in "
                            f"{reg_rel}")

    for const, var in sorted(registry.items()):
        if const not in used_constants:
            add_finding(findings, supp, reg_rel, 1, "env-registry",
                        f"registry entry {const} (\"{var}\") is "
                        f"never read in src/ (stale kill switch)")
        if var not in docs_blob:
            add_finding(findings, supp, reg_rel, 1, "env-registry",
                        f"env var {var} is not documented in "
                        f"README.md or docs/")
    return findings


# ---------------------------------------------------------------------
# thread-escape
# ---------------------------------------------------------------------

POOL_ID_RE = re.compile(r"[A-Za-z_]*pool_?$")


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
    def __init__(self, cache, classes, supp, findings):
        self.cache = cache
        self.classes = classes
        self.supp = supp
        self.findings = findings


def _analyze_span(ctx, rel, start, end, class_name, chain,
                  ref_default, ref_captures, visited, depth,
                  params=None):
    tokens = ctx.cache.tokens(rel)
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
                add_finding(ctx.findings, ctx.supp, rel, t.line,
                            "thread-escape",
                            f"worker lambda writes shared member "
                            f"'{nxt.text}' without a subscript"
                            f"{via}")
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
                add_finding(ctx.findings, ctx.supp, rel, t.line,
                            "thread-escape",
                            f"worker lambda writes shared member "
                            f"'{t.text}' without a subscript{via}")
            elif not chain and (
                    t.text in ref_captures
                    or (ref_default and t.text not in declared)):
                how = ("captured by reference"
                       if t.text in ref_captures
                       else "visible through the [&] default "
                            "capture")
                add_finding(ctx.findings, ctx.supp, rel, t.line,
                            "thread-escape",
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
                        add_finding(
                            ctx.findings, ctx.supp, rel, t.line,
                            "thread-escape",
                            f"{verdict} on shared member "
                            f"'{base.text}' in a worker lambda"
                            f"{via}")
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
    if ctx.supp.check(rel, tok.line, "thread-escape"):
        return
    visited.add(key)
    body_rel, body_start, body_end = info["body"]
    _analyze_span(ctx, body_rel, body_start + 1, body_end - 1,
                  class_name, chain + [tok.text], False, set(),
                  visited, depth + 1)


def audit_thread_escape(root, supp, cache=None):
    root = Path(root)
    cache = cache or TokenCache(root)
    findings = []
    files = src_files(root)

    classes = {}
    for rel in files:
        parse_class_defs(cache.tokens(rel), rel, classes)
    def_spans = {}
    for rel in files:
        if rel.endswith(".cpp"):
            def_spans[rel] = method_definitions(cache.tokens(rel),
                                                rel, classes)

    ctx = EscapeContext(cache, classes, supp, findings)
    for rel in files:
        tokens = cache.tokens(rel)
        spans = def_spans.get(rel, [])
        for i in range(len(tokens) - 3):
            if not (tokens[i].kind == "id"
                    and POOL_ID_RE.fullmatch(tokens[i].text)
                    and tokens[i + 1].kind == "punct"
                    and tokens[i + 1].text in ("->", ".")
                    and tokens[i + 2].kind == "id"
                    and tokens[i + 2].text == "run"
                    and tokens[i + 3].kind == "punct"
                    and tokens[i + 3].text == "("):
                continue
            call_end = cpplex.match_forward(tokens, i + 3, "(", ")")
            enclosing = None
            for s, e, cls_name in spans:
                if s <= i <= e:
                    enclosing = cls_name
                    break
            # The lambda: first '[' inside the call's argument list.
            lam = None
            for j in range(i + 4, call_end):
                if tokens[j].kind == "punct" and tokens[j].text == "[":
                    lam = j
                    break
            if lam is None:
                continue
            cap_end = cpplex.match_forward(tokens, lam, "[", "]")
            body_start = None
            for j in range(cap_end + 1, call_end):
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
    return findings


# ---------------------------------------------------------------------
# stale-suppression
# ---------------------------------------------------------------------

def audit_stale_suppressions(root, supp, lint_used):
    """Allow-comments (both tools) that absorbed no live finding."""
    root = Path(root)
    findings = []
    findings += supp.malformed
    for rel, line, cls in sorted(supp.comments):
        if (rel, line, cls) not in supp.used:
            findings.append(Finding(
                rel, line, "stale-suppression",
                f"capstan-audit allow({cls}) no longer suppresses "
                f"any live finding; delete it (its justification "
                f"now documents a hazard that does not exist)"))
    for rel in corpus_files(root):
        text = (root / rel).read_text(encoding="utf-8")
        for idx, line in enumerate(text.splitlines(), start=1):
            m = capstan_lint.ALLOW_RE.search(line)
            if not m:
                continue
            cls, why = m.group(1), (m.group(2) or "").strip()
            if cls not in capstan_lint.LINT_CLASSES or not why:
                continue  # capstan-lint flags these as bad-suppression
            if (rel, idx, cls) not in lint_used:
                findings.append(Finding(
                    rel, idx, "stale-suppression",
                    f"capstan-lint allow({cls}) no longer "
                    f"suppresses any live finding; delete it"))
    return findings


def collect_lint_usage(root):
    """Run capstan-lint's analyses purely to learn which of its
    suppressions are still absorbing findings."""
    used = set()
    capstan_lint.lint_tree(Path(root), used_suppressions=used)
    return used


# ---------------------------------------------------------------------
# Driver, self-test
# ---------------------------------------------------------------------

def load_suppressions(root):
    supp = Suppressions()
    for rel in corpus_files(root):
        supp.load(rel, (Path(root) / rel).read_text(encoding="utf-8"))
    return supp


def run_audit(root, build_dir=None, dot_path=None,
              write_diagram=False):
    root = Path(root)
    cache = TokenCache(root)
    supp = load_suppressions(root)
    findings = []
    dag_findings, _ = audit_layer_dag(
        root, supp, cache, build_dir=build_dir, dot_path=dot_path,
        write_diagram=write_diagram)
    findings += dag_findings
    findings += audit_flag_plumbing(root, supp, cache)
    findings += audit_env_registry(root, supp, cache)
    findings += audit_thread_escape(root, supp, cache)
    lint_used = collect_lint_usage(root)
    findings += audit_stale_suppressions(root, supp, lint_used)
    return findings


# Each fixture pair is a miniature repo root; `bad` must produce at
# least one finding of the class, `clean` none.
def self_test():
    base = _HERE / "fixtures"
    failures = []

    def run_class(cls, fixture_root):
        cache = TokenCache(fixture_root)
        supp = load_suppressions(fixture_root)
        if cls == "layer-dag":
            return audit_layer_dag(fixture_root, supp, cache)[0]
        if cls == "flag-plumbing":
            return audit_flag_plumbing(fixture_root, supp, cache)
        if cls == "env-registry":
            return audit_env_registry(fixture_root, supp, cache)
        if cls == "thread-escape":
            return audit_thread_escape(fixture_root, supp, cache)
        if cls == "stale-suppression":
            audit_thread_escape(fixture_root, supp, cache)
            lint_used = collect_lint_usage(fixture_root)
            return audit_stale_suppressions(fixture_root, supp,
                                            lint_used)
        raise AssertionError(cls)

    checked = 0
    for cls in AUDIT_CLASSES:
        fixture = base / cls.replace("-", "_")
        for kind, want in (("bad", True), ("clean", False)):
            troot = fixture / kind
            if not troot.is_dir():
                failures.append(f"{cls}/{kind}: fixture missing")
                continue
            found = [f for f in run_class(cls, troot)
                     if f.cls == cls]
            checked += 1
            if want and not found:
                failures.append(
                    f"{cls}/bad: seeded violation not caught")
            if not want and found:
                failures.append(
                    f"{cls}/clean: unexpected findings: "
                    + "; ".join(str(f) for f in found))

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}")
        return 1
    print(f"capstan-audit self-test: {checked} fixture trees OK")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        prog="capstan-audit",
        description="Cross-TU architectural checks (see module "
                    "docstring and docs/STATIC_ANALYSIS.md).")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--build-dir", default=None,
                    help="build tree with compile_commands.json "
                         "(optional; falls back to --root/src as the "
                         "only include dir)")
    ap.add_argument("--dot", default=None, metavar="FILE",
                    help="write the file-level include graph as "
                         "Graphviz DOT")
    ap.add_argument("--write-diagram", action="store_true",
                    help="rewrite the generated layer diagram in "
                         "docs/ARCHITECTURE.md from layers.json")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture self-test and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"capstan-audit: no src/ under {root}", file=sys.stderr)
        return 2

    findings = run_audit(root, build_dir=args.build_dir,
                         dot_path=args.dot,
                         write_diagram=args.write_diagram)
    for f in findings:
        print(f)
    if findings:
        counts = {}
        for f in findings:
            counts[f.cls] = counts.get(f.cls, 0) + 1
        summary = ", ".join(f"{c} {k}"
                            for k, c in sorted(counts.items()))
        print(f"capstan-audit: {len(findings)} finding(s): "
              f"{summary}")
        return 1
    print("capstan-audit: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
