#!/usr/bin/env python3
"""capstan-lint: project-invariant static checks over src/ (all
classes) and tests/ + tools/ (the determinism classes — goldens and
fixtures feed byte-compared artifacts too; seeded lint/audit fixture
corpora are excluded).

The reproduction's correctness claims rest on invariants the compiler
cannot see: byte-identical stats across thread counts and platforms, a
single validated CLI parse path with an exit-2 usage-error contract,
and an output schema that documents every emitted stat key. This tool
turns those conventions into machine-checked properties (run as the
`lint`-labeled ctest jobs and the CI lint job).

Lint classes
------------
unordered-iter   Iterating a std::unordered_map/unordered_set.
                 Bucket order is an implementation detail of the
                 standard library, so any iteration that feeds stats,
                 JSON, or Markdown makes reports platform-dependent.
                 Declarations are collected from the file and its
                 same-stem header/source sibling.
nondet-source    rand()/srand(), std::random_device, time(), or a
                 chrono clock's now() in simulation code: wall-clock
                 and entropy must never flow into results (workloads
                 use fixed-seed mt19937 engines instead).
pointer-print    Streaming a pointer value (`<< &x`, `<< ptr` via
                 void*/reinterpret_cast, printf %p): addresses are
                 randomized per run, so printing one breaks
                 byte-comparability.
raw-parse        Raw stoi/stod/atoi/strtol-family calls outside
                 src/driver/options.cpp (the single validated numeric
                 parse path behind the exit-2 usage-error contract).
pragma-once      A header without `#pragma once` before any code.
using-namespace  `using namespace` at any scope in a header leaks
                 into every includer.
schema-sync      Every JSON stat key emitted by the driver/report
                 writers is documented in docs/OUTPUT_SCHEMA.md, and
                 every study in data/paper_reference.json is
                 registered in src/report/study.cpp. With
                 --report-json, additionally: every tolerance-checked
                 reference metric was actually produced by a study.
raw-csr          A raw CSR row accessor (.rowIndices/.rowValues/
                 .rowPtr/.rowLength/.colIdx) outside src/sparse/.
                 Matrix consumers must read through the
                 sparse::MatrixView seam so every app works with both
                 the plain-CSR and the compressed backing store
                 (--matrix-store); a direct CSR access silently pins
                 the code to one backing. Locally built CSR results
                 (an app's own product matrix) can wrap a local
                 MatrixView or suppress with a justification.
bad-suppression  A capstan-lint allow-comment without a justification.

Suppressing a finding
---------------------
Add, on the flagged line or an immediately preceding comment line:

    // capstan-lint: allow(<class>) -- <why this one is safe>

The justification after `--` is mandatory; an allow-comment without
one is itself a finding. See docs/STATIC_ANALYSIS.md.

Exit codes: 0 clean, 1 findings, 2 usage error (matching the repo's
CLI contract). Python 3.8+, standard library only.
"""

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

LINT_CLASSES = (
    "unordered-iter",
    "nondet-source",
    "pointer-print",
    "raw-parse",
    "pragma-once",
    "using-namespace",
    "schema-sync",
    "raw-csr",
    "bad-suppression",
)

# The one place raw numeric parsing is allowed: the validated parse
# helpers every CLI funnels through.
RAW_PARSE_ALLOWED = {os.path.join("src", "driver", "options.cpp")}

# The sparse layer itself implements the backings and may touch raw
# CSR arrays; everything else must go through sparse::MatrixView.
RAW_CSR_ALLOWED_PREFIX = os.path.join("src", "sparse") + os.sep
RAW_CSR_RE = re.compile(
    r"(?:\.|->)\s*(rowIndices|rowValues|rowPtr|rowLength|colIdx)"
    r"\s*\(")

# JSON writers whose .set("key") literals define the output schema.
SCHEMA_EMITTERS = (
    os.path.join("src", "driver", "runner.cpp"),
    os.path.join("src", "driver", "sweep.cpp"),
    os.path.join("src", "report", "render.cpp"),
)
SCHEMA_DOC = os.path.join("docs", "OUTPUT_SCHEMA.md")
REFERENCE_JSON = os.path.join("data", "paper_reference.json")
STUDY_REGISTRY = os.path.join("src", "report", "study.cpp")

NONDET_PATTERNS = (
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w_])time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "time()"),
    (re.compile(r"_clock\s*::\s*now\s*\("), "chrono clock now()"),
)

POINTER_PRINT_PATTERNS = (
    (re.compile(r"<<\s*&[A-Za-z_]"), "streams an address-of"),
    (re.compile(r"<<\s*static_cast<\s*(?:const\s+)?void\s*\*"),
     "streams a void* cast"),
    (re.compile(r"<<\s*reinterpret_cast<"),
     "streams a reinterpret_cast"),
    (re.compile(r'%p[^A-Za-z0-9]|%p$'), "printf-style %p"),
)

RAW_PARSE_RE = re.compile(
    r"(?<![\w:.])(?:std\s*::\s*)?"
    r"(stoi|stol|stoll|stoul|stoull|stof|stod|stold|"
    r"atoi|atol|atoll|atof|"
    r"strtol|strtoll|strtoul|strtoull|strtof|strtod|strtold|"
    r"sscanf)\s*\(")

UNORDERED_DECL_RE = re.compile(r"std\s*::\s*unordered_(?:map|set)\s*<")

ALLOW_RE = re.compile(
    r"capstan-lint:\s*allow\(([a-z-]+)\)\s*(?:--\s*(.*))?")
SET_KEY_RE = re.compile(r'\.\s*set\(\s*"([^"]+)"')
STUDY_DECL_RE = re.compile(r'\{\s*"([A-Za-z0-9_]+)"\s*,\s*"')


class Finding:
    def __init__(self, path, line, cls, message):
        self.path = path
        self.line = line
        self.cls = cls
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.cls}] {self.message}"


def strip_comments(text):
    """Blank out comments, preserving line structure and offsets."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":  # unterminated; bail at EOL
                    break
                j += 1
            out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_suppressions(lines):
    """Map line number -> {class: allow-comment line}.

    An allow-comment suppresses findings of its class on its own line,
    on any directly following comment-only lines, and on the first
    code line after the comment block. The allow-comment's own line is
    kept so a consumer (capstan-audit's stale-suppression class) can
    tell which suppressions actually absorbed a finding.
    """
    suppressed = {}
    findings = []
    for idx, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        cls, why = m.group(1), (m.group(2) or "").strip()
        if cls not in LINT_CLASSES:
            findings.append(Finding(
                "?", idx, "bad-suppression",
                f"allow({cls}) names an unknown lint class"))
            continue
        if not why:
            findings.append(Finding(
                "?", idx, "bad-suppression",
                f"allow({cls}) without a justification after '--'"))
            continue
        span = [idx]
        j = idx  # 0-based index of the next line
        while j < len(lines):
            stripped = lines[j].strip()
            span.append(j + 1)
            if stripped and not stripped.startswith("//"):
                break
            j += 1
        for ln in span:
            suppressed.setdefault(ln, {}).setdefault(cls, idx)
    return suppressed, findings


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


# The determinism trio also runs over tests/ and tools/: goldens and
# fixtures feed byte-compared artifacts, so they must be as
# deterministic as src/. The structural/layering classes stay
# src-only (tests legitimately parse strings, print addresses of
# nothing, and include what they like).
DETERMINISM_CLASSES = frozenset(
    {"unordered-iter", "nondet-source", "pointer-print",
     "bad-suppression"})


def lint_source(relpath, text, sibling_text="", classes=None,
                used_suppressions=None):
    """Per-file lint classes over one source/header file.

    @p classes restricts which lint classes run (None = all).
    @p used_suppressions, when a set, collects
    (relpath, allow_line, class) for every suppression that absorbed
    a live finding — the input for capstan-audit's stale-suppression
    class.
    """
    findings = []
    lines = text.splitlines()
    suppressed, supp_findings = collect_suppressions(lines)
    for f in supp_findings:
        if classes is not None and f.cls not in classes:
            continue
        f.path = relpath
        findings.append(f)
    code = strip_comments(text)
    code_lines = code.splitlines()

    def add(line_no, cls, message):
        if classes is not None and cls not in classes:
            return
        allow_line = suppressed.get(line_no, {}).get(cls)
        if allow_line is not None:
            if used_suppressions is not None:
                used_suppressions.add((relpath, allow_line, cls))
            return
        findings.append(Finding(relpath, line_no, cls, message))

    is_header = relpath.endswith((".hpp", ".h"))

    # pragma-once / using-namespace -----------------------------------
    if is_header:
        if "#pragma once" not in code:
            add(1, "pragma-once", "header without #pragma once")
        else:
            for idx, line in enumerate(code_lines, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                if not stripped.startswith("#pragma once"):
                    add(idx, "pragma-once",
                        "header code before #pragma once")
                break
        for idx, line in enumerate(code_lines, start=1):
            if re.search(r"(?<![\w_])using\s+namespace\s+[\w:]+", line):
                add(idx, "using-namespace",
                    "using-namespace in a header leaks into every "
                    "includer")

    # unordered-iter ---------------------------------------------------
    names = unordered_names(code) | unordered_names(
        strip_comments(sibling_text))
    if names:
        name_alt = "|".join(sorted(re.escape(n) for n in names))
        iter_res = (
            re.compile(r"for\s*\([^;)]*:\s*(?:this->)?(" + name_alt +
                       r")\s*\)"),
            # begin() only: a bare end() comparison is the find/erase
            # lookup idiom and touches no bucket order.
            re.compile(r"\b(" + name_alt + r")\s*\.\s*c?r?begin\s*\("),
        )
        for idx, line in enumerate(code_lines, start=1):
            for rx in iter_res:
                m = rx.search(line)
                if m:
                    add(idx, "unordered-iter",
                        f"iteration over unordered container "
                        f"'{m.group(1)}' (bucket order is platform-"
                        f"dependent)")
                    break

    # nondet-source ----------------------------------------------------
    for idx, line in enumerate(code_lines, start=1):
        for rx, what in NONDET_PATTERNS:
            if rx.search(line):
                add(idx, "nondet-source",
                    f"{what}: entropy/wall-clock must not flow into "
                    f"results")

    # pointer-print ----------------------------------------------------
    for idx, line in enumerate(code_lines, start=1):
        for rx, what in POINTER_PRINT_PATTERNS:
            if rx.search(line):
                add(idx, "pointer-print",
                    f"{what}: addresses are randomized per run")

    # raw-parse --------------------------------------------------------
    if relpath.replace("\\", "/") not in {
            p.replace("\\", "/") for p in RAW_PARSE_ALLOWED}:
        for idx, line in enumerate(code_lines, start=1):
            m = RAW_PARSE_RE.search(line)
            if m:
                add(idx, "raw-parse",
                    f"raw {m.group(1)}() outside the validated parse "
                    f"helpers in src/driver/options.cpp")

    # raw-csr ----------------------------------------------------------
    if not relpath.replace("\\", "/").startswith(
            RAW_CSR_ALLOWED_PREFIX.replace("\\", "/")):
        for idx, line in enumerate(code_lines, start=1):
            m = RAW_CSR_RE.search(line)
            if m:
                add(idx, "raw-csr",
                    f"raw CSR accessor .{m.group(1)}() outside "
                    f"src/sparse/; read through sparse::MatrixView so "
                    f"both --matrix-store backings work")

    return findings


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


def lint_schema_sync(root, report_json=None):
    findings = []

    doc_path = root / SCHEMA_DOC
    if not doc_path.is_file():
        return [Finding(SCHEMA_DOC, 1, "schema-sync",
                        "output schema document is missing")]
    tokens = documented_tokens(doc_path.read_text(encoding="utf-8"))

    for rel in SCHEMA_EMITTERS:
        src = root / rel
        if not src.is_file():
            findings.append(Finding(rel, 1, "schema-sync",
                                    "schema emitter missing"))
            continue
        text = strip_comments(src.read_text(encoding="utf-8"))
        for idx, line in enumerate(text.splitlines(), start=1):
            for key in SET_KEY_RE.findall(line):
                if key not in tokens:
                    findings.append(Finding(
                        rel, idx, "schema-sync",
                        f"emitted stat key '{key}' is not documented "
                        f"in {SCHEMA_DOC}"))

    ref_path = root / REFERENCE_JSON
    reg_path = root / STUDY_REGISTRY
    if ref_path.is_file() and reg_path.is_file():
        try:
            ref = json.loads(ref_path.read_text(encoding="utf-8"))
        except ValueError as e:
            return findings + [Finding(REFERENCE_JSON, 1, "schema-sync",
                                       f"unparseable reference: {e}")]
        registered = set(STUDY_DECL_RE.findall(
            strip_comments(reg_path.read_text(encoding="utf-8"))))
        for study in ref.get("studies", {}):
            if study not in registered:
                findings.append(Finding(
                    REFERENCE_JSON, 1, "schema-sync",
                    f"reference study '{study}' is not registered in "
                    f"{STUDY_REGISTRY}"))

        if report_json is not None:
            findings += check_reference_metrics(ref, report_json)

    return findings


def check_reference_metrics(ref, report_json_path):
    """Checked reference metrics must exist in a produced report."""
    findings = []
    try:
        report = json.loads(
            Path(report_json_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return [Finding(str(report_json_path), 1, "schema-sync",
                        f"cannot read report json: {e}")]
    produced = {}
    for entry in report.get("results", []):
        produced[entry.get("name", "")] = set(
            entry.get("metrics", {}) or {})
    for study, body in ref.get("studies", {}).items():
        for metric, spec in body.get("metrics", {}).items():
            if not isinstance(spec, dict):
                continue
            if "rel" not in spec and "abs" not in spec:
                continue  # display-only entry
            if study in produced and metric not in produced[study]:
                findings.append(Finding(
                    REFERENCE_JSON, 1, "schema-sync",
                    f"checked metric '{study}/{metric}' was not "
                    f"produced by the study"))
    return findings


def iter_source_files(root):
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".hpp", ".cpp", ".h"):
            yield path


def iter_aux_source_files(root):
    """C++ sources under tests/ and tools/, minus seeded fixtures
    (those are deliberately violating corpora for the self-tests)."""
    for tree in ("tests", "tools"):
        top = root / tree
        if not top.is_dir():
            continue
        for path in sorted(top.rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".h"):
                continue
            if "fixtures" in path.relative_to(root).parts:
                continue
            yield path


def lint_tree(root, report_json=None, used_suppressions=None):
    findings = []
    siblings = {}
    for path in iter_source_files(root):
        siblings.setdefault(path.with_suffix(""), []).append(path)
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root)
        text = path.read_text(encoding="utf-8")
        sibling_text = ""
        for sib in siblings.get(path.with_suffix(""), []):
            if sib != path:
                sibling_text += sib.read_text(encoding="utf-8")
        findings += lint_source(rel, text, sibling_text,
                                used_suppressions=used_suppressions)
    for path in iter_aux_source_files(root):
        rel = os.path.relpath(path, root)
        findings += lint_source(rel, path.read_text(encoding="utf-8"),
                                classes=DETERMINISM_CLASSES,
                                used_suppressions=used_suppressions)
    findings += lint_schema_sync(root, report_json)
    return findings


# ---------------------------------------------------------------------
# Self-test: every lint class must catch its seeded fixture violation,
# and the clean fixtures must pass.
# ---------------------------------------------------------------------

def fixture_dir():
    return Path(__file__).resolve().parent / "fixtures"


def self_test():
    failures = []
    fixtures = sorted(fixture_dir().glob("*"))
    if not fixtures:
        print("capstan-lint self-test: no fixtures found", file=sys.stderr)
        return 1
    for fx in fixtures:
        if fx.name.startswith("clean"):
            expected = None
        else:
            m = re.match(r"bad_([a-z_]+)\.", fx.name)
            if not m:
                continue
            expected = m.group(1).replace("_", "-")
        found = lint_source(fx.name, fx.read_text(encoding="utf-8"))
        classes = {f.cls for f in found}
        if expected is None:
            if found:
                failures.append(
                    f"{fx.name}: expected clean, got {sorted(classes)}")
        else:
            if expected not in classes:
                failures.append(
                    f"{fx.name}: expected a {expected} finding, got "
                    f"{sorted(classes) or 'none'}")
            unexpected = classes - {expected}
            if unexpected:
                failures.append(
                    f"{fx.name}: unexpected extra findings "
                    f"{sorted(unexpected)}")

    failures += self_test_schema_sync()

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}")
        return 1
    print(f"capstan-lint self-test: {len(fixtures)} fixtures OK, "
          f"schema-sync OK")
    return 0


def self_test_schema_sync():
    """Build a tiny broken tree; schema-sync must flag both halves."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "docs").mkdir()
        (root / "data").mkdir()
        (root / "src" / "driver").mkdir(parents=True)
        (root / "src" / "report").mkdir(parents=True)
        (root / "docs" / "OUTPUT_SCHEMA.md").write_text(
            "Documents `cycles` only.\n")
        (root / "src" / "driver" / "runner.cpp").write_text(
            'doc.set("cycles", 1);\ndoc.set("undocumented_key", 2);\n')
        (root / "src" / "driver" / "sweep.cpp").write_text("\n")
        (root / "src" / "report" / "render.cpp").write_text("\n")
        (root / "src" / "report" / "study.cpp").write_text(
            '{"table4", "Table 4", "t", run},\n')
        (root / "data" / "paper_reference.json").write_text(json.dumps(
            {"studies": {"table4": {"metrics": {}},
                         "ghost_study": {"metrics": {}}}}))
        found = lint_schema_sync(root)
        msgs = "\n".join(str(f) for f in found)
        if "undocumented_key" not in msgs:
            failures.append("schema-sync missed an undocumented key")
        if "ghost_study" not in msgs:
            failures.append("schema-sync missed an unregistered study")
        if "cycles" in msgs or "'table4'" in msgs:
            failures.append("schema-sync flagged documented/registered "
                            "entries")
    return failures


def main(argv):
    ap = argparse.ArgumentParser(
        prog="capstan-lint", add_help=True,
        description="Project-invariant static checks (see module "
                    "docstring and docs/STATIC_ANALYSIS.md).")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--report-json", default=None,
                    help="a produced report.json: additionally check "
                         "every tolerance-checked reference metric "
                         "was produced")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture self-test and exit")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; keep that contract.
        raise e

    if args.self_test:
        return self_test()

    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"capstan-lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings = lint_tree(root, args.report_json)
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
