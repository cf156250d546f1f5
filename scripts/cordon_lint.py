#!/usr/bin/env python3
"""Repo lint for invariants no compiler flag checks (docs/STATIC_ANALYSIS.md).

Rules
  R1 arena-discipline   no raw `new` or owning-vector growth inside a
                        solver round loop (a loop whose body calls
                        stats.add_round() or opens a telemetry::RoundSpan).
                        Suppress a deliberate allocation with
                        `// lint: allow-alloc (reason)`.
  R2 kernel-oracle      every vectorized kernel in src/core/kernels.hpp
                        has a same-name kernels::scalar reference, or an
                        explicit `// lint: oracle=<name>` pointing at the
                        scalar oracle it is tested against — and is
                        exercised by tests/test_kernels.cpp.
  R3 atomic-order       every std::atomic (or std::atomic_ref) access in
                        src/parallel/ and src/core/dp_stats.hpp spells its
                        memory_order explicitly and carries an adjacent
                        `// order:` comment justifying it.
  R4 telemetry-coverage every Counter/Gauge/Histogram symbol declared in
                        src/core/telemetry.hpp is used somewhere outside
                        that header, and every exported metric name is
                        documented in docs/OBSERVABILITY.md.
  R5 error-taxonomy     no bare `catch (...)` in production code (src/,
                        examples/, tools/) that swallows the exception:
                        the body must rethrow (`throw;`), inspect it
                        (std::current_exception), or convert it to a
                        core::SolveError — anything else erases failures
                        the docs/ROBUSTNESS.md taxonomy promises callers.
                        Suppress a deliberate swallow with
                        `// lint: allow-catch (reason)`.

Exit status: 0 clean, 1 violations (printed as path:line: R<n>: message),
2 usage/internal error.  `--fixtures` self-tests the rules against
tests/lint_fixtures/ — every fixture must trip exactly the rule named in
its `// lint-fixture: R<n>` header.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SOLVER_DIRS = ["src/lis", "src/lcs", "src/glws", "src/kglws", "src/gap",
               "src/oat", "src/obst", "src/treeglws"]
PARALLEL_DIR = "src/parallel"
DP_STATS_HPP = "src/core/dp_stats.hpp"  # per-worker work-counter shards
KERNELS_HPP = "src/core/kernels.hpp"
TELEMETRY_HPP = "src/core/telemetry.hpp"
KERNEL_TESTS = "tests/test_kernels.cpp"
OBSERVABILITY_MD = "docs/OBSERVABILITY.md"


class Violation:
    def __init__(self, path: str, line: int, rule: str, msg: str):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.msg}"


def strip_comments(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets and
    newlines so line numbers and brace matching stay valid."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append(text[i] if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append(text[i] if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def match_paren(text: str, open_pos: int, open_ch: str, close_ch: str) -> int:
    """Index just past the matching close bracket, or len(text)."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def loop_body_span(stripped: str, kw_pos: int) -> tuple[int, int] | None:
    """Body span [start, end) of the loop statement starting at kw_pos."""
    paren = stripped.find("(", kw_pos)
    if paren == -1:
        return None
    after = match_paren(stripped, paren, "(", ")")
    j = after
    while j < len(stripped) and stripped[j] in " \t\n":
        j += 1
    if j >= len(stripped):
        return None
    if stripped[j] == "{":
        return (j, match_paren(stripped, j, "{", "}"))
    semi = stripped.find(";", j)
    return (j, len(stripped) if semi == -1 else semi + 1)


ROUND_MARK = re.compile(r"\badd_round\s*\(|\bRoundSpan\b")
GROWTH = re.compile(r"\bnew\b\s*[\w(\[]|\.(push_back|emplace_back|resize|"
                    r"reserve)\s*\(")
ALLOW_ALLOC = "lint: allow-alloc"


def check_r1(path: str, text: str) -> list[Violation]:
    """Round loops must not allocate (arena discipline)."""
    stripped = strip_comments(text)
    lines = text.splitlines()
    spans = []
    for m in re.finditer(r"\b(for|while)\s*\(", stripped):
        span = loop_body_span(stripped, m.start())
        if span and ROUND_MARK.search(stripped, span[0], span[1]):
            spans.append(span)
    out = []
    seen = set()
    for start, end in spans:
        for g in GROWTH.finditer(stripped, start, end):
            ln = line_of(stripped, g.start())
            if ln in seen:
                continue
            seen.add(ln)
            if ALLOW_ALLOC in lines[ln - 1]:
                continue
            what = g.group(0).strip().rstrip("(").strip()
            out.append(Violation(path, ln, "R1",
                                 f"'{what}' allocates inside a solver round "
                                 "loop; use the round arena or annotate "
                                 "'// lint: allow-alloc (reason)'"))
    return out


FUNC_DECL = re.compile(r"^\s*inline\s+[\w:<>,&*\s]+?\b(\w+)\s*\(",
                       re.MULTILINE)
ORACLE_NOTE = re.compile(r"lint:\s*oracle=(\w+)")


def check_r2(path: str, text: str, test_text: str) -> list[Violation]:
    """Every vectorized kernel has a scalar oracle and a reference test."""
    stripped = strip_comments(text)
    m = re.search(r"namespace\s+scalar\s*\{", stripped)
    if not m:
        return [Violation(path, 1, "R2", "no kernels::scalar namespace found")]
    s_start = m.end() - 1
    s_end = match_paren(stripped, s_start, "{", "}")

    scalar_names, kernel_decls = set(), []
    for fm in FUNC_DECL.finditer(stripped):
        name = fm.group(1)
        # Anchor on the name, not the match start: ^\s* can swallow the
        # blank/comment lines above the declaration in stripped text.
        if s_start <= fm.start() < s_end:
            scalar_names.add(name)
        elif fm.start() > s_end:
            kernel_decls.append((name, line_of(stripped, fm.start(1))))

    lines = text.splitlines()
    out = []
    for name, ln in kernel_decls:
        context = "\n".join(lines[max(0, ln - 4):ln])
        note = ORACLE_NOTE.search(context)
        oracle = note.group(1) if note else name
        if oracle not in scalar_names:
            out.append(Violation(path, ln, "R2",
                                 f"kernel '{name}' has no kernels::scalar "
                                 "oracle (add scalar::" + oracle + " or a "
                                 "'// lint: oracle=<name>' note)"))
        if not re.search(rf"\b{re.escape(name)}\s*[(<]", test_text):
            out.append(Violation(path, ln, "R2",
                                 f"kernel '{name}' is never exercised by "
                                 f"{KERNEL_TESTS}"))
    return out


ATOMIC_OP = re.compile(r"\.(load|store|exchange|fetch_add|fetch_sub|fetch_or|"
                       r"fetch_and|compare_exchange_weak|"
                       r"compare_exchange_strong)\s*\(")


def check_r3(path: str, text: str) -> list[Violation]:
    """Atomic accesses spell their order and justify it."""
    stripped = strip_comments(text)
    lines = text.splitlines()
    out = []
    for m in ATOMIC_OP.finditer(stripped):
        op = m.group(1)
        open_paren = stripped.find("(", m.end() - 1)
        close = match_paren(stripped, open_paren, "(", ")")
        args = stripped[open_paren:close]
        first = line_of(stripped, m.start())
        last = line_of(stripped, close - 1)
        if "memory_order" not in args:
            out.append(Violation(path, first, "R3",
                                 f".{op}() relies on the default "
                                 "std::memory_order_seq_cst; spell the "
                                 "order explicitly"))
            continue
        window = "\n".join(lines[max(0, first - 5):last])
        if "// order:" not in window:
            out.append(Violation(path, first, "R3",
                                 f".{op}() has no adjacent '// order:' "
                                 "comment justifying its memory order"))
    return out


ENUM_BLOCK = re.compile(r"enum\s+class\s+(Counter|Gauge|Histogram)[^{]*\{")
METRIC_NAME = re.compile(r"\{\s*\"(cordon_\w+)\"")


def check_r4(path: str, text: str, usage_text: str,
             docs_text: str) -> list[Violation]:
    """Telemetry symbols are incremented somewhere and surfaced in docs."""
    stripped = strip_comments(text)
    out = []
    for bm in ENUM_BLOCK.finditer(stripped):
        body_end = match_paren(stripped, bm.end() - 1, "{", "}")
        body = stripped[bm.end():body_end - 1]
        base = line_of(stripped, bm.end())
        for i, raw in enumerate(body.split("\n")):
            sym = raw.strip().rstrip(",").strip()
            if not sym or sym == "kCount":
                continue
            if not re.fullmatch(r"k\w+", sym):
                continue
            if not re.search(rf"\b{re.escape(sym)}\b", usage_text):
                out.append(Violation(path, base + i, "R4",
                                     f"{bm.group(1)}::{sym} is declared but "
                                     "never updated outside telemetry.hpp"))
    for nm in METRIC_NAME.finditer(text):
        if nm.group(1) not in docs_text:
            out.append(Violation(path, line_of(text, nm.start()), "R4",
                                 f"metric '{nm.group(1)}' is exported but "
                                 f"not documented in {OBSERVABILITY_MD}"))
    return out


CATCH_ALL = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")
CATCH_CONVERTS = re.compile(r"\bthrow\s*;|\bSolveError\b|"
                            r"std::current_exception")
ALLOW_CATCH = "lint: allow-catch"


def check_r5(path: str, text: str) -> list[Violation]:
    """Bare catch(...) must rethrow or convert to the SolveError taxonomy."""
    stripped = strip_comments(text)
    lines = text.splitlines()
    out = []
    for m in CATCH_ALL.finditer(stripped):
        brace = stripped.find("{", m.end())
        if brace == -1:
            continue
        end = match_paren(stripped, brace, "{", "}")
        if CATCH_CONVERTS.search(stripped, brace, end):
            continue
        first = line_of(stripped, m.start())
        last = line_of(stripped, end - 1)
        window = "\n".join(lines[max(0, first - 3):min(len(lines), last + 1)])
        if ALLOW_CATCH in window:
            continue
        out.append(Violation(path, first, "R5",
                             "bare 'catch (...)' swallows the exception; "
                             "rethrow ('throw;'), convert it to a "
                             "core::SolveError, or annotate "
                             "'// lint: allow-catch (reason)'"))
    return out


def source_files(root: pathlib.Path, rel_dirs: list[str]) -> list[pathlib.Path]:
    files = []
    for d in rel_dirs:
        p = root / d
        if p.is_dir():
            files.extend(sorted(p.rglob("*.hpp")) + sorted(p.rglob("*.cpp")))
    return files


def lint_tree(root: pathlib.Path) -> list[Violation]:
    out = []
    for f in source_files(root, SOLVER_DIRS):
        out.extend(check_r1(str(f.relative_to(root)), f.read_text()))
    kernels = root / KERNELS_HPP
    tests = root / KERNEL_TESTS
    if kernels.is_file():
        out.extend(check_r2(KERNELS_HPP, kernels.read_text(),
                            tests.read_text() if tests.is_file() else ""))
    r3_files = source_files(root, [PARALLEL_DIR]) + [root / DP_STATS_HPP]
    for f in r3_files:
        if f.is_file():
            out.extend(check_r3(str(f.relative_to(root)), f.read_text()))
    telemetry = root / TELEMETRY_HPP
    if telemetry.is_file():
        usage = []
        for f in source_files(root, ["src", "tools"]):
            if f != telemetry:
                usage.append(f.read_text())
        docs = root / OBSERVABILITY_MD
        out.extend(check_r4(TELEMETRY_HPP, telemetry.read_text(),
                            "\n".join(usage),
                            docs.read_text() if docs.is_file() else ""))
    for f in source_files(root, ["src", "examples", "tools"]):
        out.extend(check_r5(str(f.relative_to(root)), f.read_text()))
    return out


FIXTURE_HEADER = re.compile(r"lint-fixture:\s*(R\d)")


def run_fixture(rule: str, path: str, text: str) -> list[Violation]:
    if rule == "R1":
        return check_r1(path, text)
    if rule == "R2":
        # Self-contained: the fixture supplies its own scalar namespace
        # and doubles as its own (empty-enough) test file.
        return check_r2(path, text, text)
    if rule == "R3":
        return check_r3(path, text)
    if rule == "R4":
        # Empty usage/docs context: the fixture's symbols must count as
        # unused and undocumented.
        return check_r4(path, text, "", "")
    if rule == "R5":
        return check_r5(path, text)
    raise ValueError(f"unknown rule {rule}")


def lint_fixtures(root: pathlib.Path) -> int:
    fixture_dir = root / "tests" / "lint_fixtures"
    fixtures = sorted(fixture_dir.glob("*.cpp")) + \
        sorted(fixture_dir.glob("*.hpp"))
    if not fixtures:
        print(f"cordon_lint: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2
    failed = 0
    for f in fixtures:
        text = f.read_text()
        m = FIXTURE_HEADER.search(text)
        if not m:
            print(f"{f}: missing '// lint-fixture: R<n>' header")
            failed += 1
            continue
        rule = m.group(1)
        hits = [v for v in run_fixture(rule, f.name, text) if v.rule == rule]
        if hits:
            print(f"fixture {f.name}: OK ({rule} fired {len(hits)}x)")
        else:
            print(f"fixture {f.name}: FAIL — expected {rule} to fire and it "
                  "did not")
            failed += 1
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--fixtures", action="store_true",
                    help="self-test the rules against tests/lint_fixtures/")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()
    if not (root / "CMakeLists.txt").is_file():
        print(f"cordon_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    if args.fixtures:
        return lint_fixtures(root)
    violations = lint_tree(root)
    for v in violations:
        print(v)
    if violations:
        print(f"cordon_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("cordon_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
