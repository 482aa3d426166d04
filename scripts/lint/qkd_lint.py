#!/usr/bin/env python3
"""qkd_lint: repo-specific static checks for qkdpp.

Checks (all findings are errors; CI requires a zero-finding run):

  banned-call       rand()/srand()/gets() anywhere, and std::random_device
                    outside src/common/rng.* - key material and simulation
                    randomness must flow through common/rng (seeded,
                    deterministic) so runs stay reproducible and secrets
                    never come from a weak generator.
  secret-log        no QKDPP_LOG/QKDPP_{DEBUG,INFO,WARN,ERROR} (or
                    std::cout/std::cerr insertion) of expressions that name
                    key/tag/LLR material. Sizes and counts are fine; the
                    contents of distilled keys, MAC tags, pad residuals and
                    decoder LLR buffers must never reach a log sink.
  secret-compare    MAC tag comparisons must go through ct_equal (a == on
                    tag values is the classic remote timing oracle;
                    src/auth/wegman_carter.cpp is the reference use).
  relaxed-order     every std::memory_order_relaxed use must be justified
                    by a `// relaxed:` comment in the same paragraph (the
                    comment covers following lines until the next blank
                    line). Unjustified relaxed atomics are where silent
                    reordering bugs live.
  include-hygiene   public headers (src/**/*.hpp) must use #pragma once and
                    include repo headers by their src/-relative path (no
                    "../" or "./" quoted includes), so every header works
                    with the single -Isrc include root.
  unreached-module  every src/ file must be reachable from a deployment.
                    Roots are examples/*.cpp plus each src/**/*.cpp without
                    a header of the same name (engine/stages.cpp); the walk
                    follows quoted #includes, and reaching X.hpp reaches
                    X.cpp too. A src/ file the walk misses is code that only
                    its own tests or benches run, and is a finding.

Usage: qkd_lint.py [repo_root]
Exit status: 0 on zero findings, 1 otherwise.
"""

import pathlib
import re
import sys

CXX_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}

BANNED_CALL = re.compile(r"\b(rand|srand|gets)\s*\(")
RANDOM_DEVICE = re.compile(r"\brandom_device\b")
# Files allowed to touch std::random_device: the repo's single entropy
# boundary (everything else draws from seeded streams it hands out).
RANDOM_DEVICE_ALLOWED = ("src/common/rng.hpp", "src/common/rng.cpp")

# Expressions that name secret material (not sizes/counts of it).
SECRET_EXPR = re.compile(
    r"final_key\b(?!_bits|s\b)"       # distilled key contents
    r"|\btag\.value\b"                # MAC tag words
    r"|\bllrs?\[|\bllrs?\.data\b"     # decoder soft values
    r"|\bresidual\.|\bresidual\["     # pad/segment tails
    r"|\.bits\.data\b|\.bits\["       # StoredKey/BitVec material
)

LOG_MACRO = re.compile(r"\bQKDPP_(LOG|DEBUG|INFO|WARN|ERROR)\s*\(")
STREAM_SINK = re.compile(r"\bstd::c(out|err)\b")

# A tag/MAC value compared with ==/!= instead of ct_equal.
TAG_COMPARE = re.compile(r"(tag\w*\.value\s*[=!]=|[=!]=\s*\w*tag\w*\.value)")

RELAXED = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_JUSTIFICATION = re.compile(r"//.*\brelaxed:")

PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b", re.MULTILINE)
QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

LINE_COMMENT = re.compile(r"//[^\n]*")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\'')


def strip_comments_and_strings(text):
    """Blank out comments and string literals, preserving line structure."""

    def blank(match):
        return re.sub(r"[^\n]", " ", match.group(0))

    text = BLOCK_COMMENT.sub(blank, text)
    text = LINE_COMMENT.sub(blank, text)
    return STRING_LIT.sub(blank, text)


def balanced_argument(code, start):
    """The text of a macro's argument list starting at its '('."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[start : i + 1]
    return code[start:]


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []

    def report(self, path, line, rule, message):
        rel = path.relative_to(self.root)
        self.findings.append(f"{rel}:{line}: [{rule}] {message}")

    def lint_file(self, path):
        text = path.read_text(encoding="utf-8", errors="replace")
        rel = path.relative_to(self.root).as_posix()
        code = strip_comments_and_strings(text)
        code_lines = code.splitlines()
        raw_lines = text.splitlines()

        self.check_banned_calls(path, rel, code_lines)
        if rel.startswith("src/"):
            self.check_secret_log(path, code)
            self.check_secret_compare(path, code_lines)
            self.check_relaxed(path, raw_lines, code_lines)
            if path.suffix == ".hpp":
                self.check_include_hygiene(path, text, raw_lines)

    def check_banned_calls(self, path, rel, code_lines):
        for i, line in enumerate(code_lines, 1):
            match = BANNED_CALL.search(line)
            if match:
                self.report(
                    path, i, "banned-call",
                    f"{match.group(1)}() is banned: use common/rng "
                    "(deterministic, seedable) for randomness")
            if RANDOM_DEVICE.search(line) and rel not in RANDOM_DEVICE_ALLOWED:
                self.report(
                    path, i, "banned-call",
                    "std::random_device outside src/common/rng: all entropy "
                    "enters through the seeded rng boundary")

    def check_secret_log(self, path, code):
        for match in LOG_MACRO.finditer(code):
            args = balanced_argument(code, match.end() - 1)
            if SECRET_EXPR.search(args):
                line = code.count("\n", 0, match.start()) + 1
                self.report(
                    path, line, "secret-log",
                    "log statement names key/tag/LLR material; log sizes "
                    "or ids, never contents")
        for i, line_text in enumerate(code.splitlines(), 1):
            if STREAM_SINK.search(line_text) and SECRET_EXPR.search(line_text):
                self.report(
                    path, i, "secret-log",
                    "stream-inserting key/tag/LLR material; log sizes or "
                    "ids, never contents")

    def check_secret_compare(self, path, code_lines):
        for i, line in enumerate(code_lines, 1):
            if TAG_COMPARE.search(line):
                self.report(
                    path, i, "secret-compare",
                    "tag compared with ==/!=; use ct_equal "
                    "(common/ct_equal.hpp) - branching on secret bytes is "
                    "a timing oracle")

    def check_relaxed(self, path, raw_lines, code_lines):
        justified_until_blank = False
        for i, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
            if not raw.strip():
                justified_until_blank = False
                continue
            if RELAXED_JUSTIFICATION.search(raw):
                justified_until_blank = True
            if RELAXED.search(code) and not justified_until_blank:
                self.report(
                    path, i, "relaxed-order",
                    "memory_order_relaxed without a `// relaxed:` "
                    "justification comment in the same paragraph")

    def check_include_hygiene(self, path, text, raw_lines):
        if not PRAGMA_ONCE.search(text):
            self.report(path, 1, "include-hygiene",
                        "public header without #pragma once")
        src_root = self.root / "src"
        for i, line in enumerate(raw_lines, 1):
            match = QUOTED_INCLUDE.match(line)
            if not match:
                continue
            target = match.group(1)
            if target.startswith("./") or "../" in target:
                self.report(
                    path, i, "include-hygiene",
                    f'relative include "{target}"; include repo headers by '
                    "their src/-relative path")
            elif not (src_root / target).is_file():
                self.report(
                    path, i, "include-hygiene",
                    f'"{target}" does not resolve under the src/ include '
                    "root")

    def check_unreached_modules(self):
        src_root = self.root / "src"
        if not src_root.is_dir():
            return
        modules = {p for p in src_root.rglob("*")
                   if p.suffix in CXX_SUFFIXES and p.is_file()}
        pending = sorted((self.root / "examples").glob("*.cpp"))
        pending += sorted(p for p in modules if p.suffix == ".cpp"
                          and not p.with_suffix(".hpp").is_file())
        reached = set()
        while pending:
            path = pending.pop()
            if path in reached:
                continue
            reached.add(path)
            if path.suffix == ".hpp" and path.with_suffix(".cpp").is_file():
                pending.append(path.with_suffix(".cpp"))
            text = path.read_text(encoding="utf-8", errors="replace")
            for line in text.splitlines():
                match = QUOTED_INCLUDE.match(line)
                if match and (src_root / match.group(1)).is_file():
                    pending.append(src_root / match.group(1))
        for path in sorted(modules - reached):
            self.report(
                path, 1, "unreached-module",
                "no example or engine translation unit reaches this file "
                "through #includes; delete it or wire it into a deployment")


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".").resolve()
    linter = Linter(root)
    linter.check_unreached_modules()
    scanned = 0
    for top in ("src", "tests", "bench", "examples"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                linter.lint_file(path)
                scanned += 1
    for finding in linter.findings:
        print(finding)
    print(f"qkd_lint: {scanned} files scanned, "
          f"{len(linter.findings)} finding(s)", file=sys.stderr)
    return 1 if linter.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
