#!/usr/bin/env python3
"""Project concurrency/style contract checker (no toolchain required).

The third static-analysis layer, below clang's thread-safety pass and
clang-tidy: a handful of repo-specific rules that neither tool expresses.
Runs on any machine with python3 — CI runs it in the clang-analysis job,
and it is fast enough for a pre-commit hook.

Rules (see docs/CONCURRENCY.md for rationale):

  R1  thread-ownership   std::thread may only be constructed in the
                         designated thread owners: serve/thread_pool,
                         net/event_loop, net/server — plus tests, benches
                         and examples. (std::thread::id and
                         std::this_thread are fine anywhere: identity, not
                         ownership.)
  R2  no-stdout          Library code (src/) never writes to stdout:
                         no std::cout / printf / puts. Diagnostics go to
                         stderr (fprintf(stderr, ...)). Exemption:
                         net/serve_main.cpp, the CLI entry point.
  R3  include-guards     Every header under src/ carries #pragma once.
  R4  raii-locking       No bare .lock()/.unlock() calls in src/ outside
                         serve/thread_annotations.hpp — critical sections
                         use MutexLock (RAII) so early returns and
                         exceptions cannot leak a held lock.
  R5  annotated-mutexes  src/ declares no raw std::mutex /
                         std::condition_variable outside
                         serve/thread_annotations.hpp (use the annotated
                         Mutex/CondVar wrappers), and every `Mutex xxx_;`
                         member's file must contain at least one
                         GUARDED_BY(xxx_) — an unannotated mutex guards
                         nothing the analyzer can see.
  R6  nolint-justified   Every NOLINT / NOLINTNEXTLINE names the check it
                         silences and carries a `: reason` justification;
                         blanket NOLINTBEGIN regions are banned.
  R7  page-pinning       src/ code outside the allocator never binds a raw
                         Page&/Page* from anything but a pin: with the
                         tiered store a page's storage can be demoted the
                         moment no PagePin covers it, so every local
                         `Page& p = ...` must come from `.page()` on a
                         PagePin/PageWritePin, and no struct stores a
                         Page pointer/reference member. (Page parameters
                         are fine — the caller's pin covers the callee.)

Exit codes: 0 clean, 1 violations (one `path:line: rule: message` per
finding).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# R1: files allowed to construct std::thread.
THREAD_OWNERS = (
    "src/serve/thread_pool.",
    "src/net/event_loop.",
    "src/net/server.",   # owns the loop + scheduler serving threads
    "src/kv/page_allocator.",  # owns the tier prefetch thread
    "tests/",
    "bench/",
    "examples/",
)

# R7: the allocator and the page itself are the pin mechanism.
PAGE_PIN_EXEMPT = (
    "src/kv/page_allocator.",
    "src/kv/page.",
)

# R2: the CLI binary may print to stdout.
STDOUT_EXEMPT = ("src/net/serve_main.cpp",)

# R4/R5: the annotated wrapper layer itself touches the raw primitives.
WRAPPER = "src/serve/thread_annotations.hpp"

RE_STD_THREAD = re.compile(r"std::thread\b(?!::id)")
RE_STDOUT = re.compile(r"std::cout\b|\bprintf\s*\(|\bputs\s*\(")
RE_BARE_LOCK = re.compile(r"\.\s*(?:un)?lock\s*\(\s*\)")
RE_RAW_MUTEX = re.compile(r"std::mutex\b|std::condition_variable\b")
RE_MUTEX_MEMBER = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*;")
RE_NOLINT = re.compile(r"NOLINT(NEXTLINE)?(BEGIN|END)?(\([^)]*\))?(:)?")
# R7: a local Page reference/pointer binding (`Page& p = ...`) and a Page
# pointer/reference member (`Page* p_;`). Parameter lists don't match:
# they have no `=` initializer and no trailing `;` on the declarator.
RE_PAGE_BINDING = re.compile(
    r"\b(?:kv::)?Page\s*[&*]\s*\w+\s*=\s*(?P<init>[^;]*)")
RE_PAGE_MEMBER = re.compile(r"^\s*(?:const\s+)?(?:kv::)?Page\s*[&*]\s*\w+\s*;")


def strip_comments_and_strings(line: str) -> str:
    """Crude but sufficient: drop // comments and string literal bodies."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return re.sub(r"//.*$", "", line)


def check_file(path: Path, findings: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()

    in_src = rel.startswith("src/")

    # R3: headers must have an include guard.
    if in_src and rel.endswith(".hpp") and "#pragma once" not in text:
        findings.append(f"{rel}:1: include-guards: header lacks #pragma once")

    mutex_members: list[tuple[int, str]] = []

    for lineno, raw in enumerate(lines, start=1):
        code = strip_comments_and_strings(raw)

        # R1: std::thread ownership.
        if RE_STD_THREAD.search(code) and "std::this_thread" not in code:
            if not any(rel.startswith(p) or p in rel for p in THREAD_OWNERS):
                findings.append(
                    f"{rel}:{lineno}: thread-ownership: std::thread outside "
                    "thread_pool/event_loop/server (wrap work in ThreadPool "
                    "or post it to the EventLoop)")

        if in_src:
            # R2: no stdout in library code.
            if rel not in STDOUT_EXEMPT and RE_STDOUT.search(code):
                findings.append(
                    f"{rel}:{lineno}: no-stdout: library code writes to "
                    "stdout (use fprintf(stderr, ...) for diagnostics)")

            if rel != WRAPPER:
                # R4: RAII-only locking.
                if RE_BARE_LOCK.search(code):
                    findings.append(
                        f"{rel}:{lineno}: raii-locking: bare "
                        ".lock()/.unlock() (use MutexLock)")
                # R5a: no raw mutex/cv outside the wrapper.
                if RE_RAW_MUTEX.search(code):
                    findings.append(
                        f"{rel}:{lineno}: annotated-mutexes: raw std::mutex/"
                        "std::condition_variable (use lserve::Mutex/CondVar "
                        "from serve/thread_annotations.hpp)")

            m = RE_MUTEX_MEMBER.match(code)
            if m:
                mutex_members.append((lineno, m.group(1)))

            # R7: raw Page retention must flow through a pin.
            if not any(rel.startswith(p) for p in PAGE_PIN_EXEMPT):
                pb = RE_PAGE_BINDING.search(code)
                if pb and ".page()" not in pb.group("init") and \
                        "->page()" not in pb.group("init"):
                    findings.append(
                        f"{rel}:{lineno}: page-pinning: raw Page&/Page* "
                        "bound outside a pin scope (hold a PagePin/"
                        "PageWritePin and bind from .page())")
                if RE_PAGE_MEMBER.match(code):
                    findings.append(
                        f"{rel}:{lineno}: page-pinning: Page pointer/"
                        "reference stored as a member (store a PageId; "
                        "pin at the point of use)")

        # R6: NOLINT must be targeted and justified (checked in raw line —
        # NOLINT lives in comments).
        for nl in RE_NOLINT.finditer(raw):
            if nl.group(2) == "END":
                continue  # closers need no second justification
            if nl.group(2) == "BEGIN":
                findings.append(
                    f"{rel}:{lineno}: nolint-justified: blanket NOLINTBEGIN "
                    "region (silence single lines, with a reason)")
                continue
            checks, colon = nl.group(3), nl.group(4)
            rest = raw[nl.end():].strip()
            if not checks or checks == "()":
                findings.append(
                    f"{rel}:{lineno}: nolint-justified: NOLINT without a "
                    "named check (write NOLINT(check-name): reason)")
            elif not colon or not rest:
                findings.append(
                    f"{rel}:{lineno}: nolint-justified: NOLINT without a "
                    "justification (write NOLINT(check-name): reason)")

    # R5b: every annotated-Mutex member must guard something in this file.
    for lineno, name in mutex_members:
        if f"GUARDED_BY({name})" not in text and \
           f"REQUIRES({name})" not in text:
            findings.append(
                f"{rel}:{lineno}: annotated-mutexes: Mutex member '{name}' "
                f"has no GUARDED_BY({name}) field in this file — an "
                "unannotated mutex guards nothing the analyzer can see")


def main() -> int:
    roots = ["src", "tests", "bench", "examples"]
    findings: list[str] = []
    n_files = 0
    for root in roots:
        base = REPO / root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
                continue
            n_files += 1
            check_file(path, findings)

    for f in findings:
        print(f)
    print(f"check_contract: {n_files} files, {len(findings)} violation(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
