#!/usr/bin/env python3
"""Project-specific lint for the mcdla simulator sources.

Five repo hazards that clang-tidy cannot know about:

  rng        Simulation randomness must flow through the seeded
             xoshiro256** in sim/random.hh. Any other entropy source
             (std::rand, <random> engines, wall-clock seeds) silently
             breaks run-to-run determinism, which `mcdla_sim
             --audit-determinism` enforces.

  json       JSON is emitted through sim/json.hh's escaper. A file
             that hand-escapes quotes in streamed string literals has
             started growing its own (subtly different) escaper.

  schedule   All simulated work is ordered by the EventQueue. A
             private priority queue of timed work, or host sleeps
             standing in for simulated delay, bypasses the DES kernel
             (and its SimCheck monotonicity guarantees).

  state      Simulation state lives in the objects of one run (a
             FlowPool belongs to the engine that sends its flows). A
             `thread_local` pool outlives the run that filled it, so an
             abandoned run leaks its handlers into the next one.

  number     Numbers from outside text are read by readNumber<T> in
             sim/text.hh, which takes the whole string, refuses nan and
             inf and checks that the value fits its type. A bare
             strtod/strtoll/std::stoi/atoi accepts trailing junk or
             "nan", or truncates into a narrower field.

A finding can be waived on its line with `// lint:allow(<rule>)`.
Exit status is the number of findings (0 = clean).

Usage: check_sources.py [root ...]   (default: src tools bench examples)
"""

import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".cc", ".hh", ".h", ".cpp", ".hpp"}

# rule name -> (pattern, message)
LINE_RULES = {
    "rng": (
        re.compile(
            r"std::rand\b|[^_\w]srand\s*\(|std::mt19937|"
            r"std::minstd_rand|random_device|#include\s*<random>|"
            r"[^_\w]time\s*\(\s*(?:NULL|nullptr|0)?\s*\)|"
            r"gettimeofday\s*\(|std::time\b"
        ),
        "use the seeded Random in sim/random.hh, not ad-hoc entropy",
    ),
    "schedule": (
        re.compile(
            r"std::priority_queue|std::this_thread|sleep_for|"
            r"sleep_until|[^_\w]usleep\s*\(|[^_\w]nanosleep\s*\(|"
            r"[^_\w]alarm\s*\(|setitimer"
        ),
        "order simulated work through EventQueue, not a private "
        "queue or host sleeps",
    ),
    "state": (
        re.compile(r"\bthread_local\b"),
        "keep simulation state in the objects of one run, not in "
        "thread_local storage",
    ),
    "number": (
        re.compile(
            r"\bstrto(?:d|f|ld|l|ll|ul|ull)\s*\(|"
            r"\bstd::sto(?:d|f|ld|i|l|ll|ul|ull)\s*\(|"
            r"\bato(?:f|i|l|ll)\s*\("
        ),
        "read numbers with readNumber<T> in sim/text.hh (whole string, "
        "finite, fits the type)",
    ),
}

# Files where a rule's pattern is the implementation itself.
EXEMPT = {
    "rng": ("src/sim/random.hh",),
    "schedule": ("src/sim/event_queue.hh", "src/sim/event_queue.cc"),
    "json": ("src/sim/json.hh", "src/sim/json.cc"),
    "number": ("src/sim/text.cc",),
}

ALLOW = re.compile(r"//\s*lint:allow\((?P<rule>[\w-]+)\)")

# A streamed string literal that hand-escapes a quote, e.g.
#   os << "\"name\": ";
HAND_JSON = re.compile(r'"[^"\n]*\\"')
JSON_INCLUDE = re.compile(r'#include\s*"sim/json\.hh"')


def strip_comments(line: str) -> str:
    """Drop // and /* */ comment text (single-line approximation)."""
    line = re.sub(r"/\*.*?\*/", "", line)
    return re.sub(r"//.*", "", line)


def lint_file(path: Path, rel: str) -> list:
    findings = []
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    has_json_include = JSON_INCLUDE.search(text) is not None

    in_block_comment = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        code = strip_comments(line)
        if "/*" in line and "*/" not in line[line.find("/*"):]:
            in_block_comment = True
            code = code[: code.find("/*")] if "/*" in code else code

        allowed = {m.group("rule") for m in ALLOW.finditer(raw)}

        for rule, (pattern, message) in LINE_RULES.items():
            if rel in EXEMPT.get(rule, ()) or rule in allowed:
                continue
            if pattern.search(code):
                findings.append((rel, lineno, rule, message))

        if (
            "json" not in allowed
            and rel not in EXEMPT["json"]
            and not has_json_include
            and HAND_JSON.search(code)
        ):
            findings.append(
                (
                    rel,
                    lineno,
                    "json",
                    "hand-escaped quote in a string literal; emit "
                    "JSON through sim/json.hh",
                )
            )
    return findings


def main(argv: list) -> int:
    repo = Path(__file__).resolve().parents[2]
    roots = argv[1:] or ["src", "tools", "bench", "examples"]
    findings = []
    for root in roots:
        base = repo / root
        if not base.exists():
            print(f"lint: no such root: {root}", file=sys.stderr)
            return 1
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            rel = path.relative_to(repo).as_posix()
            findings.extend(lint_file(path, rel))

    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
    else:
        print("lint: clean")
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
