#!/usr/bin/env python3
"""Project-specific source lints the compiler cannot enforce.

Eleven checks over src/ (and tests/, bench/, examples/ where noted),
each pinning a repo-wide contract that used to live only in review
comments:

  metrics-drift        Every stats struct (``struct FooStats`` /
                       ``struct FooCounters`` in src/**.h) must declare
                       ``void ExportMetrics(MetricSink&...)`` so the
                       metrics registry (src/obs/metrics.h) sees every
                       counter — a struct that skips the retrofit drifts
                       out of Snapshot() silently. Derived value types
                       with no counters of record are allowlisted.

  determinism          The simulator is deterministic by construction:
                       one seeded Rng (common/rng.h), virtual time from
                       the EventLoop. rand()/srand(), std::random_device
                       and wall-clock reads (system_clock, steady_clock,
                       time(), gettimeofday) would leak real-world state
                       into observable output, so they are banned in
                       src/, tests/, bench/ and examples/.

  unordered-iteration  Iterating an unordered container feeds hash-order
                       into whatever the loop produces. Range-for over a
                       same-file unordered_map/set needs an explicit
                       ``// lint: unordered-iteration-ok`` suppression —
                       forcing the author to claim order-independence.

  header-hygiene       src/**.h guards must spell AXML_<PATH>_H_ (no
                       #pragma once anywhere): predictable, collision-
                       free, greppable.

  raw-new-delete       Ownership is smart-pointer-only. A ``new`` must
                       be wrapped by a smart-pointer constructor on the
                       same line (factories with private constructors);
                       ``delete`` expressions are banned. Intentionally
                       leaky process-wide singletons are allowlisted.

  size-estimate        Under src/ a tree's size is its encoded wire
                       size (wire::EncodedTreeSize, or a MerkleNode's
                       ``bytes`` from the same walk) and trees cross
                       links as encoded payloads (xml/wire.h). An
                       XML-text ``SerializedSize()`` call site or a clone
                       handed straight to a network send reintroduces
                       a second byte measure that drifts from what the
                       network charges.

  injected-rng         Fault-injection sources (src/**/fault_injector*)
                       draw randomness ONLY through the injected
                       ``Rng*`` — never by constructing a value-type
                       Rng, re-seeding one, or reaching for a std::
                       engine. A private randomness source would break
                       the contract that one sim seed replays every
                       fault verdict identically (and that an idle
                       injector is byte-identical to no injector).

  mutable-static       A function-local ``static`` in src/ must be const
                       (or constexpr). A mutable one is process-global
                       state hidden in a function: its value depends on
                       every earlier call in the process, so output
                       depends on test order and on how many systems
                       exist. Keep such state in the owning object.

  canonical-string     CanonicalForm() builds a string per subtree; it
                       is the reference oracle for the Merkle walk
                       (xml/digest.h), not a way to compare or hash
                       trees. Under src/ only its definition
                       (xml/tree_equal.*) and AxmlSystem::
                       StateFingerprint (peer/system.cc) may call it;
                       everything else uses DigestOf or
                       TreesEqualUnordered.

  sharding-include     How a copy is laid out (whole, or a manifest plus
                       data shards) is the replica layer's secret. Under
                       src/ only xml/ (which defines the splitter) and
                       replica/ (which stores copies) may
                       ``#include "xml/sharding.h"``; everything else
                       makes layout-blind calls into ReplicaManager.

  flat-size            Every message is priced at its encoded size
                       (wire::Payload::size()). Under src/ no argument
                       of ``TransferTime(`` or ``EstimateTransferTime(``
                       may be an integer literal or a ``k...Bytes``
                       constant: a delay computed from a flat message
                       size is a second price that drifts from the bytes
                       the network charges.

Suppressions: append ``// lint: allow-<check>`` (e.g. ``// lint:
allow-determinism``) to the flagged line or the line above. Use rarely;
the comment is the audit trail.

Exit 0 when clean; exit 1 with one ``path:line: [check] message`` per
finding. Run from anywhere — paths resolve against the repo root. The
linter's own tests (check_source_test.py) run every check against
negative fixtures in scripts/lint_fixtures/, so a check that stops
firing fails CI.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Iterable, Iterator, NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# metrics-drift: value types without counters of record. PairStats is a
# per-link slice NetStats::ExportMetrics flattens itself; LabelStats /
# TreeStats are derived tree-shape summaries recomputed per call, not
# accumulating counters.
METRICS_EXEMPT = {"PairStats", "LabelStats", "TreeStats"}

# raw-new-delete: intentionally leaky process-wide singletons (never
# destroyed, so no destruction-order fiasco at exit).
NEW_DELETE_EXEMPT = {"src/xml/label_interner.cc"}


class Finding(NamedTuple):
    path: pathlib.Path
    line: int
    check: str
    message: str

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        return f"{rel}:{self.line}: [{self.check}] {self.message}"


class SourceFile(NamedTuple):
    path: pathlib.Path
    raw: list[str]
    code: list[str]  # comments and string literals blanked, line-aligned


_STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\'')


def strip_comments(text: str) -> str:
    """Blanks comments and string/char literals, preserving line breaks."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            end = text.find("\n", i)
            i = n if end == -1 else end
        elif ch == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append(" " * (end - i - text.count("\n", i, end)))
            out.extend("\n" * text.count("\n", i, end))
            i = end
        elif ch in "\"'":
            m = _STRING_RE.match(text, i)
            if m:
                out.append(" " * (m.end() - m.start()))
                i = m.end()
            else:
                out.append(ch)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def load(path: pathlib.Path) -> SourceFile:
    text = path.read_text()
    raw = text.splitlines()
    code = strip_comments(text).splitlines()
    # strip_comments reorders the blanks of a block comment; only line
    # count parity matters, and it is preserved.
    while len(code) < len(raw):
        code.append("")
    return SourceFile(path, raw, code)


def suppressed(sf: SourceFile, line: int, check: str) -> bool:
    """True when line (1-based) or the one above carries the waiver."""
    marker = f"lint: allow-{check}"
    for lineno in (line, line - 1):
        if 1 <= lineno <= len(sf.raw) and marker in sf.raw[lineno - 1]:
            return True
    return False


def cxx_files(dirs: Iterable[str]) -> Iterator[pathlib.Path]:
    for d in dirs:
        root = REPO_ROOT / d
        if not root.is_dir():
            continue
        for ext in ("*.h", "*.cc", "*.cpp"):
            yield from sorted(root.rglob(ext))


# --- metrics-drift ---

_STATS_DECL_RE = re.compile(r"^\s*(?:struct|class)\s+(\w*(?:Stats|Counters))\b")
_EXPORT_RE = re.compile(r"void\s+ExportMetrics\s*\(\s*MetricSink\s*&")


def check_metrics_drift(sf: SourceFile) -> Iterator[Finding]:
    """Each *Stats/*Counters type must declare ExportMetrics(MetricSink&)."""
    for i, line in enumerate(sf.code, 1):
        m = _STATS_DECL_RE.match(line)
        if not m or line.rstrip().endswith(";"):  # skip forward decls
            continue
        name = m.group(1)
        if name in METRICS_EXEMPT or suppressed(sf, i, "metrics-drift"):
            continue
        # Scan the type body: from the declaration to its closing brace
        # at the declaration's indent level.
        depth = 0
        body: list[str] = []
        for body_line in sf.code[i - 1 :]:
            body.append(body_line)
            depth += body_line.count("{") - body_line.count("}")
            if depth <= 0 and "{" in "".join(body):
                break
        if not _EXPORT_RE.search("\n".join(body)):
            yield Finding(
                sf.path,
                i,
                "metrics-drift",
                f"{name} declares no 'void ExportMetrics(MetricSink&)' — "
                "counters invisible to MetricRegistry::Snapshot() "
                "(allowlist derived value types in check_source.py)",
            )


# --- determinism ---

_NONDET_RES = [
    (re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"), "wall clock"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0|&)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
]


def check_determinism(sf: SourceFile) -> Iterator[Finding]:
    """No ambient randomness or wall-clock reads: one Rng, virtual time."""
    for i, line in enumerate(sf.code, 1):
        for pattern, what in _NONDET_RES:
            if pattern.search(line) and not suppressed(sf, i, "determinism"):
                yield Finding(
                    sf.path,
                    i,
                    "determinism",
                    f"{what} leaks nondeterminism into a deterministic "
                    "simulation — use common/rng.h / EventLoop::now()",
                )


# --- unordered-iteration ---

_UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)"
)
_RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*\*?(\w+)\s*\)")


def check_unordered_iteration(sf: SourceFile) -> Iterator[Finding]:
    """Range-for over an unordered container needs an explicit waiver."""
    text = "\n".join(sf.code)
    unordered_names = set(_UNORDERED_DECL_RE.findall(text))
    if not unordered_names:
        return
    for i, line in enumerate(sf.code, 1):
        m = _RANGE_FOR_RE.search(line)
        if (
            m
            and m.group(1) in unordered_names
            and not suppressed(sf, i, "unordered-iteration")
        ):
            yield Finding(
                sf.path,
                i,
                "unordered-iteration",
                f"range-for over unordered container '{m.group(1)}' feeds "
                "hash-order into the output — iterate a sorted view, or "
                "waive with '// lint: allow-unordered-iteration' if the "
                "loop is order-independent",
            )


# --- header-hygiene ---


def expected_guard(path: pathlib.Path) -> str:
    rel = path.relative_to(REPO_ROOT / "src")
    token = re.sub(r"[^A-Za-z0-9]", "_", str(rel)).upper()
    return f"AXML_{token}_"


def check_header_hygiene(sf: SourceFile) -> Iterator[Finding]:
    """src headers carry the canonical AXML_<PATH>_H_ include guard."""
    for i, line in enumerate(sf.code, 1):
        if "#pragma once" in line:
            yield Finding(
                sf.path, i, "header-hygiene",
                "#pragma once — use the AXML_<PATH>_H_ guard",
            )
    if sf.path.suffix != ".h":
        return
    want = expected_guard(sf.path)
    guard_lines = [
        (i, line)
        for i, line in enumerate(sf.code, 1)
        if line.startswith("#ifndef")
    ]
    if not guard_lines:
        yield Finding(sf.path, 1, "header-hygiene", f"missing include guard {want}")
        return
    lineno, first = guard_lines[0]
    got = first.split()[1] if len(first.split()) > 1 else ""
    if got != want:
        yield Finding(
            sf.path, lineno, "header-hygiene",
            f"include guard is {got or '(empty)'}, expected {want}",
        )


# --- raw-new-delete ---

_NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
# `TreePtr(new ...)`, `std::unique_ptr<T>(new ...)`, and the named-
# variable form `static SchemaTypePtr t(new ...)` all count as wrapped.
_WRAPPED_NEW_RE = re.compile(
    r"(?:Ptr|_ptr\s*<[^<>;]*(?:<[^<>]*>)?[^<>;]*>)(?:\s+\w+)?\s*\(\s*new\b"
)
_DELETE_EXPR_RE = re.compile(r"\bdelete\b\s*(?:\[\s*\]\s*)?[\w(*:]")


def check_raw_new_delete(sf: SourceFile) -> Iterator[Finding]:
    """Smart-pointer-only ownership outside the allowlisted singletons."""
    rel = str(sf.path.relative_to(REPO_ROOT))
    if rel in NEW_DELETE_EXEMPT:
        return
    for i, line in enumerate(sf.code, 1):
        if suppressed(sf, i, "raw-new-delete"):
            continue
        for new_at in (m.start() for m in _NEW_RE.finditer(line)):
            wrapped = any(
                w.start() < new_at < w.end()
                for w in _WRAPPED_NEW_RE.finditer(line)
            )
            if not wrapped:
                yield Finding(
                    sf.path, i, "raw-new-delete",
                    "raw 'new' outside a same-line smart-pointer wrapper — "
                    "use std::make_unique/make_shared (or wrap the new in "
                    "the owning pointer's constructor on this line)",
                )
        if _DELETE_EXPR_RE.search(line):
            yield Finding(
                sf.path, i, "raw-new-delete",
                "'delete' expression — ownership is smart-pointer-only",
            )


# --- size-estimate ---

_SIZE_ESTIMATE_RE = re.compile(r"(?:\.|->)\s*SerializedSize\s*\(")
_CLONE_SHIP_RE = re.compile(r"\bSend(?:Reliable|Notify)?\s*\(.*\bClone\s*\(")


def check_size_estimate(sf: SourceFile) -> Iterator[Finding]:
    """src/ reads encoded sizes and ships encoded payloads."""
    for i, line in enumerate(sf.code, 1):
        if suppressed(sf, i, "size-estimate"):
            continue
        if _SIZE_ESTIMATE_RE.search(line):
            yield Finding(
                sf.path,
                i,
                "size-estimate",
                "XML-text SerializedSize() under src/ — a size is the "
                "encoded one: wire::EncodedTreeSize / "
                "wire::EncodedTextSize (xml/wire.h), or MerkleNode::bytes "
                "(xml/digest.h); a second byte measure drifts from the "
                "bytes the network actually charges",
            )
        if _CLONE_SHIP_RE.search(line):
            yield Finding(
                sf.path,
                i,
                "size-estimate",
                "tree clone handed to a network send — trees cross links "
                "as encoded wire::Payload bytes, decoded at arrival "
                "(xml/wire.h); shipping an in-process clone bypasses the "
                "priced-size == encoded-size contract",
            )


# --- injected-rng ---

# A value-type `Rng name...` declaration (pointer `Rng*` and reference
# `Rng&` shapes deliberately do not match: borrowing is the contract).
_VALUE_RNG_RE = re.compile(r"\bRng\s+\w+\s*(?:[;({=]|$)")
_INJECTED_RNG_RES = [
    (_VALUE_RNG_RE, "value-type Rng construction"),
    (re.compile(r"(?:\.|->)\s*Seed\s*\("), "re-seeding an Rng"),
    (
        re.compile(
            r"\b(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
            r"|ranlux\w*|knuth_b)\b"
        ),
        "std:: random engine",
    ),
]


def check_injected_rng(sf: SourceFile) -> Iterator[Finding]:
    """Fault-injection code owns no randomness: it borrows one Rng*."""
    for i, line in enumerate(sf.code, 1):
        for pattern, what in _INJECTED_RNG_RES:
            if pattern.search(line) and not suppressed(sf, i, "injected-rng"):
                yield Finding(
                    sf.path,
                    i,
                    "injected-rng",
                    f"{what} inside fault-injection code — the injector "
                    "must draw only from the Rng* handed to its "
                    "constructor, or seed replay and the idle==off "
                    "byte-identity guarantee break",
                )


# --- mutable-static ---

_STATIC_DECL_RE = re.compile(r"^\s*static\s")
# The declaration up to its initializer or end: const anywhere in it
# (const T, T* const, constexpr, constinit const) makes the binding const.
_DECL_END_RE = re.compile(r"[=({;]")
_CONST_RE = re.compile(r"\bconst(?:expr)?\b")
_SCOPE_KEYWORD_RE = re.compile(r"\b(?:class|struct|union|namespace|enum)\b")


def check_mutable_static(sf: SourceFile) -> Iterator[Finding]:
    """Function-local statics are const: no hidden process-global state."""
    # One entry per open brace: True when it opens (or nests inside) a
    # function or lambda body. A brace opens a body when the code since
    # the previous ';', '{' or '}' has a parameter list and no
    # class/struct/union/namespace/enum keyword.
    in_function: list[bool] = []
    head = ""
    for i, line in enumerate(sf.code, 1):
        if (
            in_function
            and in_function[-1]
            and _STATIC_DECL_RE.match(line)
            and not _CONST_RE.search(_DECL_END_RE.split(line, maxsplit=1)[0])
            and not suppressed(sf, i, "mutable-static")
        ):
            yield Finding(
                sf.path,
                i,
                "mutable-static",
                "mutable function-local static — process-global state "
                "whose value depends on every earlier call; make it "
                "const, or keep the state in the owning object",
            )
        for ch in line:
            if ch == "{":
                opens_body = ")" in head and not _SCOPE_KEYWORD_RE.search(head)
                in_function.append(
                    bool(in_function and in_function[-1]) or opens_body
                )
                head = ""
            elif ch == "}":
                if in_function:
                    in_function.pop()
                head = ""
            elif ch == ";":
                head = ""
            else:
                head += ch
        head += " "


# --- canonical-string ---

# Where CanonicalForm may be called: the files that define it, and the
# one function of peer/system.cc that renders Σ as text.
CANONICAL_STRING_ALLOWED: dict[str, str | None] = {
    "src/xml/tree_equal.h": None,
    "src/xml/tree_equal.cc": None,
    "src/peer/system.cc": "StateFingerprint",
}

_CANONICAL_CALL_RE = re.compile(r"\bCanonicalForm\s*\(")
# A function definition starts at column 0; its name is the first word
# followed by '(' ("std::string AxmlSystem::StateFingerprint() const {").
_DEFINITION_RE = re.compile(r"^[A-Za-z_][^;]*?\b(\w+)\s*\(")


def enclosing_function(sf: SourceFile, line: int) -> str | None:
    """Name of the top-level definition the 1-based `line` sits in."""
    for code in reversed(sf.code[:line]):
        m = _DEFINITION_RE.match(code)
        if m:
            return m.group(1)
    return None


def check_canonical_string(sf: SourceFile) -> Iterator[Finding]:
    """CanonicalForm is an oracle: src/ compares trees by digest."""
    rel = "/".join(sf.path.relative_to(REPO_ROOT).parts)
    allowed_in = CANONICAL_STRING_ALLOWED.get(rel, "")
    if allowed_in is None:
        return
    for i, line in enumerate(sf.code, 1):
        if not _CANONICAL_CALL_RE.search(line):
            continue
        if allowed_in and enclosing_function(sf, i) == allowed_in:
            continue
        if suppressed(sf, i, "canonical-string"):
            continue
        yield Finding(
            sf.path,
            i,
            "canonical-string",
            "CanonicalForm() builds a string per subtree — compare with "
            "TreesEqualUnordered, identify with DigestOf (xml/digest.h); "
            "CanonicalForm is the tests' reference oracle",
        )


# --- sharding-include ---

# The src/ directories that may include the splitter's header.
SHARDING_INCLUDE_ALLOWED = {"xml", "replica"}

_SHARDING_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"xml/sharding\.h"')


def check_sharding_include(sf: SourceFile) -> Iterator[Finding]:
    """Only xml/ and replica/ see the copy layout (xml/sharding.h)."""
    rel = sf.path.relative_to(REPO_ROOT / "src").parts
    if rel[0] in SHARDING_INCLUDE_ALLOWED:
        return
    for i, (raw, code) in enumerate(zip(sf.raw, sf.code), 1):
        # The code view blanks comments, so a commented-out include
        # does not count; the raw line names the header.
        if not code.lstrip().startswith("#"):
            continue
        if _SHARDING_INCLUDE_RE.match(raw) and not suppressed(
            sf, i, "sharding-include"
        ):
            yield Finding(
                sf.path,
                i,
                "sharding-include",
                '#include "xml/sharding.h" outside src/xml/ and '
                "src/replica/ — the copy layout is the replica layer's "
                "secret; call ReplicaManager (ReadFresh, Fetch, "
                "InsertCopy, ReadTransferBytes) instead",
            )


# --- flat-size ---

_TRANSFER_TIME_RE = re.compile(r"\b(?:Estimate)?TransferTime\s*\(")
_INT_LITERAL_RE = re.compile(r"^\d[\d']*[uUlLzZ]*$")
_BYTES_CONSTANT_RE = re.compile(r"\bk[A-Z]\w*Bytes\b")


def call_arguments(text: str, open_paren: int) -> list[str]:
    """Top-level comma-separated arguments of the call whose '(' is at
    ``open_paren`` in ``text`` (unterminated calls end at the text)."""
    args: list[str] = []
    depth = 0
    start = open_paren + 1
    for i in range(open_paren, len(text)):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i])
                break
        elif ch == "," and depth == 1:
            args.append(text[start:i])
            start = i + 1
    return [a.strip() for a in args]


def check_flat_size(sf: SourceFile) -> Iterator[Finding]:
    """Transfer delays under src/ read encoded sizes, never flat ones."""
    text = "\n".join(sf.code)
    for m in _TRANSFER_TIME_RE.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        if suppressed(sf, line, "flat-size"):
            continue
        for arg in call_arguments(text, m.end() - 1):
            if _INT_LITERAL_RE.match(arg) or _BYTES_CONSTANT_RE.search(arg):
                yield Finding(
                    sf.path,
                    line,
                    "flat-size",
                    f"flat message size '{arg}' priced into a transfer "
                    "delay — price what is carried: a wire::Payload's "
                    "size() (xml/wire.h)",
                )
                break


def run_checks() -> list[Finding]:
    findings: list[Finding] = []
    for path in cxx_files(["src", "tests", "bench", "examples"]):
        sf = load(path)
        rel_parts = path.relative_to(REPO_ROOT).parts
        top = rel_parts[0]
        if top == "src" and path.suffix == ".h":
            findings.extend(check_metrics_drift(sf))
            findings.extend(check_header_hygiene(sf))
        elif top == "src":
            findings.extend(check_header_hygiene(sf))  # #pragma once ban
        if top == "src":
            findings.extend(check_mutable_static(sf))
            findings.extend(check_canonical_string(sf))
            findings.extend(check_size_estimate(sf))
            findings.extend(check_sharding_include(sf))
            findings.extend(check_flat_size(sf))
        if top == "src" and "fault_injector" in path.name:
            findings.extend(check_injected_rng(sf))
        findings.extend(check_determinism(sf))
        findings.extend(check_unordered_iteration(sf))
        findings.extend(check_raw_new_delete(sf))
    return findings


def main() -> int:
    findings = run_checks()
    for finding in findings:
        print(finding)
    if findings:
        print(f"check_source: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
