#!/usr/bin/env python3
"""dcl_lint — the project lint that machine-checks the determinism contracts.

Every headline claim of this reproduction (bit-identical RoundLedger
fingerprints and clique sets at any DCL_THREADS; fault histories that are a
pure function of (seed, clock, key, index, attempt)) rests on source-level
contracts that used to live only in comments. This tool codifies them as
named, testable rules over `src/` and `tools/dcl_cli.cpp`:

  wallclock            No rand/srand/std::random_device/time(/
                       std::chrono::system_clock in library code — all
                       randomness flows through the seeded `Rng`
                       (common/rng.h) and nothing reads the wall clock, or
                       the PR 7 replay guarantee dies. One carve-out: the
                       TUs in WALLCLOCK_OVERLAY_TUS may read a clock for
                       the opt-in trace overlay (DCL_TRACE_WALLCLOCK=1),
                       but only if the file carries a written
                       `// dcl-lint: wallclock-overlay: <justification>`
                       marker (docs/OBSERVABILITY.md).
  unordered-iteration  No iteration over std::unordered_map/unordered_set in
                       any translation unit that charges the RoundLedger or
                       reports into ListingOutput (decided by a taint pass
                       over the include graph): hash-table iteration order
                       is implementation-defined and would leak into
                       fingerprints.
  float-ledger         No float/double accumulator (`x += ...`) may feed a
                       RoundLedger charge_* call: float accumulation order
                       varies across shard merges. Merge exact integers,
                       cast to double once at the charge site.
  raw-thread           No std::thread/std::jthread/std::async outside
                       src/common/parallel_for.cpp — all parallelism goes
                       through the audited worker pool, whose merge
                       contract DCL_SHARD_AUDIT can replay.
  reserve-hint         (warning) push_back loops bounded by n/m-shaped
                       quantities with no reserve() for the container in
                       sight: a growth-rehash hazard on hot paths, not a
                       determinism bug — reported but never fatal.
  roadmap-ref          No code comment may cite a ROADMAP item, lever or
                       section: ROADMAP.md is renumbered and rewritten as
                       work lands, so such a pointer goes stale silently.
                       A comment states its reason inline. Runs over the
                       tests, benches and examples too (comment rules only
                       there; the lint self-test corpora are skipped).

Allowlist: a violating line (or the line directly above it) may carry

    // dcl-lint: allow(<rule>): <justification>

with a non-empty justification; an allow() with a missing/empty
justification or an unknown rule name is itself an error (rule bad-allow).

Exit codes: 0 clean (warnings allowed), 1 violations, 2 usage/internal
error. `--expect DIR` runs the self-test mode used by ctest: every finding
must match a `// dcl-lint-expect: <rule>` marker in the fixture files,
line-exactly, and vice versa.

No third-party dependencies by design: the container toolchain has no
libclang/clang-query, so the scanner is a comment/string-stripping lexer
plus per-file regex passes — shallow but deterministic, fast, and entirely
testable (tests/lint_fixtures/). Documented in docs/ANALYSIS.md.
"""

import argparse
import os
import re
import sys

RULES = {
    "wallclock": "wall-clock or unseeded randomness in library code",
    "unordered-iteration":
        "unordered container iterated in a ledger/output-bearing TU",
    "float-ledger": "float accumulator feeds a RoundLedger charge",
    "raw-thread": "raw std::thread/std::async outside the audited pool",
    "reserve-hint": "push_back loop over n/m-sized range without reserve()",
    "roadmap-ref": "code comment cites a ROADMAP item, lever or section",
    "bad-allow": "malformed dcl-lint allow() annotation",
}
WARNING_RULES = {"reserve-hint"}

# Rules owned by the semantic sibling tool (tools/dcl_semlint.py). The two
# linters share the one allow() grammar, so an allow naming a semlint rule
# is well-formed here — it simply suppresses nothing in THIS tool. Kept as
# an explicit registry so a typo'd rule name still trips bad-allow.
FOREIGN_RULES = {
    "sem-unordered-iter",
    "sem-narrow",
    "sem-index-32",
    "sem-mul-width",
    "sem-hot-alloc",
}

# Paths (relative to the repo root, forward slashes) where raw threading
# primitives are the implementation of the audited pool itself.
RAW_THREAD_ALLOWED = {
    "src/common/parallel_for.cpp",
    "src/common/parallel_for.h",
}

ALLOW_RE = re.compile(
    r"//\s*dcl-lint:\s*allow\(([^)]*)\)\s*(?::\s*(.*?))?\s*$")
# No comment-opener prefix: expect markers may ride in // or /* */ comments
# (the latter lets a marker share a line with an allow() annotation, which
# must end its own line).
EXPECT_RE = re.compile(r"dcl-lint-expect:\s*([\w-]+)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        sev = "warning" if self.rule in WARNING_RULES else "error"
        return (f"{self.path}:{self.line}: {sev}: [{self.rule}] "
                f"{self.message}")


def strip_comments_and_strings(text):
    """Blanks comments, string literals, and char literals while keeping
    line structure, so token scans cannot hit prose or quoted text.
    Returns (stripped_text, comment_lines) where comment_lines maps line
    number -> full comment text (for allow/expect annotations)."""
    out = []
    comments = {}
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            comments.setdefault(line, []).append(text[i:j])
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            comments.setdefault(line, []).append(chunk)
            out.append(re.sub(r"[^\n]", " ", chunk))
            line += chunk.count("\n")
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
            out.append(quote + " " * max(0, j - i - 2) +
                       (quote if j > i + 1 and text[j - 1] == quote else ""))
            i = j
        else:
            if c == "\n":
                line += 1
            out.append(c)
            i += 1
    stripped = "".join(out)
    flat_comments = {ln: " ".join(chunks) for ln, chunks in comments.items()}
    return stripped, flat_comments


class SourceFile:
    def __init__(self, root, relpath):
        self.relpath = relpath.replace(os.sep, "/")
        self.abspath = os.path.join(root, relpath)
        with open(self.abspath, encoding="utf-8") as f:
            self.text = f.read()
        self.stripped, self.comments = strip_comments_and_strings(self.text)
        self.lines = self.stripped.split("\n")
        self.allows = {}   # line -> set of rules allowed on that line
        self.expects = []  # (line, rule) markers for --expect mode
        self.bad_allows = []  # Finding list
        self._parse_annotations()

    def _parse_annotations(self):
        for ln, comment in sorted(self.comments.items()):
            m = ALLOW_RE.search(comment)
            if m:
                rules = [r.strip() for r in m.group(1).split(",")]
                justification = (m.group(2) or "").strip()
                bad = [r for r in rules
                       if r not in RULES and r not in FOREIGN_RULES]
                if bad or not justification:
                    why = (f"unknown rule(s) {', '.join(bad)}" if bad else
                           "missing justification text")
                    self.bad_allows.append(Finding(
                        self.relpath, ln, "bad-allow",
                        f"allow() annotation rejected: {why} "
                        f"(format: // dcl-lint: allow(rule): why it is safe)"))
                else:
                    # The annotation covers its own line and the next line,
                    # so it can ride above a long statement.
                    for target in (ln, ln + 1):
                        self.allows.setdefault(target, set()).update(rules)
            for em in EXPECT_RE.finditer(comment):
                self.expects.append((ln, em.group(1)))

    def allowed(self, line, rule):
        return rule in self.allows.get(line, set())

    def line_of_offset(self, offset):
        return self.stripped.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Rule implementations. Each returns a list of Finding.
# ---------------------------------------------------------------------------

WALLCLOCK_PATTERNS = [
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?s?rand\s*\("),
     "rand()/srand() — use the seeded dcl::Rng (common/rng.h)"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?random_device\b"),
     "std::random_device is nondeterministic — use the seeded dcl::Rng"),
    (re.compile(r"(?<![\w:.>])time\s*\("),
     "time() reads the wall clock — replay (PR 7) requires pure functions "
     "of (seed, clock, key, index, attempt)"),
    (re.compile(r"\b(?:system_clock|high_resolution_clock|steady_clock)\b"),
     "wall/steady clock reads are banned in src/ — timing belongs to the "
     "self-timed bench harnesses, never to algorithm state"),
    # `.`/`->` in the lookbehind: `collector.clock()` is a method call on a
    # project type (the telemetry VirtualClock accessor), not the C API.
    (re.compile(r"(?<![\w:.>])(?:gettimeofday|clock_gettime|clock)\s*\("),
     "C clock APIs read the wall clock"),
]

# The wall-clock overlay carve-out (docs/OBSERVABILITY.md): exactly these
# TUs may read a clock, and ONLY if the file carries a written
# justification marker
#
#     // dcl-lint: wallclock-overlay: <why this TU may read a clock>
#
# An allowlisted file without the marker is still flagged — the allowlist
# buys the *possibility* of an overlay, the justification buys the code.
# The fixture entry proves the marker requirement has teeth.
WALLCLOCK_OVERLAY_TUS = {
    "src/common/telemetry_wallclock.cpp",
    "tests/lint_fixtures/telemetry_wallclock_unjustified.cpp",
}
WALLCLOCK_OVERLAY_MARKER_RE = re.compile(
    r"//\s*dcl-lint:\s*wallclock-overlay:\s*\S")


def rule_wallclock(sf):
    if sf.relpath in WALLCLOCK_OVERLAY_TUS:
        for comment in sf.comments.values():
            if WALLCLOCK_OVERLAY_MARKER_RE.search(comment):
                return []
        # Allowlisted but unjustified: fall through and flag every clock
        # read as usual.
    findings = []
    for pattern, why in WALLCLOCK_PATTERNS:
        for m in pattern.finditer(sf.stripped):
            ln = sf.line_of_offset(m.start())
            findings.append(Finding(sf.relpath, ln, "wallclock",
                                    f"{m.group(0).strip()}: {why}"))
    return findings


UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
# `>\s+name` after the template args; template args may nest, so scan
# forward balancing angle brackets from the decl start.
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def unordered_identifiers(sf):
    """Names declared (anywhere in the file) with an unordered container
    type — members, locals, params. Heuristic: balance the <...> after the
    template name, then take the next identifier."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(sf.stripped):
        i = m.end() - 1  # at '<'
        depth = 0
        n = len(sf.stripped)
        while i < n:
            if sf.stripped[i] == "<":
                depth += 1
            elif sf.stripped[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = sf.stripped[i + 1:i + 200]
        im = IDENT_RE.search(tail)
        if im:
            names.add(im.group(0))
    return names


def rule_unordered_iteration(sf, tainted):
    if sf.relpath not in tainted:
        return []
    names = unordered_identifiers(sf)
    if not names:
        return []
    findings = []
    name_alt = "|".join(re.escape(n) for n in sorted(names))
    range_for = re.compile(
        r"\bfor\s*\([^;()]*?:\s*(" + name_alt + r")\s*\)")
    iter_call = re.compile(
        r"\b(" + name_alt + r")\s*\.\s*(?:c?begin|c?end|c?rbegin)\s*\(")
    for pattern, what in ((range_for, "range-for over"),
                          (iter_call, "iterator walk of")):
        for m in pattern.finditer(sf.stripped):
            ln = sf.line_of_offset(m.start())
            findings.append(Finding(
                sf.relpath, ln, "unordered-iteration",
                f"{what} unordered container '{m.group(1)}' in a TU that "
                f"feeds RoundLedger/ListingOutput — hash iteration order "
                f"would leak into fingerprints; use a sorted structure or "
                f"sort before visiting"))
    return findings


FLOAT_DECL_RE = re.compile(
    r"\b(?:double|float)\s+(?:\w+\s*,\s*)*(\w+)\s*(?:[;={,)]|\+=)")
CHARGE_CALL_RE = re.compile(
    r"\bcharge_(?:exchange|routing|analytic|retry)\s*\(")


def rule_float_ledger(sf):
    # Identifiers declared float/double anywhere in the file...
    float_names = set()
    for m in re.finditer(r"\b(?:double|float)\b([^;(){}]*)[;={]",
                         sf.stripped):
        for im in IDENT_RE.finditer(m.group(1)):
            if im.group(0) not in ("const", "static", "constexpr", "auto"):
                float_names.add(im.group(0))
    if not float_names:
        return []
    # ...that are compound-accumulated...
    accumulated = set()
    for name in float_names:
        if re.search(r"\b" + re.escape(name) + r"\s*[+\-*]=", sf.stripped) or \
           re.search(r"\b" + re.escape(name) + r"\s*=\s*" + re.escape(name) +
                     r"\s*[+\-]", sf.stripped):
            accumulated.add(name)
    if not accumulated:
        return []
    # ...and appear inside a charge_*(...) argument list.
    findings = []
    for m in CHARGE_CALL_RE.finditer(sf.stripped):
        i = m.end() - 1  # at '('
        depth = 0
        n = len(sf.stripped)
        start = i
        while i < n:
            if sf.stripped[i] == "(":
                depth += 1
            elif sf.stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        args = sf.stripped[start:i + 1]
        for name in sorted(accumulated):
            if re.search(r"\b" + re.escape(name) + r"\b", args):
                ln = sf.line_of_offset(m.start())
                findings.append(Finding(
                    sf.relpath, ln, "float-ledger",
                    f"float accumulator '{name}' feeds a ledger charge — "
                    f"accumulation order varies across shard merges; sum "
                    f"exact integers and cast once at the charge site"))
    return findings


RAW_THREAD_RE = re.compile(
    r"\bstd\s*::\s*(thread|jthread|async)\b")


def rule_raw_thread(sf):
    if sf.relpath in RAW_THREAD_ALLOWED:
        return []
    findings = []
    for m in RAW_THREAD_RE.finditer(sf.stripped):
        ln = sf.line_of_offset(m.start())
        findings.append(Finding(
            sf.relpath, ln, "raw-thread",
            f"std::{m.group(1)} outside src/common/parallel_for.cpp — all "
            f"parallelism must go through parallel_for_shards so the merge "
            f"contract stays auditable (DCL_SHARD_AUDIT) and fingerprints "
            f"stay thread-count independent"))
    return findings


FOR_RE = re.compile(r"\bfor\s*\(")
SIZE_BOUND_RE = re.compile(
    r"\bnode_count\s*\(|\bedge_count\s*\(|\.size\s*\(\s*\)|\bn\b|\bm\b")
PUSH_BACK_RE = re.compile(r"([A-Za-z_]\w*)\s*\.\s*push_back\s*\(")


def rule_reserve_hint(sf):
    findings = []
    n = len(sf.stripped)
    for fm in FOR_RE.finditer(sf.stripped):
        # Grab the loop header (...) by balancing parens.
        i = fm.end() - 1
        depth = 0
        while i < n:
            if sf.stripped[i] == "(":
                depth += 1
            elif sf.stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        header = sf.stripped[fm.end():i]
        if not SIZE_BOUND_RE.search(header):
            continue
        # Body: the following balanced {...} block (single-statement loop
        # bodies can't hide an interesting push_back pattern and are
        # skipped).
        j = i + 1
        while j < n and sf.stripped[j] in " \t\n":
            j += 1
        if j >= n or sf.stripped[j] != "{":
            continue
        depth = 0
        k = j
        while k < n:
            if sf.stripped[k] == "{":
                depth += 1
            elif sf.stripped[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        body = sf.stripped[j:k + 1]
        for pm in PUSH_BACK_RE.finditer(body):
            container = pm.group(1)
            if re.search(r"\b" + re.escape(container) + r"\s*\.\s*reserve\s*\(",
                         sf.stripped):
                continue
            # Only unconditional pushes at the top level of the loop body:
            # a push nested in a deeper block (if/lambda/inner loop) is
            # data-dependent, so its final size is not the loop bound and
            # reserve(bound) would be a guess, not a fix.
            depth = 0
            for ch in body[:pm.start()]:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
            if depth != 1:
                continue
            stmt_start = max(body.rfind(";", 0, pm.start()),
                             body.rfind("{", 0, pm.start()),
                             body.rfind("}", 0, pm.start()))
            if re.search(r"\b(?:if|else|while|for)\b",
                         body[stmt_start + 1:pm.start()]):
                continue
            ln = sf.line_of_offset(j + pm.start())
            findings.append(Finding(
                sf.relpath, ln, "reserve-hint",
                f"'{container}.push_back' inside an n/m-bounded loop with no "
                f"'{container}.reserve(...)' in this file — growth rehashes "
                f"on a hot path; reserve or justify"))
    return findings


# Any mention of ROADMAP other than a plain pointer at the file itself.
ROADMAP_REF_RE = re.compile(
    r"\bROADMAP\b(?!\.md)|\bROADMAP\.md\W*(?:item|lever|§)")


def rule_roadmap_ref(sf):
    findings = []
    for ln, comment in sorted(sf.comments.items()):
        for m in ROADMAP_REF_RE.finditer(comment):
            findings.append(Finding(
                sf.relpath, ln + comment.count("\n", 0, m.start()),
                "roadmap-ref",
                "comment cites ROADMAP contents, which are renumbered and "
                "rewritten as work lands — state the reason inline"))
    return findings


# ---------------------------------------------------------------------------
# Taint pass: which files belong to a TU that charges the RoundLedger or
# reports into ListingOutput?
# ---------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
TAINT_RE = re.compile(r"\bRoundLedger\b|\bListingOutput\b")


def compute_tainted(files, root):
    """A file is tainted iff it names RoundLedger/ListingOutput itself or
    is (transitively) included by a file that does: its code is compiled
    into that translation unit, so its iteration orders can reach the
    fingerprints. Project includes resolve against src/ (the include root)
    and the including file's directory."""
    by_rel = {sf.relpath: sf for sf in files}
    includes = {}
    for sf in files:
        deps = []
        for inc in INCLUDE_RE.findall(sf.text):
            for base in ("src", os.path.dirname(sf.relpath)):
                cand = os.path.normpath(os.path.join(base, inc)).replace(
                    os.sep, "/")
                if cand in by_rel:
                    deps.append(cand)
                    break
        includes[sf.relpath] = deps
    tainted = {sf.relpath for sf in files if TAINT_RE.search(sf.stripped)}
    frontier = list(tainted)
    while frontier:
        cur = frontier.pop()
        for dep in includes.get(cur, []):
            if dep not in tainted:
                tainted.add(dep)
                frontier.append(dep)
    return tainted


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(root, paths):
    rels = []
    for p in paths:
        ap = os.path.join(root, p)
        if os.path.isfile(ap):
            rels.append(os.path.relpath(ap, root))
        elif os.path.isdir(ap):
            for dirpath, _, names in os.walk(ap):
                for name in sorted(names):
                    if name.endswith((".cpp", ".h", ".cc", ".hpp")):
                        rels.append(os.path.relpath(
                            os.path.join(dirpath, name), root))
        else:
            raise FileNotFoundError(p)
    return sorted(set(r.replace(os.sep, "/") for r in rels))


# Trees outside the library: their code may time itself or spawn threads,
# so only the comment rules run there. The lint self-test corpora plant
# violations on purpose and are skipped.
COMMENT_ONLY_PATHS = ["tests", "bench", "examples", "perfbench"]
FIXTURE_DIRS = ("tests/lint_fixtures/", "tests/semlint_fixtures/")


def run_lint(root, paths, comment_only_paths=()):
    files = [SourceFile(root, r) for r in collect_files(root, paths)]
    comment_files = [SourceFile(root, r)
                     for r in collect_files(root, comment_only_paths)
                     if not r.startswith(FIXTURE_DIRS)]
    tainted = compute_tainted(files, root)
    findings = []
    for sf in files + comment_files:
        raw = rule_roadmap_ref(sf)
        if sf in files:
            raw += rule_wallclock(sf)
            raw += rule_unordered_iteration(sf, tainted)
            raw += rule_float_ledger(sf)
            raw += rule_raw_thread(sf)
            raw += rule_reserve_hint(sf)
        kept = [f for f in raw if not sf.allowed(f.line, f.rule)]
        kept += sf.bad_allows  # bad-allow is never allowlistable
        findings += kept
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return files + comment_files, findings


def main(argv):
    ap = argparse.ArgumentParser(
        prog="dcl_lint.py",
        description="determinism-contract lint (see docs/ANALYSIS.md)")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to lint (default: src/ "
                         "tools/dcl_cli.cpp, plus the comment rules over "
                         "tests/ bench/ examples/ perfbench/)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--expect", action="store_true",
                    help="self-test mode: findings must match "
                         "dcl-lint-expect markers exactly")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")
    args = ap.parse_args(argv[1:])

    if args.list_rules:
        for rule, desc in RULES.items():
            sev = "warning" if rule in WARNING_RULES else "error"
            print(f"{rule:20s} [{sev}] {desc}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or ["src", "tools/dcl_cli.cpp"]
    comment_only_paths = [] if args.paths else [
        p for p in COMMENT_ONLY_PATHS if os.path.isdir(os.path.join(root, p))]
    try:
        files, findings = run_lint(root, paths, comment_only_paths)
    except FileNotFoundError as e:
        print(f"dcl_lint: no such file or directory: {e}", file=sys.stderr)
        return 2

    if args.expect:
        expected = set()
        for sf in files:
            for ln, rule in sf.expects:
                expected.add((sf.relpath, ln, rule))
        actual = {(f.path, f.line, f.rule) for f in findings}
        missing = sorted(expected - actual)
        surprise = sorted(actual - expected)
        for path, ln, rule in missing:
            print(f"{path}:{ln}: expected [{rule}] but the lint was silent")
        for path, ln, rule in surprise:
            print(f"{path}:{ln}: unexpected [{rule}] finding")
        if missing or surprise:
            print(f"self-test FAILED: {len(missing)} missed, "
                  f"{len(surprise)} unexpected")
            return 1
        print(f"self-test OK: {len(expected)} planted finding(s) all "
              f"reported, nothing else flagged")
        return 0

    errors = [f for f in findings if f.rule not in WARNING_RULES]
    warnings = [f for f in findings if f.rule in WARNING_RULES]
    for f in findings:
        print(f)
    if errors:
        print(f"dcl_lint: {len(errors)} error(s), {len(warnings)} "
              f"warning(s) over {len(files)} file(s)")
        return 1
    print(f"dcl_lint: clean — {len(files)} file(s), {len(warnings)} "
          f"warning(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
