#!/usr/bin/env python3
"""Hot-path purity lint: no allocation, blocking locks, or throws on the
per-packet data path.

Walks the static call graph from the hot-path entry points (the profiler
stages of obs/prof.hpp: worker burst loop, zero-copy view walk, burst log
apply, link send/poll, packet-pool alloc/free) and fails when a reachable
function contains

  * heap allocation        (operator new, malloc/calloc/realloc),
  * std::string growth     (std::string construction, append, to_string,
                            stringstreams),
  * a blocking mutex       (LockGuard / UniqueLock / std::lock_guard /
                            std::unique_lock / bare .lock()),
  * a throw-site           (any `throw`).

Engine: uses libclang over build/compile_commands.json when the python
bindings are importable (exact call graph); otherwise falls back to a
pure-textual call-graph engine (regex + brace matching over src/). The
container this repo targets ships GCC only, so the fallback is the engine
that must stay trustworthy; CI runs whichever is available.

Exceptions live in tools/hot_path_allowlist.txt (one per line:
`<qualified-name> <rule|cold> <reason...>`). `cold` marks a function as a
cold-path boundary: its body is not checked and the walk does not descend
into it (parking, control handling, the materializing fallback). A source
line can also carry an inline marker:

    ... code ...  // LINT_HOT_PATH_ALLOW(<rule>): reason

which suppresses that rule on that line only.

An allowlist entry that names no function under src/ is an error: it
exempts nothing, and usually outlived the code it was written for.

Exit status: 0 clean, 1 violations or stale allowlist entries, 2
usage/internal error.
"""

from __future__ import annotations

import argparse
import bisect
import os
import re
import sys
from collections import defaultdict, deque
from dataclasses import dataclass, field

# --- Configuration ---------------------------------------------------------

# Hot-path entry points == the profiler stages (obs/prof.hpp ProfStage).
DEFAULT_ROOTS = [
    "FtcNode::worker_body",       # kPoll/kViewWalk/.../kParkDrain owner
    "FtcNode::process_view",      # kProcess/kAppend (zero-copy path)
    "FtcNode::apply_logs_burst",  # kLogApply/kTailCommit
    "Link::send_burst",           # kLinkSend
    "Link::poll_burst",           # kLinkPoll
    "ReliableChannel::send_burst",
    "ReliableChannel::poll_burst",
    "PacketPool::alloc_raw",      # kPoolAlloc
    "PacketPool::free_raw",       # kPoolFree
    "FtcNode::drain_handoff",     # kHandoffDrain (shard-affine drain loop)
    "InOrderApplier::offer",             # replica wire apply
    "InOrderApplier::apply_handoff",     # owner-side handoff resolve
    "StateStore::apply_wire_owner",      # lock-free owner apply
]

RULES = {
    "alloc": re.compile(
        r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("),
    "string-growth": re.compile(
        r"\bstd::to_string\s*\(|\.append\s*\(|\bstd::string\s*[({]"
        r"|\bstd::ostringstream\b|\bstd::stringstream\b"),
    "blocking-lock": re.compile(
        r"\bLockGuard\b|\bUniqueLock\b|\bstd::lock_guard\b"
        r"|\bstd::unique_lock\b|\bstd::mutex\b|\.lock\s*\(\s*\)"),
    "throw": re.compile(r"\bthrow\b"),
}

INLINE_MARKER = re.compile(r"LINT_HOT_PATH_ALLOW\((?P<rule>[\w*-]+)\)")

CPP_KEYWORDS = frozenset(
    """if else for while switch return case do new delete sizeof alignof
    static_cast dynamic_cast const_cast reinterpret_cast throw catch
    noexcept decltype typeid defined assert static_assert alignas
    constexpr requires co_await co_yield co_return""".split())


# --- Source model ----------------------------------------------------------

@dataclass
class Function:
    qual: str           # best-effort qualified name, e.g. FtcNode::emit
    file: str
    body_start: int     # offset into the stripped text
    body_end: int
    stripped: str = field(repr=False, default="")
    raw: str = field(repr=False, default="")
    line_offsets: list = field(repr=False, default_factory=list)

    @property
    def name(self) -> str:
        return self.qual.rsplit("::", 1)[-1]

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_offsets, offset) + 1


def strip_code(text: str) -> str:
    """Blanks comments, string/char literals, and preprocessor lines,
    preserving offsets and newlines so byte offsets map 1:1 onto the
    original file."""
    out = list(text)
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#":
            j = i
            while j < n:
                k = text.find("\n", j)
                k = n if k < 0 else k
                if text[k - 1] == "\\":  # Line continuation.
                    j = k + 1
                    continue
                break
            for m in range(i, k):
                if out[m] != "\n":
                    out[m] = " "
            i = k
            continue
        if not c.isspace():
            at_line_start = False
        if c == "\n":
            at_line_start = True
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


# Candidate function header: optional qualifiers then `name(`. The name may
# itself be qualified (out-of-class definitions). Control-flow keywords are
# filtered afterwards.
HEADER_RE = re.compile(
    r"(?P<name>~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*\(")

# Tokens legal between a definition's `)` and its `{`.
SPEC_RE = re.compile(
    r"\s*(?:const\b|noexcept(?:\s*\([^()]*\))?|override\b|final\b"
    r"|mutable\b|try\b|SFC_[A-Z_0-9]+(?:\s*\([^()]*\))?"
    r"|\[\[[^\]]*\]\]|->\s*[\w:<>,*&\s]+?(?=[{;]))")


def skip_ctor_inits(s: str, i: int):
    """s[i] == ':' starting a ctor-initializer list; returns the index of
    the body `{`, or None if this is not actually an initializer list."""
    i += 1
    n = len(s)
    while True:
        while i < n and s[i].isspace():
            i += 1
        m = re.match(r"[A-Za-z_]\w*(?:\s*<[^<>]*>)?(?:::[A-Za-z_]\w*)*",
                     s[i:])
        if not m:
            return None
        i += m.end()
        while i < n and s[i].isspace():
            i += 1
        if i >= n or s[i] not in "({":
            return None
        i = match_brace(s, i)
        while i < n and s[i].isspace():
            i += 1
        if i < n and s[i] == ",":
            i += 1
            continue
        if i < n and s[i] == "{":
            return i
        return None


def find_body_start(stripped: str, paren_end: int):
    """Index of the body `{` after a parameter list, or None when the
    header is a declaration or expression rather than a definition."""
    i = paren_end
    n = len(stripped)
    while i < n:
        while i < n and stripped[i].isspace():
            i += 1
        if i >= n:
            return None
        c = stripped[i]
        if c == "{":
            return i
        if c == ":" and not stripped.startswith("::", i):
            return skip_ctor_inits(stripped, i)
        m = SPEC_RE.match(stripped, i)
        if not m or m.end() == i:
            return None
        i = m.end()
    return None

SCOPE_RE = re.compile(
    r"\b(?:namespace|class|struct)\s+(?:SFC_\w+\s*(?:\([^)]*\)\s*)?)*"
    r"(?:alignas\s*\([^)]*\)\s*)?(?P<name>[A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?::[^;{]*)?\{")


def match_brace(text: str, open_idx: int) -> int:
    """Index just past the brace matching text[open_idx] ('{' or '(')."""
    opener = text[open_idx]
    closer = {"{": "}", "(": ")"}[opener]
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def parse_functions(path: str, raw: str) -> list:
    """Best-effort extraction of function definitions with bodies."""
    stripped = strip_code(raw)
    line_offsets = [i for i, ch in enumerate(stripped) if ch == "\n"]

    # Scope intervals from namespace/class/struct blocks, for qualifying
    # in-class definitions.
    scopes = []  # (start, end, name)
    for m in SCOPE_RE.finditer(stripped):
        open_idx = stripped.index("{", m.start())
        scopes.append((open_idx, match_brace(stripped, open_idx),
                       m.group("name")))

    def qualify(pos: int, name: str) -> str:
        if "::" in name:
            return re.sub(r"\s*::\s*", "::", name)
        enclosing = [s for s in scopes
                     if s[0] <= pos < s[1] and not s[2].startswith("detail")]
        if enclosing:
            innermost = max(enclosing, key=lambda s: s[0])
            return f"{innermost[2]}::{name}"
        return name

    funcs = []
    pos = 0
    n = len(stripped)
    while pos < n:
        m = HEADER_RE.search(stripped, pos)
        if not m:
            break
        name = re.sub(r"\s+", "", m.group("name"))
        last = name.rsplit("::", 1)[-1].lstrip("~")
        if last in CPP_KEYWORDS or name in CPP_KEYWORDS:
            pos = m.end()
            continue
        paren_end = match_brace(stripped, m.end() - 1)
        body_start = find_body_start(stripped, paren_end)
        if body_start is None:
            pos = m.end()
            continue
        body_end = match_brace(stripped, body_start)
        funcs.append(Function(
            qual=qualify(m.start(), name), file=path,
            body_start=body_start, body_end=body_end,
            stripped=stripped, raw=raw, line_offsets=line_offsets))
        pos = body_start + 1  # Allow nested scans (lambdas stay inside).
    return funcs


CALL_RE = re.compile(r"([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*\(")


def body_calls(fn: Function) -> set:
    calls = set()
    body = fn.stripped[fn.body_start:fn.body_end]
    for m in CALL_RE.finditer(body):
        name = m.group(1)
        last = name.rsplit("::", 1)[-1]
        if last in CPP_KEYWORDS:
            continue
        calls.add(name)
    return calls


# --- Allowlist -------------------------------------------------------------

@dataclass
class Allowlist:
    cold: set = field(default_factory=set)           # qualified names
    allowed: set = field(default_factory=set)        # (qual, rule)
    reasons: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str) -> "Allowlist":
        al = cls()
        if not os.path.exists(path):
            return al
        for lineno, line in enumerate(open(path), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 2:
                raise SystemExit(
                    f"{path}:{lineno}: expected '<name> <rule|cold> <reason>'")
            name, rule = parts[0], parts[1]
            reason = parts[2] if len(parts) > 2 else ""
            if rule == "cold":
                al.cold.add(name)
            elif rule in RULES or rule == "*":
                al.allowed.add((name, rule))
            else:
                raise SystemExit(f"{path}:{lineno}: unknown rule '{rule}'")
            al.reasons[(name, rule)] = reason
        return al

    def names(self) -> set:
        return set(self.cold) | {name for name, _rule in self.allowed}


def stale_entries(index: dict, allow: Allowlist) -> list:
    """Allowlist names that match no indexed function's qualified name (the
    walk compares qualified names exactly, so such an entry exempts
    nothing)."""
    known = {f.qual for fns in index.values() for f in fns}
    return sorted(allow.names() - known)


# --- Engine ----------------------------------------------------------------

@dataclass
class Violation:
    func: str
    rule: str
    file: str
    line: int
    excerpt: str


def inline_allowed(fn: Function, line: int, rule: str) -> bool:
    """A marker suppresses its own line and the line after it (so a
    comment-only marker line can cover one wrapped statement line)."""
    raw_lines = fn.raw.splitlines()
    for lineno in (line, line - 1):
        if not 1 <= lineno <= len(raw_lines):
            continue
        for m in INLINE_MARKER.finditer(raw_lines[lineno - 1]):
            if m.group("rule") in (rule, "*"):
                return True
    return False


def check_function(fn: Function, allow: Allowlist) -> list:
    out = []
    body = fn.stripped[fn.body_start:fn.body_end]
    for rule, rx in RULES.items():
        if (fn.qual, rule) in allow.allowed or (fn.qual, "*") in allow.allowed:
            continue
        for m in rx.finditer(body):
            off = fn.body_start + m.start()
            line = fn.line_of(off)
            if inline_allowed(fn, line, rule):
                continue
            raw_lines = fn.raw.splitlines()
            excerpt = raw_lines[line - 1].strip() if line - 1 < len(
                raw_lines) else ""
            out.append(Violation(fn.qual, rule, fn.file, line, excerpt))
    return out


def build_index(files: list) -> dict:
    """last-component name -> [Function]."""
    index = defaultdict(list)
    for path in files:
        raw = open(path, errors="replace").read()
        for fn in parse_functions(path, raw):
            index[fn.name].append(fn)
    return index


def resolve(index: dict, callee: str) -> list:
    last = callee.rsplit("::", 1)[-1]
    cands = index.get(last, [])
    if "::" in callee:
        exact = [f for f in cands if f.qual.endswith(callee)]
        if exact:
            return exact
    return cands


def walk(index: dict, roots: list, allow: Allowlist, verbose: bool):
    queue = deque()
    seen = set()
    missing_roots = []
    for root in roots:
        fns = resolve(index, root)
        fns = [f for f in fns if f.qual.endswith(root)]
        if not fns:
            missing_roots.append(root)
        for f in fns:
            key = (f.qual, f.file, f.body_start)
            if key not in seen:
                seen.add(key)
                queue.append(f)
    violations = []
    visited_names = set()
    while queue:
        fn = queue.popleft()
        if fn.qual in allow.cold:
            continue
        visited_names.add(fn.qual)
        violations.extend(check_function(fn, allow))
        for callee in body_calls(fn):
            for f in resolve(index, callee):
                if f.qual in allow.cold:
                    continue
                key = (f.qual, f.file, f.body_start)
                if key not in seen:
                    seen.add(key)
                    queue.append(f)
    if verbose:
        print(f"[lint-hot-path] reachable functions: {len(visited_names)}",
              file=sys.stderr)
        for name in sorted(visited_names):
            print(f"  {name}", file=sys.stderr)
    return violations, missing_roots


def try_libclang(args) -> bool:
    """Placeholder for the exact engine: returns False when the libclang
    python bindings are unavailable (this repo's container has GCC only),
    in which case the textual engine below runs."""
    try:
        import clang.cindex  # noqa: F401
    except ImportError:
        return False
    # The bindings exist but a compile_commands.json is still required.
    cc = os.path.join(args.build_dir, "compile_commands.json")
    if not os.path.exists(cc):
        return False
    # Exact-engine implementation intentionally deferred to a container
    # that ships libclang; the textual engine is the supported path.
    return False


def collect_sources(src_dir: str) -> list:
    out = []
    for base, _dirs, names in os.walk(src_dir):
        for name in sorted(names):
            if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                out.append(os.path.join(base, name))
    return out


# --- Self test -------------------------------------------------------------

def self_test(repo_root: str) -> int:
    """Runs the engine over the bundled fixtures and asserts it (a) flags
    the allocating hot-path function and (b) stays quiet on the clean one."""
    fixture_dir = os.path.join(repo_root, "tools", "lint_fixtures")
    files = collect_sources(fixture_dir)
    if not files:
        print(f"self-test: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2
    index = build_index(files)

    dirty, missing = walk(index, ["FixtureNode::hot_entry"], Allowlist(),
                          verbose=False)
    if missing:
        print(f"self-test: fixture root not found: {missing}",
              file=sys.stderr)
        return 2
    got = {(v.func, v.rule) for v in dirty}
    expect = {
        ("FixtureNode::hot_entry", "blocking-lock"),
        ("FixtureNode::burst_helper", "alloc"),
        ("FixtureNode::format_label", "string-growth"),
        ("FixtureNode::burst_helper", "throw"),
    }
    if not expect <= got:
        print(f"self-test: expected violations missing: {expect - got}; "
              f"got {sorted(got)}", file=sys.stderr)
        return 1

    clean, _ = walk(index, ["FixtureNode::clean_entry"], Allowlist(),
                    verbose=False)
    clean = [v for v in clean if v.func != "FixtureNode::cold_spill"]
    # cold_spill is reachable from clean_entry only through the allowlist
    # boundary; mark it cold the way the real tree does.
    allow = Allowlist()
    allow.cold.add("FixtureNode::cold_spill")
    clean, _ = walk(index, ["FixtureNode::clean_entry"], allow, verbose=False)
    if clean:
        print("self-test: clean fixture reported violations:",
              file=sys.stderr)
        for v in clean:
            print(f"  {v.func} {v.rule} {v.file}:{v.line}", file=sys.stderr)
        return 1

    stale = stale_entries(index, Allowlist.load(
        os.path.join(fixture_dir, "stale_allowlist.txt")))
    if stale != ["FixtureNode::gone_helper"]:
        print(f"self-test: stale allowlist entries: expected "
              f"['FixtureNode::gone_helper'], got {stale}", file=sys.stderr)
        return 1
    print("self-test: ok (dirty fixture flagged, clean fixture quiet, "
          "stale allowlist entry flagged)")
    return 0


# --- Main ------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo-root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--src", default=None, help="source dir (default: src/)")
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--allowlist", default=None)
    ap.add_argument("--roots", default=None,
                    help="comma-separated entry points")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.repo_root)

    src_dir = args.src or os.path.join(args.repo_root, "src")
    allow_path = args.allowlist or os.path.join(
        args.repo_root, "tools", "hot_path_allowlist.txt")
    roots = args.roots.split(",") if args.roots else DEFAULT_ROOTS

    if try_libclang(args):
        return 0  # Exact engine ran (not reachable today; see docstring).

    files = collect_sources(src_dir)
    if not files:
        print(f"no sources under {src_dir}", file=sys.stderr)
        return 2
    index = build_index(files)
    allow = Allowlist.load(allow_path)
    violations, missing = walk(index, roots, allow, args.verbose)

    if missing:
        print(f"lint-hot-path: entry points not found: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    stale = stale_entries(index, allow)
    if stale:
        print(f"lint-hot-path: {len(stale)} allowlist entr"
              f"{'y names' if len(stale) == 1 else 'ies name'} no function "
              f"under {os.path.relpath(src_dir, args.repo_root)}/:")
        for name in stale:
            print(f"  {name}")
        print("\nDelete the entry, or fix its name to the function's "
              "qualified name.")
        return 1
    if violations:
        print(f"lint-hot-path: {len(violations)} hot-path purity "
              f"violation(s):")
        for v in sorted(violations, key=lambda v: (v.file, v.line)):
            rel = os.path.relpath(v.file, args.repo_root)
            print(f"  {rel}:{v.line}: [{v.rule}] in {v.func}: {v.excerpt}")
        print("\nFix the violation, move the code behind a cold boundary, "
              "or add an entry to tools/hot_path_allowlist.txt with a "
              "reason.")
        return 1
    print(f"lint-hot-path: clean ({len(files)} files, "
          f"{sum(len(v) for v in index.values())} functions indexed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
