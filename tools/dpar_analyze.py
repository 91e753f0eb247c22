#!/usr/bin/env python3
"""dpar-analyze — AST-grounded lane-ownership & determinism analyzer.

Where tools/dpar_lint.py enforces the determinism contract with line-local
patterns, this tool checks the *structural* half of the conservative-PDES
lane contract (DESIGN.md "Lane-ownership annotations"): it builds a model of
records, members, functions, call edges, event-post sites and lambda
captures, reads the capability annotations of src/sim/lane_annotations.hpp
(DPAR_LANE_OWNED / DPAR_EXCLUSIVE_LANE / DPAR_LANE_SAFE /
DPAR_CROSS_LANE_API), and proves four rule families over real call paths —
including through helper functions that line-local regexes cannot see:

  cross-lane-post     No synchronous call path from a DPAR_CROSS_LANE_API
                      function may reach a raw Engine::at()/after() post.
                      Cross-LP scheduling must go through the lane-routed
                      channel (at_in/after_in/at_all_in) or the batch
                      variants (at_all/after_all), whose sequence numbering
                      the window barrier controls. Replaces (and sees
                      through helpers missed by) dpar-lint's line-local
                      pdes-lane-channel rule.
  lane-capture        Event callbacks (lambdas handed to at*/after*) may
                      capture by reference only state owned by the posting
                      lane or marked DPAR_LANE_SAFE: a by-reference capture
                      of a stack-local, a default [&] capture on a
                      cross-lane post, or `this` posted into a lane other
                      than the owner declared by DPAR_LANE_OWNED is flagged.
                      Posts into the exclusive lane are exempt — exclusive
                      events run with every lane quiescent.
  exclusive-lane-write
                      Members marked DPAR_EXCLUSIVE_LANE (EMC fold state,
                      the repair tracker, the durability ledger) are mutated
                      only inside DPAR_EXCLUSIVE_LANE note handlers or
                      lambdas posted into the exclusive lane.
  nondet-feeds-post   AST-grounded version of the wall-clock / raw-random /
                      unordered-iter rules, scoped to where they can corrupt
                      the event schedule: inside a function (or posted
                      callback) that posts events. Honors the corresponding
                      dpar-lint allow() names, so one reviewed escape covers
                      both tools.

Frontends:
  libclang            Preferred: parses every TU in the exported
                      compile_commands.json (like tools/run_tidy.py) and
                      reads [[clang::annotate]] attributes from the AST.
  internal            Fallback: a bundled C++ structural scanner that
                      recognizes the annotation macros textually. Used
                      automatically when the python clang bindings or
                      libclang.so are unavailable, so the contract is
                      checked on every box. --require-libclang turns the
                      fallback into a hard failure (the pinned CI runner).

Escapes: `// dpar-lint: allow(<rule>)` on the finding line or the contiguous
//-comment block above it, exactly as for dpar-lint; every allow carries a
justification.

Modes:
  dpar_analyze.py [paths...]         analyze files/directories (default: src)
  dpar_analyze.py --self-test        run the golden corpus under
                                     tools/lint_fixtures/analyze_{bad,good}.cpp
  dpar_analyze.py --sarif out.sarif  additionally emit SARIF 2.1.0

Exit status: 0 clean, 1 findings, 2 usage/self-test harness error,
3 --require-libclang with no libclang available.
"""

import argparse
import json
import os
import re
import sys

RULES = {
    "cross-lane-post": (
        "synchronous path from a DPAR_CROSS_LANE_API entry point reaches raw "
        "Engine::at()/after() (route through at_in/after_in/at_all_in)"),
    "lane-capture": (
        "event callback captures state not owned by the posting lane "
        "(capture by value, mark DPAR_LANE_SAFE, or post into the owner lane)"),
    "exclusive-lane-write": (
        "DPAR_EXCLUSIVE_LANE member mutated outside an exclusive-lane "
        "handler (annotate the handler or post the write into the exclusive "
        "lane)"),
    "nondet-feeds-post": (
        "nondeterminism source (wall clock / raw randomness / unordered-"
        "container iteration) inside an event-posting context"),
}

# A finding is also suppressed by the dpar-lint rule that guards the same
# invariant: the justification was already reviewed once.
ALLOW_ALIASES = {
    "cross-lane-post": ("cross-lane-post", "pdes-lane-channel"),
    "lane-capture": ("lane-capture",),
    "exclusive-lane-write": ("exclusive-lane-write",),
    "nondet-feeds-post": ("nondet-feeds-post", "unordered-iter",
                          "wall-clock", "raw-random"),
}

# The engine and its queue are the mechanism the contract protects, not a
# client of it; lane_annotations.hpp is pure macros.
EXEMPT_FILES = {
    "src/sim/engine.hpp",
    "src/sim/engine.cpp",
    "src/sim/event_queue.hpp",
    "src/sim/event_queue.cpp",
    "src/sim/lane_annotations.hpp",
}

SOURCE_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")
DEFAULT_SCAN_DIRS = ("src",)

ALLOW_RE = re.compile(r"dpar-lint:\s*allow\(\s*([\w-]+)\s*\)")
EXPECT_RE = re.compile(r"//\s*expect\(\s*([\w-]+)\s*\)")
LINE_COMMENT_RE = re.compile(r"^\s*//")

POST_METHODS = ("at", "after", "at_in", "after_in", "at_all", "after_all",
                "at_all_in")
RAW_POSTS = ("at", "after")
LANE_TARGETED = ("at_in", "after_in", "at_all_in")

# Engine-ish receiver directly before a post-method call: eng_, eng, engine().
POST_RE = re.compile(
    r"\b(eng\w*|engine\s*\(\s*\))\s*(?:\.|->)\s*"
    r"(at|after|at_in|after_in|at_all|after_all|at_all_in)\s*\(")

# Annotation macro tokens (internal frontend) / annotate strings (libclang).
ANN_CROSS = "cross_lane_api"
ANN_EXCL = "exclusive_lane"
ANN_SAFE = "lane_safe"
ANN_OWNED = "lane_owned"
MACRO_TOKENS = {
    "DPAR_CROSS_LANE_API": ANN_CROSS,
    "DPAR_EXCLUSIVE_LANE": ANN_EXCL,
    "DPAR_LANE_SAFE": ANN_SAFE,
}
OWNED_MACRO_RE = re.compile(r"DPAR_LANE_OWNED\s*\(([^()]*(?:\([^()]*\)[^()]*)*)\)")

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "new", "delete", "throw", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "decltype", "noexcept", "assert", "case", "default",
    "do", "else", "try", "operator", "template", "typename", "static_assert",
    "co_await", "co_return", "co_yield", "alignas", "defined",
}

WALL_CLOCK_PATTERNS = [
    re.compile(r"std\s*::\s*chrono\s*::\s*system_clock"),
    re.compile(r"\bgettimeofday\s*\("),
    re.compile(r"\bclock_gettime\s*\("),
    re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0|&)"),
    re.compile(r"\bstd\s*::\s*time\s*\("),
    re.compile(r"\b(?:localtime|gmtime|mktime)(?:_r)?\s*\("),
]
RAW_RANDOM_PATTERNS = [
    re.compile(r"(?<![\w:])s?rand\s*\(\s*\)"),
    re.compile(r"(?<![\w:])srand\s*\("),
    re.compile(r"\brandom_device\b"),
    re.compile(r"\bmt19937(?:_64)?\b"),
    re.compile(r"\bminstd_rand0?\b"),
    re.compile(r"\branlux(?:24|48)\b"),
    re.compile(r"\barc4random\b"),
    re.compile(r"\bdefault_random_engine\b"),
]
UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s*"
    r"(\w+)\s*[;={]",
    re.DOTALL,
)

MUTATING_METHODS = (
    "push_back|pop_back|emplace_back|emplace|insert|erase|clear|resize|"
    "assign|push_front|pop_front|push|pop|swap|reserve|append|add|record|"
    "merge|extract|splice|sort|reset|emplace_front|store")

LAMBDA_HEAD_RE = re.compile(
    r"\[(?P<caps>[^\[\]]*)\]\s*(?:\([^()]*\))?\s*"
    r"(?:mutable\b|constexpr\b|noexcept\b|->\s*[\w:<>&*,\s]+)*\s*$")

NAMED_LAMBDA_RE = re.compile(
    r"(?:auto|std\s*::\s*function\s*<[^;{}]*>|sim\s*::\s*UniqueFunction|"
    r"UniqueFunction)\s*&?\s*(\w+)\s*=\s*$")


class Finding:
    def __init__(self, path, line, rule, detail):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.detail}"


def strip_strings_and_comments(line):
    """Blank out string/char literals and // comments, preserving columns
    (same treatment as dpar_lint)."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            out.append(" " * (n - i))
            break
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(" ")
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def strip_block_comments(text):
    """Blank /* ... */ runs, preserving newlines and columns."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        if text[i] == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                j = n - 2
            chunk = text[i:j + 2]
            out.append("".join(c if c == "\n" else " " for c in chunk))
            i = j + 2
            continue
        out.append(text[i])
        i += 1
    return "".join(out)


def allowed(lines, idx, rule):
    """True when line idx (0-based) or the contiguous //-comment block above
    carries an allow() for `rule` or one of its aliases."""
    names = set(ALLOW_ALIASES.get(rule, (rule,)))

    def line_allows(s):
        return any(m.group(1) in names for m in ALLOW_RE.finditer(s))

    if idx < len(lines) and line_allows(lines[idx]):
        return True
    j = idx - 1
    while j >= 0 and LINE_COMMENT_RE.match(lines[j]):
        if line_allows(lines[j]):
            return True
        j -= 1
    return False


# --------------------------------------------------------------------------
# Model
# --------------------------------------------------------------------------

class Capture:
    """One entry of a lambda capture list."""
    def __init__(self, name, by_ref, is_default=False, is_this=False,
                 is_init=False):
        self.name = name
        self.by_ref = by_ref
        self.is_default = is_default
        self.is_this = is_this
        self.is_init = is_init


class PostSite:
    def __init__(self, method, line, lane_expr=None, lam=None,
                 callback_name=None):
        self.method = method          # at / after / at_in / ...
        self.line = line              # 1-based
        self.lane_expr = lane_expr    # text of the lane argument, or None
        self.lam = lam                # LambdaScope posted here, or None
        self.callback_name = callback_name  # identifier posted, or None

    @property
    def raw(self):
        return self.method in RAW_POSTS

    @property
    def exclusive_target(self):
        return self.lane_expr is not None and "exclusive_lane" in self.lane_expr


class Func:
    """A function (or lambda) context: the unit every rule reasons over."""
    def __init__(self, name, qualname, record, file, line, is_lambda=False):
        self.name = name              # simple name ('' for lambdas)
        self.qualname = qualname
        self.record = record          # owning record qualname or None
        self.file = file
        self.line = line
        self.is_lambda = is_lambda
        self.annotations = set()
        self.posts = []               # [PostSite] — sync posts in own body
        self.lambdas = []             # [Func] — lambdas defined in own body
        self.captures = []            # [Capture] — when is_lambda
        self.posted_via = None        # PostSite when posted as a callback
        self.callees = set()          # simple callee names (sync calls only)
        self.hazards = []             # [(line, kind, detail)]
        self.value_locals = set()     # by-value params/locals
        self.ref_locals = set()       # reference params/locals
        self.parent = None            # enclosing Func for lambdas
        self.end_line = None          # last body line (internal frontend)
        self.chunks = []              # [(first_line, own-body text)]
        self.var_name = None          # variable a lambda was assigned to


class Record:
    def __init__(self, name, qualname, file, line):
        self.name = name
        self.qualname = qualname
        self.file = file
        self.line = line
        self.annotations = set()
        self.lane_expr = None               # DPAR_LANE_OWNED argument text
        self.members = {}                   # name -> set of annotations
        self.method_annotations = {}        # simple method name -> set


class Model:
    def __init__(self):
        self.records = {}      # qualname -> Record
        self.functions = []    # [Func] (lambdas included, flagged)
        self.files = {}        # rel -> (lines, clean_lines)

    def record_by_simple_name(self, name):
        hits = [r for r in self.records.values() if r.name == name]
        return hits[0] if len(hits) == 1 else None

    def exclusive_members(self):
        out = {}
        for r in self.records.values():
            for m, anns in r.members.items():
                if ANN_EXCL in anns:
                    out.setdefault(m, set()).add(r.qualname)
        return out


# --------------------------------------------------------------------------
# Internal frontend: structural C++ scanner
# --------------------------------------------------------------------------

class Scope:
    def __init__(self, kind, name, header, start, parent):
        self.kind = kind      # namespace / record / function / lambda /
                              # block / enum / init
        self.name = name
        self.header = header
        self.start = start    # offset of '{'
        self.end = None       # offset of matching '}'
        self.parent = parent
        self.children = []


FUNC_NAME_RE = re.compile(r"([~\w][\w:~]*)\s*\($")
CTOR_INIT_TAIL_RE = re.compile(r"[:,]\s*[~\w][\w:]*(?:<[^<>]*>)?\s*$")
RECORD_RE = re.compile(
    r"\b(?:struct|class|union)\s+"
    r"(?:DPAR_\w+\s*(?:\([^()]*\))?\s+)*"
    r"(\w+)\s*(?:final\s*)?(?::[^;{]*)?$")
NAMESPACE_RE = re.compile(r"\bnamespace\s+([\w:]*)\s*$")
ENUM_RE = re.compile(r"\benum\b")


def classify_header(header):
    """Decide what kind of scope a '{' opens given the statement text before
    it. Returns (kind, name)."""
    h = header.strip()
    if LAMBDA_HEAD_RE.search(h):
        return "lambda", ""
    m = NAMESPACE_RE.search(h)
    if m is not None and "=" not in h:
        return "namespace", m.group(1)
    if ENUM_RE.search(h) and "(" not in h:
        return "enum", ""
    m = RECORD_RE.search(h)
    if m is not None and "(" not in h.split(m.group(1))[-1]:
        return "record", m.group(1)
    # Function definition: a name directly before a balanced top-level (...)
    # group, with only qualifiers / a ctor-init-list between ')' and '{'.
    fname = function_name_of(h)
    if fname is not None:
        return "function", fname
    if h.endswith("=") or h.endswith("return") or re.search(r"=\s*$", h):
        return "init", ""
    if CTOR_INIT_TAIL_RE.search(h):
        return "init", ""
    return "block", ""


def function_name_of(header):
    """The function name when `header` reads as a definition header,
    else None."""
    # Find the last balanced top-level (...) group; the name precedes the
    # FIRST one (the parameter list) — later groups are ctor-init entries or
    # noexcept(...) etc.
    depth = 0
    first_open = None
    for i, c in enumerate(header):
        if c == "(":
            if depth == 0 and first_open is None:
                first_open = i
            depth += 1
        elif c == ")":
            depth -= 1
    if first_open is None or depth != 0:
        return None
    before = header[:first_open].rstrip()
    m = re.search(r"(operator\s*(?:\(\)|\[\]|[^\s\w(]+))\s*$", before)
    if m:
        return m.group(1).replace(" ", "")
    m = FUNC_NAME_RE.search(before + "(")
    if m is None:
        return None
    name = m.group(1)
    simple = name.rsplit("::", 1)[-1].lstrip("~")
    if simple in CPP_KEYWORDS or not re.match(r"[A-Za-z_~]", name):
        return None
    # `for (...)`, `if (...)`: keyword check above catches these; a macro
    # call statement `FOO(x) { ... }` is indistinguishable from a definition
    # and treated as one (harmless: empty signature).
    return name


def parse_scopes(text):
    """One pass over cleaned text building the scope tree."""
    root = Scope("root", "", "", -1, None)
    cur = root
    stmt_start = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "{":
            header = text[stmt_start:i]
            kind, name = classify_header(header)
            sc = Scope(kind, name, header, i, cur)
            cur.children.append(sc)
            if kind in ("enum", "init"):
                # Skip the balanced region; an init brace does not end the
                # surrounding statement.
                depth = 1
                j = i + 1
                while j < n and depth:
                    if text[j] == "{":
                        depth += 1
                    elif text[j] == "}":
                        depth -= 1
                    j += 1
                sc.end = j - 1
                i = j
                if kind == "enum":
                    stmt_start = i
                continue
            cur = sc
            stmt_start = i + 1
        elif c == "}":
            if cur is not root:
                cur.end = i
                cur = cur.parent
            stmt_start = i + 1
        elif c == ";":
            stmt_start = i + 1
        i += 1
    # Unclosed scopes (parse slip): close at EOF so spans stay usable.
    sc = cur
    while sc is not root:
        if sc.end is None:
            sc.end = n - 1
        sc = sc.parent
    return root


def own_spans(scope):
    """Spans of `scope`'s body excluding nested function/lambda/record
    bodies (blocks and inits stay — they execute inline)."""
    holes = []

    def collect(s):
        for ch in s.children:
            if ch.kind in ("function", "lambda", "record"):
                holes.append((ch.start, ch.end + 1))
            elif ch.kind in ("block", "init", "enum", "namespace"):
                collect(ch)

    collect(scope)
    holes.sort()
    spans = []
    pos = scope.start + 1
    for a, b in holes:
        if a > pos:
            spans.append((pos, a))
        pos = max(pos, b)
    if scope.end > pos:
        spans.append((pos, scope.end))
    return spans


def span_text(text, spans):
    return "".join(text[a:b] for a, b in spans)


class LineMap:
    def __init__(self, text):
        self.starts = [0]
        for m in re.finditer(r"\n", text):
            self.starts.append(m.end())

    def line_of(self, offset):
        lo, hi = 0, len(self.starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1


def parse_captures(caps):
    out = []
    depth = 0
    cur = ""
    items = []
    for c in caps:
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        if c == "," and depth == 0:
            items.append(cur)
            cur = ""
        else:
            cur += c
    if cur.strip():
        items.append(cur)
    for item in items:
        s = item.strip()
        if not s:
            continue
        if s == "&":
            out.append(Capture("", True, is_default=True))
        elif s == "=":
            out.append(Capture("", False, is_default=True))
        elif s in ("this",):
            out.append(Capture("this", True, is_this=True))
        elif s in ("*this",):
            out.append(Capture("this", False, is_this=True))
        elif "=" in s:
            name = s.split("=", 1)[0].strip()
            by_ref = name.startswith("&")
            out.append(Capture(name.lstrip("&").strip(), by_ref,
                               is_init=True))
        elif s.startswith("&"):
            out.append(Capture(s[1:].strip(), True))
        else:
            out.append(Capture(s, False))
    return out


def split_top_args(text):
    """Split the argument text of a call at top-level commas."""
    args = []
    cur_start = 0
    depth_paren = depth_brace = depth_brack = depth_angle = 0
    for i, c in enumerate(text):
        if c == "(":
            depth_paren += 1
        elif c == ")":
            depth_paren -= 1
        elif c == "{":
            depth_brace += 1
        elif c == "}":
            depth_brace -= 1
        elif c == "[":
            depth_brack += 1
        elif c == "]":
            depth_brack -= 1
        elif c == "," and depth_paren == depth_brace == depth_brack == 0:
            args.append((cur_start, i))
            cur_start = i + 1
    if text[cur_start:].strip():
        args.append((cur_start, len(text)))
    return args


def match_paren(text, open_idx):
    """Offset of the ')' matching text[open_idx] == '('; -1 on failure."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")


class InternalFrontend:
    """Builds the Model from source text alone (no compiler needed)."""

    def __init__(self, root):
        self.root = root

    def build(self, files):
        model = Model()
        texts = {}
        for f in files:
            rel = os.path.relpath(f, self.root).replace(os.sep, "/")
            with open(f, encoding="utf-8", errors="replace") as fh:
                raw = fh.read()
            lines = raw.split("\n")
            clean_lines = [strip_strings_and_comments(l) for l in lines]
            clean = strip_block_comments("\n".join(clean_lines))
            model.files[rel] = (lines, clean.split("\n"))
            texts[rel] = clean
        # Project-wide unordered names: members declared in headers are
        # iterated from .cpp files.
        unordered = set()
        for clean in texts.values():
            unordered |= {m.group(1)
                          for m in UNORDERED_DECL_RE.finditer(clean)}
        for rel, clean in sorted(texts.items()):
            self._scan_file(model, rel, clean, unordered)
        self._merge_declared_annotations(model)
        return model

    # -- per-file scan -----------------------------------------------------

    def _scan_file(self, model, rel, clean, unordered):
        lmap = LineMap(clean)
        tree = parse_scopes(clean)
        self._walk(model, rel, clean, lmap, tree, [], None, None, unordered)

    def _walk(self, model, rel, clean, lmap, scope, ns, record, func,
              unordered):
        for ch in scope.children:
            if ch.kind == "namespace":
                sub = ns + ([ch.name] if ch.name else [])
                self._walk(model, rel, clean, lmap, ch, sub, record, func,
                           unordered)
            elif ch.kind == "record":
                rec = self._make_record(model, rel, clean, lmap, ch, ns,
                                        record)
                self._walk(model, rel, clean, lmap, ch, ns, rec, None,
                           unordered)
            elif ch.kind == "function":
                fn = self._make_function(model, rel, clean, lmap, ch, ns,
                                         record, unordered)
                self._walk(model, rel, clean, lmap, ch, ns, record, fn,
                           unordered)
            elif ch.kind == "lambda":
                lam = self._make_lambda(model, rel, clean, lmap, ch, func,
                                        record, unordered)
                self._walk(model, rel, clean, lmap, ch, ns, record, lam,
                           unordered)
            elif ch.kind in ("block", "init", "enum"):
                self._walk(model, rel, clean, lmap, ch, ns, record, func,
                           unordered)

    def _make_record(self, model, rel, clean, lmap, sc, ns, outer):
        prefix = "::".join(ns + ([outer.name] if outer else []))
        qual = (prefix + "::" if prefix else "") + sc.name
        rec = model.records.get(qual)
        if rec is None:
            rec = Record(sc.name, qual, rel, lmap.line_of(sc.start))
            model.records[qual] = rec
        header = sc.header
        for tok, ann in MACRO_TOKENS.items():
            if tok in header:
                rec.annotations.add(ann)
        m = OWNED_MACRO_RE.search(header)
        if m:
            rec.annotations.add(ANN_OWNED)
            rec.lane_expr = re.sub(r"\s+", "", m.group(1))
        # Member declarations + in-class method declarations with macros.
        body = span_text(clean, own_spans(sc))
        for m in re.finditer(
                r"(DPAR_EXCLUSIVE_LANE|DPAR_LANE_SAFE)\b([^;{}()]*?)(\w+)\s*"
                r"(?:=[^;]*|\{[^{}]*\})?\s*;", body, re.DOTALL):
            rec.members.setdefault(m.group(3), set()).add(
                MACRO_TOKENS[m.group(1)])
        for m in re.finditer(
                r"(DPAR_CROSS_LANE_API|DPAR_EXCLUSIVE_LANE)\b[^;{}=]*?"
                r"([A-Za-z_]\w*)\s*\(", body):
            name = m.group(2)
            if name in CPP_KEYWORDS:
                continue
            rec.method_annotations.setdefault(name, set()).add(
                MACRO_TOKENS[m.group(1)])
        return rec

    def _make_function(self, model, rel, clean, lmap, sc, ns, record,
                       unordered):
        simple = sc.name.rsplit("::", 1)[-1]
        rec_qual = record.qualname if record else None
        if "::" in sc.name and record is None:
            # Out-of-line definition Klass::method — bind to the record.
            owner = sc.name.rsplit("::", 1)[0].rsplit("::", 1)[-1]
            rec = None
            for r in model.records.values():
                if r.name == owner:
                    rec = r
                    break
            rec_qual = rec.qualname if rec else owner
        prefix = "::".join(ns)
        qual = ((prefix + "::" if prefix else "") +
                (record.name + "::" if record else "") + simple)
        fn = Func(simple, qual, rec_qual, rel, lmap.line_of(sc.start))
        for tok, ann in MACRO_TOKENS.items():
            if tok in sc.header:
                fn.annotations.add(ann)
        self._scan_body(model, fn, clean, lmap, sc, unordered)
        self._scan_locals(fn, sc, clean)
        model.functions.append(fn)
        return fn

    def _make_lambda(self, model, rel, clean, lmap, sc, func, record,
                     unordered):
        lam = Func("", (func.qualname if func else "<file>") + "::<lambda>",
                   record.qualname if record else
                   (func.record if func else None),
                   rel, lmap.line_of(sc.start), is_lambda=True)
        lam.parent = func
        m = LAMBDA_HEAD_RE.search(sc.header)
        if m:
            lam.captures = parse_captures(m.group("caps"))
            nm = NAMED_LAMBDA_RE.search(sc.header[:m.start()])
            if nm:
                lam.var_name = nm.group(1)
        if func is not None:
            func.lambdas.append(lam)
        self._scan_body(model, lam, clean, lmap, sc, unordered)
        # Locals declared in the lambda's own parameter list / body.
        self._scan_locals(lam, sc, clean)
        model.functions.append(lam)
        return lam

    def _scan_body(self, model, fn, clean, lmap, sc, unordered):
        fn.end_line = lmap.line_of(sc.end)
        spans = own_spans(sc)
        for a, b in spans:
            body = clean[a:b]
            fn.chunks.append((lmap.line_of(a), body))
            # Synchronous callees: free functions and same-object methods
            # only. A call through another object (`shard.push_back(...)`)
            # is not followed — cross-object entry points carry their own
            # DPAR_CROSS_LANE_API root, and following untyped receivers by
            # simple name manufactures false paths through unrelated
            # records' same-named methods.
            for m in CALL_RE.finditer(body):
                name = m.group(1)
                if name in CPP_KEYWORDS or name in POST_METHODS:
                    continue
                j = m.start() - 1
                while j >= 0 and body[j] in " \t\n":
                    j -= 1
                if j >= 0 and (body[j] == "." or
                               (body[j] == ">" and j > 0
                                and body[j - 1] == "-")):
                    recv_end = j - (1 if body[j] == "." else 2) + 1
                    recv = body[max(0, recv_end - 8):recv_end]
                    if not re.search(r"\bthis\s*$", recv):
                        continue
                fn.callees.add(name)
            # Event posts (with argument structure out of the full text, so
            # lambda arguments keep their offsets).
            for m in POST_RE.finditer(body):
                open_idx = a + m.end() - 1
                close_idx = match_paren(clean, open_idx)
                if close_idx < 0:
                    continue
                method = m.group(2)
                argtext = clean[open_idx + 1:close_idx]
                args = split_top_args(argtext)
                lane_expr = None
                if method in LANE_TARGETED and args:
                    s, e = args[0]
                    lane_expr = re.sub(r"\s+", "",
                                       argtext[s:e])
                post = PostSite(method, lmap.line_of(a + m.start()),
                                lane_expr)
                if args:
                    s, e = args[-1]
                    cb = argtext[s:e].strip()
                    cb_start = open_idx + 1 + s
                    if cb.startswith("["):
                        post.lam = ("offset", cb_start)
                    else:
                        cm = re.match(
                            r"(?:std\s*::\s*move\s*\(\s*)?([A-Za-z_]\w*)",
                            cb)
                        if cm:
                            post.callback_name = cm.group(1)
                fn.posts.append(post)
            # Determinism hazards.
            base_line = lmap.line_of(a)
            for off, line in enumerate(body.split("\n")):
                for pat in WALL_CLOCK_PATTERNS:
                    if pat.search(line):
                        fn.hazards.append((base_line + off, "wall-clock",
                                           "wall-clock time source"))
                        break
                for pat in RAW_RANDOM_PATTERNS:
                    if pat.search(line):
                        fn.hazards.append((base_line + off, "raw-random",
                                           "raw randomness"))
                        break
                for name in unordered:
                    if name not in line:
                        continue
                    esc = re.escape(name)
                    if (re.search(r"for\s*\([^;()]*:\s*(?:\w+(?:\.|->))?"
                                  + esc + r"\s*\)", line)
                            or re.search(r"\b" + esc
                                         + r"\s*\.\s*c?begin\s*\(", line)):
                        fn.hazards.append(
                            (base_line + off, "unordered-iter",
                             f"iteration over unordered container '{name}'"))
        # Resolve lambda-argument posts to lambda scopes by offset.
        lam_children = [ch for ch in self._descend_lambdas(sc)]
        for post in fn.posts:
            if isinstance(post.lam, tuple):
                target_off = post.lam[1]
                post.lam = None
                best = None
                for ch in lam_children:
                    if ch.start >= target_off and \
                            (best is None or ch.start < best.start):
                        best = ch
                if best is not None:
                    post.lam = best
        sc._fn = fn

    def _descend_lambdas(self, sc):
        for ch in sc.children:
            if ch.kind == "lambda":
                yield ch
            elif ch.kind in ("block", "init"):
                yield from self._descend_lambdas(ch)

    def _scan_locals(self, fn, sc, clean):
        # Parameters from the signature.
        header = sc.header
        depth = 0
        first_open = None
        for i, c in enumerate(header):
            if c == "(":
                if depth == 0 and first_open is None:
                    first_open = i
                depth += 1
            elif c == ")":
                depth -= 1
        if first_open is not None:
            close = match_paren(header, first_open)
            if close > 0:
                params = header[first_open + 1:close]
                for s, e in split_top_args(params):
                    p = params[s:e].strip()
                    m = re.search(r"(\w+)\s*(?:=[^,]*)?$", p)
                    if not m:
                        continue
                    if "&" in p or "*" in p:
                        fn.ref_locals.add(m.group(1))
                    else:
                        fn.value_locals.add(m.group(1))
        # Body-local declarations (own text only).
        body = span_text(clean, own_spans(sc))
        for m in re.finditer(
                r"(?:^|[;{}])\s*(?:const\s+|static\s+)*"
                r"(auto|[A-Za-z_][\w:]*(?:<[^<>;]*>)?)"
                r"\s*(&{1,2}|\*)?\s+(\w+)\s*(?:=|;|\{)",
                body):
            type_tok, name = m.group(1), m.group(3)
            if name in CPP_KEYWORDS or type_tok in CPP_KEYWORDS:
                continue
            if m.group(2):
                fn.ref_locals.add(name)
            else:
                fn.value_locals.add(name)

    def _merge_declared_annotations(self, model):
        """Out-of-line definitions inherit the annotations their in-class
        declarations carry (the macro usually lives in the header)."""
        for fn in model.functions:
            if fn.is_lambda or fn.record is None:
                continue
            for rec in model.records.values():
                if rec.qualname == fn.record or rec.name == fn.record:
                    fn.annotations |= rec.method_annotations.get(fn.name,
                                                                 set())


# --------------------------------------------------------------------------
# libclang frontend
# --------------------------------------------------------------------------

class LibclangFrontend:
    """Model extraction via the clang python bindings over the exported
    compile_commands.json. Structure (functions, records, annotations,
    posts, lambdas) comes from the AST; the textual helpers shared with the
    internal frontend fill in captures / hazards / writes from precise
    extents, which keeps the two frontends' findings aligned."""

    def __init__(self, root, build_dir):
        self.root = root
        self.build_dir = build_dir
        from clang import cindex  # noqa: F401 — caller checked availability
        self.cindex = cindex
        self.index = cindex.Index.create()

    @staticmethod
    def available():
        try:
            from clang.cindex import Index
            Index.create()
            return True
        except Exception:
            return False

    def compile_args(self, path):
        db_path = os.path.join(self.build_dir, "compile_commands.json")
        if os.path.isfile(db_path):
            with open(db_path) as f:
                for entry in json.load(f):
                    if os.path.samefile(entry["file"], path) \
                            if os.path.exists(entry["file"]) else False:
                        args = entry.get("arguments")
                        if args is None:
                            args = entry.get("command", "").split()
                        # Drop compiler, -c, -o and the file itself.
                        out = []
                        skip = False
                        for a in args[1:]:
                            if skip:
                                skip = False
                                continue
                            if a in ("-c", path):
                                continue
                            if a == "-o":
                                skip = True
                                continue
                            out.append(a)
                        return out
        return ["-std=c++20", "-I", os.path.join(self.root, "src"),
                "-DDPAR_ANALYZE=1"]

    def build(self, files):
        ck = self.cindex.CursorKind
        internal = InternalFrontend(self.root)
        model = internal.build(files)  # baseline structure + text facts
        # Refine annotations + unordered iteration from the AST where a TU
        # parses: AnnotateAttr is authoritative for the macro set, and
        # range-fors over unordered types need no name heuristics.
        for f in files:
            rel = os.path.relpath(f, self.root).replace(os.sep, "/")
            if not f.endswith((".cpp", ".cc", ".cxx")):
                continue
            try:
                tu = self.index.parse(f, args=self.compile_args(f))
            except Exception:
                continue
            self._refine(model, rel, f, tu.cursor, ck)
        return model

    def _refine(self, model, rel, path, cursor, ck):
        fn_by_line = {}
        for fn in model.functions:
            fn_by_line[(fn.file, fn.line)] = fn

        def annotate_from(node, into):
            for ch in node.get_children():
                if ch.kind == ck.ANNOTATE_ATTR:
                    s = ch.spelling or ""
                    if s.startswith("dpar::"):
                        tag = s[len("dpar::"):]
                        if tag.startswith(ANN_OWNED + "="):
                            into.add(ANN_OWNED)
                        else:
                            into.add(tag)

        def walk(node):
            try:
                loc_file = node.location.file
            except Exception:
                loc_file = None
            if loc_file is not None:
                nrel = os.path.relpath(loc_file.name,
                                       self.root).replace(os.sep, "/")
            else:
                nrel = None
            if node.kind in (ck.FUNCTION_DECL, ck.CXX_METHOD,
                             ck.CONSTRUCTOR, ck.DESTRUCTOR) and nrel:
                fn = fn_by_line.get((nrel, node.location.line))
                if fn is not None:
                    annotate_from(node, fn.annotations)
            elif node.kind == ck.FIELD_DECL and nrel:
                rec = node.semantic_parent
                if rec is not None:
                    r = model.record_by_simple_name(rec.spelling)
                    if r is not None:
                        anns = r.members.setdefault(node.spelling, set())
                        annotate_from(node, anns)
            elif node.kind in (ck.STRUCT_DECL, ck.CLASS_DECL) and nrel:
                r = model.record_by_simple_name(node.spelling)
                if r is not None:
                    annotate_from(node, r.annotations)
            elif node.kind == ck.CXX_FOR_RANGE_STMT and nrel:
                kids = list(node.get_children())
                if kids:
                    t = kids[0].type.get_canonical().spelling
                    if "unordered_" in t:
                        fn = self._enclosing(model, nrel,
                                             node.location.line)
                        if fn is not None:
                            fn.hazards.append(
                                (node.location.line, "unordered-iter",
                                 f"range-for over unordered type '{t}'"))
            for chd in node.get_children():
                walk(chd)

        walk(cursor)

    @staticmethod
    def _enclosing(model, rel, line):
        best = None
        for fn in model.functions:
            if fn.file == rel and fn.line <= line and \
                    (best is None or fn.line > best.line):
                best = fn
        return best


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

class Analyzer:
    def __init__(self, model, root):
        self.model = model
        self.root = root
        self.findings = []

    def emit(self, rel, line, rule, detail):
        if rel in EXEMPT_FILES:
            return
        lines = self.model.files.get(rel, ([], []))[0]
        if allowed(lines, line - 1, rule):
            return
        f = Finding(rel, line, rule, detail)
        if f.key() not in {x.key() for x in self.findings}:
            self.findings.append(f)

    def run(self):
        # Prepass: link every posted lambda to its post site.
        for fn in self.model.functions:
            for post in fn.posts:
                lam = self._lambda_for(fn, post)
                if lam is not None and lam.posted_via is None:
                    lam.posted_via = post
        self.rule_cross_lane_post()
        self.rule_lane_capture()
        self.rule_exclusive_lane_write()
        self.rule_nondet_feeds_post()
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return self.findings

    # -- rule 1: cross-lane-post ------------------------------------------

    def rule_cross_lane_post(self):
        by_name = {}
        for fn in self.model.functions:
            if not fn.is_lambda and fn.name:
                by_name.setdefault(fn.name, []).append(fn)
        roots = [fn for fn in self.model.functions
                 if ANN_CROSS in fn.annotations and not fn.is_lambda]
        for root_fn in roots:
            seen = {id(root_fn)}
            stack = [(root_fn, [root_fn.qualname])]
            while stack:
                fn, path = stack.pop()
                for post in fn.posts:
                    if post.raw:
                        self.emit(
                            fn.file, post.line, "cross-lane-post",
                            f"raw Engine::{post.method}() reachable from "
                            f"DPAR_CROSS_LANE_API entry point "
                            f"'{root_fn.qualname}' via "
                            + " -> ".join(path))
                for callee in sorted(fn.callees):
                    for target in by_name.get(callee, []):
                        if id(target) in seen:
                            continue
                        seen.add(id(target))
                        stack.append((target, path + [target.qualname]))

    # -- rule 2: lane-capture ---------------------------------------------

    def _lambda_for(self, fn, post):
        """The Func of the lambda a post schedules, resolving named-lambda
        variables, or None."""
        lam_scope = post.lam
        if lam_scope is not None and not isinstance(lam_scope, tuple):
            lam_fn = getattr(lam_scope, "_fn", None)
            if lam_fn is not None:
                return lam_fn
        if post.callback_name:
            # auto cb = [..]{..};  eng_.after_in(lane, d, cb);
            for lam in fn.lambdas:
                if lam.var_name == post.callback_name:
                    return lam
        return None

    def rule_lane_capture(self):
        for fn in self.model.functions:
            owner = self.model.records.get(fn.record) if fn.record else None
            for post in fn.posts:
                lam = self._lambda_for(fn, post)
                if lam is None:
                    continue
                cross = (post.method in LANE_TARGETED
                         and not post.exclusive_target)
                for cap in lam.captures:
                    if cap.is_default and cap.by_ref and cross:
                        self.emit(
                            fn.file, lam.line, "lane-capture",
                            "default [&] capture in a callback posted "
                            f"cross-lane via {post.method}(" +
                            (post.lane_expr or "?") +
                            ", ...): enumerate the captures so ownership "
                            "is checkable")
                        continue
                    if cap.is_this and cross and owner is not None \
                            and owner.lane_expr is not None \
                            and post.lane_expr is not None \
                            and post.lane_expr != owner.lane_expr:
                        self.emit(
                            fn.file, lam.line, "lane-capture",
                            f"'this' ({owner.qualname}, owned by lane "
                            f"'{owner.lane_expr}') captured into a callback "
                            f"posted to lane '{post.lane_expr}'")
                        continue
                    if cap.by_ref and not cap.is_this and not cap.is_init \
                            and cap.name and cap.name in fn.value_locals:
                        self.emit(
                            fn.file, lam.line, "lane-capture",
                            f"stack-local '{cap.name}' captured by "
                            "reference into a deferred event callback "
                            "(dangles unless it provably outlives the "
                            "run; capture by value or move)")

    # -- rule 3: exclusive-lane-write -------------------------------------

    def _exclusive_context(self, fn):
        """True when `fn` may mutate DPAR_EXCLUSIVE_LANE state: annotated as
        a handler, or a lambda posted into the exclusive lane (directly or
        transitively through its definition context)."""
        f = fn
        while f is not None:
            if ANN_EXCL in f.annotations:
                return True
            if f.is_lambda and f.posted_via is not None \
                    and f.posted_via.exclusive_target:
                return True
            f = f.parent
        return False

    def rule_exclusive_lane_write(self):
        excl = self.model.exclusive_members()
        if not excl:
            return
        names = sorted(excl)
        alt = "|".join(re.escape(n) for n in names)
        pat = re.compile(
            r"(?:(?:\+\+|--)\s*(?:this\s*->\s*)?(" + alt + r")\b"
            r"|\b(" + alt + r")\s*"
            r"(?:\[[^\[\]]*\]\s*)?"
            r"(?:=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--"
            r"|\.\s*(?:" + MUTATING_METHODS + r")\s*\())")
        for fn in self.model.functions:
            # Only methods of (or lambdas defined within) a record owning
            # the member are candidates — a same-named name elsewhere is
            # not the annotated state.
            rec_q = fn.record
            f = fn
            while rec_q is None and f is not None:
                f = f.parent
                rec_q = f.record if f else None
            if rec_q is None:
                continue
            rec_simple = rec_q.split("::")[-1]
            # Constructors/destructors run during setup/teardown, with no
            # window executing: always an exclusive-safe context.
            base = fn
            while base.parent is not None:
                base = base.parent
            if base.name.lstrip("~") == rec_simple:
                continue
            if self._exclusive_context(fn):
                continue
            for first_line, body in fn.chunks:
                for off, line in enumerate(body.split("\n")):
                    m = pat.search(line)
                    if not m:
                        continue
                    name = m.group(1) or m.group(2)
                    owners = excl[name]
                    if not any(o.split("::")[-1] == rec_simple
                               or o == rec_q for o in owners):
                        continue
                    if name in fn.value_locals or name in fn.ref_locals:
                        continue
                    self.emit(
                        fn.file, first_line + off, "exclusive-lane-write",
                        f"DPAR_EXCLUSIVE_LANE member '{name}' mutated in "
                        f"'{fn.qualname}', which is neither a "
                        "DPAR_EXCLUSIVE_LANE handler nor a callback "
                        "posted into the exclusive lane")

    # -- rule 4: nondet-feeds-post ----------------------------------------

    def rule_nondet_feeds_post(self):
        for fn in self.model.functions:
            posting = bool(fn.posts) or (
                fn.is_lambda and fn.posted_via is not None)
            if not posting:
                continue
            for line, kind, detail in fn.hazards:
                self.emit(fn.file, line, "nondet-feeds-post",
                          f"{detail} [{kind}] inside event-posting context "
                          f"'{fn.qualname}'")


# --------------------------------------------------------------------------
# Harness
# --------------------------------------------------------------------------

def gather_files(root, paths):
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(full):
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, fn))
        elif os.path.isfile(full):
            files.append(full)
        else:
            raise SystemExit(f"dpar-analyze: no such file or directory: {p}")
    return files


def build_model(root, files, frontend, build_dir):
    if frontend == "libclang":
        fe = LibclangFrontend(root, build_dir)
    else:
        fe = InternalFrontend(root)
    return fe.build(files)


def run_analyze(root, paths, frontend, build_dir):
    files = gather_files(root, paths)
    model = build_model(root, files, frontend, build_dir)
    return Analyzer(model, root).run()


def write_sarif(findings, out_path):
    rules = [{
        "id": rid,
        "shortDescription": {"text": desc},
        "defaultConfiguration": {"level": "error"},
    } for rid, desc in RULES.items()]
    results = [{
        "ruleId": f.rule,
        "level": "error",
        "message": {"text": f.detail},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": f.path},
                "region": {"startLine": f.line},
            },
        }],
    } for f in findings]
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "dpar-analyze",
                "informationUri":
                    "https://github.com/dualpar/dualpar_repro",
                "rules": rules,
            }},
            "results": results,
        }],
    }
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def self_test(root, frontend, build_dir):
    fixtures = os.path.join(root, "tools", "lint_fixtures")
    bad = os.path.join(fixtures, "analyze_bad.cpp")
    good = os.path.join(fixtures, "analyze_good.cpp")
    for f in (bad, good):
        if not os.path.isfile(f):
            print(f"self-test: missing fixture {f}", file=sys.stderr)
            return 2
    ok = True
    with open(bad, encoding="utf-8") as fh:
        bad_lines = fh.read().split("\n")
    expected = set()
    for idx, line in enumerate(bad_lines):
        for m in EXPECT_RE.finditer(line):
            expected.add((idx + 1, m.group(1)))
    if not expected:
        print("self-test: analyze_bad.cpp has no expect() annotations",
              file=sys.stderr)
        return 2
    got = {(f.line, f.rule)
           for f in run_analyze(root, [os.path.relpath(bad, root)],
                                frontend, build_dir)}
    for miss in sorted(expected - got):
        print(f"self-test: analyze_bad.cpp:{miss[0]} expected [{miss[1]}] "
              "but the analyzer stayed silent", file=sys.stderr)
        ok = False
    for extra in sorted(got - expected):
        print(f"self-test: analyze_bad.cpp:{extra[0]} unexpected "
              f"[{extra[1]}]", file=sys.stderr)
        ok = False
    good_findings = run_analyze(root, [os.path.relpath(good, root)],
                                frontend, build_dir)
    for f in good_findings:
        print(f"self-test: analyze_good.cpp should be clean, got: {f}",
              file=sys.stderr)
        ok = False
    print("self-test: " + ("PASS" if ok else "FAIL")
          + f" ({len(expected)} seeded violations, "
            f"{len(good_findings)} false positives)")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description="lane-ownership & determinism analyzer "
                    "(see module docstring)")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to analyze (default: "
                         + " ".join(DEFAULT_SCAN_DIRS) + ")")
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repo root (default: parent of this script)")
    ap.add_argument("--build-dir", default="build",
                    help="build dir holding compile_commands.json "
                         "(libclang frontend)")
    ap.add_argument("--frontend", choices=("auto", "internal", "libclang"),
                    default="auto")
    ap.add_argument("--require-libclang", action="store_true",
                    help="fail (exit 3) when the libclang frontend is "
                         "unavailable instead of falling back")
    ap.add_argument("--self-test", action="store_true",
                    help="run the golden analyze fixture corpus")
    ap.add_argument("--sarif", metavar="FILE",
                    help="write findings as SARIF 2.1.0")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:<22} {desc}")
        return 0

    frontend = args.frontend
    if frontend in ("auto", "libclang"):
        if LibclangFrontend.available():
            frontend = "libclang"
        elif args.frontend == "libclang" or args.require_libclang:
            print("dpar-analyze: FAIL — libclang frontend requested but the "
                  "python clang bindings / libclang.so are unavailable "
                  "(apt: python3-clang libclang-dev)", file=sys.stderr)
            return 3
        else:
            print("dpar-analyze: note: libclang unavailable; using the "
                  "internal structural frontend", file=sys.stderr)
            frontend = "internal"
    elif args.require_libclang:
        print("dpar-analyze: FAIL — --require-libclang with "
              "--frontend=internal", file=sys.stderr)
        return 3

    if args.self_test:
        return self_test(args.root, frontend, args.build_dir)

    paths = args.paths or [d for d in DEFAULT_SCAN_DIRS
                           if os.path.isdir(os.path.join(args.root, d))]
    findings = run_analyze(args.root, paths, frontend, args.build_dir)
    for f in findings:
        print(f)
    if args.sarif:
        write_sarif(findings, args.sarif)
    n_files = len(gather_files(args.root, paths))
    if findings:
        print(f"dpar-analyze: {len(findings)} finding(s) in {n_files} "
              f"file(s) [{frontend} frontend]", file=sys.stderr)
        return 1
    print(f"dpar-analyze: clean ({n_files} files, {frontend} frontend)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
