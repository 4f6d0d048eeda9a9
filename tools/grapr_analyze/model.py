"""Shared IR and domain knowledge for grapr_analyze.

Both frontends (frontend_clang: libclang AST, frontend_micro: bundled
lexer/statement parser) lower translation units into this file's small IR;
the checks in checks.py consume only the IR, so rule behaviour is identical
whichever frontend produced it.

The domain tables below are the analyzer's ground truth about the grapr
API: which typedefs are 64-bit, which Graph/CsrGraph/Partition methods
return them, and which Graph methods mutate the adjacency structure (and
therefore invalidate frozen CsrGraph views).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

# --------------------------------------------------------------------------
# Domain tables
# --------------------------------------------------------------------------

# 64-bit unsigned domain typedefs (support/common.hpp). Narrowing these to a
# 32-bit (or smaller) integer silently truncates on the paper's target
# scale (3.3B edges).
WIDE_TYPES = {"count", "index", "grapr::count", "grapr::index"}

# 32-bit node ids. Narrowing to a *signed* 32-bit (or anything smaller)
# breaks the `none` sentinel (2^32 - 1) and halves the usable id space.
NODE_TYPES = {"node", "grapr::node"}

# double edge weights; any integer target truncates, float loses precision.
EDGEWEIGHT_TYPES = {"edgeweight", "grapr::edgeweight"}

# Integer types with width < 64 bits on LP64 (the only platforms grapr
# targets). `long`/`std::size_t`/`std::int64_t`/... are 64-bit and fine.
NARROW_INT_TYPES = {
    "int", "signed", "signed int", "unsigned", "unsigned int",
    "short", "short int", "unsigned short", "unsigned short int",
    "char", "signed char", "unsigned char",
    "int32_t", "uint32_t", "int16_t", "uint16_t", "int8_t", "uint8_t",
    "std::int32_t", "std::uint32_t", "std::int16_t", "std::uint16_t",
    "std::int8_t", "std::uint8_t",
}
# Signed-or-smaller subset that cannot hold every `node` value.
NODE_UNSAFE_TYPES = NARROW_INT_TYPES - {
    "unsigned", "unsigned int", "uint32_t", "std::uint32_t",
}
FLOAT_NARROW_TYPES = {"float"}

# Method name -> domain return type, for receivers we cannot type exactly
# (the micro frontend) or exactly-typed calls (clang frontend checks the
# receiver too). These names are unique enough across the codebase that a
# name-only match does not produce false positives in practice.
WIDE_RETURN_METHODS = {
    # Graph / CsrGraph
    "numberOfNodes": "count",
    "numberOfEdges": "count",
    "numberOfSelfLoops": "count",
    "upperNodeIdBound": "count",
    "degree": "count",
    # Partition
    "numberOfElements": "count",
    "numberOfSubsets": "count",
    "compact": "count",
    # Parallel
    "prefixSum": "count",
}
EDGEWEIGHT_RETURN_METHODS = {
    "weightedDegree": "edgeweight",
    "volume": "edgeweight",
    "totalEdgeWeight": "edgeweight",
    "weight": "edgeweight",
    "getIthNeighborWeight": "edgeweight",
}
NODE_RETURN_METHODS = {
    "addNode": "node",
    "getIthNeighbor": "node",
    "upperBound": "node",
    "mergeSubsets": "node",
}

# Graph methods that mutate the adjacency structure or edge weights: a
# frozen CsrGraph view of the receiver is stale after any of these. The
# list mirrors the GRAPR_VIEW_BUMP call sites in graph.cpp — keep both in
# sync (the must-fail fixtures pin the overlap).
GRAPH_MUTATORS = {
    "addNode", "removeNode", "addEdge", "addEdgeChecked", "removeEdge",
    "sortNeighborLists",
}

# Free/namespace functions known to mutate a Graph& parameter (position ->
# mutates). Discovered summaries (Summary pass) extend this at run time.
KNOWN_MUTATING_FUNCTIONS = {
    "sortAdjacencies": {0},
}

GRAPH_TYPES = {"Graph", "grapr::Graph"}
CSR_TYPES = {"CsrGraph", "grapr::CsrGraph"}

# --------------------------------------------------------------------------
# Durability-protocol tables (protocol.py). The WAL/checkpoint contract is
# expressed over call *names* only — the clang frontend's receiver recovery
# is best-effort, and both frontends must agree on every fixture line.
# --------------------------------------------------------------------------

# Blocking I/O primitives by effect. Matched against the unqualified call
# name (both frontends strip :: qualification), so `::fsync`, `std::rename`
# and `std::filesystem::resize_file` all land here.
SYNC_PRIMITIVES = {"fsync", "fdatasync"}
WRITE_PRIMITIVES = {"fwrite"}
RENAME_PRIMITIVES = {"rename"}
TRUNCATE_PRIMITIVES = {"resize_file", "ftruncate"}
DIRSYNC_FUNCTIONS = {"syncDirectoryOf"}

# Durability-protocol verbs on the WAL / engine API.
WAL_APPEND_METHODS = {"append"}
PUBLISH_METHODS = {"publish"}
POISON_METHODS = {"poison"}

# RAII lock types (substring match against the declared type, so
# `std::lock_guard<std::mutex>` and `unique_lock<shared_mutex>` both hit).
LOCK_GUARD_TYPES = ("lock_guard", "unique_lock", "scoped_lock",
                    "shared_lock")

# Files whose functions are held to the durability ordering contract.
# Fixtures (and any future durable code outside these files) opt in with a
# `grapr:durability-scope` marker comment anywhere in the file.
DURABILITY_FILES = {
    "wal.cpp", "wal.hpp", "stream_engine.cpp", "stream_engine.hpp",
    "binary_csr.cpp", "binary_csr.hpp", "fault.cpp", "fault.hpp",
}
DURABILITY_MARKER = "grapr:durability-scope"


def normalize_type(spelling: str) -> str:
    """Collapse a type spelling to a comparable key: strip const/volatile,
    references, pointers, grapr:: qualification and redundant whitespace."""
    t = spelling.strip()
    for kw in ("const ", "volatile ", "constexpr ", "static ", "mutable "):
        t = t.replace(kw, "")
    t = t.replace("&", "").replace("*", "").strip()
    if t.startswith("grapr::"):
        t = t[len("grapr::"):]
    return " ".join(t.split())


def is_wide(tname: str) -> bool:
    return normalize_type(tname) in {normalize_type(x) for x in WIDE_TYPES}


def is_node(tname: str) -> bool:
    return normalize_type(tname) in {normalize_type(x) for x in NODE_TYPES}


def is_edgeweight(tname: str) -> bool:
    return normalize_type(tname) in {
        normalize_type(x) for x in EDGEWEIGHT_TYPES}


# --------------------------------------------------------------------------
# IR
# --------------------------------------------------------------------------

@dataclass
class ExprInfo:
    """What a (sub)expression references: identifiers and method calls.
    Enough to decide whether a value derives from a 64-bit domain type or
    from a tracked Graph object — the checks never need full expressions."""
    idents: set[str] = field(default_factory=set)
    # (receiver ident or "", method name) for every call in the expression.
    calls: list[tuple[str, str]] = field(default_factory=list)
    text: str = ""

    def mentions(self, name: str) -> bool:
        return name in self.idents


@dataclass
class Stmt:
    """One lowered statement-level fact. `kind` selects the payload:
      decl    name/declared_type/value      (value = initializer, may be None)
      assign  name/op/value                 (op: =, +=, -=, ...)
      call    recv/method/args/value        (args = top-level ident args)
      loop    name/declared_type/value      (induction var decl + bound expr)
      cast    declared_type/style/value     (style: c, functional)
      use     value                         (bare expression statement)
    """
    kind: str
    line: int
    name: str = ""
    declared_type: str = ""
    op: str = ""
    recv: str = ""
    method: str = ""
    args: list[str] = field(default_factory=list)
    style: str = ""
    value: ExprInfo | None = None


@dataclass
class FunctionModel:
    name: str                 # unqualified
    qualname: str             # Namespace::Class::name when known
    start_line: int
    end_line: int
    params: list[tuple[str, str]] = field(default_factory=list)  # (type, name)
    statements: list[Stmt] = field(default_factory=list)
    # Does the body contain an OpenMP pragma? Feeds the tsan.supp
    # suppression-liveness rule (a race: suppression must reach a parallel
    # region to still mean anything).
    has_omp: bool = False


@dataclass
class OmpRegion:
    """One `#pragma omp parallel` region: pragma text (continuations and
    chained worksharing pragmas joined), structured-block extent, data-sharing
    clauses, and the worksharing induction variables (combined parallel-for
    header plus every inner `#pragma omp for` loop)."""
    pragma_line: int          # 1-based line of the first pragma token
    start: int                # first line of the structured block
    end: int                  # last line of the structured block (inclusive)
    text: str = ""            # full joined pragma text
    induction: set[str] = field(default_factory=set)
    shared: set[str] = field(default_factory=set)
    privates: set[str] = field(default_factory=set)   # private/firstprivate/lastprivate
    reductions: set[str] = field(default_factory=set)
    # (pragma line, last statement line) of every `omp atomic read` inside
    # the structured block: a stale snapshot that must carry a benign-race
    # annotation.
    atomic_reads: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class FileModel:
    path: Path
    functions: list[FunctionModel] = field(default_factory=list)
    # All function/method qualnames *defined* in this file — feeds the
    # tsan.supp suppression-liveness resolution.
    defined_symbols: set[str] = field(default_factory=set)
    # class/struct names defined in this file (for Class:: suppressions).
    defined_classes: set[str] = field(default_factory=set)
    # Raw source lines (1-based access via lines[i-1]) for annotation checks.
    lines: list[str] = field(default_factory=list)
    frontend: str = ""        # "clang" or "micro"
    # OpenMP facts, produced by extract_omp() over blank_with_spans().
    # Both frontends call the same extractor, so region extents and
    # synchronization coverage are identical by construction.
    regions: list[OmpRegion] = field(default_factory=list)
    # line -> synchronization tags covering that line: "atomic" (update/
    # capture/write), "atomic-read", "critical", "locked" (omp_set_lock span
    # or RAII mutex guard scope).
    sync_lines: dict[int, set[str]] = field(default_factory=dict)


@dataclass
class Finding:
    path: Path
    line: int
    check: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: error: [{self.check}] {self.message}"


@dataclass
class Summary:
    """Cross-TU call summary: function name -> parameter positions through
    which a Graph can be mutated, and names that freeze/use CSR views."""
    mutates: dict[str, set[int]] = field(default_factory=dict)

    def mutating_positions(self, func: str) -> set[int]:
        positions = set(KNOWN_MUTATING_FUNCTIONS.get(func, set()))
        positions |= self.mutates.get(func, set())
        return positions


def build_summary(models: list[FileModel]) -> Summary:
    """Derive the call-summary pass from lowered models: a function mutates
    its Graph& parameter if its body calls a mutating method on it (directly
    or through an already-summarized callee). Iterates to a fixed point so
    chains like runRecursive -> coarsen -> builder are followed."""
    summary = Summary()
    changed = True
    while changed:
        changed = False
        for model in models:
            for fn in model.functions:
                graph_params = {
                    name: pos
                    for pos, (ptype, name) in enumerate(fn.params)
                    if normalize_type(ptype) in {
                        normalize_type(g) for g in GRAPH_TYPES}
                    and "const" not in ptype
                }
                if not graph_params:
                    continue
                mutated: set[int] = set()
                for stmt in fn.statements:
                    if stmt.kind == "call" and stmt.recv in graph_params \
                            and stmt.method in GRAPH_MUTATORS:
                        mutated.add(graph_params[stmt.recv])
                    if stmt.kind == "call":
                        callee = summary.mutating_positions(stmt.method)
                        for pos in callee:
                            if pos < len(stmt.args) \
                                    and stmt.args[pos] in graph_params:
                                mutated.add(graph_params[stmt.args[pos]])
                if mutated - summary.mutates.get(fn.name, set()):
                    summary.mutates.setdefault(fn.name, set()).update(mutated)
                    changed = True
    return summary


# --------------------------------------------------------------------------
# Comment blanking and directive joining (shared by both frontends)
# --------------------------------------------------------------------------

import re as _re


def blank_with_spans(lines: list[str]) -> tuple[list[str], set[int]]:
    """Blank comments and string/char literal contents, preserving line
    structure, so no pass trips over braces or keywords in text. Also
    returns the 0-based lines whose newline falls inside a /* */ comment:
    a directive continues across such a newline (the comment becomes one
    space before the preprocessor looks for the directive's end)."""
    text = "\n".join(lines)
    out: list[str] = []
    spans: set[int] = set()
    line0 = 0
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        if c == "\n":
            if state == "block":
                spans.add(line0)
            line0 += 1
        if state == "code":
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state, i = "line", i + 2
                out.append("  ")
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state, i = "block", i + 2
                out.append("  ")
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state, i = "code", i + 2
                out.append("  ")
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if (state == "string" and c == '"') or \
                    (state == "char" and c == "'"):
                state = "code"
                out.append(c)
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    blanked = "".join(out).split("\n")
    while len(blanked) < len(lines):
        blanked.append("")
    return blanked, spans


def blank(lines: list[str]) -> list[str]:
    """blank_with_spans() without the spans."""
    return blank_with_spans(lines)[0]


def directives(blanked: list[str],
               spans: set[int]) -> list[tuple[int, int, str]]:
    """(first_line0, last_line0, text) for every preprocessor directive,
    with backslash continuations and comment-spanned newlines joined
    BEFORE anything looks at the text: `#pragma \\` + `omp ...` is an omp
    pragma, and clauses behind a /* comment */ that spans the newline
    still belong to it."""
    out = []
    i, n = 0, len(blanked)
    while i < n:
        text = blanked[i].strip()
        if not text.startswith("#"):
            i += 1
            continue
        start = i
        while i + 1 < n and (text.endswith("\\") or i in spans):
            text = text.rstrip("\\").rstrip() + " " + blanked[i + 1].strip()
            i += 1
        out.append((start, i, " ".join(text.split())))
        i += 1
    return out


# --------------------------------------------------------------------------
# OpenMP fact extraction (shared by both frontends)
# --------------------------------------------------------------------------
#
# Region extents, data-sharing clauses and synchronization coverage are
# *textual* properties of the pragma lines and brace structure — libclang's
# OpenMP AST support varies by version and the micro frontend has no AST at
# all, so both frontends delegate to this one extractor over comment-blanked
# lines. That makes the parallel-effects pass agree across frontends by
# construction; the dual-frontend agreement test pins it.

_PRAGMA_OMP = _re.compile(r"^\s*#\s*pragma\s+omp\b(?P<rest>.*)$")
_CLAUSE = _re.compile(r"\b(shared|private|firstprivate|lastprivate)\s*\(")
_REDUCTION = _re.compile(r"\breduction\s*\(")
_FOR_HEADER = _re.compile(
    r"for\s*\(\s*(?:[A-Za-z_][\w:<>\s]*?[\s&*])?(?P<var>[A-Za-z_]\w*)\s*[=:]")
_LOCK_SET = _re.compile(r"\bomp_set_lock\s*\(")
_LOCK_UNSET = _re.compile(r"\bomp_unset_lock\s*\(")


def _clause_vars(text: str) -> tuple[set[str], set[str], set[str]]:
    """(shared, privates, reductions) variable sets from a pragma text."""
    shared: set[str] = set()
    privates: set[str] = set()
    reductions: set[str] = set()

    def args_at(m: _re.Match) -> str:
        depth, j = 1, m.end()
        while j < len(text) and depth:
            depth += {"(": 1, ")": -1}.get(text[j], 0)
            j += 1
        return text[m.end():j - 1]

    for m in _CLAUSE.finditer(text):
        vars_ = {v.strip() for v in args_at(m).split(",") if v.strip()}
        (shared if m.group(1) == "shared" else privates).update(vars_)
    for m in _REDUCTION.finditer(text):
        body = args_at(m)
        # reduction(op : a, b) — vars after the last top-level colon.
        vars_part = body.rsplit(":", 1)[-1]
        reductions.update(v.strip() for v in vars_part.split(",") if v.strip())
    return shared, privates, reductions


def _block_extent(lines: list[str], i: int,
                  pragma_lines: set[int]) -> tuple[int, int]:
    """Structured-block extent (first_line0, last_line0) starting the scan at
    line i: a brace block, a for/while/if statement (with its own block or
    single statement), or a single `;`-terminated statement. Skips further
    omp pragma lines (chained worksharing directives, as joined by
    directives()) first."""
    n = len(lines)
    while i < n and (i in pragma_lines or not lines[i].strip()):
        i += 1
    if i >= n:
        return i, i
    start = i
    # Find the first `{` before a bare `;` at depth 0: that brace opens the
    # structured block (covers `for (...) {`, `if (...) {`, bare `{`).
    depth = 0
    j = i
    opened_at = -1
    while j < n:
        for ch in lines[j]:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "{" and depth == 0:
                opened_at = j
                break
            elif ch == ";" and depth == 0:
                # Statement ends before any block opens. A for/while header
                # contains its `;`s inside parens, so depth-0 `;` is the end
                # of a single-statement body.
                return start, j
        if opened_at >= 0:
            break
        j += 1
    if opened_at < 0:
        return start, min(start, n - 1)
    # Match braces from opened_at to the closing line.
    depth = 0
    seen = False
    for k in range(opened_at, n):
        for ch in lines[k]:
            if ch == "{":
                depth += 1
                seen = True
            elif ch == "}":
                depth -= 1
        if seen and depth <= 0:
            return start, k
    return start, n - 1


def _guard_scope_end(lines: list[str], decl_line0: int) -> int:
    """Last line (0-based) of the brace scope enclosing decl_line0: scan
    forward until the running brace depth drops below its start value."""
    depth = 0
    for j in range(decl_line0, len(lines)):
        for ch in lines[j]:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth < 0:
                    return j
    return len(lines) - 1


def extract_omp(blanked: list[str], spans: set[int]
                ) -> tuple[list[OmpRegion], dict[int, set[str]]]:
    """Extract OmpRegion records and per-line synchronization coverage from
    blank_with_spans() output (1-based results)."""
    regions: list[OmpRegion] = []
    sync: dict[int, set[str]] = {}

    def cover(first0: int, last0: int, tag: str) -> None:
        for ln in range(first0 + 1, last0 + 2):
            sync.setdefault(ln, set()).add(tag)

    def statement_end(i: int) -> int:
        while i < len(blanked) and ";" not in blanked[i]:
            i += 1
        return min(i, len(blanked) - 1)

    pragmas = [(first0, last0, text, m.group("rest").split())
               for first0, last0, text in directives(blanked, spans)
               for m in [_PRAGMA_OMP.match(text)] if m]
    pragma_lines = {j for first0, last0, _, _ in pragmas
                    for j in range(first0, last0 + 1)}
    for first0, last0, text, words in pragmas:
        if not words:
            continue
        if words[0] == "parallel":
            shared, privates, reductions = _clause_vars(text)
            bstart0, bend0 = _block_extent(blanked, last0 + 1, pragma_lines)
            region = OmpRegion(
                pragma_line=first0 + 1, start=bstart0 + 1, end=bend0 + 1,
                text=text, shared=shared, privates=privates,
                reductions=reductions)
            # Combined parallel-for: induction var from the loop header.
            if "for" in words:
                header = " ".join(blanked[bstart0:min(bstart0 + 3, len(blanked))])
                m = _FOR_HEADER.search(header)
                if m:
                    region.induction.add(m.group("var"))
            # Inner worksharing loops and atomic reads inside the extent.
            for f0, l0, itext, inner in pragmas:
                if not (bstart0 <= f0 <= bend0) or not inner:
                    continue
                if inner[0] == "for":
                    _, ipriv, ired = _clause_vars(itext)
                    region.privates |= ipriv
                    region.reductions |= ired
                    istart0, _ = _block_extent(blanked, l0 + 1, pragma_lines)
                    header = " ".join(
                        blanked[istart0:min(istart0 + 3, len(blanked))])
                    m = _FOR_HEADER.search(header)
                    if m:
                        region.induction.add(m.group("var"))
                elif inner[:2] == ["atomic", "read"]:
                    region.atomic_reads.append(
                        (f0 + 1, statement_end(l0 + 1) + 1))
            regions.append(region)
        elif words[0] == "atomic":
            tag = "atomic-read" if words[1:2] == ["read"] else "atomic"
            # Covers the next statement through its `;`.
            cover(last0 + 1, statement_end(last0 + 1), tag)
        elif words[0] == "critical":
            cstart0, cend0 = _block_extent(blanked, last0 + 1, pragma_lines)
            cover(cstart0, cend0, "critical")
        elif words[0] in ("single", "master", "masked"):
            # One thread executes the block; `single` is additionally
            # bracketed by implicit barriers (no nowait in this codebase).
            cstart0, cend0 = _block_extent(blanked, last0 + 1, pragma_lines)
            cover(cstart0, cend0, "single")

    # omp_set_lock .. omp_unset_lock spans.
    i = 0
    while i < len(blanked):
        if _LOCK_SET.search(blanked[i]):
            j = i
            while j < len(blanked) and not _LOCK_UNSET.search(blanked[j]):
                j += 1
            cover(i, min(j, len(blanked) - 1), "locked")
            i = j
        i += 1

    # RAII mutex guards: declaration line through the end of its scope.
    guard_re = _re.compile(
        r"\b(?:std\s*::\s*)?(?:%s)\s*<" % "|".join(LOCK_GUARD_TYPES))
    for i, line in enumerate(blanked):
        if guard_re.search(line):
            cover(i, _guard_scope_end(blanked, i), "locked")

    return regions, sync
