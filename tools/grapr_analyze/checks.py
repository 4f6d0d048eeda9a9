"""The grapr_analyze checks that are neither protocol nor effects checks,
plus the tsan.supp liveness audit.

The semantic checks consume the frontend-neutral IR from model.py; only
the annotation resolver (annotations live in comments, which no AST
keeps), the OpenMP text rules and the suppression scanner look at text.

Check ids (stable; used in messages and `grapr:analyze-allow(<id>)`):
  csr-staleness        a frozen CsrGraph view is read after a mutating
                       Graph method ran on its source
  index-width          implicit narrowing of count/index/node/edgeweight
                       to a 32-bit (or smaller / lossy) type
  annotation-liveness  a grapr:benign-race / grapr:analyze-allow
                       annotation gives no `: <reason>` or no longer
                       anchors a real site
  suppression-liveness a tsan.supp entry names a symbol that no longer
                       exists or no longer reaches a parallel region
  omp-default-none     a `#pragma omp parallel` without default(none):
                       every region declares its data sharing explicitly
  no-default-shared    a parallel region with default(shared)
  no-rand              rand()/srand()/drand48()/...: use the per-thread or
                       counter-based engines of support/random.hpp
  no-stream-log        std::cout/std::cerr/printf inside a parallel
                       region's structured block (interleaved output,
                       hidden serialization)

The sanctioned escape hatches, by design:
  - static_cast<...> is never flagged: explicit narrowing is greppable
    and reviewable; the check hunts *silent* narrowing (implicit
    conversions, C-style and functional casts).
  - `grapr:analyze-allow(<check>): <reason>` on the offending line or the
    contiguous comment block above it suppresses one finding; unused
    allows are themselves errors (annotation-liveness).
"""

from __future__ import annotations

import re
from pathlib import Path

from model import (CSR_TYPES, EDGEWEIGHT_RETURN_METHODS, FileModel, Finding,
                   GRAPH_MUTATORS, GRAPH_TYPES, NARROW_INT_TYPES,
                   NODE_RETURN_METHODS, NODE_UNSAFE_TYPES, FLOAT_NARROW_TYPES,
                   Summary, WIDE_RETURN_METHODS, is_edgeweight, is_node,
                   is_wide, normalize_type)

from frontend_micro import expr_info

ANALYZE_ALLOW = re.compile(
    r"grapr:analyze-allow\((?P<check>[\w-]+)\)(?P<rest>[^\n]*)")
ANNOTATION = re.compile(
    r"grapr:benign-race\((?P<var>[A-Za-z_]\w*)\)(?P<rest>[^\n]*)")
BANNED_RNG = re.compile(
    r"(?<![\w:.>])(rand|srand|drand48|lrand48|mrand48|random)\s*\(")
STREAM_LOG = re.compile(
    r"std::cout|std::cerr|(?<![\w:.>])(?:printf|fprintf|puts)\s*\(")

CHECK_IDS = {"csr-staleness", "index-width", "annotation-liveness",
             "suppression-liveness",
             # OpenMP text rules (check_omp_text).
             "omp-default-none", "no-default-shared", "no-rand",
             "no-stream-log",
             # Durability-protocol checks (protocol.py).
             "durability-order", "lock-discipline", "poison-path",
             "fault-site-coverage",
             # Parallel-effects checks (effects.py).
             "shared-write-safety", "benign-race-validity", "region-alloc",
             "benign-race-manifest", "fault-point-in-parallel"}

# Integer-valued types (any width): an edgeweight (double) flowing into
# one of these silently truncates the fractional part.
_INTEGERISH = NARROW_INT_TYPES | {
    "count", "index", "node", "long", "long long", "unsigned long",
    "unsigned long long", "size_t", "std::size_t", "int64_t", "uint64_t",
    "std::int64_t", "std::uint64_t", "ptrdiff_t", "std::ptrdiff_t",
}


class Allows:
    """grapr:analyze-allow bookkeeping for one file: an allow covers its
    own line and the line below the contiguous // block it sits in."""

    def __init__(self, lines: list[str]):
        self.lines = lines
        self.sites: dict[int, str] = {}      # 0-based line -> check id
        self.used: set[int] = set()
        for i, raw in enumerate(lines):
            m = ANALYZE_ALLOW.search(raw)
            if m:
                self.sites[i] = m.group("check")

    def allowed(self, line1: int, check: str) -> bool:
        line0 = line1 - 1
        candidates = [line0]
        j = line0 - 1
        while j >= 0 and self.lines[j].lstrip().startswith("//"):
            candidates.append(j)
            j -= 1
        for j in candidates:
            if self.sites.get(j) == check:
                self.used.add(j)
                return True
        return False


def _report(findings: list[Finding], allows: Allows, path: Path,
            line: int, check: str, message: str) -> None:
    if not allows.allowed(line, check):
        findings.append(Finding(path, line, check, message))


# --------------------------------------------------------------------------
# index-width
# --------------------------------------------------------------------------

_STATIC_CAST = re.compile(r"static_cast\s*<[^<>]*(?:<[^<>]*>)?[^<>]*>\s*\(")


def _sanitize(value):
    """Strip the sanctioned idioms out of a value before classifying it:
    static_cast<...>(...) expressions (the explicit escape hatch) and
    subscript indices (an index selects an element; it does not flow into
    the element's value)."""
    if value is None or not value.text:
        return value
    text = value.text
    while True:
        m = _STATIC_CAST.search(text)
        if not m:
            break
        depth, j = 0, m.end() - 1
        for j in range(m.end() - 1, len(text)):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    break
        text = text[:m.start()] + " " + text[j + 1:]
    text = re.sub(r"\[[^\[\]]*\]", "[]", text)
    # Blank call-argument lists: `f(n)` does not flow `n` into the
    # enclosing value — the call's *return type* does. The call names
    # themselves survive as `f()` / `g.degree()`, so re-deriving the
    # ExprInfo from the sanitized text keeps the API-table call
    # classification while unknown calls stay unclassified instead of
    # borrowing their arguments' width.
    for _ in range(8):
        blanked = re.sub(r"([A-Za-z_]\w*\s*\()[^()]+\)", r"\1)", text)
        if blanked == text:
            break
        text = blanked
    return expr_info(text)


def _classify_value(value, types: dict[str, str]) -> set[str]:
    """Domains a value draws from: subset of {wide, node, edgeweight}."""
    domains: set[str] = set()
    if value is None:
        return domains
    for ident in value.idents:
        t = types.get(ident, "")
        if is_wide(t):
            domains.add("wide")
        elif is_node(t):
            domains.add("node")
        elif is_edgeweight(t):
            domains.add("edgeweight")
    for _, meth in value.calls:
        if meth in WIDE_RETURN_METHODS:
            domains.add("wide")
        elif meth in NODE_RETURN_METHODS:
            domains.add("node")
        elif meth in EDGEWEIGHT_RETURN_METHODS:
            domains.add("edgeweight")
    return domains


def check_index_width(model: FileModel, allows: Allows) -> list[Finding]:
    findings: list[Finding] = []
    for fn in model.functions:
        types: dict[str, str] = {
            name: normalize_type(ptype)
            for ptype, name in fn.params if name}

        def target_findings(stmt, tname: str, what: str) -> None:
            t = normalize_type(tname)
            domains = _classify_value(_sanitize(stmt.value), types)
            # A `node` induction variable over a count bound is the
            # codebase's core idiom and safe by construction (node ids are
            # capped at 2^32 by the Graph invariants); only sub-count
            # builtin types are unsafe as induction variables.
            node_target_unsafe = is_node(t) and stmt.kind != "loop"
            if "wide" in domains and (
                    t in NARROW_INT_TYPES or node_target_unsafe):
                _report(findings, allows, model.path, stmt.line,
                        "index-width",
                        f"{what} '{stmt.name or stmt.value.text.strip()[:40]}'"
                        f" has 32-bit-or-smaller type '{tname.strip()}' but "
                        "is computed from a 64-bit count/index value; "
                        "truncates beyond 2^32 edges (use count/index, or "
                        "static_cast after a range check)")
            elif "node" in domains and t in NODE_UNSAFE_TYPES:
                _report(findings, allows, model.path, stmt.line,
                        "index-width",
                        f"{what} '{stmt.name or '<expr>'}' narrows a node id "
                        f"into '{tname.strip()}': node is uint32 with the "
                        "`none` sentinel at 2^32-1, which this type cannot "
                        "represent")
            elif "edgeweight" in domains and t in _INTEGERISH:
                _report(findings, allows, model.path, stmt.line,
                        "index-width",
                        f"{what} '{stmt.name or '<expr>'}' converts an "
                        f"edgeweight (double) into integer type "
                        f"'{tname.strip()}': silently truncates fractional "
                        "weights")
            elif "edgeweight" in domains and t in FLOAT_NARROW_TYPES:
                _report(findings, allows, model.path, stmt.line,
                        "index-width",
                        f"{what} '{stmt.name or '<expr>'}' narrows an "
                        "edgeweight (double) to float: loses precision on "
                        "accumulated weights")

        for stmt in fn.statements:
            if stmt.kind in ("decl", "loop"):
                if stmt.name:
                    types.setdefault(stmt.name, normalize_type(
                        stmt.declared_type))
                what = ("loop induction variable" if stmt.kind == "loop"
                        else "declaration")
                target_findings(stmt, stmt.declared_type, what)
            elif stmt.kind == "assign":
                tname = types.get(stmt.name, "")
                if tname:
                    what = ("accumulator" if stmt.op in
                            ("+=", "-=", "*=", "/=") else "assignment")
                    target_findings(stmt, tname, what)
            elif stmt.kind == "cast":
                style = "C-style" if stmt.style == "c" else "functional"
                # Reuse the same domain rules; message names the cast.
                t = normalize_type(stmt.declared_type)
                domains = _classify_value(_sanitize(stmt.value), types)
                if ("wide" in domains and t in NARROW_INT_TYPES) or \
                        ("node" in domains and t in NODE_UNSAFE_TYPES) or \
                        ("edgeweight" in domains and
                         t in (NARROW_INT_TYPES | FLOAT_NARROW_TYPES)):
                    _report(findings, allows, model.path, stmt.line,
                            "index-width",
                            f"{style} cast to '{stmt.declared_type}' narrows "
                            "a count/index/node/edgeweight value; if the "
                            "narrowing is intended make it explicit and "
                            "auditable with static_cast<...>")
    return findings


# --------------------------------------------------------------------------
# csr-staleness
# --------------------------------------------------------------------------

def check_csr_staleness(model: FileModel, summary: Summary,
                        allows: Allows) -> list[Finding]:
    findings: list[Finding] = []
    for fn in model.functions:
        # view name -> (source idents, freeze line)
        views: dict[str, tuple[set[str], int]] = {}
        # graph/receiver name -> line of latest structural mutation
        mutated: dict[str, int] = {}
        graph_like: set[str] = {
            name for ptype, name in fn.params
            if normalize_type(ptype) in
            {normalize_type(g) for g in GRAPH_TYPES}}

        def note_use(stmt, names: set[str]) -> None:
            for vname in names & set(views):
                sources, frozen_at = views[vname]
                for src in sources:
                    mline = mutated.get(src, 0)
                    if mline > frozen_at and stmt.line >= mline:
                        _report(
                            findings, allows, model.path, stmt.line,
                            "csr-staleness",
                            f"frozen view '{vname}' (frozen from '{src}' at "
                            f"line {frozen_at}) is read here, but '{src}' "
                            f"was mutated at line {mline} after the freeze; "
                            "the view is a stale snapshot — re-freeze after "
                            "the last mutation or finish reads first")
                        break

        for stmt in fn.statements:
            if stmt.kind == "decl":
                if normalize_type(stmt.declared_type) in {
                        normalize_type(c) for c in CSR_TYPES}:
                    sources = set()
                    if stmt.value is not None:
                        # Direct freeze of a graph, or alias of a view.
                        for ident in stmt.value.idents:
                            if ident in views:
                                sources |= views[ident][0]
                            else:
                                sources.add(ident)
                    views[stmt.name] = (sources, stmt.line)
                    continue
                if normalize_type(stmt.declared_type) in {
                        normalize_type(g) for g in GRAPH_TYPES}:
                    graph_like.add(stmt.name)
                    mutated.pop(stmt.name, None)
                if stmt.value is not None:
                    note_use(stmt, stmt.value.idents)
            elif stmt.kind == "call":
                if stmt.value is not None:
                    note_use(stmt, stmt.value.idents | {stmt.recv})
                if stmt.recv and stmt.method in GRAPH_MUTATORS and \
                        stmt.recv not in views:
                    mutated[stmt.recv] = max(
                        mutated.get(stmt.recv, 0), stmt.line)
                elif not stmt.recv:
                    for pos in summary.mutating_positions(stmt.method):
                        if pos < len(stmt.args) and stmt.args[pos]:
                            mutated[stmt.args[pos]] = max(
                                mutated.get(stmt.args[pos], 0), stmt.line)
            elif stmt.kind == "assign":
                if stmt.name in graph_like:
                    mutated[stmt.name] = max(
                        mutated.get(stmt.name, 0), stmt.line)
                if stmt.value is not None:
                    note_use(stmt, stmt.value.idents)
            elif stmt.value is not None:
                note_use(stmt, stmt.value.idents)
    return findings


# --------------------------------------------------------------------------
# annotation-liveness
# --------------------------------------------------------------------------

PUBLISH_CALL = r"\.\s*(?:set|moveToSubset|addToSubset|removeFromSubset|add)\s*\("
SUBSCRIPT_WRITE = (r"\[[^\[\]]*\]\s*"
                   r"(?:=(?!=)|\+=|-=|\*=|/=|\|=|&=|\^=|\+\+|--)")


def _lacks_reason(lines: list[str], i: int, rest: str) -> bool:
    """An annotation's `: <reason>` may start on the comment line below."""
    if not rest.startswith(":"):
        return True
    below = lines[i + 1].strip() if i + 1 < len(lines) else ""
    return not rest[1:].strip() and not (
        below.startswith("//") and below[2:].strip())


def check_annotation_liveness(model: FileModel, blanked: list[str],
                              allows: Allows) -> list[Finding]:
    findings: list[Finding] = []
    lines = model.lines

    def in_function(line1: int) -> bool:
        return any(fn.start_line <= line1 <= fn.end_line
                   for fn in model.functions)

    for i, raw in enumerate(lines):
        m = ANALYZE_ALLOW.search(raw)
        if m and _lacks_reason(lines, i, m.group("rest")):
            _report(findings, allows, model.path, i + 1,
                    "annotation-liveness",
                    "grapr:analyze-allow must give a reason: "
                    "'grapr:analyze-allow(<check>): <reason>'")
        m = ANNOTATION.search(raw)
        if not m:
            continue
        var = m.group("var")
        line1 = i + 1
        if _lacks_reason(lines, i, m.group("rest")):
            _report(findings, allows, model.path, line1,
                    "annotation-liveness",
                    f"grapr:benign-race({var}) must give the tolerance "
                    f"argument: 'grapr:benign-race({var}): <reason>'")
        window = range(i, min(len(blanked), i + 9))
        site = None
        for j in window:
            code = blanked[j]
            if re.search(rf"\b{re.escape(var)}\s*{PUBLISH_CALL}", code):
                site = ("publish-call", j)
                break
            if re.search(rf"\b{re.escape(var)}\s*{SUBSCRIPT_WRITE}", code):
                site = ("shared-write", j)
                break
            if re.search(rf"\b{re.escape(var)}\s*\[", code) and any(
                    "#pragma omp atomic" in blanked[k]
                    for k in range(i, j + 1)):
                site = ("atomic-snapshot", j)
                break
            if "GRAPR_RACE_" in code and \
                    re.search(rf"\b{re.escape(var)}\b", code):
                site = ("shadow-write", j)
                break
        if site is None:
            _report(findings, allows, model.path, line1,
                    "annotation-liveness",
                    f"grapr:benign-race({var}) does not anchor a racy site: "
                    "no publish call, shared subscript write, atomic "
                    f"snapshot, or shadow write on '{var}' within the next "
                    "8 lines — the annotation is stale (delete it or move "
                    "it to the site it excuses)")
            continue
        if not in_function(line1):
            _report(findings, allows, model.path, line1,
                    "annotation-liveness",
                    f"grapr:benign-race({var}) sits outside any function "
                    "body; annotations must mark a concrete site")
    return findings


# --------------------------------------------------------------------------
# OpenMP text rules: omp-default-none, no-default-shared, no-rand,
# no-stream-log
# --------------------------------------------------------------------------

def check_omp_text(model: FileModel, blanked: list[str],
                   allows: Allows) -> list[Finding]:
    findings: list[Finding] = []
    for region in model.regions:
        clauses = region.text.replace(" ", "")
        if "default(shared)" in clauses:
            _report(findings, allows, model.path, region.pragma_line,
                    "no-default-shared",
                    "default(shared) is banned; use default(none) with "
                    "explicit shared()/firstprivate() clauses")
        elif "default(none)" not in clauses:
            _report(findings, allows, model.path, region.pragma_line,
                    "omp-default-none",
                    "parallel construct without default(none): every "
                    "OpenMP region must declare its data sharing "
                    "explicitly")
        for line in range(region.start, region.end + 1):
            if STREAM_LOG.search(blanked[line - 1]):
                _report(findings, allows, model.path, line, "no-stream-log",
                        "stream/printf logging inside a parallel region "
                        "interleaves output and serializes the team; log "
                        "after the region")
    for i, code in enumerate(blanked):
        m = BANNED_RNG.search(code)
        if m:
            _report(findings, allows, model.path, i + 1, "no-rand",
                    f"'{m.group(1)}()' is banned: use the per-thread or "
                    "counter-based engines in support/random.hpp")
    return findings


def check_unused_allows(models_allows: list[tuple[FileModel, Allows]]
                        ) -> list[Finding]:
    findings: list[Finding] = []
    for model, allows in models_allows:
        for line0, check in sorted(allows.sites.items()):
            if line0 in allows.used:
                continue
            if check not in CHECK_IDS:
                findings.append(Finding(
                    model.path, line0 + 1, "annotation-liveness",
                    f"grapr:analyze-allow names unknown check '{check}' "
                    f"(known: {', '.join(sorted(CHECK_IDS))})"))
            else:
                findings.append(Finding(
                    model.path, line0 + 1, "annotation-liveness",
                    f"unused grapr:analyze-allow({check}) — the finding it "
                    "suppressed is gone; delete the annotation"))
    return findings


# --------------------------------------------------------------------------
# suppression-liveness (tools/sanitizers/tsan.supp)
# --------------------------------------------------------------------------

# Symbols TSan intercepts that are outside grapr's source: the OpenMP
# runtime and the global allocator (scanner false positives on libgomp's
# internal synchronization and on recycled allocations).
_SUPP_EXTERNAL = ("libgomp", "operator new", "operator delete", "pthread")


def check_suppression_liveness(supp_path: Path,
                               models: list[FileModel]) -> list[Finding]:
    findings: list[Finding] = []
    if not supp_path.exists():
        return findings

    functions = [fn for m in models for fn in m.functions]
    defined_names = {fn.name for fn in functions}
    defined_quals = {fn.qualname for fn in functions}
    classes = set().union(*(m.defined_classes for m in models)) \
        if models else set()

    omp_fn_names = {fn.name for fn in functions if fn.has_omp}
    omp_called: set[str] = set()
    omp_bodies: list[str] = []
    omp_quals: list[str] = []
    for m in models:
        for fn in m.functions:
            if not fn.has_omp:
                continue
            omp_quals.append(fn.qualname)
            omp_bodies.append(
                "\n".join(m.lines[fn.start_line - 1:fn.end_line]))
            for stmt in fn.statements:
                if stmt.kind == "call":
                    omp_called.add(stmt.method)
    omp_body_text = "\n".join(omp_bodies)

    for lineno, raw in enumerate(supp_path.read_text().splitlines(),
                                 start=1):
        entry = raw.strip()
        if not entry or entry.startswith("#"):
            continue
        if ":" not in entry:
            findings.append(Finding(supp_path, lineno, "suppression-liveness",
                                    f"malformed suppression '{entry}'"))
            continue
        kind, pattern = entry.split(":", 1)
        if any(ext in pattern for ext in _SUPP_EXTERNAL):
            continue
        if kind == "called_from_lib":
            findings.append(Finding(
                supp_path, lineno, "suppression-liveness",
                f"called_from_lib suppression for non-runtime '{pattern}' — "
                "only external runtimes (libgomp) belong here"))
            continue
        components = [c for c in pattern.strip("*").split("::") if c]
        if components and components[0] == "grapr":
            components = components[1:]
        missing = [c for c in components
                   if c not in defined_names and c not in classes]
        if missing:
            findings.append(Finding(
                supp_path, lineno, "suppression-liveness",
                f"suppression '{entry}' names '{missing[0]}', which is not "
                "a function or class defined anywhere in src/ — stale after "
                "a rename or removal"))
            continue
        class_pattern = pattern.rstrip("*").endswith("::")
        last = components[-1] if components else ""
        if class_pattern:
            alive = last in classes and (
                re.search(rf"\b{re.escape(last)}\b", omp_body_text)
                or any(last in q for q in omp_quals))
        else:
            alive = last in omp_fn_names or last in omp_called
        if not alive:
            findings.append(Finding(
                supp_path, lineno, "suppression-liveness",
                f"suppression '{entry}' no longer reaches a parallel "
                f"region: '{last}' neither contains an OpenMP pragma nor is "
                "called from a function that does — the race it excused is "
                "gone; delete the entry"))
    _ = defined_quals
    return findings
