"""parallel-effects: interprocedural classification of shared writes in
OpenMP regions.

For every variable or member written inside an OpenMP parallel region
(including writes reached through same-TU helpers: hoisted lambdas the
region calls, directly or through another such lambda, and same-file
functions called from the region or those lambdas), classify the write
on a four-point effect lattice:

  thread-local   the written object is private to the executing thread —
                 declared inside the region/helper extent, listed in a
                 private/firstprivate/lastprivate clause, a worksharing
                 induction variable, a lambda parameter, or reached
                 through a `.local()` per-thread scratch slot
  synchronized   the write is covered by `#pragma omp atomic`, an
                 `omp critical` block, an omp_set_lock/omp_unset_lock
                 span or an RAII mutex-guard scope, or the variable is in
                 a reduction clause
  disjoint       the written element is the iteration's own: its index
                 is ONE identifier derived from the worksharing induction
                 variable (casts and parentheses aside — `v`, `sv`,
                 `static_cast<node>(v)`, not `v + 1` and not `0`), so no
                 two threads touch the same element; AND the region never
                 accesses the container at any other ("foreign") index —
                 a foreign access means other threads observe the
                 written slots, and the disjointness of the *writes* no
                 longer proves race-freedom
  racy           everything else — a real data race that must carry a
                 live `grapr:benign-race(<var>)` annotation naming the
                 written lvalue

Writes are assignments, increments, publish calls (`zeta.set(u, c)`)
and mutating container calls (`push_back`, `resize`, `erase`, ...) on a
receiver that is not region-local or `.local()`; a container call writes
at the last subscript of its receiver chain, so `rows[sv].resize(d)` is
disjoint while `sink.push_back(x)` and `shards[0].push_back(x)` are racy.

Checks built on the classification (ids registered in checks.CHECK_IDS):

  shared-write-safety      unannotated racy writes fail, and so does an
                           unannotated `omp atomic read` the region
                           executes, in its block or in a helper (a
                           stale snapshot by design) — unless the read
                           is at the iteration's own index and every
                           write to that variable in the region is too
  benign-race-validity     an annotation on a write proven synchronized /
                           disjoint / thread-local is stale and fails
  region-alloc             heap allocation or container growth inside a
                           parallel region in src/community,
                           src/coarsening or src/structures fails unless
                           the container is per-thread (declared in the
                           region or reached via `.local()` /
                           ThreadLocalPool)
  benign-race-manifest     the static benign-race set must equal
                           tests/benign_races.txt in BOTH directions;
                           tsan.supp entries must map to manifest rows;
                           runtime= site names must equal the
                           GRAPR_RACE_BENIGN_SITE instrumentation (the
                           compiled half of the cross-check lives in
                           tests/test_race_check.cpp, which drives the
                           manifest under GRAPR_RACE_CHECK and diffs the
                           runtime benign-write trace against it)
  fault-point-in-parallel  a GRAPR_FAULT_POINT reached from inside a
                           parallel region, at ANY call depth (cross-TU
                           fixed-point summary)

Known false-negative edges (kept deliberately; documented in DESIGN.md):
pointer-laundered aliases (`auto& r = shared; r[i] = v` inside the region
classifies the write as a write to the region-local `r`), writes through
raw pointers/iterators (`*p = v`), and allocation hidden behind cross-TU
member calls. The runtime shadow checker and TSan remain the backstop
for exactly those shapes.

Both frontends produce identical findings by construction: region
extents, clauses and synchronization coverage come from the shared
model.extract_omp() extractor over comment-blanked lines, and write
sites are recovered from the same blanked lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from model import FileModel, Finding, OmpRegion
from checks import ANNOTATION, Allows, _report
from protocol import FAULT_SITE, strip_comments, _call_names

EFFECT_CHECK_IDS = {
    "shared-write-safety", "benign-race-validity", "region-alloc",
    "benign-race-manifest", "fault-point-in-parallel",
}

THREAD_LOCAL_LABEL = "thread-local"
SYNCHRONIZED = "synchronized"
DISJOINT = "disjoint"
RACY = "racy"

# Directories whose parallel regions are held to the no-allocation rule.
REGION_ALLOC_DIRS = {"community", "coarsening", "structures"}

# Publish-style mutating methods on shared containers (Partition, Cover,
# vector element stores routed through an API). First argument is the
# written element's index.
PUBLISH_METHODS = {"set", "moveToSubset", "addToSubset", "removeFromSubset",
                   "add"}

# Container-growth methods: any of these on a shared receiver inside a
# region is a heap-allocation hazard (region-alloc).
GROWTH_METHODS = {"push_back", "emplace_back", "emplace", "insert",
                  "resize", "reserve", "assign"}
# Every mutating container call: a write to the receiver
# (shared-write-safety).
MUTATING_METHODS = GROWTH_METHODS | {"pop_back", "erase", "clear",
                                     "shrink_to_fit"}

ALLOC_CALLS = {"make_unique", "make_shared"}

# Read-accessor methods that observe an element of a shared container at
# an explicit index (used by the foreign-read rule).
READ_METHODS = {"subsetOf", "at", "read", "inSubset", "subsetsOf"}

_RUNTIME_SITE = re.compile(
    r'GRAPR_RACE_BENIGN_SITE\s*\(\s*"(?P<name>[^"]+)"')

# postfix chain: base ident followed by member/subscript/call segments.
_CHAIN = (r"[A-Za-z_]\w*"
          r"(?:(?:\.|->)[A-Za-z_]\w*|\([^()]*\)|\[[^\[\]]*\])*")

_WRITE = re.compile(
    r"(?P<lhs>[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*|\[[^\[\]]*\])*)\s*"
    r"(?<![=!<>+\-*/%&|^])"
    r"(?P<op><<=|>>=|=|\+=|-=|\*=|/=|%=|\|=|&=|\^=)(?![=<>])")
_INCDEC = re.compile(
    r"(?:\+\+|--)\s*(?P<pre>[A-Za-z_]\w*(?:\[[^\[\]]*\])?)"
    r"|(?P<post>[A-Za-z_]\w*(?:\[[^\[\]]*\])?)\s*(?:\+\+|--)")
_CALL_ON = re.compile(
    rf"(?P<chain>{_CHAIN})\s*(?:\.|->)\s*(?P<meth>[A-Za-z_]\w*)\s*\(")
_LAMBDA_DECL = re.compile(
    r"\b(?:const\s+)?auto\s+(?P<name>[A-Za-z_]\w*)\s*=\s*\[")
_STATIC_CAST = re.compile(r"static_cast\s*<[^<>]*(?:<[^<>]*>)?[^<>]*>")
_TID = re.compile(r"\bomp_get_thread_num\s*\(")
_NEW_EXPR = re.compile(r"(?<!operator )\bnew\b(?!\s*\()")

_CPPISH = {
    "if", "for", "while", "switch", "return", "else", "do", "sizeof",
    "static_cast", "const", "auto", "true", "false", "nullptr", "this",
    "break", "continue", "case", "default", "new", "delete", "operator",
    "node", "count", "index", "edgeweight", "double", "int", "bool",
    "std", "size_t",
}


@dataclass
class WriteSite:
    line: int                 # 1-based
    var: str                  # base identifier of the written lvalue
    index_text: str           # element selector text ("" for whole-object)
    classification: str
    reason: str
    kind: str                 # "assign" | "publish" | "incdec" | "mutate"


@dataclass
class RegionAnalysis:
    region: OmpRegion
    extents: list[tuple[int, int]]      # 1-based inclusive line ranges
    locals_: set[str] = field(default_factory=set)
    derived: set[str] = field(default_factory=set)
    writes: list[WriteSite] = field(default_factory=list)
    alloc_sites: list[tuple[int, str]] = field(default_factory=list)
    atomic_reads: list[AtomicRead] = field(default_factory=list)


@dataclass
class EffectSummary:
    """Cross-TU fixed point over call names: which functions can reach a
    GRAPR_FAULT_POINT at any depth. Mirrors protocol.ProtocolSummary."""
    fault: set[str] = field(default_factory=set)


def build_effect_summary(pairs) -> EffectSummary:
    """A name's summary is the meet over every definition of that name:
    only when ALL definitions reach a fault point does a call through the
    bare name prove reachability. Calls bind by unqualified name, so a
    collision (an innocent apply() in some other class vs the WAL-touching
    StreamingGraph::apply) would otherwise poison every caller of the
    innocent overload."""
    defs: dict[str, list[tuple[bool, set[str]]]] = {}
    for model, _blanked, _allows in pairs:
        stripped = strip_comments(model.lines)
        for fn in model.functions:
            body = stripped[fn.start_line - 1:fn.end_line]
            direct = any(FAULT_SITE.search(ln) for ln in body)
            calls: set[str] = set()
            for stmt in fn.statements:
                calls.update(_call_names(stmt))
            defs.setdefault(fn.name, []).append((direct, calls))
    esum = EffectSummary()
    changed = True
    while changed:
        changed = False
        for name, bodies in defs.items():
            if name in esum.fault:
                continue
            if all(direct or (calls & esum.fault)
                   for direct, calls in bodies):
                esum.fault.add(name)
                changed = True
    return esum


# --------------------------------------------------------------------------
# Per-region analysis
# --------------------------------------------------------------------------

def _in_extents(line: int, extents: list[tuple[int, int]]) -> bool:
    return any(a <= line <= b for a, b in extents)


def _enclosing_function(model: FileModel, region: OmpRegion):
    best = None
    for fn in model.functions:
        if fn.start_line <= region.pragma_line <= fn.end_line:
            if best is None or fn.start_line > best.start_line:
                best = fn
    return best


def _brace_extent(blanked: list[str], start0: int) -> int:
    """Closing line (0-based) of the first brace block opening at or after
    start0."""
    depth = 0
    seen = False
    for j in range(start0, len(blanked)):
        for ch in blanked[j]:
            if ch == "{":
                depth += 1
                seen = True
            elif ch == "}":
                depth -= 1
        if seen and depth <= 0:
            return j
    return len(blanked) - 1


def _lambda_params(blanked: list[str], decl0: int) -> list[str]:
    """Ordered parameter names of a lambda declared at line decl0
    (0-based)."""
    text = " ".join(blanked[decl0:min(decl0 + 4, len(blanked))])
    m = re.search(r"\]\s*\(", text)
    if not m:
        return []
    depth, j = 1, m.end()
    while j < len(text) and depth:
        depth += {"(": 1, ")": -1}.get(text[j], 0)
        j += 1
    params = text[m.end():j - 1]
    names: list[str] = []
    for part in params.split(","):
        toks = re.findall(r"[A-Za-z_]\w*", part)
        if toks:
            names.append(toks[-1])
    return names


def _helper_extents(model: FileModel, blanked: list[str],
                    region: OmpRegion) -> tuple[list[tuple[int, int]],
                                                set[str],
                                                list[tuple[str, list[str]]]]:
    """Same-TU helpers reachable from the region: hoisted lambdas of the
    enclosing function that the region invokes or shares, or that an
    included lambda invokes (processNode calling provenStuck), and
    same-file named functions called from the region or those lambdas
    (one level). Returns the extra (start, end) extents, the helper-local
    parameter names, and the hoisted lambdas as (name, ordered params)
    for call-site index derivation."""
    extents: list[tuple[int, int]] = []
    params: set[str] = set()
    lambdas: list[tuple[str, list[str]]] = []
    region_text = " ".join(
        blanked[region.start - 1:region.end])

    fn = _enclosing_function(model, region)
    if fn is not None:
        hoisted = [(m.group("name"), i)
                   for i in range(fn.start_line - 1, region.start - 1)
                   for m in [_LAMBDA_DECL.search(blanked[i])] if m]
        included: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, i in hoisted:
                if name in included or (
                        not re.search(rf"\b{re.escape(name)}\b",
                                      region_text)
                        and name not in region.shared):
                    continue
                included.add(name)
                changed = True
                end0 = _brace_extent(blanked, i)
                extents.append((i + 1, end0 + 1))
                plist = _lambda_params(blanked, i)
                params |= set(plist)
                lambdas.append((name, plist))
                region_text += " " + " ".join(blanked[i:end0 + 1])

    # Only FREE calls bind same-file functions. A member call like
    # `counts.clear(...)` resolves through its receiver, which this
    # textual layer cannot soundly bind to a same-file method definition —
    # per-thread scratch classes share method names (clear/add) with
    # shared containers, and following the wrong body manufactures
    # phantom shared writes.
    called = {m.group(1) for m in re.finditer(
        r"(?<![\w.>])([A-Za-z_]\w*)\s*\(", region_text)}
    for other in model.functions:
        if other is fn or other.name not in called:
            continue
        if other.start_line <= region.pragma_line <= other.end_line:
            continue
        extents.append((other.start_line, other.end_line))
        params |= {name for _t, name in other.params}
    return extents, params, lambdas


_ATOMIC_READ_PRAGMA = re.compile(r"^\s*#\s*pragma\s+omp\s+atomic\s+read\b")
_READ_TARGET = re.compile(
    r"=\s*(?P<base>[A-Za-z_]\w*)"
    r"(?P<rest>(?:(?:\.|->)[A-Za-z_]\w*|\[[^\[\]]*\])*)\s*;")


@dataclass
class AtomicRead:
    line: int          # 1-based line of the `omp atomic read` pragma
    var: str           # base identifier of the variable read
    index_text: str    # element selector text ("" for whole-object)
    last: int          # last line of the read statement


def _atomic_reads(model: FileModel, blanked: list[str],
                  region: OmpRegion,
                  extents: list[tuple[int, int]]) -> list[AtomicRead]:
    """Every `omp atomic read` the region executes: those in its own
    block (the model's record) and those in the helper extents it
    calls."""
    spans = list(region.atomic_reads)
    for a, b in extents[1:]:
        for ln in range(a, min(b, len(blanked)) + 1):
            if not _ATOMIC_READ_PRAGMA.match(blanked[ln - 1]):
                continue
            last = ln + 1
            while "atomic-read" in model.sync_lines.get(last + 1, set()):
                last += 1
            spans.append((ln, last))
    reads: list[AtomicRead] = []
    for first, last in dict.fromkeys(spans):
        text = " ".join(blanked[first:last])
        m = _READ_TARGET.search(text)
        var, idx = "", ""
        if m:
            var = m.group("base")
            brackets = re.findall(r"\[([^\[\]]*)\]", m.group("rest"))
            idx = brackets[-1] if brackets else ""
        reads.append(AtomicRead(first, var, idx, last))
    return reads


def _strip_casts(text: str) -> str:
    return _STATIC_CAST.sub(" ", text)


def _own_index(text: str, derived: set[str]) -> bool:
    """Is this index the iteration's own element: one derived identifier,
    casts and parentheses aside? `v + 1`, `(v + 1) % n` and `0` are not —
    another iteration owns (or every thread shares) that element."""
    return re.sub(r"[()\s]", "", _strip_casts(text)) in derived


_FETCH_RESERVE = re.compile(r"(?:\.|->)\s*fetch_(?:add|sub)\s*\(")
_RESERVE_POSTINC = re.compile(
    r"^(?P<base>[A-Za-z_]\w*)\s*\[[^\[\]]*\]\s*\+\+\s*$")


def _slice_derived(text: str, derived: set[str],
                   locals_: set[str]) -> bool:
    """Per-thread slice cursors — the second way a value becomes a
    disjointness witness (ISSUE: 'a per-thread slice'):

      * an offset-table read at region-controlled indices
        (`offsets[cc]`, `firstRow[uc] + r`): the table partitions the
        output array into per-iteration slices
      * a unique-slot reservation: `slots[u].fetch_add(1)` or a
        post-increment of a region-local cursor cell (`cursor[e.u]++`)

    Whether the slices actually partition the output is beyond this
    lattice — overlapping-slice bugs remain the runtime shadow checker's
    job, and a value-table read laundered into an index (`zeta[v]`)
    defeats the heuristic; both edges are documented in DESIGN.md."""
    t = _strip_casts(text).strip()
    if _FETCH_RESERVE.search(t):
        return True
    m = _RESERVE_POSTINC.match(t)
    if m:
        return m.group("base") in locals_ or m.group("base") in derived
    # Member names after . / -> are not free identifiers.
    t = re.sub(r"(?:\.|->)\s*[A-Za-z_]\w*", " ", t)
    if "[" not in t:
        return False
    bases = set(re.findall(r"([A-Za-z_]\w*)\s*\[", t))
    rest = {w for w in re.findall(r"[A-Za-z_]\w*", t)
            if w not in _CPPISH} - bases
    # Strictly derived, NOT merely region-local: `neighbors[e]` with a
    # sequential inner-loop e yields a *neighbor id* — a value every
    # thread can hold — not a slice cursor. Offset tables read at the
    # worksharing index (`offsets[v]`, `firstRow[uc]`) are the shape this
    # rule exists for.
    if rest and not rest <= derived:
        return False
    return not re.search(r"[A-Za-z_]\w*\s*\(",
                         re.sub(r"\[[^\[\]]*\]", " ", t))


def _split_commas(text: str) -> list[str]:
    """Split on top-level commas (outside parens/brackets/braces)."""
    parts, depth, start = [], 0, 0
    for j, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:j])
            start = j + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _call_arg_lists(text: str, name: str) -> list[list[str]]:
    """Top-level argument texts of every free call to `name` in text."""
    out: list[list[str]] = []
    for m in re.finditer(rf"(?<![\w.>]){re.escape(name)}\s*\(", text):
        depth, j = 1, m.end()
        while j < len(text) and depth:
            depth += {"(": 1, ")": -1}.get(text[j], 0)
            j += 1
        out.append(_split_commas(text[m.end():j - 1]))
    return out


def analyze_region(model: FileModel, blanked: list[str],
                   region: OmpRegion) -> RegionAnalysis:
    extents = [(region.start, region.end)]
    helper_extents, helper_params, lambdas = \
        _helper_extents(model, blanked, region)
    extents += helper_extents

    ra = RegionAnalysis(region=region, extents=extents)
    ra.locals_ = set(region.induction) | set(region.privates) | helper_params

    # Declarations inside the extents are per-thread (each thread executes
    # the declaration); IR decl/loop statements carry them for both
    # frontends. The micro frontend lowers a multi-declarator statement
    # (`node u = 0, v = 0;`) to ONE decl whose initializer text hides the
    # later declarators, so parse the continuations out here — libclang
    # emits each declarator separately and lands on the same result.
    decl_inits: list[tuple[str, str]] = []
    for fn in model.functions:
        for stmt in fn.statements:
            if stmt.kind in ("decl", "loop") and \
                    _in_extents(stmt.line, extents):
                ra.locals_.add(stmt.name)
                if stmt.kind != "decl" or stmt.value is None:
                    continue
                parts = _split_commas(stmt.value.text or "")
                if parts:
                    decl_inits.append((stmt.name, parts[0]))
                for part in parts[1:]:
                    m = re.match(r"^([A-Za-z_]\w*)\s*=\s*(.*)$", part,
                                 re.DOTALL)
                    if m:
                        ra.locals_.add(m.group(1))
                        decl_inits.append((m.group(1), m.group(2)))

    lines_in_extents = [
        (ln, blanked[ln - 1])
        for a, b in extents
        for ln in range(a, min(b, len(blanked)) + 1)]
    all_text = " ".join(text for _ln, text in lines_in_extents)

    # Derived-index fixed point: start from the worksharing induction
    # variables; absorb locals initialized by a rename of a derived
    # identifier (_own_index) or by a per-thread slice cursor
    # (_slice_derived); absorb hoisted-lambda parameters when EVERY call
    # site passes a rename in that position
    # (`writeRow(static_cast<node>(sv))`).
    ra.derived = set(region.induction)
    changed = True
    while changed:
        changed = False
        for name, text in decl_inits:
            if name in ra.derived or not text:
                continue
            if _own_index(text, ra.derived) or \
                    _slice_derived(text, ra.derived, ra.locals_):
                ra.derived.add(name)
                changed = True
        for lname, plist in lambdas:
            arg_lists = _call_arg_lists(all_text, lname)
            if not arg_lists:
                continue
            for k, pname in enumerate(plist):
                if pname in ra.derived:
                    continue
                argtexts = [a[k] for a in arg_lists if k < len(a)]
                if argtexts and all(_own_index(a, ra.derived)
                                    for a in argtexts):
                    ra.derived.add(pname)
                    changed = True

    # ---- write sites (textual over the shared blanked lines) ----
    raw_writes: list[tuple[int, str, str, str]] = []
    for ln, text in lines_in_extents:
        for m in _WRITE.finditer(text):
            lhs = m.group("lhs")
            before = text[:m.start()].rstrip()
            if before and (before[-1].isalnum()
                           or before[-1] in "_>&*:"):
                # Preceded by a type (declaration-with-initializer) or part
                # of a larger expression — declarations initialize a fresh
                # per-thread object.
                ra.locals_.add(re.match(r"[A-Za-z_]\w*", lhs).group(0))
                continue
            base = re.match(r"[A-Za-z_]\w*", lhs).group(0)
            idx = ""
            brackets = re.findall(r"\[([^\[\]]*)\]", lhs)
            if brackets:
                idx = brackets[-1]
            raw_writes.append((ln, base, idx, "assign"))
        for m in _INCDEC.finditer(text):
            lv = m.group("pre") or m.group("post")
            base = re.match(r"[A-Za-z_]\w*", lv).group(0)
            br = re.findall(r"\[([^\[\]]*)\]", lv)
            raw_writes.append((ln, base, br[-1] if br else "", "incdec"))
        for m in _CALL_ON.finditer(text):
            meth = m.group("meth")
            chain = m.group("chain")
            base = re.match(r"[A-Za-z_]\w*", chain).group(0)
            if meth in PUBLISH_METHODS:
                rest = text[m.end():]
                arg = rest.split(",")[0].split(")")[0]
                raw_writes.append((ln, base, arg.strip(), "publish"))
            if ".local()" in chain or ".local ()" in chain:
                continue
            if meth in MUTATING_METHODS:
                br = re.findall(r"\[([^\[\]]*)\]", chain)
                raw_writes.append((ln, base, br[-1] if br else "", "mutate"))
            if (meth in GROWTH_METHODS or meth in ALLOC_CALLS) and \
                    base not in ra.locals_:
                ra.alloc_sites.append(
                    (ln, f"'{base}.{meth}(...)' grows a shared container"))
        if _NEW_EXPR.search(text):
            ra.alloc_sites.append((ln, "raw `new` expression"))
        for m in re.finditer(r"\b(" + "|".join(ALLOC_CALLS) + r")\s*<",
                             text):
            ra.alloc_sites.append((ln, f"'{m.group(1)}' allocation"))

    # ---- foreign-read scan per written base ----
    def has_foreign_access(base: str) -> bool:
        pat_sub = re.compile(rf"\b{re.escape(base)}\s*\[([^\[\]]*)\]")
        pat_meth = re.compile(
            rf"\b{re.escape(base)}\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
        for ln, text in lines_in_extents:
            if "single" in model.sync_lines.get(ln, set()):
                # An `omp single` block is bracketed by implicit barriers,
                # so its reads are ordered after every disjoint write.
                continue
            for m in pat_sub.finditer(text):
                if not _own_index(m.group(1), ra.derived):
                    return True
            for m in pat_meth.finditer(text):
                meth = m.group(1)
                if meth not in READ_METHODS:
                    continue
                rest = text[m.end():]
                arg = rest.split(",")[0].split(")")[0]
                if arg.strip() and not _own_index(arg, ra.derived):
                    return True
        return False

    foreign_cache: dict[str, bool] = {}

    def classify(ln: int, base: str, idx: str) -> tuple[str, str]:
        if base in ra.locals_:
            return THREAD_LOCAL_LABEL, "written object is per-thread"
        if base in region.reductions:
            return SYNCHRONIZED, "reduction clause"
        tags = model.sync_lines.get(ln, set())
        sync = tags & {"atomic", "critical", "locked", "single"}
        if sync:
            return SYNCHRONIZED, f"covered by {sorted(sync)[0]}"
        if idx:
            if _TID.search(idx):
                return THREAD_LOCAL_LABEL, "thread-id-indexed slot"
            if _own_index(idx, ra.derived):
                if base not in foreign_cache:
                    foreign_cache[base] = has_foreign_access(base)
                if not foreign_cache[base]:
                    return DISJOINT, \
                        "the iteration's own index, and the container is " \
                        "never accessed at a foreign index"
                return RACY, ("write index is the iteration's own but "
                              "the region also accesses the container at "
                              "a foreign index")
        return RACY, "unsynchronized write to shared state"

    for ln, base, idx, kind in raw_writes:
        cls, reason = classify(ln, base, idx)
        ra.writes.append(WriteSite(ln, base, idx, cls, reason, kind))
    ra.atomic_reads = _atomic_reads(model, blanked, region, extents)
    return ra


def _own_slot_read(ra: RegionAnalysis, read: AtomicRead) -> bool:
    """An atomic read that observes no other thread's write: it reads the
    iteration's own element, and the region writes that variable, only at
    the iteration's own index. (With no write in the region the analysis
    proves nothing: the writers are elsewhere.)"""
    writes = [w for w in ra.writes if w.var == read.var]
    return bool(read.index_text) and bool(writes) and \
        _own_index(read.index_text, ra.derived) and \
        all(_own_index(w.index_text, ra.derived) for w in writes)


# --------------------------------------------------------------------------
# File-level analysis
# --------------------------------------------------------------------------

@dataclass
class FileEffects:
    model: FileModel
    blanked: list[str]
    regions: list[RegionAnalysis] = field(default_factory=list)

    @property
    def key(self) -> str:
        parts = self.model.path.parts
        return "/".join(parts[-2:]) if len(parts) >= 2 else parts[-1]


def analyze_file(model: FileModel, blanked: list[str]) -> FileEffects:
    fe = FileEffects(model=model, blanked=blanked)
    for region in model.regions:
        fe.regions.append(analyze_region(model, blanked, region))
    return fe


def _annotations(model: FileModel) -> list[tuple[int, str]]:
    """(1-based line, var) for every grapr:benign-race annotation."""
    out = []
    for i, raw in enumerate(model.lines):
        m = ANNOTATION.search(raw)
        if m:
            out.append((i + 1, m.group("var")))
    return out


def _annotated(model: FileModel, line1: int, var: str) -> bool:
    """Does a benign-race annotation for var anchor this line? Mirrors
    checks.check_annotation_liveness: annotation at line i covers the next
    8 lines."""
    for aline, avar in _annotations(model):
        if avar == var and aline <= line1 <= aline + 8:
            return True
    return False


def _benign_set(fe: FileEffects) -> set[str]:
    """Validated benign races in this file, as '<dir/file>:<var>' keys:
    annotated racy writes plus annotated atomic-read stale snapshots."""
    out: set[str] = set()
    for ra in fe.regions:
        for w in ra.writes:
            if w.classification == RACY and \
                    _annotated(fe.model, w.line, w.var):
                out.add(f"{fe.key}:{w.var}")
    # Atomic-read stale-snapshot annotations (may sit outside any region in
    # this TU — e.g. volume View::read helpers called from regions in
    # another TU).
    for aline, avar in _annotations(fe.model):
        for j in range(aline, min(aline + 9, len(fe.blanked) + 1)):
            if "atomic-read" in fe.model.sync_lines.get(j, set()) and \
                    re.search(rf"\b{re.escape(avar)}\b", fe.blanked[j - 1]):
                out.add(f"{fe.key}:{avar}")
                break
    return out


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def check_shared_write_safety(fe: FileEffects,
                              allows: Allows) -> list[Finding]:
    findings: list[Finding] = []
    seen: set[tuple[int, str]] = set()
    for ra in fe.regions:
        for w in ra.writes:
            if w.classification != RACY:
                continue
            if (w.line, w.var) in seen:
                continue
            seen.add((w.line, w.var))
            if _annotated(fe.model, w.line, w.var):
                continue
            _report(findings, allows, fe.model.path, w.line,
                    "shared-write-safety",
                    f"unsynchronized write to shared '{w.var}' in a "
                    f"parallel region ({w.reason}); prove it safe or mark "
                    f"it grapr:benign-race({w.var}) with the tolerance "
                    "argument")
        # An atomic read the region executes — in its block or in a helper
        # it calls — is a stale snapshot of state other threads update,
        # unless it provably reads the iteration's own slot; the
        # annotation names what it reads.
        for read in ra.atomic_reads:
            first, last = read.line, read.last
            if (first, "atomic-read") in seen or _own_slot_read(ra, read):
                continue
            seen.add((first, "atomic-read"))
            if not any(aline <= j <= aline + 8 and re.search(
                    rf"\b{re.escape(avar)}\b", fe.blanked[j - 1])
                    for aline, avar in _annotations(fe.model)
                    for j in range(first, last + 1)):
                _report(findings, allows, fe.model.path, first,
                        "shared-write-safety",
                        "omp atomic read of concurrently-updated state "
                        "takes a stale snapshot by design; mark it "
                        "grapr:benign-race(<var>) with the tolerance "
                        "argument")
    return findings


def check_benign_race_validity(fe: FileEffects,
                               allows: Allows) -> list[Finding]:
    """An annotation whose anchored write the analysis proves synchronized,
    disjoint or thread-local is stale — the race it excuses no longer
    exists."""
    findings: list[Finding] = []
    for aline, avar in _annotations(fe.model):
        anchored = [
            w for ra in fe.regions for w in ra.writes
            if w.var == avar and aline <= w.line <= aline + 8]
        if not anchored:
            continue
        if any(w.classification == RACY for w in anchored):
            continue
        # All anchored writes are proven safe. An atomic-read stale
        # snapshot in the same window still justifies the annotation
        # (the benign race is the read, not the write).
        stale_read = any(
            "atomic-read" in fe.model.sync_lines.get(j, set())
            and re.search(rf"\b{re.escape(avar)}\b", fe.blanked[j - 1])
            for j in range(aline, min(aline + 9, len(fe.blanked) + 1)))
        if stale_read:
            continue
        w = anchored[0]
        _report(findings, allows, fe.model.path, aline,
                "benign-race-validity",
                f"stale grapr:benign-race({avar}): the annotated write at "
                f"line {w.line} is proven {w.classification} "
                f"({w.reason}) — the race no longer exists; delete the "
                "annotation and its manifest row")
    return findings


def check_region_alloc(fe: FileEffects, allows: Allows) -> list[Finding]:
    parts = set(fe.model.path.parts)
    in_scope = bool(parts & REGION_ALLOC_DIRS) or any(
        "grapr:region-alloc-scope" in ln for ln in fe.model.lines)
    if not in_scope:
        return []
    findings: list[Finding] = []
    seen: set[int] = set()
    for ra in fe.regions:
        for line, what in ra.alloc_sites:
            if line in seen:
                continue
            seen.add(line)
            _report(findings, allows, fe.model.path, line, "region-alloc",
                    f"{what} inside a parallel region — route per-thread "
                    "buffers through ThreadLocalPool / a region-local "
                    "declaration instead of allocating on the hot path")
    return findings


def check_fault_point_in_parallel(fe: FileEffects, esum: EffectSummary,
                                  allows: Allows) -> list[Finding]:
    findings: list[Finding] = []
    stripped = strip_comments(fe.model.lines)
    seen: set[int] = set()
    for ra in fe.regions:
        for a, b in ra.extents:
            for ln in range(a, min(b, len(stripped)) + 1):
                if FAULT_SITE.search(stripped[ln - 1]) and ln not in seen:
                    seen.add(ln)
                    _report(findings, allows, fe.model.path, ln,
                            "fault-point-in-parallel",
                            "GRAPR_FAULT_POINT inside a parallel region: "
                            "a fault fired here kills or throws on an "
                            "arbitrary worker thread mid-team")
        for fn in fe.model.functions:
            for stmt in fn.statements:
                if not _in_extents(stmt.line, ra.extents) \
                        or stmt.line in seen:
                    continue
                reached = [n for n in _call_names(stmt) if n in esum.fault]
                if reached:
                    seen.add(stmt.line)
                    _report(findings, allows, fe.model.path, stmt.line,
                            "fault-point-in-parallel",
                            f"'{reached[0]}' is called from a parallel "
                            "region and reaches a GRAPR_FAULT_POINT "
                            "(cross-TU call chain): a fault fired here "
                            "kills or throws on an arbitrary worker "
                            "thread mid-team")
    return findings


# --------------------------------------------------------------------------
# benign-race-manifest
# --------------------------------------------------------------------------

_ROW = re.compile(
    r"^(?P<key>\S+:\w+)\s+tsan=(?P<tsan>\S+)\s+runtime=(?P<rt>\S+)$")
# The pattern may contain spaces ('infra operator delete'); it matches a
# suppression entry's after-colon text.
_INFRA = re.compile(r"^infra\s+(?P<pat>\S.*?)\s*$")


def parse_manifest(path: Path):
    """Returns (rows: dict key -> (line, tsan set, runtime set),
    infra: dict pattern -> line). `-` means an empty set."""
    rows: dict[str, tuple[int, set[str], set[str]]] = {}
    infra: dict[str, int] = {}
    errors: list[tuple[int, str]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        m = _INFRA.match(text)
        if m:
            infra.setdefault(m.group("pat"), lineno)
            continue
        m = _ROW.match(text)
        if not m:
            errors.append((lineno, text))
            continue
        tsan = set() if m.group("tsan") == "-" else \
            set(m.group("tsan").split(","))
        rt = set() if m.group("rt") == "-" else set(m.group("rt").split(","))
        rows.setdefault(m.group("key"), (lineno, tsan, rt))
    return rows, infra, errors


def check_benign_race_manifest(file_effects: list[tuple[FileEffects, Allows]],
                               manifest: Path | None,
                               tsan_supp: Path | None) -> list[Finding]:
    findings: list[Finding] = []
    if manifest is None:
        return findings
    if not manifest.exists():
        findings.append(Finding(
            manifest, 1, "benign-race-manifest",
            f"benign-race manifest {manifest} is missing (pass "
            "--benign-manifest '' to disable the cross-check)"))
        return findings

    rows, infra, errors = parse_manifest(manifest)
    for lineno, text in errors:
        findings.append(Finding(
            manifest, lineno, "benign-race-manifest",
            f"unparseable manifest row '{text}' — expected "
            "'<dir/file>:<var> tsan=<list|-> runtime=<list|->' or "
            "'infra <pattern>'"))

    static_set: dict[str, tuple[Path, int]] = {}
    for fe, _allows in file_effects:
        for key in _benign_set(fe):
            var = key.rsplit(":", 1)[1]
            line = next((l for l, v in _annotations(fe.model) if v == var),
                        1)
            static_set.setdefault(key, (fe.model.path, line))

    # Direction 1: every validated benign race has a manifest row.
    for key, (path, line) in sorted(static_set.items()):
        if key not in rows:
            findings.append(Finding(
                path, line, "benign-race-manifest",
                f"benign race '{key}' is not listed in {manifest.name} — "
                "add a row so the runtime trace and TSan suppressions are "
                "held to it"))
    # Direction 2: every manifest row names a validated benign race.
    for key, (lineno, _t, _r) in sorted(rows.items(),
                                        key=lambda kv: kv[1][0]):
        if key not in static_set:
            findings.append(Finding(
                manifest, lineno, "benign-race-manifest",
                f"manifest row '{key}' matches no validated "
                "grapr:benign-race annotation in the analyzed sources — "
                "remove the row or restore the annotation"))

    # tsan.supp <-> manifest mapping, both ways.
    if tsan_supp is not None and tsan_supp.exists():
        supp_entries: dict[str, int] = {}
        for lineno, raw in enumerate(tsan_supp.read_text().splitlines(),
                                     start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            supp_entries.setdefault(text, lineno)
        mapped: set[str] = set(infra)
        for _key, (_l, tsan, _r) in rows.items():
            mapped |= tsan
        for entry, lineno in sorted(supp_entries.items(),
                                    key=lambda kv: kv[1]):
            pattern = entry.split(":", 1)[1] if ":" in entry else entry
            if entry in mapped or pattern in mapped:
                continue
            findings.append(Finding(
                tsan_supp, lineno, "benign-race-manifest",
                f"tsan.supp entry '{entry}' maps to no row in "
                f"{manifest.name} — tie it to the benign race it excuses "
                "(tsan=...) or declare it 'infra <pattern>'"))
        supp_patterns = {e.split(":", 1)[1] if ":" in e else e
                         for e in supp_entries} | set(supp_entries)
        for _key, (lineno, tsan, _r) in sorted(rows.items(),
                                               key=lambda kv: kv[1][0]):
            for tok in sorted(tsan):
                if tok not in supp_patterns:
                    findings.append(Finding(
                        manifest, lineno, "benign-race-manifest",
                        f"manifest tsan token '{tok}' matches no entry in "
                        f"{tsan_supp.name} — remove it or restore the "
                        "suppression"))
        for pat, lineno in sorted(infra.items(), key=lambda kv: kv[1]):
            if pat not in supp_patterns:
                findings.append(Finding(
                    manifest, lineno, "benign-race-manifest",
                    f"infra pattern '{pat}' matches no entry in "
                    f"{tsan_supp.name} — remove it"))

    # runtime= names <-> GRAPR_RACE_BENIGN_SITE instrumentation, both ways.
    site_names: dict[str, tuple[Path, int]] = {}
    for fe, _allows in file_effects:
        stripped = strip_comments(fe.model.lines)
        for lineno, text in enumerate(stripped, start=1):
            for m in _RUNTIME_SITE.finditer(text):
                site_names.setdefault(m.group("name"),
                                      (fe.model.path, lineno))
    manifest_rt: dict[str, int] = {}
    for _key, (lineno, _t, rt) in rows.items():
        for name in rt:
            manifest_rt.setdefault(name, lineno)
    for name, (path, lineno) in sorted(site_names.items()):
        if name not in manifest_rt:
            findings.append(Finding(
                path, lineno, "benign-race-manifest",
                f"GRAPR_RACE_BENIGN_SITE(\"{name}\") is not named by any "
                f"runtime= list in {manifest.name} — the race-check "
                "harness cannot hold the trace to it"))
    for name, lineno in sorted(manifest_rt.items(), key=lambda kv: kv[1]):
        if name not in site_names:
            findings.append(Finding(
                manifest, lineno, "benign-race-manifest",
                f"runtime site '{name}' matches no "
                "GRAPR_RACE_BENIGN_SITE in the analyzed sources — remove "
                "it or restore the instrumentation"))
    return findings


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def run_effects_checks(pairs, fixture_mode: bool,
                       manifest: Path | None,
                       tsan_supp: Path | None,
                       explicit_manifest: bool = False) -> list[Finding]:
    """pairs: (FileModel, blanked lines, Allows) triples. In fixture mode
    the manifest cross-check only runs when the manifest was passed
    explicitly (the manifest_gap fixture does exactly that)."""
    esum = build_effect_summary(pairs)
    findings: list[Finding] = []
    file_effects: list[tuple[FileEffects, Allows]] = []
    for model, blanked, allows in pairs:
        fe = analyze_file(model, blanked)
        file_effects.append((fe, allows))
        findings += check_shared_write_safety(fe, allows)
        findings += check_benign_race_validity(fe, allows)
        findings += check_region_alloc(fe, allows)
        findings += check_fault_point_in_parallel(fe, esum, allows)
    if not fixture_mode or explicit_manifest:
        findings += check_benign_race_manifest(
            file_effects, manifest, tsan_supp)
    return findings
