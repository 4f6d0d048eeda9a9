"""Bundled fallback frontend: a C++ lexer + statement-level extractor.

This frontend exists so `grapr_analyze` runs everywhere ctest runs — the
canonical frontend is libclang (frontend_clang.py), but libclang is not
part of the base toolchain image, and the analyzer's fixture tests must
not silently skip. The micro frontend is NOT a C++ parser: it blanks
comments/strings, walks braces/parens to recover scopes and statements,
and lowers each statement with a handful of declarator/assignment/call
regexes into the same IR the clang frontend produces. That is precise
enough for the three checks (they reason about declared local types,
method calls on named receivers, and statement order), and the must-fail
fixtures pin the behaviour both frontends must agree on.

Known, accepted imprecision (documented here so nobody "fixes" the
checks around it): expressions attribute to the first line of their
statement; brace initializers parse as nested blocks; `a * b;` as an
expression statement reads as a declaration (the same ambiguity C++
itself has without symbol tables).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from model import (ExprInfo, FileModel, FunctionModel, NARROW_INT_TYPES,
                   FLOAT_NARROW_TYPES, Stmt, blank_with_spans, directives,
                   extract_omp)

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "else", "do",
    "constexpr", "sizeof", "alignof", "decltype", "noexcept", "new",
    "delete", "throw", "case", "default", "goto", "try", "static_assert",
    "requires", "alignas",
}

CPP_KEYWORDS = CONTROL_KEYWORDS | {
    "const", "static", "inline", "auto", "void", "bool", "true", "false",
    "int", "unsigned", "signed", "long", "short", "char", "float", "double",
    "class", "struct", "enum", "union", "namespace", "using", "typedef",
    "template", "typename", "public", "private", "protected", "virtual",
    "override", "final", "friend", "operator", "this", "nullptr", "break",
    "continue", "mutable", "thread_local", "explicit", "export", "extern",
    "volatile", "and", "or", "not", "co_await", "co_return", "co_yield",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
}

_BUILTIN = r"(?:unsigned|signed|long|short|int|char|bool|float|double|auto)"
_NAMED = r"[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*(?:<[^<>;={}]*(?:<[^<>]*>[^<>;={}]*)*>)?"
_TYPE = (r"(?:(?:const|constexpr|static|inline|mutable|thread_local)\s+)*"
         rf"(?:{_BUILTIN}(?:\s+{_BUILTIN})*|{_NAMED})"
         r"(?:\s+const)?")

DECL_RE = re.compile(
    rf"^(?P<type>{_TYPE})\s*(?P<ref>[&*]*)\s*(?P<name>[A-Za-z_]\w*)\s*"
    r"(?P<init>=\s*[^=].*|\(.*\))?$", re.DOTALL)

ASSIGN_RE = re.compile(
    r"^(?P<lhs>[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*|\[[^\[\]]*\])*)\s*"
    r"(?P<op>=|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=)(?!=)\s*(?P<rhs>.*)$",
    re.DOTALL)

METHOD_CALL_RE = re.compile(
    r"(?P<recv>[A-Za-z_]\w*)\s*(?:\.|->)\s*(?P<meth>[A-Za-z_]\w*)\s*\(")
FREE_CALL_RE = re.compile(
    r"(?<![\w.:>])(?P<name>(?:::)?(?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\(")

_NARROW_PAT = "|".join(
    sorted((NARROW_INT_TYPES | FLOAT_NARROW_TYPES), key=len, reverse=True))
C_CAST_RE = re.compile(
    rf"\(\s*(?P<type>{_NARROW_PAT})\s*\)\s*(?=[A-Za-z_(])")
FUNC_CAST_RE = re.compile(
    rf"(?<![\w.:>])(?P<type>{_NARROW_PAT})\s*\(")

FUNC_NAME_RE = re.compile(
    r"(?P<name>~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*"
    r"|operator\s*[^\s(]+)\s*\($")
CLASS_RE = re.compile(r"\b(?:class|struct)\s+(?P<name>[A-Za-z_]\w*)")
NAMESPACE_RE = re.compile(r"^namespace(?:\s+(?P<name>[A-Za-z_]\w*))?\s*$")


def expr_info(text: str) -> ExprInfo:
    info = ExprInfo(text=text)
    info.idents = {w for w in re.findall(r"[A-Za-z_]\w*", text)
                   if w not in CPP_KEYWORDS}
    for m in METHOD_CALL_RE.finditer(text):
        info.calls.append((m.group("recv"), m.group("meth")))
    method_names = {meth for _, meth in info.calls}
    for m in FREE_CALL_RE.finditer(text):
        name = m.group("name").split("::")[-1]
        if name in CPP_KEYWORDS or name in method_names:
            continue
        info.calls.append(("", name))
    return info


def _split_top(text: str, sep: str) -> list[str]:
    """Split on `sep` at angle/paren/bracket depth zero."""
    parts, depth, last = [], 0, 0
    for i, c in enumerate(text):
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth = max(0, depth - 1)
        elif c == sep and depth == 0:
            parts.append(text[last:i])
            last = i + 1
    parts.append(text[last:])
    return parts


def parse_params(text: str) -> list[tuple[str, str]]:
    params: list[tuple[str, str]] = []
    for raw in _split_top(text, ","):
        p = _split_top(raw, "=")[0].strip()  # drop default argument
        if not p or p == "void":
            continue
        idents = re.findall(r"[A-Za-z_]\w*", p)
        if not idents:
            continue
        name = idents[-1]
        cut = p.rfind(name)
        ptype = p[:cut].strip()
        if not ptype:               # unnamed param: only the type was given
            ptype, name = p, ""
        params.append((ptype, name))
    return params


def _balanced_paren_group(text: str, open_pos: int) -> str:
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_pos + 1:i]
    return text[open_pos + 1:]


def call_args(text: str, open_pos: int) -> list[str]:
    """Top-level arguments of the call whose '(' is at open_pos; only
    plain-identifier args are kept (that is all the summary pass needs)."""
    inner = _balanced_paren_group(text, open_pos)
    args = []
    for part in _split_top(inner, ","):
        part = part.strip()
        args.append(part if re.fullmatch(r"[A-Za-z_]\w*", part) else "")
    return args


@dataclass
class _Scope:
    kind: str           # namespace | class | function | block
    name: str = ""
    fn: FunctionModel | None = None


@dataclass
class MicroFrontend:
    name: str = "micro"

    def lower(self, path: Path, lines: list[str]) -> FileModel:
        model = FileModel(path=path, lines=lines, frontend=self.name)
        code, spans = blank_with_spans(lines)

        # Flatten the non-preprocessor lines into one buffer with a
        # char-offset -> line-number map; preprocessor lines (joined as
        # model.directives() joins them) are opaque to the segmenter but
        # still counted for has_omp below.
        pp_lines = {j for first0, last0, _ in directives(code, spans)
                    for j in range(first0 + 1, last0 + 2)}
        flat_chars: list[str] = []
        linemap: list[int] = []
        for lineno, line in enumerate(code, start=1):
            if lineno in pp_lines:
                continue
            for c in line:
                flat_chars.append(c)
                linemap.append(lineno)
            flat_chars.append(" ")
            linemap.append(lineno)
        flat = "".join(flat_chars)

        scopes: list[_Scope] = []
        current_fn: FunctionModel | None = None
        paren_stack: list[bool] = []   # True = `for(` header parens
        seg_start = 0

        def current_chunk(end: int) -> tuple[str, int]:
            raw = flat[seg_start:end]
            text = re.sub(r"\s+", " ", raw).strip()
            offset = seg_start + (len(raw) - len(raw.lstrip()))
            line = linemap[min(offset, len(linemap) - 1)] if linemap else 1
            return text, line

        def lower_into_fn(end: int) -> tuple[str, int]:
            text, line = current_chunk(end)
            if text and current_fn is not None:
                self._lower_chunk(text, line, current_fn)
            return text, line

        i, n = 0, len(flat)
        while i < n:
            c = flat[i]
            if c == "(":
                paren_stack.append(
                    bool(re.search(r"\bfor\s*$", flat[seg_start:i])))
            elif c == ")":
                if paren_stack:
                    paren_stack.pop()
            elif c == ";" and not any(paren_stack):
                lower_into_fn(i)
                seg_start = i + 1
            elif c == "{":
                header, line = current_chunk(i)
                scope = self._classify_header(
                    header, line, scopes, current_fn, model)
                if scope.kind == "function":
                    current_fn = scope.fn
                    model.functions.append(scope.fn)
                elif current_fn is not None and header:
                    # Control header (`if (...)`, `for (...)`, lambda
                    # intro, ...) — lower it as a statement of the
                    # enclosing function before entering the block.
                    self._lower_chunk(
                        re.sub(r"\s+", " ", header).strip(),
                        line, current_fn)
                scopes.append(scope)
                seg_start = i + 1
            elif c == "}":
                lower_into_fn(i)
                if scopes:
                    closed = scopes.pop()
                    if closed.kind == "function" and closed.fn is not None:
                        closed.fn.end_line = linemap[i]
                        current_fn = next(
                            (s.fn for s in reversed(scopes)
                             if s.kind == "function"), None)
                seg_start = i + 1
            i += 1

        for fn in model.functions:
            body = lines[fn.start_line - 1:fn.end_line]
            fn.has_omp = any("#pragma" in ln and "omp" in ln for ln in body)
            model.defined_symbols.add(fn.qualname)
            model.defined_symbols.add(fn.name)
        # OpenMP facts come from the shared textual extractor: pragma lines
        # are invisible to the statement segmenter above (preprocessor skip),
        # so region extents, clauses and atomic/critical coverage would
        # otherwise be lost here and disagree with the clang frontend.
        model.regions, model.sync_lines = extract_omp(code, spans)
        return model

    def _classify_header(self, header: str, line: int,
                         scopes: list[_Scope],
                         current_fn: FunctionModel | None,
                         model: FileModel) -> _Scope:
        header = re.sub(r"\[\[[^\]]*\]\]", " ", header)
        header = re.sub(r"\s+", " ", header).strip()
        m = NAMESPACE_RE.match(header)
        if m:
            if m.group("name"):
                # Namespaces join the defined-scope universe so that
                # suppression patterns like grapr::Parallel::prefixSum
                # resolve whether Parallel is a class or a namespace.
                model.defined_classes.add(m.group("name"))
            return _Scope("namespace", m.group("name") or "")
        m = CLASS_RE.search(header)
        if m and "(" not in header.split(m.group("name"))[0]:
            model.defined_classes.add(m.group("name"))
            return _Scope("class", m.group("name"))
        if current_fn is None and "(" in header and ")" in header:
            open_pos = header.find("(")
            m = FUNC_NAME_RE.search(header[:open_pos + 1])
            if m:
                name = re.sub(r"\s+", "", m.group("name"))
                last = name.split("::")[-1]
                if last not in CONTROL_KEYWORDS and \
                        not header.startswith(("if ", "for ", "while ",
                                               "switch ", "catch ")):
                    qual = [s.name for s in scopes
                            if s.kind in ("namespace", "class") and s.name]
                    if "::" in name:
                        qual += name.split("::")[:-1]
                    fn = FunctionModel(
                        name=last,
                        qualname="::".join(qual + [last]),
                        start_line=line, end_line=line,
                        params=parse_params(
                            _balanced_paren_group(header, open_pos)))
                    return _Scope("function", last, fn)
        return _Scope("block")

    # -- statement lowering -------------------------------------------------

    def _lower_chunk(self, text: str, line: int, fn: FunctionModel) -> None:
        while True:
            stripped = re.sub(r"^(?:else|do|try)\b\s*", "", text)
            if stripped == text:
                break
            text = stripped
        if not text or not re.search(r"[A-Za-z_]", text):
            return

        self._emit_calls(text, line, fn)
        self._emit_casts(text, line, fn)

        m = re.match(r"^(?P<kw>for|if|while|switch)\s*\(", text)
        if m:
            inner = _balanced_paren_group(text, m.end() - 1)
            rest = text[m.end() + len(inner) + 1:].strip()
            if m.group("kw") == "for":
                self._lower_for(inner, line, fn)
            else:
                fn.statements.append(Stmt("use", line,
                                          value=expr_info(inner)))
            if rest:
                # Braceless body (`for (...) stmt;`): lower the trailing
                # statement separately so it never bleeds into the bound.
                self._lower_chunk(rest, line, fn)
            return
        if text.startswith("return"):
            fn.statements.append(
                Stmt("use", line, value=expr_info(text[len("return"):])))
            return

        m = DECL_RE.match(text)
        if m and m.group("name") not in CPP_KEYWORDS and \
                m.group("type") not in CONTROL_KEYWORDS and \
                m.group("type") not in ("using", "namespace"):
            init = (m.group("init") or "").lstrip("= ").strip()
            if init.startswith("(") and init.endswith(")"):
                init = init[1:-1]
            fn.statements.append(Stmt(
                "decl", line, name=m.group("name"),
                declared_type=m.group("type"),
                value=expr_info(init) if init else None))
            return
        m = ASSIGN_RE.match(text)
        if m:
            base = re.match(r"[A-Za-z_]\w*", m.group("lhs")).group(0)
            fn.statements.append(Stmt(
                "assign", line, name=base, op=m.group("op"),
                value=expr_info(m.group("rhs"))))
            return
        fn.statements.append(Stmt("use", line, value=expr_info(text)))

    def _lower_for(self, inner: str, line: int, fn: FunctionModel) -> None:
        colon = _split_top(inner, ":")
        if len(colon) == 2 and "?" not in inner:
            decl = colon[0].strip()
            m = DECL_RE.match(decl) or re.match(
                rf"^(?P<type>{_TYPE})\s*(?P<ref>[&*]*)\s*"
                r"(?P<name>[A-Za-z_]\w*)$", decl)
            if m:
                fn.statements.append(Stmt(
                    "loop", line, name=m.group("name"),
                    declared_type=m.group("type"),
                    value=expr_info(colon[1])))
                return
            fn.statements.append(Stmt("use", line, value=expr_info(inner)))
            return
        parts = _split_top(inner, ";")
        init = parts[0].strip() if parts else ""
        rest = ";".join(parts[1:])
        m = DECL_RE.match(init)
        if m and m.group("name") not in CPP_KEYWORDS:
            bound = (m.group("init") or "").lstrip("= ") + " ; " + rest
            fn.statements.append(Stmt(
                "loop", line, name=m.group("name"),
                declared_type=m.group("type"), value=expr_info(bound)))
        else:
            fn.statements.append(Stmt("use", line, value=expr_info(inner)))

    def _emit_calls(self, text: str, line: int, fn: FunctionModel) -> None:
        seen_methods = set()
        for m in METHOD_CALL_RE.finditer(text):
            seen_methods.add(m.group("meth"))
            fn.statements.append(Stmt(
                "call", line, recv=m.group("recv"), method=m.group("meth"),
                args=call_args(text, m.end() - 1),
                value=expr_info(_balanced_paren_group(text, m.end() - 1))))
        for m in FREE_CALL_RE.finditer(text):
            name = m.group("name").split("::")[-1]
            if name in CPP_KEYWORDS or name in seen_methods:
                continue
            if name in NARROW_INT_TYPES or name in FLOAT_NARROW_TYPES:
                continue   # functional cast, handled by _emit_casts
            fn.statements.append(Stmt(
                "call", line, recv="", method=name,
                args=call_args(text, m.end() - 1),
                value=expr_info(_balanced_paren_group(text, m.end() - 1))))

    def _emit_casts(self, text: str, line: int, fn: FunctionModel) -> None:
        for m in C_CAST_RE.finditer(text):
            rest = text[m.end():]
            if rest.startswith("("):
                operand = _balanced_paren_group(rest, 0)
            else:
                om = re.match(
                    r"[A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*"
                    r"(?:\([^()]*\))?(?:\[[^\[\]]*\])?", rest)
                operand = om.group(0) if om else rest[:40]
            fn.statements.append(Stmt(
                "cast", line, declared_type=m.group("type"), style="c",
                value=expr_info(operand)))
        for m in FUNC_CAST_RE.finditer(text):
            fn.statements.append(Stmt(
                "cast", line, declared_type=m.group("type"),
                style="functional",
                value=expr_info(_balanced_paren_group(text, m.end() - 1))))
