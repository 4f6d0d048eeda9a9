"""libclang (clang.cindex) frontend: the canonical AST lowering.

Used when the `clang` python package and a matching libclang shared
library are importable (the CI analyze job pins both); ctest environments
without libclang fall back to frontend_micro. Both frontends lower to the
same IR (model.py), and the must-fail fixtures pin the shared behaviour.

The lowering is deliberately shallow: the checks reason about declared
local types, statement order, and calls on named receivers — so this
walker flattens each function body into Stmt facts rather than preserving
the tree. Implicit-conversion *detection* stays in checks.py (domain
tables over declared types), identical for both frontends, so a finding
never depends on which frontend produced it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from model import (ExprInfo, FileModel, FunctionModel, Stmt,
                   blank_with_spans, extract_omp)

try:
    from clang import cindex
    _CINDEX_IMPORT_ERROR = None
except Exception as e:  # pragma: no cover - exercised only without clang
    cindex = None
    _CINDEX_IMPORT_ERROR = e


def available() -> bool:
    """True if clang.cindex imports AND a libclang library actually loads
    (the package can be installed without the shared library)."""
    if cindex is None:
        return False
    try:
        cindex.Index.create()
        return True
    except Exception:
        return False


def _compile_args(compile_commands: Path | None,
                  src_root: Path) -> dict[str, list[str]]:
    """file -> clang args from compile_commands.json, with -c/-o and the
    input file stripped; headers get a fallback of ['-I<src_root>']."""
    table: dict[str, list[str]] = {}
    if compile_commands and compile_commands.exists():
        for entry in json.loads(compile_commands.read_text()):
            args = entry.get("arguments")
            if not args:
                args = entry.get("command", "").split()
            cleaned: list[str] = []
            skip = False
            for a in args[1:]:
                if skip:
                    skip = False
                    continue
                if a in ("-c", entry["file"]):
                    continue
                if a == "-o":
                    skip = True
                    continue
                cleaned.append(a)
            f = Path(entry["file"])
            if not f.is_absolute():
                f = Path(entry["directory"]) / f
            table[str(f.resolve())] = cleaned
    table.setdefault("", ["-std=c++20", f"-I{src_root}"])
    return table


class ClangFrontend:
    name = "clang"

    def __init__(self, compile_commands: Path | None, src_root: Path):
        self.index = cindex.Index.create()
        self.args = _compile_args(compile_commands, src_root)
        self.fallback = ["-std=c++20", f"-I{src_root}", "-fopenmp"]
        # Not present in every libclang binding version.
        self.functional_cast = getattr(
            cindex.CursorKind, "FUNCTIONAL_CAST_EXPR", None)

    def lower(self, path: Path, lines: list[str]) -> FileModel:
        model = FileModel(path=path, lines=lines, frontend=self.name)
        args = self.args.get(str(path.resolve()), self.fallback)
        tu = self.index.parse(
            str(path), args=args,
            options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
        target = str(path.resolve())
        for cursor in tu.cursor.walk_preorder():
            loc = cursor.location
            if loc.file is None or str(Path(str(loc.file)).resolve()) != target:
                continue
            kind = cursor.kind
            if kind in (cindex.CursorKind.CLASS_DECL,
                        cindex.CursorKind.STRUCT_DECL,
                        cindex.CursorKind.CLASS_TEMPLATE,
                        cindex.CursorKind.NAMESPACE):
                if cursor.spelling:
                    model.defined_classes.add(cursor.spelling)
            if kind in (cindex.CursorKind.FUNCTION_DECL,
                        cindex.CursorKind.CXX_METHOD,
                        cindex.CursorKind.CONSTRUCTOR,
                        cindex.CursorKind.DESTRUCTOR,
                        cindex.CursorKind.FUNCTION_TEMPLATE) \
                    and cursor.is_definition():
                fn = self._lower_function(cursor, lines)
                if fn is not None:
                    model.functions.append(fn)
                    model.defined_symbols.add(fn.qualname)
                    model.defined_symbols.add(fn.name)
        # OpenMP facts (region extents, clauses, atomic/critical/lock
        # coverage) come from the same textual extractor the micro frontend
        # uses — libclang's OpenMP cursor support varies by version, and the
        # parallel-effects pass must classify identically under both
        # frontends.
        model.regions, model.sync_lines = extract_omp(
            *blank_with_spans(lines))
        return model

    # ------------------------------------------------------------------

    def _qualname(self, cursor) -> str:
        parts = [cursor.spelling]
        parent = cursor.semantic_parent
        while parent is not None and parent.kind not in (
                cindex.CursorKind.TRANSLATION_UNIT,):
            if parent.spelling:
                parts.append(parent.spelling)
            parent = parent.semantic_parent
        return "::".join(reversed(parts))

    def _lower_function(self, cursor, lines: list[str]):
        extent = cursor.extent
        start, end = extent.start.line, extent.end.line
        fn = FunctionModel(
            name=cursor.spelling or "<anon>",
            qualname=self._qualname(cursor),
            start_line=start, end_line=end)
        for arg in cursor.get_arguments():
            fn.params.append((arg.type.spelling, arg.spelling))
        body = None
        for child in cursor.get_children():
            if child.kind == cindex.CursorKind.COMPOUND_STMT:
                body = child
        if body is None:
            return None
        for node in body.walk_preorder():
            self._lower_node(node, fn)
        fn.has_omp = any(
            "#pragma" in ln and "omp" in ln
            for ln in lines[start - 1:min(end, len(lines))])
        return fn

    def _expr_info(self, node) -> ExprInfo:
        info = ExprInfo(text=self._spelling(node))
        for sub in node.walk_preorder():
            if sub.kind == cindex.CursorKind.DECL_REF_EXPR and sub.spelling:
                info.idents.add(sub.spelling)
            elif sub.kind == cindex.CursorKind.MEMBER_REF_EXPR and \
                    sub.spelling:
                info.idents.add(sub.spelling)
            elif sub.kind == cindex.CursorKind.CALL_EXPR and sub.spelling:
                info.calls.append((self._receiver(sub), sub.spelling))
        return info

    def _spelling(self, node) -> str:
        try:
            return " ".join(t.spelling for t in node.get_tokens())[:200]
        except Exception:
            return ""

    def _receiver(self, call) -> str:
        """Best-effort receiver name of a member call: the first
        DECL_REF/MEMBER_REF in the callee subexpression."""
        children = list(call.get_children())
        if not children:
            return ""
        for sub in children[0].walk_preorder():
            if sub.kind in (cindex.CursorKind.DECL_REF_EXPR,
                            cindex.CursorKind.MEMBER_REF_EXPR):
                return sub.spelling
        return ""

    def _lower_node(self, node, fn: FunctionModel) -> None:
        k = node.kind
        line = node.location.line
        if k == cindex.CursorKind.VAR_DECL:
            init = None
            for child in node.get_children():
                if child.kind.is_expression():
                    init = self._expr_info(child)
            parent_kind = "decl"
            fn.statements.append(Stmt(
                parent_kind, line, name=node.spelling,
                declared_type=node.type.spelling, value=init))
        elif k == cindex.CursorKind.CALL_EXPR and node.spelling:
            args = []
            children = list(node.get_children())
            arg_nodes = children[1:] if children else []
            for a in arg_nodes:
                ident = ""
                refs = [s.spelling for s in a.walk_preorder()
                        if s.kind == cindex.CursorKind.DECL_REF_EXPR]
                if len(refs) == 1:
                    ident = refs[0]
                args.append(ident)
            fn.statements.append(Stmt(
                "call", line, recv=self._receiver(node),
                method=node.spelling, args=args,
                value=self._expr_info(node)))
        elif k in (cindex.CursorKind.BINARY_OPERATOR,
                   cindex.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR):
            children = list(node.get_children())
            if len(children) == 2:
                op = self._binary_op(node)
                if op and (op == "=" or op.endswith("=")) and \
                        not op.startswith(("==", "!=", "<=", ">=")):
                    lhs_refs = [s.spelling for s in children[0].walk_preorder()
                                if s.kind in (
                                    cindex.CursorKind.DECL_REF_EXPR,
                                    cindex.CursorKind.MEMBER_REF_EXPR)]
                    if lhs_refs:
                        fn.statements.append(Stmt(
                            "assign", line, name=lhs_refs[0], op=op,
                            value=self._expr_info(children[1])))
        elif k == cindex.CursorKind.CSTYLE_CAST_EXPR:
            children = list(node.get_children())
            if children:
                fn.statements.append(Stmt(
                    "cast", line, declared_type=node.type.spelling,
                    style="c", value=self._expr_info(children[-1])))
        elif self.functional_cast is not None and k == self.functional_cast:
            children = list(node.get_children())
            if children:
                fn.statements.append(Stmt(
                    "cast", line, declared_type=node.type.spelling,
                    style="functional", value=self._expr_info(children[-1])))
        elif k == cindex.CursorKind.FOR_STMT:
            children = list(node.get_children())
            if children and children[0].kind == cindex.CursorKind.DECL_STMT:
                var = next((c for c in children[0].get_children()
                            if c.kind == cindex.CursorKind.VAR_DECL), None)
                if var is not None and len(children) >= 2:
                    fn.statements.append(Stmt(
                        "loop", line, name=var.spelling,
                        declared_type=var.type.spelling,
                        value=self._expr_info(children[1])))
        elif k == cindex.CursorKind.CXX_FOR_RANGE_STMT:
            children = list(node.get_children())
            var = next((c for c in children
                        if c.kind == cindex.CursorKind.VAR_DECL), None)
            if var is not None and len(children) >= 2:
                fn.statements.append(Stmt(
                    "loop", line, name=var.spelling,
                    declared_type=var.type.spelling,
                    value=self._expr_info(children[-1])))

    def _binary_op(self, node) -> str:
        try:
            tokens = list(node.get_tokens())
        except Exception:
            return ""
        children = list(node.get_children())
        if not children:
            return ""
        lhs_end = children[0].extent.end.offset
        for t in tokens:
            if t.extent.start.offset >= lhs_end and re.fullmatch(
                    r"[=+\-*/%|&^<>]{0,2}=", t.spelling):
                return t.spelling
        return ""
