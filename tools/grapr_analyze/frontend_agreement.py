#!/usr/bin/env python3
"""Dual-frontend agreement gate for the parallel-effects pass.

Lowers each input file with BOTH the bundled micro frontend and the
libclang frontend, runs the effects analysis on each lowering, and
asserts the results are IDENTICAL: same parallel regions (pragma line,
block extent), same per-write (line, var, classification) triples, and
same allocation sites. The OpenMP region map comes from the shared
textual extractor in model.py, so agreement holds by construction — this
gate pins that invariant so a frontend change cannot silently fork the
contract the two CI legs enforce (clang in the analyze job, micro in
ctest).

`--expect-pragmas N` additionally asserts the file contains exactly N
`#pragma omp` directives — a tripwire that the exemplar input still
exercises the full pragma surface (atomic, critical, single, combined
clauses) the frontends must agree on.

Exit codes: 0 agreement, 1 disagreement or wrong pragma count,
2 bad invocation, 77 libclang unavailable (ctest SKIP_RETURN_CODE).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import effects                                   # noqa: E402
import frontend_clang                            # noqa: E402
from frontend_micro import MicroFrontend         # noqa: E402
from model import blank                          # noqa: E402

SKIP = 77


def signature(model, blanked):
    """Frontend-independent digest of the effects analysis: one tuple per
    region with its location and the classified writes / alloc sites."""
    fe = effects.analyze_file(model, blanked)
    sig = []
    for ra in fe.regions:
        writes = tuple(sorted(
            (w.line, w.var, w.classification) for w in ra.writes))
        allocs = tuple(sorted(ra.alloc_sites))
        sig.append((ra.region.pragma_line, ra.region.start, ra.region.end,
                    writes, allocs))
    return sig


def describe(sig):
    out = []
    for pragma_line, start, end, writes, allocs in sig:
        out.append(f"  region @{pragma_line} [{start}..{end}]")
        for line, var, cls in writes:
            out.append(f"    write {line}: {var} -> {cls}")
        for line, what in allocs:
            out.append(f"    alloc {line}: {what}")
    return "\n".join(out) if out else "  (no parallel regions)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compile-commands", default=None)
    parser.add_argument("--expect-pragmas", type=int, default=None,
                        metavar="N",
                        help="assert the file holds exactly N '#pragma "
                             "omp' directives")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    # The pragma-count tripwire needs no libclang — run it first so
    # micro-only environments still pin the exemplar's pragma surface.
    status = 0
    contents: dict[str, list[str]] = {}
    for name in args.files:
        path = Path(name)
        try:
            contents[name] = path.read_text().splitlines()
        except OSError as e:
            print(f"frontend-agreement: cannot read {path}: {e}",
                  file=sys.stderr)
            return 2
        if args.expect_pragmas is not None:
            pragmas = sum("#pragma omp" in ln for ln in contents[name])
            if pragmas != args.expect_pragmas:
                print(f"frontend-agreement: {path} holds {pragmas} "
                      f"'#pragma omp' directives, expected "
                      f"{args.expect_pragmas} — the exemplar no longer "
                      "covers the intended pragma surface; update the "
                      "expectation deliberately", file=sys.stderr)
                status = 1
    if status != 0:
        return status

    if not frontend_clang.available():
        print("frontend-agreement: libclang is not available; skipping "
              "(the micro-frontend leg still runs in ctest)")
        return SKIP

    cc = Path(args.compile_commands) if args.compile_commands else None
    src_root = Path(__file__).resolve().parent.parent.parent / "src"
    clang = frontend_clang.ClangFrontend(cc, src_root)
    micro = MicroFrontend()

    for name in args.files:
        path = Path(name)
        lines = contents[name]
        blanked = blank(lines)
        micro_sig = signature(micro.lower(path, lines), blanked)
        try:
            clang_sig = signature(clang.lower(path, lines), blanked)
        except Exception as e:
            print(f"frontend-agreement: clang frontend failed on {path}: "
                  f"{e}", file=sys.stderr)
            return 1

        if micro_sig != clang_sig:
            print(f"frontend-agreement: DISAGREEMENT on {path}\n"
                  f"micro frontend:\n{describe(micro_sig)}\n"
                  f"clang frontend:\n{describe(clang_sig)}",
                  file=sys.stderr)
            status = 1
        else:
            print(f"frontend-agreement: {path}: {len(micro_sig)} regions, "
                  "identical under both frontends")
    return status


if __name__ == "__main__":
    sys.exit(main())
