#!/usr/bin/env python3
"""grapr_analyze: AST-grounded contract analyzer for the grapr codebase.

The one static checker of the OpenMP contract and of the durability
protocol: seventeen checks, driven by the exported compile_commands.json
(see checks.py, protocol.py and effects.py for rule details and the
sanctioned escape hatches):

  omp-default-none     every `#pragma omp parallel` carries default(none)
  no-default-shared    no parallel region uses default(shared)
  no-rand              no rand()/srand()/drand48()/...: parallel code uses
                       the engines of support/random.hpp
  no-stream-log        no std::cout/std::cerr/printf inside a region
  csr-staleness        frozen CsrGraph views read after their source Graph
                       mutated (intra-procedural, with call summaries for
                       the coarsening pipeline)
  index-width          implicit narrowing of count/index/node/edgeweight
                       into 32-bit or lossy types
  annotation-liveness  grapr:benign-race / grapr:analyze-allow
                       annotations must give a `: <reason>` and anchor a
                       real site; stale or typo'd ones fail
  suppression-liveness tools/sanitizers/tsan.supp entries must still name
                       a defined symbol that reaches a parallel region
  durability-order     WAL append -> fsync -> publish, and checkpoint
                       write -> fsync -> rename -> dirsync, ordered on
                       every path (protocol.py)
  lock-discipline      writer/head mutex acquisition order is acyclic; no
                       blocking I/O under the reader-head mutex
  poison-path          failure edges between WAL append and publish reach
                       rollback or poison marking
  fault-site-coverage  raw I/O in durability code carries a fault point;
                       the static site list matches tests/fault_sites.txt
                       (the crash harness pins its dynamic trace to the
                       same manifest)
  shared-write-safety  every write inside an OpenMP region (container
                       mutations included) classifies as thread-local /
                       synchronized / disjoint on the parallel-effect
                       lattice, or carries a live grapr:benign-race(<var>)
                       annotation, as does every `omp atomic read`
                       the region executes, helpers included, that does
                       not provably read the iteration's own slot
                       (effects.py)
  benign-race-validity a benign-race annotation on a write the analysis
                       proves safe is stale and fails
  region-alloc         no heap allocation / container growth inside
                       parallel regions of src/community, src/coarsening,
                       src/structures (ThreadLocalPool is the escape)
  benign-race-manifest the validated benign-race set equals
                       tests/benign_races.txt in both directions, tsan
                       suppressions map to manifest rows, and runtime=
                       names match the GRAPR_RACE_BENIGN_SITE trace
                       points (test_race_check drives the dynamic half)
  fault-point-in-parallel
                       a GRAPR_FAULT_POINT reached from a parallel region
                       at any call depth

Use `--check parallel-effects` to run only the five effects.py checks
(or pass a comma-separated list of check ids).

Frontends (--frontend):
  clang   libclang via clang.cindex — canonical, used by the CI analyze
          job (which pins the libclang wheel)
  micro   bundled lexer/statement extractor — no dependencies, used by
          ctest in toolchains without libclang
  auto    clang when importable and loadable, else micro (default)

Usage:
  grapr_analyze.py [--compile-commands build/compile_commands.json]
                   [--root src] [--frontend auto|clang|micro]
                   [--tsan-supp tools/sanitizers/tsan.supp]
                   [--fault-manifest tests/fault_sites.txt]
                   [--exclude GLOB]... [files...]

With explicit files, only those files are analyzed and the tsan.supp
audit and fault-manifest cross-check are skipped (fixture mode). A
fixture names each finding it must produce with a `grapr:expect(<check>)`
comment on the finding's line (inside a /* */ comment where the line
ends in a backslash); in fixture mode the exit status is 0 only when the
findings are exactly the marked ones, so a file without markers must be
clean. Otherwise the exit status is 1 if any finding remains.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks                                    # noqa: E402
import effects                                   # noqa: E402
import frontend_clang                            # noqa: E402
import protocol                                  # noqa: E402
from frontend_micro import MicroFrontend         # noqa: E402
from model import FileModel, blank, build_summary  # noqa: E402


EXPECT = re.compile(r"grapr:expect\((?P<check>[\w-]+)\)")


def expected_findings(models: list[FileModel]) -> set[tuple[str, int, str]]:
    """(file, line, check) for every `grapr:expect(<check>)` marker: each
    marker expects one finding of that check on its own line."""
    return {(str(m.path), line, mm.group("check"))
            for m in models
            for line, raw in enumerate(m.lines, start=1)
            for mm in EXPECT.finditer(raw)}


def collect_files(args: argparse.Namespace) -> list[Path]:
    if args.files:
        return [Path(f) for f in args.files]
    root = Path(args.root).resolve()
    files: set[Path] = set()
    if args.compile_commands:
        cc = Path(args.compile_commands)
        if cc.exists():
            for entry in json.loads(cc.read_text()):
                f = Path(entry["file"])
                if not f.is_absolute():
                    f = Path(entry["directory"]) / f
                f = f.resolve()
                if root in f.parents or f == root:
                    files.add(f)
        else:
            print(f"grapr-analyze: note: {cc} not found; falling back to "
                  "a source glob", file=sys.stderr)
    if not files:
        files.update(root.rglob("*.cpp"))
    files.update(root.rglob("*.hpp"))
    files.update(root.rglob("*.h"))
    for pattern in args.exclude or []:
        files = {f for f in files
                 if not fnmatch.fnmatch(str(f), pattern)}
    return sorted(files)


def pick_frontend(choice: str, compile_commands: Path | None,
                  src_root: Path):
    if choice in ("clang", "auto") and frontend_clang.available():
        try:
            return frontend_clang.ClangFrontend(compile_commands, src_root)
        except Exception as e:
            if choice == "clang":
                raise
            print(f"grapr-analyze: note: libclang init failed ({e}); "
                  "using the micro frontend", file=sys.stderr)
    if choice == "clang":
        print("grapr-analyze: error: --frontend=clang requested but "
              "clang.cindex / libclang is not available", file=sys.stderr)
        sys.exit(2)
    return MicroFrontend()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compile-commands", default=None,
                        help="path to compile_commands.json")
    parser.add_argument("--root", default="src",
                        help="source root to analyze (default: src)")
    parser.add_argument("--frontend", default="auto",
                        choices=("auto", "clang", "micro"))
    parser.add_argument("--tsan-supp", default=None,
                        help="tsan suppression file to audit (default: "
                             "tools/sanitizers/tsan.supp next to this "
                             "script; pass '' to disable)")
    parser.add_argument("--fault-manifest", default=None,
                        help="fault-site manifest to cross-check against "
                             "the GRAPR_FAULT_POINT sites found in the "
                             "sources (default: tests/fault_sites.txt at "
                             "the repo root; pass '' to disable)")
    parser.add_argument("--benign-manifest", default=None,
                        help="benign-race manifest to cross-check against "
                             "the validated grapr:benign-race set "
                             "(default: tests/benign_races.txt at the "
                             "repo root; pass '' to disable)")
    parser.add_argument("--check", default="all",
                        help="restrict reported findings: 'all' (default),"
                             " 'parallel-effects' (the five effects.py "
                             "checks), or a comma-separated list of check "
                             "ids")
    parser.add_argument("--exclude", action="append", default=[],
                        metavar="GLOB",
                        help="fnmatch pattern of file paths to skip "
                             "(repeatable; e.g. '*_fixtures/*')")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("files", nargs="*",
                        help="explicit files (fixture mode: skips the "
                             "tsan.supp audit and checks the findings "
                             "against the files' grapr:expect markers)")
    args = parser.parse_args()

    files = collect_files(args)
    if not files:
        print("grapr-analyze: no input files", file=sys.stderr)
        return 2

    cc = Path(args.compile_commands) if args.compile_commands else None
    src_root = Path(args.root).resolve()
    frontend = pick_frontend(args.frontend, cc, src_root)
    micro = MicroFrontend()

    models: list[FileModel] = []
    pairs = []   # (model, blanked, allows)
    for path in files:
        try:
            lines = path.read_text().splitlines()
        except OSError as e:
            print(f"grapr-analyze: cannot read {path}: {e}",
                  file=sys.stderr)
            return 2
        try:
            model = frontend.lower(path, lines)
        except Exception as e:
            # A frontend crash must not take the whole gate down with an
            # unrelated stack trace; degrade to the micro frontend and say
            # so (the fixtures keep both frontends honest).
            if frontend.name == "micro":
                raise
            print(f"grapr-analyze: note: {frontend.name} frontend failed "
                  f"on {path} ({e}); re-lowering with micro",
                  file=sys.stderr)
            model = micro.lower(path, lines)
        models.append(model)
        pairs.append((model, blank(lines), checks.Allows(lines)))

    summary = build_summary(models)
    findings = []
    for model, blanked, allows in pairs:
        findings += checks.check_index_width(model, allows)
        findings += checks.check_csr_staleness(model, summary, allows)
        findings += checks.check_annotation_liveness(model, blanked, allows)
        findings += checks.check_omp_text(model, blanked, allows)
    if args.fault_manifest is None:
        manifest = (Path(__file__).resolve().parent.parent.parent
                    / "tests" / "fault_sites.txt")
    elif args.fault_manifest == "":
        manifest = None
    else:
        manifest = Path(args.fault_manifest)
    findings += protocol.run_protocol_checks(
        [(m, a) for m, _, a in pairs],
        fixture_mode=bool(args.files), manifest=manifest)

    if args.benign_manifest is None:
        benign_manifest = (Path(__file__).resolve().parent.parent.parent
                           / "tests" / "benign_races.txt")
    elif args.benign_manifest == "":
        benign_manifest = None
    else:
        benign_manifest = Path(args.benign_manifest)
    if args.tsan_supp is None:
        supp = (Path(__file__).resolve().parent.parent
                / "sanitizers" / "tsan.supp")
    elif args.tsan_supp == "":
        supp = None
    else:
        supp = Path(args.tsan_supp)
    findings += effects.run_effects_checks(
        pairs, fixture_mode=bool(args.files), manifest=benign_manifest,
        tsan_supp=supp,
        explicit_manifest=args.benign_manifest not in (None, ""))

    findings += checks.check_unused_allows(
        [(m, a) for m, _, a in pairs])

    if not args.files and supp is not None:
        findings += checks.check_suppression_liveness(supp, models)

    selected = None
    if args.check != "all":
        if args.check == "parallel-effects":
            selected = set(effects.EFFECT_CHECK_IDS)
        else:
            selected = {c.strip() for c in args.check.split(",") if c.strip()}
            unknown = selected - checks.CHECK_IDS
            if unknown:
                print("grapr-analyze: error: unknown check id(s): "
                      f"{', '.join(sorted(unknown))} (known: "
                      f"{', '.join(sorted(checks.CHECK_IDS))})",
                      file=sys.stderr)
                return 2
        findings = [f for f in findings if f.check in selected]

    # One statement can surface the same defect through several lowered
    # facts (a call and its enclosing expression); report each site once.
    unique: dict[tuple[str, int, str], object] = {}
    for f in findings:
        unique.setdefault((str(f.path), f.line, f.check), f)
    findings = sorted(unique.values(), key=lambda f: (str(f.path), f.line))
    for f in findings:
        print(f.render())
    # Fixture mode: the findings must be exactly the ones the files'
    # grapr:expect markers name (none for a file without markers).
    expected = {e for e in expected_findings(models)
                if selected is None or e[2] in selected} \
        if args.files else set()
    for path, line, check in sorted(expected - set(unique)):
        print(f"{path}:{line}: error: [{check}] expected finding not "
              "reported")
    if expected:
        for path, line, check in sorted(set(unique) - expected):
            print(f"{path}:{line}: error: [{check}] finding has no "
                  "grapr:expect marker")
    if not args.quiet:
        nfn = sum(len(m.functions) for m in models)
        marked = f", {len(expected)} expected" if expected else ""
        print(f"grapr-analyze: frontend={frontend.name}, {len(files)} "
              f"files, {nfn} functions, {len(findings)} findings{marked}")
    return 0 if set(unique) == expected else 1


if __name__ == "__main__":
    sys.exit(main())
