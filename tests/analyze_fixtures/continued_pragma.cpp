// Backslash-continued and comment-spanned pragmas: model.directives()
// joins a directive's continuation lines BEFORE deciding whether it is
// an omp pragma. Each finding carries a grapr:expect marker (inside a
// /* */ comment where the line ends in a backslash).
//
// Seeded violations, in order:
//   1. omp-default-none   the pragma is split as `#pragma \` + `omp ...`;
//                         classifying on the first physical line alone
//                         sees no `omp` token and the region escapes
//                         every rule (the historical false negative).
//   2. no-default-shared  `default(shared)` hidden on a continuation
//                         line two splices deep.
//
// The remaining regions are LEGAL and must stay silent: clauses that
// live on continuation lines — including one reached through a block
// comment that spans the newline — count as part of the pragma.
//
// This file is analyzed, never compiled.

#include <vector>

void fixtureSplitDirective(std::vector<int>& data) {
    // (1) joined text is `#pragma omp parallel for` with no default(none)
#pragma /* grapr:expect(omp-default-none) */ \
    omp parallel for
    for (int i = 0; i < 100; ++i) {
        data[i] = i;
    }
}

void fixtureDeepContinuation(std::vector<int>& data) {
    // (2) the banned clause only appears after joining both splices
#pragma omp parallel for /* grapr:expect(no-default-shared) */ \
    schedule(static)     \
    default(shared)
    for (int i = 0; i < 100; ++i) {
        data[i] = i;
    }
}

void legalContinuedClauses(std::vector<int>& data) {
    // default(none) sits on the continuation line: joining must find it.
#pragma omp parallel for \
    default(none) shared(data)
    for (int i = 0; i < 100; ++i) {
        data[i] = i;
    }
}

void legalCommentSpanned(std::vector<int>& data) {
    // A /* comment */ spanning the newline does not end the directive
    // (comments become one space before the preprocessor sees the
    // terminating newline), so default(none) below is still a clause of
    // this pragma — flagging it was the historical false positive.
#pragma omp parallel for /* static: the trip count is uniform
                            across iterations */ \
    default(none) shared(data)
    for (int i = 0; i < 100; ++i) {
        data[i] = i;
    }
}

void legalSpacedDirective(std::vector<int>& data) {
    // `#  pragma` is a valid spelling; normalization must not miss it.
#  pragma omp parallel for default(none) shared(data)
    for (int i = 0; i < 100; ++i) {
        data[i] = i;
    }
}
