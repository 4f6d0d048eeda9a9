// Atomic reads in the helpers a parallel region calls: the stale-snapshot
// rule of shared-write-safety follows the region into its hoisted lambdas
// (at any depth) and into the same-file functions it calls, as the write
// classification does. Each finding carries a grapr:expect marker.
//
// Seeded violations, in order:
//   1. shared-write-safety   a hoisted lambda atomically reads another
//                            node's slot of an array the region updates,
//                            without the stale-read annotation
//   2. shared-write-safety   the same read two lambdas deep: the region
//                            calls a lambda that calls the reader
//   3. shared-write-safety   a same-file function called from the region
//                            atomically reads another iteration's slot
//
// The remaining functions are LEGAL and must stay silent: an atomic read
// of the iteration's own slot where the region writes the array only at
// the iteration's own index, and an annotated stale read in a helper.
//
// This file is analyzed, never compiled.

#include <cstdint>
#include <vector>

void fixtureForeignReadInLambda(std::vector<double>& volume,
                                const std::vector<std::int64_t>& next) {
    auto peek = [&](std::int64_t v) {
        double seen;
        // (1) reads the slot of node next[v], which its own iteration
        // updates concurrently
#pragma omp atomic read  // grapr:expect(shared-write-safety)
        seen = volume[next[v]];
        return seen;
    };
    const std::int64_t n = static_cast<std::int64_t>(volume.size());
#pragma omp parallel for default(none) shared(volume, peek, n)
    for (std::int64_t v = 0; v < n; ++v) {
        const double w = peek(v);
#pragma omp atomic write
        volume[v] = w + 1.0;
    }
}

void fixtureForeignReadTwoLambdasDeep(std::vector<std::uint32_t>& stamp,
                                      const std::vector<std::int64_t>& partner) {
    auto stampOf = [&](std::int64_t u) {
        std::uint32_t s;
        // (2) u is a partner of the iteration's node, not the node itself
#pragma omp atomic read  // grapr:expect(shared-write-safety)
        s = stamp[u];
        return s;
    };
    auto visit = [&](std::int64_t v) {
        if (stampOf(partner[v]) == 0) {
#pragma omp atomic write
            stamp[v] = 1;
        }
    };
    const std::int64_t n = static_cast<std::int64_t>(stamp.size());
#pragma omp parallel for default(none) shared(visit, n)
    for (std::int64_t v = 0; v < n; ++v) {
        visit(v);
    }
}

double snapshotOf(const std::vector<double>& load, std::int64_t at) {
    double value;
    // (3) `at` is whatever the caller passes: here the next iteration's
    // slot
#pragma omp atomic read  // grapr:expect(shared-write-safety)
    value = load[at];
    return value;
}

void fixtureForeignReadInFunction(std::vector<double>& load) {
    const std::int64_t n = static_cast<std::int64_t>(load.size());
#pragma omp parallel for default(none) shared(load, n)
    for (std::int64_t v = 0; v < n; ++v) {
        const double before = snapshotOf(load, (v + 1) % n);
#pragma omp atomic
        load[v] += before;
    }
}

// Legal: the lambda reads the iteration's own slot (every call passes the
// loop index), and the region writes evaluatedIn only there — no other
// thread's write can be observed.
void legalOwnSlotReadInLambda(std::vector<std::uint32_t>& evaluatedIn,
                              std::uint32_t round) {
    auto stale = [&](std::int64_t u) {
        std::uint32_t last;
#pragma omp atomic read
        last = evaluatedIn[u];
        return last + 1 < round;
    };
    const std::int64_t n = static_cast<std::int64_t>(evaluatedIn.size());
#pragma omp parallel for default(none) shared(evaluatedIn, stale, round, n)
    for (std::int64_t v = 0; v < n; ++v) {
        if (stale(v)) {
#pragma omp atomic write
            evaluatedIn[v] = round;
        }
    }
}

// Legal: the annotated stale read in a helper.
void legalAnnotatedReadInLambda(std::vector<double>& volume,
                                const std::vector<std::int64_t>& next) {
    auto peek = [&](std::int64_t v) {
        // grapr:benign-race(volume): a stale neighbor volume only delays
        // this node's update by one sweep
        double seen;
#pragma omp atomic read
        seen = volume[next[v]];
        return seen;
    };
    const std::int64_t n = static_cast<std::int64_t>(volume.size());
#pragma omp parallel for default(none) shared(volume, peek, n)
    for (std::int64_t v = 0; v < n; ++v) {
        const double w = peek(v);
#pragma omp atomic write
        volume[v] = w + 1.0;
    }
}
