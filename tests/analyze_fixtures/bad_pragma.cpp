// Seeded OpenMP-contract violations: every region in the first half
// breaks one rule, and each finding carries a grapr:expect marker, so an
// analyzer that loses any one rule fails this fixture. The legal twins
// in the second half must stay silent.
//
// Seeded violations, in order:
//   1. omp-default-none     region without default(none)
//   2. no-default-shared    region with default(shared)
//   3. no-rand              rand() instead of support/random.hpp
//   4. no-stream-log        std::cout inside a parallel region
//   5. shared-write-safety  push_back on a shared vector
//   6. shared-write-safety  total += x on a shared scalar, no atomic
//   7. shared-write-safety  unannotated label publication + stale read
//   8. annotation-liveness  benign-race annotation without a reason
//
// This file is analyzed, never compiled.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include <omp.h>

void fixtureDefaultNone(std::vector<int>& data) {
    // (1) implicit data sharing — must be default(none) with shared(...)
#pragma omp parallel for  // grapr:expect(omp-default-none)
    for (int i = 0; i < 100; ++i) {
        data[i] = i;
    }
}

void fixtureDefaultShared(std::vector<int>& data) {
    // (2) default(shared) is explicitly banned, not just "not none"
#pragma omp parallel for default(shared)  // grapr:expect(no-default-shared)
    for (int i = 0; i < 100; ++i) {
        data[i] = i;
    }
}

void fixtureRand(std::vector<int>& data) {
#pragma omp parallel for default(none) shared(data)
    for (int i = 0; i < 100; ++i) {
        // (3) rand() shares hidden global state across threads
        data[i] = rand();  // grapr:expect(no-rand)
    }
}

void fixtureStreamLog() {
#pragma omp parallel default(none)
    {
        // (4) interleaved/unsynchronised logging
        std::cout << "worker alive\n";  // grapr:expect(no-stream-log)
    }
}

void fixtureContainerMutation(std::vector<int>& sink) {
#pragma omp parallel for default(none) shared(sink)
    for (int i = 0; i < 100; ++i) {
        // (5) concurrent push_back on a non-thread-local container
        sink.push_back(i);  // grapr:expect(shared-write-safety)
    }
}

void fixtureCompoundWrite(std::vector<int>& data, long total) {
#pragma omp parallel for default(none) shared(data, total)
    for (int i = 0; i < 100; ++i) {
        // (6) read-modify-write without '#pragma omp atomic' (lost update)
        total += data[i];  // grapr:expect(shared-write-safety)
    }
}

void fixtureUnannotatedPublish(std::vector<int>& label) {
#pragma omp parallel for default(none) shared(label)
    for (int v = 0; v < 100; ++v) {
        const int neighbor = label[(v + 1) % 100];
        // (7) write through shared label[] that is also read above:
        // stale-publication by design, but the annotation is missing
        label[v] = neighbor;  // grapr:expect(shared-write-safety)
    }
}

void fixtureBadAnnotation(std::vector<int>& label) {
#pragma omp parallel for default(none) shared(label)
    for (int v = 0; v < 100; ++v) {
        // grapr:benign-race(label)  grapr:expect(annotation-liveness)
        // (8) annotation above has no ': <reason>' part
        label[v] = label[(v + 1) % 100];
    }
}

// Legal twins: none of these may be reported.

void legalLogAfterRegion(std::vector<int>& data) {
#pragma omp parallel for default(none) shared(data)
    for (int i = 0; i < 100; ++i) {
        data[i] = i;
    }
    std::cout << "done\n";
}

void legalContainerMutations(std::vector<std::vector<int>>& rows,
                             std::vector<std::vector<int>>& perThread) {
    const auto n = static_cast<std::int64_t>(rows.size());
#pragma omp parallel for default(none) shared(rows, perThread, n)
    for (std::int64_t v = 0; v < n; ++v) {
        const auto sv = static_cast<std::size_t>(v);
        // Row sv belongs to this iteration: a disjoint write.
        rows[sv].resize(4);
        // One slot per thread.
        perThread[omp_get_thread_num()].push_back(static_cast<int>(v));
        // A region-local container is per-thread.
        std::vector<int> scratch;
        scratch.push_back(0);
    }
}

void legalAtomicAccumulate(const std::vector<int>& data, long& total) {
#pragma omp parallel for default(none) shared(data, total)
    for (int i = 0; i < 100; ++i) {
#pragma omp atomic
        total += data[i];
    }
}

void legalAnnotatedPublish(std::vector<int>& label) {
#pragma omp parallel for default(none) shared(label)
    for (int v = 0; v < 100; ++v) {
        // grapr:benign-race(label): stale neighbor labels are tolerated by
        // the asynchronous update contract
        label[v] = label[(v + 1) % 100];
    }
}
