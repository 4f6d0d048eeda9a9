// The sharded community-volume write path: what the replicate+reduce
// kernel (community/community_volumes.hpp) must never do inside a
// parallel region. Each finding carries a grapr:expect marker.
//
// Seeded violations, in order:
//   1. shared-write-safety   an atomic-read volume snapshot without the
//                            required stale-read annotation
//   2. shared-write-safety   pushing into a shards vector that is NOT
//                            accessed through a per-thread slot (neither
//                            `.local()` nor `[omp_get_thread_num()]`)
//
// The remaining regions are LEGAL and must stay silent.
//
// This file is analyzed, never compiled.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <omp.h>

void fixtureUnannotatedSnapshot(std::vector<double>& volumes, double& out) {
#pragma omp parallel for default(none) shared(volumes, out)
    for (std::int64_t c = 0; c < 8; ++c) {
        // (1) stale snapshot of a concurrently-updated volume, but the
        // grapr:benign-race(<var>) annotation is missing
        double v;
#pragma omp atomic read  // grapr:expect(shared-write-safety)
        v = volumes[static_cast<std::size_t>(c)];
        if (v > 0.0) {
#pragma omp atomic
            out += v;
        }
    }
}

void fixtureSharedShardPush(std::vector<std::vector<int>>& shards) {
#pragma omp parallel for default(none) shared(shards)
    for (std::int64_t c = 0; c < 64; ++c) {
        // (2) all threads append into shard 0 — the receiver is not a
        // per-thread slot, so this is a concurrent container mutation
        shards[0].push_back(static_cast<int>(c));  // grapr:expect(shared-write-safety)
    }
}

// Legal: folding at the iteration's own index. Each iteration c updates
// base[c] and nothing else reads or writes base in the region, so no two
// threads touch one element — a disjoint write, not a lost update.
void legalFoldAtOwnIndex(std::vector<double>& base,
                         const std::vector<double>& delta) {
    const std::int64_t n = static_cast<std::int64_t>(base.size());
#pragma omp parallel for default(none) shared(base, delta, n)
    for (std::int64_t c = 0; c < n; ++c) {
        base[c] += delta[static_cast<std::size_t>(c)];
    }
}

// Legal: the annotated stale snapshot.
void legalAnnotatedSnapshot(const std::vector<double>& volumes,
                            double& out) {
#pragma omp parallel for default(none) shared(volumes, out)
    for (std::int64_t c = 0; c < 8; ++c) {
        // grapr:benign-race(volumes): a stale volume only skews this
        // round's estimate (asynchronous contract)
        double v;
#pragma omp atomic read
        v = volumes[static_cast<std::size_t>(c)];
#pragma omp atomic
        out += v;
    }
}

// Legal: one shard per thread.
void legalPerThreadShards(std::vector<std::vector<int>>& shards) {
#pragma omp parallel for default(none) shared(shards)
    for (std::int64_t c = 0; c < 64; ++c) {
        shards[omp_get_thread_num()].push_back(static_cast<int>(c));
    }
}
