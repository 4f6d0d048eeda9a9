// Seeded annotation-liveness violation on the sharded-volume write path
// (grapr:expect markers name the findings). The replicate+reduce volume
// scheme (community/community_volumes.hpp) is race-free by construction,
// so the one place a benign-race annotation legitimately appears is the
// ATOMIC policy's snapshot read — and a typo'd variable name there anchors
// nothing: the analyzer must flag it, not trust it.
//
// This file is analyzed, never compiled.

#include <vector>

#include "structures/partition.hpp"

namespace grapr {

void foldShards(std::vector<double>& communityVolume,
                const std::vector<double>& shardDelta, node c) {
    // (1) Typo'd benign-race on the reducer: the annotation names
    // `comunityVolume` (sic) but every write below touches
    // `communityVolume`, so the annotation anchors no racy site.
    // grapr:benign-race(comunityVolume): stale fold tolerated by design  grapr:expect(annotation-liveness)
    communityVolume[c] += shardDelta[c];
}

double snapshotVolume(const std::vector<double>& communityVolume, node c) {
    // (2) Annotation naming a variable with no anchoring pattern at all
    // within range: `delta` is never published, subscripted, or read
    // atomically below.
    // grapr:benign-race(delta): replicated shard delta visible late  grapr:expect(annotation-liveness)
    double v = 0.0;
    v += static_cast<double>(c);
    (void)communityVolume;
    return v;
}

// Live annotation — must NOT be reported: the atomic snapshot it excuses
// follows directly (subscript on the named variable + omp atomic read).
double legalSnapshot(const std::vector<double>& communityVolume, node c) {
    // grapr:benign-race(communityVolume): stale snapshot tolerated by
    // design (asynchronous move contract)
    double v;
#pragma omp atomic read
    v = communityVolume[c];
    return v;
}

} // namespace grapr
