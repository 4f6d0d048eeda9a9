#pragma once
// Shared infrastructure for the per-figure benchmark harnesses:
//  * the replica suite — synthetic stand-ins for the paper's 13-network
//    test set (Table I), generated once and cached on disk,
//  * timing/quality measurement helpers,
//  * the platform banner every harness prints (the paper's Table II).
//
// Replica mapping rationale is documented per instance in DESIGN.md: each
// paper network is replaced by a generator that reproduces its structural
// signature (degree skew, clustering, component structure) at a scale a
// single-core CI container can sweep in minutes.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "community/detector.hpp"
#include "graph/graph.hpp"

namespace grapr::bench {

struct ReplicaSpec {
    std::string name;        ///< paper network this replica stands in for
    std::string recipe;      ///< human-readable generator recipe
    std::function<Graph()> make;
};

/// The 13-instance replica suite in ascending size order (the paper sorts
/// its per-network charts by graph size).
std::vector<ReplicaSpec> replicaSuite();

/// Generate-or-load a graph cached as <dataDirectory()>/<name>.gcsr: reseed
/// with `seed`, call `make` and write the cache when it is missing or
/// unreadable (a corrupt cache is logged, removed and regenerated).
Graph loadCached(const std::string& name, std::uint64_t seed,
                 const std::function<Graph()>& make);

/// Generate-or-load a replica through loadCached. Deterministic:
/// generation always reseeds from the name.
Graph loadReplica(const ReplicaSpec& spec);

/// Directory used for cached instances ("data", created on demand).
std::string dataDirectory();

/// Measurement of one detector on one graph.
struct RunResult {
    double seconds = 0.0;     ///< median wall time over repetitions
    double modularity = 0.0;  ///< mean modularity over repetitions
    count communities = 0;    ///< from the last repetition
};

/// Freeze g once, then run `detector` `repetitions` times on the frozen
/// graph; median time, mean modularity. The freeze is not timed.
RunResult measureDetector(CommunityDetector& detector, const Graph& g,
                          int repetitions);

/// Cached variant: results are persisted per (algorithm, instance,
/// repetitions, quick-mode) in <data>/results.tsv so the comparison
/// harnesses (Figures 5, 6, 7) share one sweep instead of re-running the
/// expensive competitors three times. Delete the file to re-measure.
RunResult measureDetectorCached(const std::string& algorithmName,
                                const std::string& instanceName,
                                const Graph& g, int repetitions);

/// Print the platform banner (threads, compiler, mode) — the analogue of
/// the paper's Table II so every output file is self-describing.
void printPlatformBanner(const std::string& benchName);

/// Edge threshold above which the expensive sequential competitors
/// (RG, CGGC, CGGCi) are skipped unless GRAPR_BENCH_FULL=1 is set; the
/// harnesses print an explicit "skipped" marker, mirroring how the paper
/// reports non-viable runs (e.g. CLU_TBB failing on uk-2007-05).
count expensiveAlgorithmEdgeCap();

/// True when GRAPR_BENCH_QUICK=1: harnesses shrink instance sizes and
/// repetition counts for smoke-testing the full bench pipeline.
bool quickMode();

} // namespace grapr::bench
