#include "community/epp.hpp"

#include "coarsening/parallel_coarsening.hpp"
#include "coarsening/projector.hpp"
#include "community/combiner.hpp"
#include "quality/modularity.hpp"
#include "support/logging.hpp"

namespace grapr {

Epp::Epp(count ensembleSize, DetectorMaker makeBase, DetectorMaker makeFinal,
         std::string name)
    : ensembleSize_(ensembleSize), makeBase_(std::move(makeBase)),
      makeFinal_(std::move(makeFinal)), name_(std::move(name)) {
    require(ensembleSize >= 1, "EPP: ensemble size must be >= 1");
}

Partition Epp::run(const CsrGraph& g) {
    // Base phase. The paper launches the b base instances concurrently
    // ("massive nested parallelism"); here each base algorithm is itself
    // fully parallel, so running them back-to-back performs the same work
    // without oversubscribing — the solutions are identical in
    // distribution either way, and base-solution diversity still comes
    // from the per-run randomness (thread interleaving / RNG draws).
    std::vector<Partition> baseSolutions;
    baseSolutions.reserve(ensembleSize_);
    for (count i = 0; i < ensembleSize_; ++i) {
        auto base = makeBase_();
        baseSolutions.push_back(base->run(g));
    }

    // Consensus: core communities via the b-way hash (Eq. III.2).
    Partition cores = HashingCombiner::combine(baseSolutions);

    // Coarsen by the cores — contested regions stay fine-grained, agreed
    // regions collapse.
    const CsrCoarseningResult coarse =
        ParallelPartitionCoarsening().run(g, cores);

    // Final phase on the much smaller graph, then prolongation.
    auto finalDetector = makeFinal_();
    const Partition coarseSolution = finalDetector->run(coarse.coarseGraph);
    Partition zeta =
        ClusteringProjector::projectBack(coarseSolution, coarse.fineToCoarse);
    zeta.compact();
    return zeta;
}

std::string Epp::toString() const { return name_; }

EppIterated::EppIterated(count ensembleSize, DetectorMaker makeBase,
                         DetectorMaker makeFinal, double minImprovement,
                         count maxLevels, std::string name)
    : ensembleSize_(ensembleSize), makeBase_(std::move(makeBase)),
      makeFinal_(std::move(makeFinal)), minImprovement_(minImprovement),
      maxLevels_(maxLevels), name_(std::move(name)) {
    require(ensembleSize >= 1, "EPPIterated: ensemble size must be >= 1");
}

Partition EppIterated::run(const CsrGraph& g) {
    const Modularity modularity;
    const ParallelPartitionCoarsening coarsener;

    // The level being clustered: g itself, then the latest coarse graph.
    const CsrGraph* current = &g;
    CsrGraph coarsest;
    std::vector<std::vector<node>> hierarchy;
    double lastQuality = -1.0;

    for (count level = 0; level < maxLevels_; ++level) {
        std::vector<Partition> baseSolutions;
        baseSolutions.reserve(ensembleSize_);
        for (count i = 0; i < ensembleSize_; ++i) {
            auto base = makeBase_();
            baseSolutions.push_back(base->run(*current));
        }
        Partition cores = HashingCombiner::combine(baseSolutions);

        // Quality of the cores projected to the input graph.
        Partition projected = cores;
        for (auto it = hierarchy.rbegin(); it != hierarchy.rend(); ++it) {
            projected = ClusteringProjector::projectBack(projected, *it);
        }
        const double quality = modularity.getQuality(projected, g);
        logDebug("EPPIterated level ", level, ": cores=",
                 cores.upperBound(), " quality=", quality);
        if (quality <= lastQuality + minImprovement_) break;
        lastQuality = quality;

        CsrCoarseningResult coarse = coarsener.run(*current, cores);
        if (coarse.coarseGraph.numberOfNodes() >= current->numberOfNodes()) {
            break; // no contraction; iterating further cannot help
        }
        hierarchy.push_back(std::move(coarse.fineToCoarse));
        coarsest = std::move(coarse.coarseGraph);
        current = &coarsest;
    }

    auto finalDetector = makeFinal_();
    Partition solution = finalDetector->run(*current);
    solution = ClusteringProjector::projectThroughHierarchy(solution,
                                                            hierarchy);
    solution.compact();
    return solution;
}

std::string EppIterated::toString() const { return name_; }

} // namespace grapr
