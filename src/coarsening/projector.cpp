#include "coarsening/projector.hpp"

#include "support/common.hpp"

namespace grapr {

Partition ClusteringProjector::projectBack(
    const Partition& coarseSolution, const std::vector<node>& fineToCoarse) {
    Partition fine(fineToCoarse.size());
    const auto n = static_cast<std::int64_t>(fineToCoarse.size());
#pragma omp parallel for default(none)                                       \
    shared(fine, coarseSolution, fineToCoarse, n) schedule(static)
    for (std::int64_t v = 0; v < n; ++v) {
        const node coarse = fineToCoarse[static_cast<std::size_t>(v)];
        if (coarse != none) {
            // Not a published label — each fine node is written exactly
            // once and `fine` is not read until the region ends.
            fine.set(static_cast<node>(v), coarseSolution[coarse]);
        }
    }
    fine.setUpperBound(coarseSolution.upperBound());
    return fine;
}

Partition ClusteringProjector::projectThroughHierarchy(
    const Partition& coarsestSolution,
    const std::vector<std::vector<node>>& maps) {
    Partition solution = coarsestSolution;
    for (auto it = maps.rbegin(); it != maps.rend(); ++it) {
        solution = projectBack(solution, *it);
    }
    return solution;
}

} // namespace grapr
