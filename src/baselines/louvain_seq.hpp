#pragma once
// Sequential Louvain method (Blondel et al. 2008) — the "original
// sequential implementation" competitor of §V-E(a). Identical objective and
// multilevel structure as PLM, but: strictly sequential node moves (so
// modularity increases monotonically, no stale data), and — like the
// reference code — an explicitly randomized node visiting order per sweep,
// the implementation detail the paper credits for its marginally better
// modularity.

#include "community/detector.hpp"

namespace grapr {

class LouvainSeq final : public CommunityDetector {
public:
    explicit LouvainSeq(double gamma = 1.0, count maxMoveIterations = 64)
        : gamma_(gamma), maxMoveIterations_(maxMoveIterations) {}

    using CommunityDetector::run;
    Partition run(const CsrGraph& g) override;

    std::string toString() const override { return "Louvain"; }

private:
    double gamma_;
    count maxMoveIterations_;

    /// Sequential move phase with randomized order; returns #moves.
    count movePhase(const CsrGraph& g, Partition& zeta) const;

    Partition runRecursive(const CsrGraph& g) const;
};

} // namespace grapr
