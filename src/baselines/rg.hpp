#pragma once
// RG — randomized greedy agglomeration, our in-framework stand-in for the
// Randomized Greedy algorithm of Ovelgönne & Geyer-Schulz (the CNM family
// member that won the DIMACS Pareto challenge as part of CGGC). Starting
// from singletons, repeatedly pick a random community and merge it with
// the neighbor giving the highest modularity gain, as long as positive
// gains exist. The randomized vertex choice (instead of a global best-merge
// priority queue) is RG's defining trait and avoids CNM's unbalanced
// community growth.
//
// Sequential by nature (a global merge order), like the original — this is
// the expensive, high-quality end of the paper's comparison (§V-E c).

#include "community/detector.hpp"

namespace grapr {

class RandomizedGreedy final : public CommunityDetector {
public:
    /// `sampleSize`: communities examined per step (the best of the sample
    /// is merged); 1 reproduces plain randomized greedy.
    explicit RandomizedGreedy(double gamma = 1.0, count sampleSize = 4)
        : gamma_(gamma), sampleSize_(sampleSize) {}

    using CommunityDetector::run;
    Partition run(const CsrGraph& g) override;

    std::string toString() const override { return "RG"; }

private:
    double gamma_;
    count sampleSize_;
};

} // namespace grapr
