#pragma once
// Sequential label propagation exactly as described by Raghavan et al.
// (2007): random visiting order per iteration, most-frequent neighbor label
// with uniformly random tie breaking, asynchronous updates, terminating
// when every node carries a label of the relative majority in its
// neighborhood. Serves as the reference implementation PLP is validated
// against, and quantifies what PLP's engineering (threshold, activity
// tracking, parallelism) buys.

#include "community/detector.hpp"

namespace grapr {

class LabelPropSeq final : public CommunityDetector {
public:
    explicit LabelPropSeq(count maxIterations = 1000)
        : maxIterations_(maxIterations) {}

    using CommunityDetector::run;
    Partition run(const CsrGraph& g) override;

    std::string toString() const override { return "LabelPropagation(seq)"; }

    count iterations() const noexcept { return iterations_; }

private:
    count maxIterations_;
    count iterations_ = 0;
};

} // namespace grapr
