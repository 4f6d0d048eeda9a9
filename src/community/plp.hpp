#pragma once
// PLP — Parallel Label Propagation (paper Algorithm 1, §III-A).
//
// Every node starts with a unique label; in each iteration every active
// node adopts the *dominant* label of its neighborhood (the label
// maximizing the incident edge weight into it), ties broken toward the
// smaller label id. Nodes whose label did not change become inactive and
// are reactivated when a neighbor changes. Iteration stops when fewer than
// theta nodes updated (default θ = n·10⁻⁵, the paper's choice: the long
// tail of iterations updates only a handful of high-degree nodes and can
// be cut without measurable quality loss — see the fig1 bench).
//
// Parallelization is a guided-schedule loop over the active nodes sharing
// one label array. The benign race the paper describes is kept: a thread
// may read a neighbor's label from the previous or the current iteration
// (asynchronous updating), which both avoids label oscillation on
// bipartite structures and diversifies ensemble base solutions.

#include "community/detector.hpp"
#include "graph/csr_graph.hpp"

namespace grapr {

struct PlpConfig {
    /// Update threshold as a fraction of n; iteration stops when
    /// updated <= max(1, thetaFraction · n) fails ... i.e. continues while
    /// updated > theta. Set to 0 to run to complete stability.
    double thetaFraction = 1e-5;
    /// Hard cap on iterations (safety net; the paper's instances converge
    /// in tens of iterations).
    count maxIterations = 1000;
    /// Explicitly randomize the node traversal order once up front. The
    /// paper found this unnecessary (parallelism provides implicit
    /// randomization) and costly; kept as an option for the ablation bench.
    bool explicitRandomization = false;
    /// Use guided scheduling (the paper's choice for load balancing on
    /// scale-free graphs); static otherwise — the scheduling ablation.
    bool guidedSchedule = true;
    /// Track active nodes and skip converged ones (§III-A: "it is
    /// unnecessary to recompute the label weights for a node whose
    /// neighborhood has not changed"); false re-evaluates every node in
    /// every iteration — the activity-tracking ablation.
    bool trackActiveNodes = true;
};

class Plp final : public CommunityDetector {
public:
    explicit Plp(PlpConfig config = {}) : config_(config) {}

    using CommunityDetector::run;
    /// The label sweeps stream the frozen graph's flat arrays.
    Partition run(const CsrGraph& g) override;

    std::string toString() const override;

    /// Number of iterations of the last run.
    count iterations() const noexcept { return iterations_; }

private:
    PlpConfig config_;
    count iterations_ = 0;
};

} // namespace grapr
