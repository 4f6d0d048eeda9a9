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
    /// Sweep a frontier instead of all n nodes: after the first full
    /// iteration, only the nodes whose neighborhood changed last iteration
    /// (collected into a deduplicated worklist when their neighbor's label
    /// flipped) are visited at all. Versus trackActiveNodes — which still
    /// walks the full node range and pays a flag check per converged node
    /// — the long convergence tail becomes O(frontier) per iteration. The
    /// frontier is rebuilt (and reshuffled, preserving the traversal
    /// decorrelation) between iterations, so nodes activated late are
    /// visited one iteration later than flag-mode would visit them:
    /// iteration counts and labels differ slightly, which is why this is
    /// opt-in and pinned by its own regression test rather than the
    /// bit-reproducibility harness. Takes precedence over trackActiveNodes.
    bool frontierSweep = false;
    /// Collapse degree-1 chains/pendants onto their anchors before
    /// propagation and project the labels back afterwards (vertex
    /// following; see community/vertex_following.hpp). Followers adopt
    /// their anchor's final label by construction.
    bool vertexFollowing = false;
};

class Plp final : public CommunityDetector {
public:
    explicit Plp(PlpConfig config = {}) : config_(config) {}

    /// Freezes g into a CsrGraph (the O(m) freeze is amortized over tens
    /// of label sweeps that then stream flat arrays) and runs on that.
    Partition run(const Graph& g) override;

    /// Run on an already-frozen graph (no freeze cost, no conversion).
    Partition run(const CsrGraph& g) override;

    std::string toString() const override;

    /// Number of iterations of the last run.
    count iterations() const noexcept { return iterations_; }

private:
    PlpConfig config_;
    count iterations_ = 0;

    /// The label-propagation kernel.
    Partition runImpl(const CsrGraph& g);
};

} // namespace grapr
