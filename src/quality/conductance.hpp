#pragma once
// Per-community quality measures beyond modularity: conductance (the
// bottleneck measure — the paper's intro definition of a community as an
// "internally dense node set with sparse connections to the rest"),
// intra-community density, and the performance measure. These give the
// per-community drill-down that a single modularity number hides.

#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "structures/partition.hpp"

namespace grapr {

/// Conductance of one community C: ω(C, V\C) / min(vol(C), vol(V\C)).
/// 0 = perfectly separated, 1 = all edges leave. Communities with zero
/// volume report 0.
std::vector<double> communityConductances(const Partition& zeta,
                                          const Graph& g);
/// Frozen-graph overload — the same sums in the same order.
std::vector<double> communityConductances(const Partition& zeta,
                                          const CsrGraph& g);

struct ConductanceSummary {
    double minimum = 0.0;
    double maximum = 0.0;
    double average = 0.0;
    /// Volume-weighted average — large communities count proportionally.
    double weightedAverage = 0.0;
};

ConductanceSummary conductanceSummary(const Partition& zeta, const Graph& g);
ConductanceSummary conductanceSummary(const Partition& zeta,
                                      const CsrGraph& g);

/// Fraction of realized intra-community edges over possible ones,
/// averaged over communities (unweighted; size-1 communities skipped).
double averageIntraDensity(const Partition& zeta, const Graph& g);

/// Performance (Fortunato §3): fraction of node pairs classified
/// correctly — intra pairs with an edge plus inter pairs without one,
/// over all pairs. Exact, computed from edge counts in O(m + k).
double performanceMeasure(const Partition& zeta, const Graph& g);

} // namespace grapr
