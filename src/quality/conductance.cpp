#include "quality/conductance.hpp"

#include <algorithm>
#include <cmath>

namespace grapr {

namespace {

struct CommunityAggregates {
    std::vector<double> volume;  ///< vol(C)
    std::vector<double> cut;     ///< ω(C, V\C)
    std::vector<count> intraEdges;
    std::vector<count> size;
    double totalVolume = 0.0;
    count communities = 0;
};

template <typename G>
CommunityAggregates aggregate(const Partition& zeta, const G& g) {
    require(zeta.numberOfElements() >= g.upperNodeIdBound(),
            "conductance: partition does not cover the graph");
    const count k = zeta.upperBound();
    require(k > 0, "conductance: empty partition");
    CommunityAggregates agg;
    agg.volume.assign(k, 0.0);
    agg.cut.assign(k, 0.0);
    agg.intraEdges.assign(k, 0);
    agg.size.assign(k, 0);
    agg.communities = k;

    g.forNodes([&](node u) {
        const node c = zeta[u];
        require(c != none && c < k, "conductance: node unassigned");
        ++agg.size[c];
        agg.volume[c] += g.volume(u);
    });
    g.forEdges([&](node u, node v, edgeweight w) {
        if (zeta[u] == zeta[v]) {
            if (u != v) ++agg.intraEdges[zeta[u]];
        } else {
            agg.cut[zeta[u]] += w;
            agg.cut[zeta[v]] += w;
        }
    });
    agg.totalVolume = 2.0 * g.totalEdgeWeight();
    return agg;
}

std::vector<double> conductances(const CommunityAggregates& agg) {
    std::vector<double> result(agg.communities, 0.0);
    for (count c = 0; c < agg.communities; ++c) {
        const double volC = agg.volume[c];
        const double volRest = agg.totalVolume - volC;
        const double denom = std::min(volC, volRest);
        result[c] = denom > 0.0 ? agg.cut[c] / denom : 0.0;
    }
    return result;
}

ConductanceSummary summarize(const CommunityAggregates& agg) {
    const std::vector<double> phi = conductances(agg);
    ConductanceSummary summary;
    double total = 0.0;
    double weighted = 0.0;
    double weightTotal = 0.0;
    double minimum = 1.0;
    double maximum = 0.0;
    count populated = 0;
    for (count c = 0; c < phi.size(); ++c) {
        if (agg.size[c] == 0) continue;
        ++populated;
        total += phi[c];
        weighted += phi[c] * agg.volume[c];
        weightTotal += agg.volume[c];
        minimum = std::min(minimum, phi[c]);
        maximum = std::max(maximum, phi[c]);
    }
    if (populated == 0) return summary;
    summary.minimum = minimum;
    summary.maximum = maximum;
    summary.average = total / static_cast<double>(populated);
    summary.weightedAverage = weightTotal > 0.0 ? weighted / weightTotal : 0.0;
    return summary;
}

} // namespace

std::vector<double> communityConductances(const Partition& zeta,
                                          const Graph& g) {
    return conductances(aggregate(zeta, g));
}

std::vector<double> communityConductances(const Partition& zeta,
                                          const CsrGraph& g) {
    return conductances(aggregate(zeta, g));
}

ConductanceSummary conductanceSummary(const Partition& zeta, const Graph& g) {
    return summarize(aggregate(zeta, g));
}

ConductanceSummary conductanceSummary(const Partition& zeta,
                                      const CsrGraph& g) {
    return summarize(aggregate(zeta, g));
}

double averageIntraDensity(const Partition& zeta, const Graph& g) {
    const CommunityAggregates agg = aggregate(zeta, g);
    double total = 0.0;
    count contributors = 0;
    for (count c = 0; c < agg.communities; ++c) {
        const count s = agg.size[c];
        if (s < 2) continue;
        const double possible = static_cast<double>(s) * (s - 1) / 2.0;
        total += static_cast<double>(agg.intraEdges[c]) / possible;
        ++contributors;
    }
    return contributors == 0 ? 0.0 : total / contributors;
}

double performanceMeasure(const Partition& zeta, const Graph& g) {
    const CommunityAggregates agg = aggregate(zeta, g);
    const count n = g.numberOfNodes();
    if (n < 2) return 1.0;
    const double allPairs = static_cast<double>(n) * (n - 1) / 2.0;

    double intraPairs = 0.0;
    count intraEdges = 0;
    for (count c = 0; c < agg.communities; ++c) {
        const double s = static_cast<double>(agg.size[c]);
        intraPairs += s * (s - 1) / 2.0;
        intraEdges += agg.intraEdges[c];
    }
    count nonLoopEdges = 0;
    g.forEdges([&](node u, node v, edgeweight) {
        if (u != v) ++nonLoopEdges;
    });
    const count interEdges = nonLoopEdges - intraEdges;
    // Correct: intra pairs WITH an edge + inter pairs WITHOUT an edge.
    const double interPairs = allPairs - intraPairs;
    const double correct = static_cast<double>(intraEdges) +
                           (interPairs - static_cast<double>(interEdges));
    return correct / allPairs;
}

} // namespace grapr
