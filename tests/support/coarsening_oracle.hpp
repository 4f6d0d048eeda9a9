#pragma once
// A sequential reference for coarsening by a partition, written without
// any of the production coarsening code: ordered maps, one coarse row at a
// time. The CSR coarsening is pinned against it bit for bit
// (test_coarsening.cpp), and the multilevel PLM reference of test_csr.cpp
// contracts its levels with it.

#include <map>
#include <vector>

#include "graph/csr_graph.hpp"
#include "structures/partition.hpp"
#include "support/common.hpp"

namespace grapr::testing {

/// The coarse graph as plain arrays, plus the figures the CsrGraph
/// constructor derives from them.
struct OracleCoarsening {
    std::vector<index> offsets;
    std::vector<node> neighbors;
    std::vector<edgeweight> weights;
    std::vector<node> fineToCoarse;
    count selfLoops = 0;
    count edges = 0;
    edgeweight totalWeight = 0.0;
};

/// Coarse graph of g under zeta, built one row at a time in the order the
/// CSR coarsening promises: coarse ids rank the used community ids
/// ascending; row c sums its members' rows, members ascending by fine id
/// and each row in CSR order; an intra-community entry counts only from
/// its endpoint u with v >= u; keys ascend within the row.
inline OracleCoarsening oracleCoarsening(const CsrGraph& g,
                                         const Partition& zeta) {
    OracleCoarsening o;
    std::map<node, node> rank;
    g.forNodes([&](node v) { rank[zeta[v]] = 0; });
    node next = 0;
    for (auto& [community, coarse] : rank) coarse = next++;
    o.fineToCoarse.assign(g.upperNodeIdBound(), none);
    std::vector<std::vector<node>> members(next);
    g.forNodes([&](node v) {
        o.fineToCoarse[v] = rank[zeta[v]];
        members[o.fineToCoarse[v]].push_back(v);
    });

    o.offsets.push_back(0);
    for (node c = 0; c < next; ++c) {
        std::map<node, edgeweight> row;
        for (const node u : members[c]) {
            g.forNeighborsOf(u, [&](node v, edgeweight w) {
                const node cv = o.fineToCoarse[v];
                if (cv == c && v < u) return;
                row[cv] += w;
            });
        }
        for (const auto& [key, w] : row) {
            o.neighbors.push_back(key);
            o.weights.push_back(w);
        }
        o.offsets.push_back(o.neighbors.size());
    }

    // The constructor's one-thread derivation: long-double sums in row
    // order, non-loop entries seen from both ends.
    long double weightTwice = 0.0L;
    long double loopWeight = 0.0L;
    for (node c = 0; c < next; ++c) {
        for (index i = o.offsets[c]; i < o.offsets[c + 1]; ++i) {
            if (o.neighbors[i] == c) {
                ++o.selfLoops;
                loopWeight += o.weights[i];
            } else {
                weightTwice += o.weights[i];
            }
        }
    }
    o.edges = (o.neighbors.size() - o.selfLoops) / 2 + o.selfLoops;
    o.totalWeight = static_cast<edgeweight>(weightTwice / 2.0L + loopWeight);
    return o;
}

} // namespace grapr::testing
