// Seeded index-width violations for grapr_analyze. Every numbered site
// must be reported at its grapr:expect marker. The legal block at the
// bottom pins the sanctioned idioms that must stay silent.
//
// This file is analyzed, never compiled.

#include "graph/csr_graph.hpp"
#include "support/common.hpp"

namespace grapr {

count sumDegrees(const CsrGraph& g, count n, node hub, edgeweight w) {
    // (1) 64-bit count silently truncated into int.
    int total = g.numberOfNodes();  // grapr:expect(index-width)

    // (2) 32-bit induction variable compared against a count bound:
    // wraps forever once n exceeds 2^32.
    for (unsigned i = 0; i < n; ++i) {  // grapr:expect(index-width)
        // (3) int accumulator over degrees overflows at scale.
        total += g.degree(hub);  // grapr:expect(index-width)
    }

    // (4) C-style cast hides the same truncation an implicit conversion
    // would: must be static_cast if intended.
    const int edges = (int)g.numberOfEdges();  // grapr:expect(index-width)

    // (5) node ids do not fit signed 32-bit: the `none` sentinel is
    // 2^32-1.
    int neighbor = g.getIthNeighbor(hub, 0);  // grapr:expect(index-width)

    // (6) edgeweight (double) into an integer: drops fractional weights.
    count rounded = g.weightedDegree(hub);  // grapr:expect(index-width)

    // (7) edgeweight into float: loses precision on big accumulations.
    float wf = w;  // grapr:expect(index-width)

    return static_cast<count>(total + edges + neighbor) + rounded
           + static_cast<count>(wf);
}

// Sanctioned idioms — must NOT be reported.
count legalIdioms(const CsrGraph& g, count n) {
    // 64-bit locals for 64-bit values.
    count total = g.numberOfNodes();
    std::int64_t signedTotal = 0;
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
        // Explicit, greppable narrowing after a bound guarantees safety.
        const node u = static_cast<node>(v);
        signedTotal += static_cast<std::int64_t>(g.degree(u));
    }
    // Narrow types fed from narrow values are fine.
    int attempts = 0;
    ++attempts;
    return total + static_cast<count>(signedTotal) +
           static_cast<count>(attempts);
}

} // namespace grapr
