// Seeded csr-staleness violations for grapr_analyze. Each numbered site
// must be reported at its grapr:expect marker; an analyzer that stops
// seeing one of them has lost the check.
//
// This file is analyzed, never compiled.

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace grapr {

// (1) The textbook violation: freeze, mutate, read.
double staleDirectRead(Graph& g) {
    const CsrGraph frozen(g);          // freeze site
    g.addEdge(0, 5);                   // mutation site
    return frozen.weightedDegree(0);   // VIOLATION: stale read  grapr:expect(csr-staleness)
}

// (2) Mutation through a callee with a Graph& summary: sortAdjacencies
// mutates its parameter, so the view is stale afterwards.
void sortAdjacencies(Graph& g) {
    g.sortNeighborLists();
}

count staleAfterCallee(Graph& g) {
    const CsrGraph frozen(g);
    sortAdjacencies(g);                // mutates g via the callee
    return frozen.degree(3);           // VIOLATION: positional reads diverge  grapr:expect(csr-staleness)
}

// (3) Aliased view: the reference reads the same stale snapshot.
count staleThroughAlias(Graph& g) {
    const CsrGraph frozen(g);
    const CsrGraph& view = frozen;
    g.removeEdge(1, 2);
    return view.numberOfEdges();       // VIOLATION: alias of a stale view  grapr:expect(csr-staleness)
}

// Legal lifecycle — must NOT be reported: all reads happen before the
// mutation, and the re-freeze afterwards is fresh.
count legalRefreeze(Graph& g) {
    const CsrGraph before(g);
    const count e = before.numberOfEdges();
    g.addEdge(7, 8);
    const CsrGraph after(g);
    return e + after.numberOfEdges();
}

} // namespace grapr
