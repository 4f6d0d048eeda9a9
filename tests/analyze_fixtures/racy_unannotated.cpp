// Seeded shared-write-safety violations for grapr_analyze's
// parallel-effects pass. Every numbered site is a racy write with NO
// grapr:benign-race annotation, and carries a grapr:expect marker, so an
// analyzer that stops seeing one of them has lost the check. The legal
// twins below each site pin the lattice's safe classes, so a regression
// toward "flag everything" fails too (and so does the dual-frontend
// agreement test).
//
// This file is analyzed, never compiled.

using node = unsigned long long;
using count = unsigned long long;

void racyWrites(double* weights, double* hits, node* labels,
                node* neighbors, const unsigned long long* offsets,
                long long n) {
    double total = 0.0;
#pragma omp parallel for default(none) \
    shared(weights, hits, labels, neighbors, offsets, n) reduction(+ : total)
    for (long long i = 0; i < n; ++i) {
        const node u = static_cast<node>(i);
        // Legal: reduction clause.
        total += weights[u];
        // Legal: disjoint write at the induction-derived index.
        weights[u] = total;
        for (unsigned long long e = offsets[u]; e < offsets[u + 1]; ++e) {
            const node v = neighbors[e];
            // (1) VIOLATION: neighbor-indexed write, no annotation —
            // several threads share v values.
            labels[v] = u;  // grapr:expect(shared-write-safety)
        }
        // (2) VIOLATION: read-modify-write of a shared slot at a constant
        // index — every iteration updates the same element.
        hits[0] += 1.0;  // grapr:expect(shared-write-safety)
    }
}
