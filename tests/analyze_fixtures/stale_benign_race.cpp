// Seeded benign-race-validity violation: the annotated write below is
// provably disjoint (induction-derived index, no foreign read of the
// container anywhere in the region), so the grapr:benign-race annotation
// excuses a race that does not exist. The analyzer must flag it as stale
// (grapr:expect marker). The second region is the legal twin: the same
// annotation shape on a genuinely racy neighbor-indexed write stays live.
//
// This file is analyzed, never compiled.

using node = unsigned long long;

void staleAnnotation(node* labels, long long n) {
#pragma omp parallel for default(none) shared(labels, n)
    for (long long i = 0; i < n; ++i) {
        const node u = static_cast<node>(i);
        // VIOLATION: the write below is disjoint, nothing here races.
        // grapr:benign-race(labels): stale reads tolerated by the  grapr:expect(benign-race-validity)
        // asynchronous update contract.
        labels[u] = u;
    }
}

void liveAnnotation(node* labels, const node* neighbors,
                    const unsigned long long* offsets, long long n) {
#pragma omp parallel for default(none) \
    shared(labels, neighbors, offsets, n)
    for (long long i = 0; i < n; ++i) {
        const node u = static_cast<node>(i);
        node best = 0;
        for (unsigned long long e = offsets[u]; e < offsets[u + 1]; ++e) {
            const node v = neighbors[e];
            // Foreign read: concurrent writers publish into this scan.
            best += labels[v];
        }
        // grapr:benign-race(labels): asynchronous label publish; neighbor
        // scans in this round may read the old or the new value.
        labels[u] = best;
    }
}
