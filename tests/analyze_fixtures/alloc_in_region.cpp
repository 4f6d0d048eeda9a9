// Seeded region-alloc violations: heap allocation / container growth on
// the hot path of a parallel region. The file opts into the rule with the
// scope marker below (fixtures do not live under src/community etc.).
// The analyzer must flag sites (1)-(3), and the racy push_back of (1)
// under shared-write-safety too (grapr:expect markers); the per-thread
// pool and region-local twins are legal.
// grapr:region-alloc-scope
//
// This file is analyzed, never compiled.

#include <memory>
#include <vector>

using node = unsigned long long;

struct Scratch {
    std::vector<node> buf;
};

void allocInRegion(std::vector<node>& out, long long n) {
    std::vector<std::vector<node>> rows(static_cast<unsigned long long>(n));
#pragma omp parallel for default(none) shared(out, rows, n)
    for (long long i = 0; i < n; ++i) {
        // Legal: region-local container, grows per-thread memory only.
        std::vector<node> mine;
        mine.push_back(static_cast<node>(i));
        // (1) VIOLATION: growth of a shared container in the region.
        out.push_back(static_cast<node>(i));  // grapr:expect(shared-write-safety) grapr:expect(region-alloc)
        // (2) VIOLATION: raw new on the hot path.
        node* leak = new node(static_cast<node>(i));  // grapr:expect(region-alloc)
        delete leak;
        // (3) VIOLATION: make_unique allocation per iteration.
        auto boxed = std::make_unique<Scratch>();  // grapr:expect(region-alloc)
        rows[static_cast<unsigned long long>(i)].swap(boxed->buf);
    }
}
