// Seeded index holes in shared-write-safety's disjoint class. An element
// is the iteration's own only when its index is ONE identifier derived
// from the worksharing induction variable (casts and parentheses aside).
// An index whose identifiers are merely all derived (`v + 1`) or that
// has none at all (`0`) names an element another iteration writes or
// every thread shares. Each violation carries a grapr:expect marker; the
// legal twins at the bottom must stay silent.
//
// This file is analyzed, never compiled.

#include <cstddef>
#include <cstdint>
#include <vector>

void shiftedRead(std::vector<int>& label, std::int64_t n) {
#pragma omp parallel for default(none) shared(label, n)
    for (std::int64_t v = 0; v < n - 1; ++v) {
        // (1) VIOLATION: label[v + 1] is the next iteration's slot, which
        // another thread may be writing while this one reads it.
        label[v] = label[v + 1];  // grapr:expect(shared-write-safety)
    }
}

void shiftedWritePair(std::vector<int>& a, std::int64_t n) {
#pragma omp parallel for default(none) shared(a, n)
    for (std::int64_t v = 0; v < n - 1; ++v) {
        // (2) VIOLATION: iteration v writes slot v + 1, which iteration
        // v + 1 writes as its own slot: both writes race.
        a[v] = 1;      // grapr:expect(shared-write-safety)
        a[v + 1] = 2;  // grapr:expect(shared-write-safety)
    }
}

void constantIndex(std::vector<double>& weights, std::int64_t n) {
#pragma omp parallel for default(none) shared(weights, n)
    for (std::int64_t v = 0; v < n; ++v) {
        // (3) VIOLATION: every thread reads weights[0] while iteration 0
        // writes it.
        weights[v] = 2.0 * weights[0];  // grapr:expect(shared-write-safety)
    }
}

void shiftedLocal(std::vector<int>& slot, std::int64_t n) {
#pragma omp parallel for default(none) shared(slot, n)
    for (std::int64_t v = 0; v < n - 1; ++v) {
        // (4) VIOLATION: `next` is not a rename of v, so slot[next] is
        // not this iteration's own element — and slot[v] is read below.
        const std::int64_t next = v + 1;
        slot[next] = slot[v];  // grapr:expect(shared-write-safety)
    }
}

// Legal twins: none of these may be reported.
void legalTwins(std::vector<int>& label, const std::vector<int>& next,
                std::vector<double>& weights, double scale, std::int64_t n) {
#pragma omp parallel for default(none) shared(label, next, weights, scale, n)
    for (std::int64_t v = 0; v < n - 1; ++v) {
        // A rename of the induction variable, through a cast, is still
        // the iteration's own slot.
        const auto sv = static_cast<std::size_t>(v);
        // Shifted and constant reads of an array nobody writes here.
        label[sv] = next[sv + 1] + next[0];
        // Casts and parentheses around the own index change nothing.
        weights[(sv)] = scale * weights[static_cast<std::size_t>(v)];
    }
}
