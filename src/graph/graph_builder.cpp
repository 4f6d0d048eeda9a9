#include "graph/graph_builder.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include <omp.h>

namespace grapr {

GraphBuilder::GraphBuilder(count n, bool weighted)
    : n_(n), weighted_(weighted),
      perThread_(static_cast<std::size_t>(omp_get_max_threads())) {}

void GraphBuilder::addEdge(node u, node v, edgeweight w) {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    if (tid < perThread_.size()) {
        perThread_[tid].push_back({u, v, weighted_ ? w : 1.0});
        return;
    }
    // More threads than at construction time. The old fallback redirected
    // to buffer 0, racing against thread 0's own push_back; funnel the
    // excess through a dedicated lock-guarded buffer instead.
    const std::lock_guard<std::mutex> guard(overflowLock_);
    overflow_.push_back({u, v, weighted_ ? w : 1.0});
}

count GraphBuilder::bufferedEdges() const {
    count total = overflow_.size();
    for (const auto& buf : perThread_) total += buf.size();
    return total;
}

Graph GraphBuilder::build(bool dedup) {
    // Flatten the per-thread buffers (cheap: move the largest, copy rest).
    std::vector<Triple> triples;
    triples.reserve(bufferedEdges());
    for (auto& buf : perThread_) {
        triples.insert(triples.end(), buf.begin(), buf.end());
        buf.clear();
        buf.shrink_to_fit();
    }
    triples.insert(triples.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    overflow_.shrink_to_fit();

    // Normalize to u <= v so duplicates in either direction collide.
    // Validation is a flag reduction: exceptions must not cross the
    // parallel region boundary.
    const auto total = static_cast<std::int64_t>(triples.size());
    count outOfRange = 0;
#pragma omp parallel for default(none) shared(triples, total)                \
    schedule(static) reduction(+ : outOfRange)
    for (std::int64_t i = 0; i < total; ++i) {
        auto& t = triples[static_cast<std::size_t>(i)];
        if (t.u >= n_ || t.v >= n_) {
            ++outOfRange;
            continue;
        }
        if (t.u > t.v) std::swap(t.u, t.v);
    }
    require(outOfRange == 0, "GraphBuilder: node id out of range");

    if (dedup) {
        std::sort(triples.begin(), triples.end(),
                  [](const Triple& a, const Triple& b) {
                      return a.u != b.u ? a.u < b.u : a.v < b.v;
                  });
        const auto last = std::unique(triples.begin(), triples.end(),
                                      [](const Triple& a, const Triple& b) {
                                          return a.u == b.u && a.v == b.v;
                                      });
        triples.erase(last, triples.end());
    }

    // Pass 1: per-node slot counts (loops get one slot, non-loops one per
    // endpoint).
    std::vector<std::atomic<count>> slots(n_);
    for (auto& s : slots) s.store(0, std::memory_order_relaxed);
    const auto kept = static_cast<std::int64_t>(triples.size());
#pragma omp parallel for default(none) shared(triples, slots, kept)          \
    schedule(static)
    for (std::int64_t i = 0; i < kept; ++i) {
        const auto& t = triples[static_cast<std::size_t>(i)];
        slots[t.u].fetch_add(1, std::memory_order_relaxed);
        if (t.u != t.v) slots[t.v].fetch_add(1, std::memory_order_relaxed);
    }

    // Pass 2: size the adjacency arrays.
    Graph g(n_, weighted_);
    const auto nodes = static_cast<std::int64_t>(n_);
#pragma omp parallel for default(none) shared(g, slots, nodes)               \
    schedule(static)
    for (std::int64_t v = 0; v < nodes; ++v) {
        const auto sv = static_cast<std::size_t>(v);
        const count deg = slots[sv].load(std::memory_order_relaxed);
        // Row sv is resized only by the iteration that owns sv — rows are
        // disjoint across threads.
        g.adjacency_[sv].resize(deg);
        if (weighted_) g.weights_[sv].resize(deg);
        slots[sv].store(0, std::memory_order_relaxed); // reuse as cursor
    }

    // Pass 3: scatter triples into final positions.
    count loops = 0;
    long double weightTotal = 0.0L;
#pragma omp parallel for default(none) shared(g, triples, slots, kept)       \
    schedule(static) reduction(+ : loops, weightTotal)
    for (std::int64_t i = 0; i < kept; ++i) {
        const auto& t = triples[static_cast<std::size_t>(i)];
        const count iu = slots[t.u].fetch_add(1, std::memory_order_relaxed);
        g.adjacency_[t.u][iu] = t.v;
        if (weighted_) g.weights_[t.u][iu] = t.w;
        if (t.u != t.v) {
            const count iv = slots[t.v].fetch_add(1, std::memory_order_relaxed);
            g.adjacency_[t.v][iv] = t.u;
            if (weighted_) g.weights_[t.v][iv] = t.w;
        } else {
            ++loops;
        }
        weightTotal += t.w;
    }

    g.m_ = static_cast<count>(kept);
    g.selfLoops_ = loops;
    g.totalWeight_ = static_cast<edgeweight>(weightTotal);
    g.sorted_ = (kept == 0); // scatter order is thread-arbitrary
    return g;
}

} // namespace grapr
