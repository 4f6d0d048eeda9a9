#include "coarsening/parallel_coarsening.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include <omp.h>

#include "graph/graph_builder.hpp"
#include "support/parallel.hpp"

namespace grapr {

namespace {

/// Deterministic compaction: coarse ids ordered by ascending community id.
/// Generic over the graph layout (mutable adjacency lists or frozen CSR).
template <typename GraphT>
std::pair<std::vector<node>, count> compactMap(const GraphT& g,
                                               const Partition& zeta) {
    const count idBound = zeta.upperBound();
    require(idBound > 0, "coarsening: partition upper bound is zero");
    std::vector<node> remap(idBound, none);
    g.forNodes([&](node v) {
        const node c = zeta[v];
        require(c != none && c < idBound, "coarsening: node unassigned");
        remap[c] = 0; // mark as used
    });
    const node coarseNodes = rankUsedIds(remap);
    std::vector<node> fineToCoarse(g.upperNodeIdBound(), none);
    g.parallelForNodes([&](node v) { fineToCoarse[v] = remap[zeta[v]]; });
    return {std::move(fineToCoarse), coarseNodes};
}

} // namespace

CoarseningResult ParallelPartitionCoarsening::run(const Graph& g,
                                                  const Partition& zeta) const {
    auto [fineToCoarse, coarseNodes] = compactMap(g, zeta);
    return parallel_ ? runParallel(g, fineToCoarse, coarseNodes)
                     : runSequential(g, fineToCoarse, coarseNodes);
}

CoarseningResult ParallelPartitionCoarsening::runSequential(
    const Graph& g, const std::vector<node>& fineToCoarse,
    count coarseNodes) const {
    // One hash aggregation over all edges — the pre-parallelization scheme
    // kept for the ablation study.
    std::unordered_map<std::uint64_t, double> agg;
    agg.reserve(g.numberOfEdges() / 4 + 16);
    g.forEdges([&](node u, node v, edgeweight w) {
        node cu = fineToCoarse[u];
        node cv = fineToCoarse[v];
        if (cu > cv) std::swap(cu, cv);
        agg[(static_cast<std::uint64_t>(cu) << 32) | cv] += w;
    });

    CoarseningResult result;
    result.coarseGraph = Graph(coarseNodes, true);
    for (const auto& [key, w] : agg) {
        const auto cu = static_cast<node>(key >> 32);
        const auto cv = static_cast<node>(key & 0xffffffffULL);
        result.coarseGraph.addEdge(cu, cv, w);
    }
    result.fineToCoarse = fineToCoarse;
    return result;
}

CoarseningResult ParallelPartitionCoarsening::runParallel(
    const Graph& g, const std::vector<node>& fineToCoarse,
    count coarseNodes) const {
    // Phase 1 (paper §III-B): each thread scans a slice of the fine edges
    // and aggregates them in a thread-private hash map — its partial coarse
    // graph G'_t.
    const int threads = omp_get_max_threads();
    std::vector<std::unordered_map<std::uint64_t, double>> partial(
        static_cast<std::size_t>(threads));

    const auto bound = static_cast<std::int64_t>(g.upperNodeIdBound());
#pragma omp parallel default(none) shared(g, partial, fineToCoarse, bound)
    {
        auto& local = partial[static_cast<std::size_t>(omp_get_thread_num())];
        local.reserve(1024);
#pragma omp for schedule(guided)
        for (std::int64_t su = 0; su < bound; ++su) {
            const node u = static_cast<node>(su);
            if (!g.hasNode(u)) continue;
            g.forNeighborsOf(u, [&](node v, edgeweight w) {
                if (v < u) return; // each fine edge from one endpoint only
                node cu = fineToCoarse[u];
                node cv = fineToCoarse[v];
                if (cu > cv) std::swap(cu, cv);
                local[(static_cast<std::uint64_t>(cu) << 32) | cv] += w;
            });
        }
    }

    // Phase 2: merge the partial graphs. Emitting each partial adjacency as
    // an edge triple and letting GraphBuilder deduplicate with weight
    // summation performs exactly the per-coarse-node merge, with the
    // scatter phase parallel.
    GraphBuilder builder(coarseNodes, true);
    // Worksharing over the partial maps, NOT one map per team member: the
    // num_threads clause the old code relied on is only a request — with
    // dynamic thread adjustment a smaller team would silently skip the
    // unvisited partial maps, dropping coarse edges.
    const auto nparts = static_cast<std::int64_t>(partial.size());
#pragma omp parallel for default(none) shared(builder, partial, nparts)      \
    schedule(static)
    for (std::int64_t t = 0; t < nparts; ++t) {
        const auto& local = partial[static_cast<std::size_t>(t)];
        for (const auto& [key, w] : local) {
            builder.addEdge(static_cast<node>(key >> 32),
                            static_cast<node>(key & 0xffffffffULL), w);
        }
    }

    CoarseningResult result;
    result.coarseGraph = builder.build(/*dedup=*/true, /*sumWeights=*/true);
    result.fineToCoarse = fineToCoarse;
    return result;
}

CsrCoarseningResult ParallelPartitionCoarsening::run(
    const CsrGraph& g, const Partition& zeta) const {
    auto [fineToCoarse, coarseNodes] = compactMap(g, zeta);

    // Bucket the fine nodes by coarse id: counting sort with a prefix sum
    // over the community sizes, then a parallel scatter. Buckets are
    // sorted ascending afterwards so the aggregation order below — and
    // with it the coarse graph — is independent of the thread count.
    std::vector<count> rowStart(coarseNodes, 0);
    g.parallelForNodes([&](node v) {
#pragma omp atomic
        ++rowStart[fineToCoarse[v]];
    });
    const count memberCount = Parallel::prefixSum(rowStart);
    std::vector<node> members(memberCount);
    {
        std::vector<std::atomic<count>> cursor(coarseNodes);
        for (count c = 0; c < coarseNodes; ++c) {
            cursor[c].store(rowStart[c], std::memory_order_relaxed);
        }
        g.parallelForNodes([&](node v) {
            const count slot = cursor[fineToCoarse[v]].fetch_add(
                1, std::memory_order_relaxed);
            members[slot] = v;
        });
    }
    auto bucketEnd = [&](count c) {
        return c + 1 < coarseNodes ? rowStart[c + 1] : memberCount;
    };
    const auto scn = static_cast<std::int64_t>(coarseNodes);
#pragma omp parallel for default(none)                                       \
    shared(members, rowStart, bucketEnd, scn) schedule(guided) if (parallel_)
    for (std::int64_t c = 0; c < scn; ++c) {
        const auto cc = static_cast<count>(c);
        std::sort(members.begin() + static_cast<std::ptrdiff_t>(rowStart[cc]),
                  members.begin() + static_cast<std::ptrdiff_t>(bucketEnd(cc)));
    }

    // One aggregation per coarse node: scan the members' fine rows into a
    // scratch accumulator keyed by coarse neighbor id. Intra-community
    // edges land on the coarse self-loop; the `v < u` guard counts each
    // one from a single endpoint (fine self-loops pass, stored once).
    ScratchPool scratch(coarseNodes);
    auto aggregate = [&](count c, SparseAccumulator& acc) {
        acc.clear();
        const count end = bucketEnd(c);
        for (count i = rowStart[c]; i < end; ++i) {
            const node u = members[i];
            g.forNeighborsOf(u, [&](node v, edgeweight w) {
                const node cv = fineToCoarse[v];
                if (cv == c && v < u) return;
                acc.add(cv, w);
            });
        }
    };

    // Pass 1: coarse row lengths -> prefix sum -> CSR offsets.
    std::vector<count> rowLength(coarseNodes, 0);
#pragma omp parallel for default(none)                                       \
    shared(scratch, aggregate, rowLength, scn) schedule(guided)              \
        if (parallel_)
    for (std::int64_t c = 0; c < scn; ++c) {
        SparseAccumulator& acc = scratch.local();
        aggregate(static_cast<count>(c), acc);
        rowLength[static_cast<count>(c)] =
            static_cast<count>(acc.touched().size());
    }
    const count entries = Parallel::prefixSum(rowLength);
    std::vector<index> offsets(coarseNodes + 1);
    for (count c = 0; c < coarseNodes; ++c) {
        offsets[c] = static_cast<index>(rowLength[c]);
    }
    offsets[coarseNodes] = static_cast<index>(entries);

    // Pass 2: re-aggregate and write each row, sorted by coarse neighbor
    // id, directly into its CSR slice.
    std::vector<node> neighbors(entries);
    std::vector<edgeweight> weights(entries);
#pragma omp parallel for default(none)                                       \
    shared(scratch, aggregate, offsets, neighbors, weights, scn)             \
    schedule(guided) if (parallel_)
    for (std::int64_t c = 0; c < scn; ++c) {
        const auto cc = static_cast<count>(c);
        SparseAccumulator& acc = scratch.local();
        aggregate(cc, acc);
        std::vector<index> row(acc.touched());
        std::sort(row.begin(), row.end());
        index slot = offsets[cc];
        for (index key : row) {
            neighbors[slot] = static_cast<node>(key);
            weights[slot] = acc[key];
            ++slot;
        }
    }

    CsrCoarseningResult result;
    result.coarseGraph = CsrGraph(std::move(offsets), std::move(neighbors),
                                  std::move(weights), /*weighted=*/true);
    result.fineToCoarse = std::move(fineToCoarse);
    return result;
}

} // namespace grapr
