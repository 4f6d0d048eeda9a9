#include "coarsening/parallel_coarsening.hpp"

#include <algorithm>
#include <cstdint>

#include "support/parallel.hpp"

namespace grapr {

namespace {

/// Deterministic compaction: coarse ids ordered by ascending community id.
std::pair<std::vector<node>, count> compactMap(const CsrGraph& g,
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

/// Per-thread scratch of the CSR coarsening: the row accumulator and a
/// bitset over the coarse id space that orders long rows.
struct RowScratch {
    explicit RowScratch(count coarseNodes)
        : acc(coarseNodes), bits((coarseNodes + 63) / 64, 0) {}
    SparseAccumulator acc;
    std::vector<std::uint64_t> bits;
};

/// A run of consecutive coarse rows, in final order.
struct CoarseRows {
    std::vector<node> neighbors;
    std::vector<edgeweight> weights;
};

/// Append the accumulated row's keys in ascending order, each with its
/// sum. A row with at least one key per 16 bitset words is ordered by a
/// scan of the bitset, a shorter one by sorting its keys in place.
void appendInKeyOrder(RowScratch& scratch, CoarseRows& out) {
    const SparseAccumulator& acc = scratch.acc;
    const std::vector<index>& keys = acc.touched();
    std::vector<std::uint64_t>& bits = scratch.bits;
    if (keys.size() * 16 >= bits.size()) {
        for (const index k : keys) {
            bits[k >> 6] |= std::uint64_t{1} << (k & 63);
        }
        for (std::size_t w = 0; w < bits.size(); ++w) {
            std::uint64_t word = bits[w];
            if (word == 0) continue;
            bits[w] = 0;
            do {
                const index k =
                    w * 64 + static_cast<index>(__builtin_ctzll(word));
                out.neighbors.push_back(static_cast<node>(k));
                out.weights.push_back(acc[k]);
                word &= word - 1;
            } while (word != 0);
        }
        return;
    }
    const auto first = static_cast<std::ptrdiff_t>(out.neighbors.size());
    for (const index k : keys) out.neighbors.push_back(static_cast<node>(k));
    std::sort(out.neighbors.begin() + first, out.neighbors.end());
    for (auto it = out.neighbors.begin() + first; it != out.neighbors.end();
         ++it) {
        out.weights.push_back(acc[*it]);
    }
}

} // namespace

CsrCoarseningResult ParallelPartitionCoarsening::run(
    const CsrGraph& g, const Partition& zeta) const {
    auto [fineToCoarse, coarseNodes] = compactMap(g, zeta);

    // Bucket the fine nodes by coarse id: a stable counting sort. Sizes,
    // an inclusive prefix sum, then a scatter that fills every bucket from
    // its end while scanning the ids downwards, which leaves the members
    // ascending and memberStart[c] at the start of bucket c.
    std::vector<index> memberStart(coarseNodes + 1, 0);
    g.forNodes([&](node v) { ++memberStart[fineToCoarse[v]]; });
    for (count c = 1; c <= coarseNodes; ++c) {
        memberStart[c] += memberStart[c - 1];
    }
    std::vector<node> members(memberStart[coarseNodes]);
    for (node v = static_cast<node>(g.upperNodeIdBound()); v-- > 0;) {
        if (g.hasNode(v)) members[--memberStart[fineToCoarse[v]]] = v;
    }

    // One contiguous run of coarse rows per thread, balanced by the fine
    // entries the rows aggregate. A row holds at most one entry per fine
    // entry and at most one per coarse node, which bounds the room each
    // run reserves for its output.
    const count threads =
        parallel_ ? static_cast<count>(Parallel::maxThreads()) : 1;
    const count parts = std::max<count>(1, std::min(threads, coarseNodes));
    const index fineEntries = g.offsets().back();
    std::vector<node> partStart(parts + 1, static_cast<node>(coarseNodes));
    std::vector<index> partRoom(parts, 0);
    partStart[0] = 0;
    {
        count part = 0;
        index work = 0;
        for (count c = 0; c < coarseNodes; ++c) {
            while (part + 1 < parts &&
                   work >= (part + 1) * fineEntries / parts) {
                partStart[++part] = static_cast<node>(c);
            }
            index rowWork = 0;
            for (index i = memberStart[c]; i < memberStart[c + 1]; ++i) {
                rowWork += g.degree(members[i]);
            }
            partRoom[part] += std::min<index>(rowWork, coarseNodes);
            work += rowWork;
        }
    }
    index totalRoom = 0;
    for (const index room : partRoom) totalRoom += room;

    // Each row is aggregated once, in a scratch accumulator keyed by
    // coarse neighbor id: members ascending, each fine row in CSR order.
    // Intra-community edges land on the coarse self-loop; the `v < u`
    // guard counts each one from a single endpoint (fine self-loops pass,
    // stored once). The row's keys are then put in ascending order at
    // once and appended with their sums: a comparison sort for a short
    // row, a scan of a bitset over the coarse id space for a row that is
    // long relative to that space. Runs are appended in row order, so the
    // coarse graph does not depend on where the runs were cut.
    ThreadLocalPool<RowScratch> scratch(coarseNodes);
    std::vector<CoarseRows> runs(parts);
    std::vector<index> offsets(coarseNodes + 1, 0);
    Parallel::TsanJoinFence fence;
    const auto sparts = static_cast<std::int64_t>(parts);
#pragma omp parallel for default(none)                                       \
    shared(g, fineToCoarse, memberStart, members, partStart, partRoom,       \
               totalRoom, scratch, runs, offsets, fence, sparts)             \
    schedule(static, 1) if (parallel_)
    for (std::int64_t t = 0; t < sparts; ++t) {
        const auto part = static_cast<std::size_t>(t);
        RowScratch& local = scratch.local();
        SparseAccumulator& acc = local.acc;
        // Run 0's arrays become the coarse graph's: they reserve room for
        // every run, so appending the others never reallocates. Reserved
        // room beyond the written entries is never touched.
        CoarseRows out;
        const index room = part == 0 ? totalRoom : partRoom[part];
        out.neighbors.reserve(room);
        out.weights.reserve(room);
        for (node c = partStart[part]; c < partStart[part + 1]; ++c) {
            acc.clear();
            for (index i = memberStart[c]; i < memberStart[c + 1]; ++i) {
                const node u = members[i];
                g.forNeighborsOf(u, [&](node v, edgeweight w) {
                    const node cv = fineToCoarse[v];
                    if (cv == c && v < u) return;
                    acc.add(cv, w);
                });
            }
            // grapr:analyze-allow(shared-write-safety): c ranges over this
            // iteration's run [partStart[part], partStart[part + 1]) only,
            // a slice the derived-index rule cannot express.
            offsets[c] = acc.touched().size();
            appendInKeyOrder(local, out);
        }
        runs[part] = std::move(out);
        fence.arrive();
    }
    fence.join();

    Parallel::prefixSum(offsets);
    CoarseRows& rows = runs[0];
    for (std::size_t part = 1; part < parts; ++part) {
        CoarseRows& run = runs[part];
        rows.neighbors.insert(rows.neighbors.end(), run.neighbors.begin(),
                              run.neighbors.end());
        rows.weights.insert(rows.weights.end(), run.weights.begin(),
                            run.weights.end());
        run = CoarseRows{};
    }

    CsrCoarseningResult result;
    result.coarseGraph = CsrGraph(std::move(offsets), std::move(rows.neighbors),
                                  std::move(rows.weights), /*weighted=*/true);
    result.fineToCoarse = std::move(fineToCoarse);
    return result;
}

} // namespace grapr
