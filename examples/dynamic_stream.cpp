// Dynamic network stream — the paper's future-work scenario (its funding
// project: "Parallel Analysis of Dynamic Networks"): maintain communities
// over a stream of edge insertions/deletions instead of re-solving from
// scratch after every change.
//
// This is the driving scenario of the streaming engine (DESIGN.md
// "Streaming updates and snapshot isolation"):
//
//   1. a StreamingGraph freezes the network as immutable generation 0;
//   2. a writer submits rewiring batches through a GraphLog — each commit
//      assembles generation N+1 from the delta while readers keep serving
//      generation N, then publishes it with one pointer swap;
//   3. a StreamingPlm re-detects after every batch, seeded from the
//      previous partition and re-activating only the perturbed region;
//   4. an analyst thread pins an old generation and keeps reading it,
//      unaffected by any number of publishes;
//   5. the GraphLog undo stack unwinds the stream batch by batch, ending
//      bit-identical to where it started.
//
// Quality is compared against from-scratch PLM on every post-batch
// snapshot; the point is that the incremental result tracks it while
// evaluating a small fraction of the nodes.

#include <cstdio>

#include "grapr.hpp"

using namespace grapr;

int main() {
    Random::setSeed(31);

    PlantedPartitionGenerator generator(20000, 100, 0.15, 0.0005);
    const Graph initial = generator.generate();

    // Generation 0: freeze the network. Readers and detectors only ever
    // see immutable snapshots from here on.
    StreamingGraph engine(initial);
    GraphLog log(engine);

    const SnapshotPtr genesis = engine.pin(); // the analyst's snapshot
    std::printf("generation 0: n=%llu m=%llu\n",
                static_cast<unsigned long long>(
                    genesis->graph.numberOfNodes()),
                static_cast<unsigned long long>(
                    genesis->graph.numberOfEdges()));

    StreamingPlm incremental;
    incremental.initialize(genesis->graph);

    const Modularity modularity;
    std::printf("initial: %llu communities, modularity %.4f\n\n",
                static_cast<unsigned long long>(
                    incremental.communities().numberOfSubsets()),
                modularity.getQuality(incremental.communities(),
                                      genesis->graph));

    std::printf("%-6s %8s %12s %12s %12s %14s %14s\n", "batch", "net ops",
                "q(incr)", "q(scratch)", "reactivated", "t(incr)",
                "t(scratch)");

    const int rounds = 8;
    const int changesPerRound = 2000;
    SplitMix64 rng = Random::forStream(31);
    for (int round = 1; round <= rounds; ++round) {
        // Build one rewiring batch against the current snapshot: drop
        // present edges, create absent ones (communities drift).
        const SnapshotPtr base = engine.pin();
        const count bound = base->graph.upperNodeIdBound();
        int staged = 0;
        while (staged < changesPerRound) {
            const node u = static_cast<node>(Random::integer(rng, bound));
            const node v = static_cast<node>(Random::integer(rng, bound));
            if (u == v) continue;
            if (csrEdgeWeight(base->graph, u, v).has_value()) {
                log.remove(u, v);
            } else {
                log.insert(u, v);
            }
            ++staged;
        }

        // Atomic publish: generation N+1 is assembled in parallel from
        // the delta while `base` (and the analyst's `genesis`) still
        // serve reads, then swapped in. Permissive mode: the random
        // rewiring may stage the same edge twice.
        const BatchResult result = log.commit(StreamApplyMode::Permissive);
        const SnapshotPtr after = engine.pin();

        Timer incrementalTimer;
        incremental.applyBatch(after->graph, result.touched);
        const double incrementalSeconds = incrementalTimer.elapsed();

        Timer scratchTimer;
        const Partition fromScratch = Plm().run(after->graph);
        const double scratchSeconds = scratchTimer.elapsed();

        const double reactivatedPct =
            100.0 * static_cast<double>(incremental.lastReactivated()) /
            static_cast<double>(after->graph.upperNodeIdBound());
        std::printf("%-6d %8llu %12.4f %12.4f %10.1f %% %14s %14s\n", round,
                    static_cast<unsigned long long>(result.inserted +
                                                    result.removed),
                    modularity.getQuality(incremental.communities(),
                                          after->graph),
                    modularity.getQuality(fromScratch, after->graph),
                    reactivatedPct,
                    formatDuration(incrementalSeconds).c_str(),
                    formatDuration(scratchSeconds).c_str());
    }

    // The analyst's pinned snapshot never moved: generation 0 is still
    // fully readable after eight publishes.
    std::printf("\nanalyst still reads generation %llu: m=%llu "
                "(unchanged across %llu publishes)\n",
                static_cast<unsigned long long>(genesis->generation),
                static_cast<unsigned long long>(
                    genesis->graph.numberOfEdges()),
                static_cast<unsigned long long>(engine.generation()));

    // Unwind the whole stream: the undo stack replays each inverse batch,
    // and the final CSR arrays are bit-identical to generation 0 (the
    // round-trip property tests/test_stream_engine.cpp pins).
    while (log.committedBatches() > 0) log.undo();
    const SnapshotPtr rewound = engine.pin();
    std::printf("after undo of all batches: m=%llu (generation %llu)\n",
                static_cast<unsigned long long>(
                    rewound->graph.numberOfEdges()),
                static_cast<unsigned long long>(rewound->generation));

    std::printf("\nthe streaming engine republishes one frozen snapshot\n"
                "per batch; incremental PLM tracks from-scratch quality\n"
                "while re-activating only the perturbed region.\n");
    return 0;
}
