// Streaming-engine micro benchmark (PR 7): sustained batch-update
// throughput, concurrent-query throughput under a churning writer, and
// the incremental-detection economics of StreamingPlm.
//
// Three sections per instance:
//   * update throughput — apply a recorded stream of Permissive batches
//     through StreamingGraph::apply (parallel delta-CSR merge, one publish
//     per batch) against the naive alternative that rebuilds the frozen
//     CSR from a mutable Graph after every batch. The committed
//     updates/sec number is the PR-over-PR trajectory metric; the
//     batched-vs-rebuild speedup is the within-run ratio that transfers
//     across machines.
//   * concurrent queries — one writer thread churns batches while reader
//     threads pin() snapshots and run a full volume scan per query; both
//     sides are counted. This is the snapshot-isolation payoff: readers
//     never block the writer and vice versa.
//   * incremental detection — a ~1% edge-churn batch, then
//     StreamingPlm::applyBatch (seeded from the converged partition,
//     re-activating only the touched frontier) against a from-scratch
//     Plm::run on the same CsrGraph snapshot. Reports the seeded sweep's
//     move count, the re-activated fraction and the modularity gap.
//
// Batch streams are recorded once against the evolving state (the
// workload generator is counter-based and deterministic), then replayed
// for every timed repetition, interleaved round-robin after a warmup so
// machine-load swings hit all variants alike; speedups use minima.
//
// Emits BENCH_stream.json; tools/check_perf_regression.py (--metric
// updates_per_sec:... --metric speedup_batch_vs_rebuild:... --metric
// incremental.moves:...) compares a fresh --quick run against the
// committed file in CI, with rmat_s13 as the shared anchor instance
// (measured in both modes).
//
// Flags/environment: --quick or GRAPR_BENCH_QUICK=1 shrinks the instance
// list; GRAPR_BENCH_THREADS overrides the thread count (default 4).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "community/plm.hpp"
#include "community/streaming_update.hpp"
#include "generators/rmat.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_log.hpp"
#include "graph/stream_engine.hpp"
#include "quality/modularity.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/stream_workload.hpp"
#include "support/timer.hpp"

using namespace grapr;
using grapr::testing::StreamWorkload;
using grapr::testing::StreamWorkloadConfig;

namespace {

constexpr int kRepetitions = 5;

struct Measurement {
    double minimum = 0.0;
    double median = 0.0;
};

struct Variant {
    std::string name;
    std::function<void()> run;
    Measurement timing;
};

Measurement toMeasurement(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return {samples.front(), samples[samples.size() / 2]};
}

void measureInterleaved(std::vector<Variant>& variants) {
    for (auto& v : variants) v.run();
    std::vector<std::vector<double>> samples(variants.size());
    for (int rep = 0; rep < kRepetitions; ++rep) {
        for (std::size_t i = 0; i < variants.size(); ++i) {
            Timer t;
            variants[i].run();
            samples[i].push_back(t.elapsed());
        }
    }
    for (std::size_t i = 0; i < variants.size(); ++i) {
        variants[i].timing = toMeasurement(std::move(samples[i]));
    }
}

/// Replay one batch into a mutable Graph with the engine's Permissive
/// rules (insert-if-absent, remove-if-present) — the rebuild baseline's
/// mutation step.
void replayIntoGraph(Graph& g, const EdgeBatch& batch) {
    for (const EdgeOp& op : batch.ops()) {
        while (g.upperNodeIdBound() <= std::max(op.u, op.v)) g.addNode();
        if (op.kind == EdgeOp::Kind::Insert) {
            if (!g.hasEdge(op.u, op.v)) g.addEdge(op.u, op.v, op.w);
        } else {
            if (g.hasEdge(op.u, op.v)) g.removeEdge(op.u, op.v);
        }
    }
}

struct ConcurrentReport {
    int readers = 0;
    double elapsedSeconds = 0.0;
    double readerQueriesPerSec = 0.0;
    double writerUpdatesPerSec = 0.0;
};

struct IncrementalReport {
    count churnOps = 0;
    count touchedNodes = 0;
    count reactivated = 0;
    count moves = 0;
    double reactivatedFraction = 0.0;
    double modularityIncremental = 0.0;
    double modularityScratch = 0.0;
    double secondsIncremental = 0.0;
    double secondsScratch = 0.0;

    double gap() const {
        return modularityScratch - modularityIncremental;
    }
    double speedup() const {
        return secondsIncremental > 0.0
                   ? secondsScratch / secondsIncremental
                   : 0.0;
    }
};

struct InstanceReport {
    std::string name;
    std::string recipe;
    count nodes = 0;
    count edges = 0;
    count batches = 0;
    count opsPerBatch = 0;
    std::vector<Variant> throughput; // [0]=rebuild baseline, [1]=batched
    ConcurrentReport concurrent;
    IncrementalReport incremental;

    double updatesPerSec() const {
        const double t = throughput.back().timing.minimum;
        return t > 0.0
                   ? static_cast<double>(batches * opsPerBatch) / t
                   : 0.0;
    }
    double batchedSpeedup() const {
        const double rebuild = throughput.front().timing.minimum;
        const double batched = throughput.back().timing.minimum;
        return batched > 0.0 ? rebuild / batched : 0.0;
    }
};

/// Record the batch stream once against the evolving engine state; the
/// workload is counter-based, so this is THE stream for (config, base).
std::vector<EdgeBatch> recordStream(const CsrGraph& base,
                                    const StreamWorkload& workload,
                                    count batches) {
    StreamingGraph engine(base);
    std::vector<EdgeBatch> stream;
    stream.reserve(batches);
    for (count i = 0; i < batches; ++i) {
        stream.push_back(
            workload.batch(i, engine.pin()->graph));
        engine.apply(stream.back(), StreamApplyMode::Permissive);
    }
    return stream;
}

InstanceReport measureInstance(const std::string& name,
                               const std::string& recipe, const Graph& g,
                               count batches, count opsPerBatch,
                               bool quick) {
    InstanceReport report;
    report.name = name;
    report.recipe = recipe;
    report.nodes = g.numberOfNodes();
    report.edges = g.numberOfEdges();
    report.batches = batches;
    report.opsPerBatch = opsPerBatch;

    Graph sorted = g;
    sorted.sortNeighborLists();
    const CsrGraph base(sorted);

    StreamWorkloadConfig cfg;
    cfg.nodes = base.upperNodeIdBound();
    cfg.opsPerBatch = opsPerBatch;
    cfg.insertFraction = 0.5; // steady state: churn, not growth
    cfg.skew = 0.6;           // hot-node contention, the streaming regime
    cfg.seed = 6200;
    const StreamWorkload workload(cfg);
    const std::vector<EdgeBatch> stream =
        recordStream(base, workload, batches);

    // --- Section 1: sustained update throughput --------------------------
    report.throughput.push_back(
        {"rebuild",
         [&] {
             // Naive alternative: mutate a Graph, re-sort, re-freeze the
             // whole CSR after every batch — what a consumer of frozen
             // snapshots had to do before the delta merge existed.
             Graph live = sorted;
             for (const EdgeBatch& batch : stream) {
                 replayIntoGraph(live, batch);
                 live.sortNeighborLists();
                 const CsrGraph frozen(live);
                 if (frozen.numberOfNodes() == 0) std::abort();
             }
         },
         {}});
    report.throughput.push_back(
        {"batched",
         [&] {
             StreamingGraph engine(base);
             for (const EdgeBatch& batch : stream) {
                 engine.apply(batch, StreamApplyMode::Permissive);
             }
         },
         {}});
    measureInterleaved(report.throughput);

    // --- Section 2: concurrent readers under a churning writer -----------
    {
        const int readers = 2;
        StreamingGraph engine(base);
        std::atomic<bool> done{false};
        std::atomic<std::uint64_t> queries{0};
        const count writerLaps = quick ? 2 : 4;

        std::vector<std::thread> pool;
        for (int r = 0; r < readers; ++r) {
            pool.emplace_back([&] {
                // Each query pins the head and scans every node volume —
                // a full read pass over whichever generation is current.
                while (!done.load(std::memory_order_acquire)) {
                    const SnapshotPtr snap = engine.pin();
                    edgeweight sink = 0.0;
                    const count bound = snap->graph.upperNodeIdBound();
                    for (node v = 0; v < bound; ++v) {
                        sink += snap->graph.volume(v);
                    }
                    if (sink < 0.0) std::abort(); // keep the scan live
                    queries.fetch_add(1, std::memory_order_relaxed);
                }
            });
        }
        Timer t;
        for (count lap = 0; lap < writerLaps; ++lap) {
            for (const EdgeBatch& batch : stream) {
                engine.apply(batch, StreamApplyMode::Permissive);
            }
        }
        const double elapsed = t.elapsed();
        done.store(true, std::memory_order_release);
        for (std::thread& th : pool) th.join();

        report.concurrent.readers = readers;
        report.concurrent.elapsedSeconds = elapsed;
        report.concurrent.readerQueriesPerSec =
            static_cast<double>(queries.load()) / elapsed;
        report.concurrent.writerUpdatesPerSec =
            static_cast<double>(writerLaps * batches * opsPerBatch) /
            elapsed;
    }

    // --- Section 3: incremental vs from-scratch detection -----------------
    {
        // One ~1% edge-churn batch on the converged base partition. Churn
        // in real streams is activity-skewed: a few hot nodes see most of
        // the updates, so the touched set is far smaller than 2x the op
        // count. skew 2.5 models that regime (uniform endpoints would make
        // the raw endpoint set alone ~2(m/n)/100 of all nodes — locality
        // would be meaningless to measure).
        StreamWorkloadConfig churnCfg = cfg;
        churnCfg.opsPerBatch = std::max<count>(64, base.numberOfEdges() / 100);
        churnCfg.skew = 2.5;
        churnCfg.seed = 6300;
        const StreamWorkload churn(churnCfg);

        StreamingGraph engine(base);
        StreamingPlm incremental;
        Random::setSeed(6301);
        incremental.initialize(engine.pin()->graph);
        const StreamingPlm warm = incremental; // converged seed state

        const EdgeBatch batch = churn.batch(0, engine.pin()->graph);
        const BatchResult result =
            engine.apply(batch, StreamApplyMode::Permissive);
        const SnapshotPtr next = engine.pin();

        report.incremental.churnOps = churnCfg.opsPerBatch;
        report.incremental.touchedNodes = result.touched.size();

        std::vector<double> incSamples, scratchSamples;
        Partition scratch;
        for (int rep = 0; rep < (quick ? 3 : kRepetitions); ++rep) {
            {
                StreamingPlm run = warm; // re-seed from the converged state
                Timer t;
                run.applyBatch(next->graph, result.touched);
                incSamples.push_back(t.elapsed());
                if (rep == 0) {
                    incremental = run;
                    report.incremental.reactivated = run.lastReactivated();
                    report.incremental.moves = run.lastMoves();
                }
            }
            {
                Random::setSeed(6302);
                Timer t;
                scratch = Plm().run(next->graph);
                scratchSamples.push_back(t.elapsed());
            }
        }
        report.incremental.secondsIncremental =
            toMeasurement(std::move(incSamples)).minimum;
        report.incremental.secondsScratch =
            toMeasurement(std::move(scratchSamples)).minimum;
        report.incremental.reactivatedFraction =
            static_cast<double>(report.incremental.reactivated) /
            static_cast<double>(next->graph.upperNodeIdBound());
        report.incremental.modularityIncremental =
            Modularity().getQuality(incremental.communities(), next->graph);
        report.incremental.modularityScratch =
            Modularity().getQuality(scratch, next->graph);
    }

    return report;
}

void writeJson(const std::vector<InstanceReport>& reports, int threads,
               bool quick) {
    std::ostringstream json;
    json << "{\n";
    json << "  \"bench\": \"micro_stream\",\n";
    json << "  \"threads\": " << threads << ",\n";
    json << "  \"repetitions\": " << kRepetitions << ",\n";
    json << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    json << "  \"updates_per_sec_definition\": "
            "\"(batches * ops_per_batch) / batched.min_seconds\",\n";
    json << "  \"instances\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto& rep = reports[i];
        json << "    {\n";
        json << "      \"name\": \"" << rep.name << "\",\n";
        json << "      \"recipe\": \"" << rep.recipe << "\",\n";
        json << "      \"nodes\": " << rep.nodes << ",\n";
        json << "      \"edges\": " << rep.edges << ",\n";
        json << "      \"batches\": " << rep.batches << ",\n";
        json << "      \"ops_per_batch\": " << rep.opsPerBatch << ",\n";
        json << "      \"update_throughput\": {\n";
        for (std::size_t v = 0; v < rep.throughput.size(); ++v) {
            const auto& var = rep.throughput[v];
            json << "        \"" << var.name
                 << "\": {\"min_seconds\": " << var.timing.minimum
                 << ", \"median_seconds\": " << var.timing.median << "}"
                 << (v + 1 < rep.throughput.size() ? "," : "") << "\n";
        }
        json << "      },\n";
        json << "      \"updates_per_sec\": " << rep.updatesPerSec()
             << ",\n";
        json << "      \"speedup_batch_vs_rebuild\": "
             << rep.batchedSpeedup() << ",\n";
        json << "      \"concurrent\": {\"readers\": "
             << rep.concurrent.readers
             << ", \"elapsed_seconds\": " << rep.concurrent.elapsedSeconds
             << ", \"reader_queries_per_sec\": "
             << rep.concurrent.readerQueriesPerSec
             << ", \"writer_updates_per_sec\": "
             << rep.concurrent.writerUpdatesPerSec << "},\n";
        const auto& inc = rep.incremental;
        json << "      \"incremental\": {\"churn_ops\": " << inc.churnOps
             << ", \"touched_nodes\": " << inc.touchedNodes
             << ", \"reactivated\": " << inc.reactivated
             << ", \"moves\": " << inc.moves
             << ", \"reactivated_fraction\": " << inc.reactivatedFraction
             << ", \"modularity_incremental\": "
             << inc.modularityIncremental
             << ", \"modularity_scratch\": " << inc.modularityScratch
             << ", \"modularity_gap\": " << inc.gap()
             << ", \"min_seconds_incremental\": " << inc.secondsIncremental
             << ", \"min_seconds_scratch\": " << inc.secondsScratch
             << ", \"speedup_incremental_vs_scratch\": " << inc.speedup()
             << "}\n";
        json << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    json << "  ]\n";
    json << "}\n";

    std::ofstream out("BENCH_stream.json");
    out << json.str();
    std::cout << "\nwrote BENCH_stream.json\n";
}

} // namespace

int main(int argc, char** argv) {
    bool quick = grapr::bench::quickMode();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    }

    int threads = 4;
    if (const char* env = std::getenv("GRAPR_BENCH_THREADS")) {
        threads = std::max(1, std::atoi(env));
    }
    Parallel::setThreads(threads);
    bench::printPlatformBanner("micro_stream");
    std::cout << "threads fixed to " << threads
              << (quick ? ", quick mode" : "") << "\n";

    // rmat_s13 is measured in BOTH modes: it is the anchor instance the
    // CI perf-smoke check compares across committed (full) and fresh
    // (quick) JSON.
    std::vector<InstanceReport> reports;
    {
        Random::setSeed(6013);
        const Graph g = RmatGenerator(13, 8).generate();
        reports.push_back(measureInstance(
            "rmat_s13", "RMAT scale 13, edge factor 8", g,
            /*batches=*/32, /*opsPerBatch=*/512, quick));
    }
    if (!quick) {
        Random::setSeed(6018);
        const Graph g = RmatGenerator(18, 8).generate();
        reports.push_back(measureInstance(
            "rmat_s18", "RMAT scale 18, edge factor 8", g,
            /*batches=*/32, /*opsPerBatch=*/2048, quick));
    }

    std::cout << "\n";
    for (const auto& rep : reports) {
        std::cout << rep.name << "  (n=" << rep.nodes << ", m=" << rep.edges
                  << ", " << rep.batches << "x" << rep.opsPerBatch
                  << " ops)\n";
        std::cout << "  updates/sec " << rep.updatesPerSec()
                  << "  (batched vs rebuild " << rep.batchedSpeedup()
                  << "x)\n";
        std::cout << "  concurrent: " << rep.concurrent.readers
                  << " readers at "
                  << rep.concurrent.readerQueriesPerSec
                  << " queries/sec while writer sustains "
                  << rep.concurrent.writerUpdatesPerSec
                  << " updates/sec\n";
        const auto& inc = rep.incremental;
        std::cout << "  incremental: " << inc.moves << " moves, reactivated "
                  << 100.0 * inc.reactivatedFraction
                  << "% of nodes, modularity gap " << inc.gap()
                  << ", speedup vs scratch " << inc.speedup() << "x\n";
    }

    writeJson(reports, threads, quick);
    return 0;
}
