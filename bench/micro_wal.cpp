// Durability micro benchmark (PR 8): what the WAL + checkpoint subsystem
// costs on the write path, and what recovery costs on the read path.
//
// Two sections:
//   * durable update throughput — replay the recorded rmat_s13 batch
//     stream through three engines: volatile (no durability), durable
//     with group commit (fsync every 8th record), and durable with
//     fsync-per-record. Each durable run includes enableDurability's
//     initial checkpoint, so the reported ratio is the honest end-to-end
//     price of crash safety, amortization included. The committed
//     contract: group-commit durability sustains >= 0.5x the volatile
//     rate (gated loosely in CI as durable_vs_volatile).
//   * recovery — build a long single-segment log (checkpointInterval
//     past the record count, so nothing rotates), then time the
//     StreamingGraph recovery constructor end to end: checkpoint load,
//     Strict replay of every record, fresh checkpoint, prune. The log
//     directory is copied aside per repetition because recovery itself
//     rotates and prunes the log it replays.
//
// Variant timings are interleaved round-robin after a warmup (minima
// reported), the house discipline from micro_plm_kernels. Emits
// BENCH_wal.json; tools/check_perf_regression.py gates
// durable_vs_volatile (within-run ratio, transfers across machines) and
// recovery_records_per_sec (absolute floor against order-of-magnitude
// collapses) on the shared instances.
//
// Flags/environment: --quick or GRAPR_BENCH_QUICK=1 shrinks the replay
// log; GRAPR_BENCH_THREADS overrides the thread count (default 4).

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "generators/planted_partition.hpp"
#include "generators/rmat.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_log.hpp"
#include "graph/stream_engine.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/stream_workload.hpp"
#include "support/timer.hpp"

using namespace grapr;
using grapr::testing::StreamWorkload;
using grapr::testing::StreamWorkloadConfig;
namespace fs = std::filesystem;

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

fs::path scratchDir(const char* tag) {
    return fs::temp_directory_path() /
           (std::string("grapr_micro_wal_") + tag);
}

/// Record the batch stream once against the evolving engine state (the
/// workload is counter-based: this is THE stream for the configuration).
std::vector<EdgeBatch> recordStream(const CsrGraph& base,
                                    const StreamWorkload& workload,
                                    count batches) {
    StreamingGraph engine(base);
    std::vector<EdgeBatch> stream;
    stream.reserve(batches);
    for (count i = 0; i < batches; ++i) {
        stream.push_back(workload.batch(i, engine.pin()->graph));
        engine.apply(stream.back(), StreamApplyMode::Permissive);
    }
    return stream;
}

struct ThroughputReport {
    std::string name;
    std::string recipe;
    count nodes = 0;
    count edges = 0;
    count batches = 0;
    count opsPerBatch = 0;
    std::vector<Variant> variants; // volatile, group commit, fsync-each

    double updatesPerSec(std::size_t v) const {
        const double t = variants[v].timing.minimum;
        return t > 0.0 ? static_cast<double>(batches * opsPerBatch) / t
                       : 0.0;
    }
};

ThroughputReport measureThroughput() {
    ThroughputReport report;
    report.name = "rmat_s13";
    report.recipe = "RMAT scale 13, edge factor 8";
    report.batches = 32;
    report.opsPerBatch = 512;

    Random::setSeed(6013); // same recipe as micro_stream's anchor
    Graph g = RmatGenerator(13, 8).generate();
    report.nodes = g.numberOfNodes();
    report.edges = g.numberOfEdges();
    g.sortNeighborLists();
    const CsrGraph base(g);

    StreamWorkloadConfig cfg;
    cfg.nodes = base.upperNodeIdBound();
    cfg.opsPerBatch = report.opsPerBatch;
    cfg.insertFraction = 0.5;
    cfg.skew = 0.6;
    cfg.seed = 6200;
    const std::vector<EdgeBatch> stream =
        recordStream(base, StreamWorkload(cfg), report.batches);

    const auto durableRun = [&](count groupCommit) {
        const fs::path dir = scratchDir("throughput");
        fs::remove_all(dir);
        StreamingGraph engine(base);
        DurabilityOptions options;
        options.groupCommit = groupCommit;
        options.checkpointInterval = 1u << 20; // no mid-run rotation
        engine.enableDurability(dir.string(), options);
        for (const EdgeBatch& batch : stream) {
            engine.apply(batch, StreamApplyMode::Permissive);
        }
    };

    report.variants.push_back({"volatile",
                               [&] {
                                   StreamingGraph engine(base);
                                   for (const EdgeBatch& batch : stream) {
                                       engine.apply(
                                           batch,
                                           StreamApplyMode::Permissive);
                                   }
                               },
                               {}});
    report.variants.push_back(
        {"durable_group_commit_8", [&] { durableRun(8); }, {}});
    report.variants.push_back(
        {"durable_fsync_each", [&] { durableRun(1); }, {}});
    measureInterleaved(report.variants);
    fs::remove_all(scratchDir("throughput"));
    return report;
}

struct RecoveryReport {
    std::string name;
    count records = 0;
    count opsPerRecord = 0;
    count walBytes = 0;
    Measurement recovery;

    double recordsPerSec() const {
        return recovery.minimum > 0.0
                   ? static_cast<double>(records) / recovery.minimum
                   : 0.0;
    }
};

RecoveryReport measureRecovery(bool quick) {
    RecoveryReport report;
    report.name = "wal_replay";
    report.records = quick ? 20000 : 100000;
    report.opsPerRecord = 4;

    // Small base graph: recovery cost is per-record CSR assembly, so the
    // record count, not the graph size, is what this section scales.
    Random::setSeed(6400);
    const Graph g =
        PlantedPartitionGenerator(1000, 20, 0.05, 0.001).generate();

    StreamWorkloadConfig cfg;
    cfg.nodes = 1000;
    cfg.opsPerBatch = report.opsPerRecord;
    cfg.insertFraction = 0.5;
    cfg.seed = 6401;
    const StreamWorkload workload(cfg);

    const fs::path logDir = scratchDir("recovery_log");
    fs::remove_all(logDir);
    {
        StreamingGraph engine(g);
        DurabilityOptions options;
        options.groupCommit = 1024;            // building, not measuring
        options.checkpointInterval = 1u << 30; // one giant segment
        engine.enableDurability(logDir.string(), options);
        for (count i = 0; i < report.records; ++i) {
            engine.apply(workload.batch(i, engine.pin()->graph),
                         StreamApplyMode::Permissive);
        }
    } // clean close syncs the tail
    for (const auto& entry : fs::directory_iterator(logDir)) {
        if (entry.path().extension() == ".gwal") {
            report.walBytes += fs::file_size(entry.path());
        }
    }

    // Recovery rewrites the checkpoint and prunes the log it replays, so
    // each repetition recovers a fresh copy of the directory.
    std::vector<double> samples;
    const int reps = quick ? 3 : kRepetitions;
    for (int rep = 0; rep < reps; ++rep) {
        const fs::path dir = scratchDir("recovery_run");
        fs::remove_all(dir);
        fs::copy(logDir, dir);
        Timer t;
        StreamingGraph recovered(dir.string());
        samples.push_back(t.elapsed());
        if (recovered.generation() == 0) std::abort(); // keep it live
        fs::remove_all(dir);
    }
    report.recovery = toMeasurement(std::move(samples));
    fs::remove_all(logDir);
    return report;
}

void writeJson(const ThroughputReport& throughput,
               const RecoveryReport& recovery, int threads, bool quick) {
    std::ostringstream json;
    json << "{\n";
    json << "  \"bench\": \"micro_wal\",\n";
    json << "  \"threads\": " << threads << ",\n";
    json << "  \"repetitions\": " << kRepetitions << ",\n";
    json << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    json << "  \"durable_vs_volatile_definition\": "
            "\"volatile.min_seconds / durable_group_commit_8.min_seconds\""
            ",\n";
    json << "  \"instances\": [\n";
    json << "    {\n";
    json << "      \"name\": \"" << throughput.name << "\",\n";
    json << "      \"recipe\": \"" << throughput.recipe << "\",\n";
    json << "      \"nodes\": " << throughput.nodes << ",\n";
    json << "      \"edges\": " << throughput.edges << ",\n";
    json << "      \"batches\": " << throughput.batches << ",\n";
    json << "      \"ops_per_batch\": " << throughput.opsPerBatch << ",\n";
    json << "      \"update_throughput\": {\n";
    for (std::size_t v = 0; v < throughput.variants.size(); ++v) {
        const auto& var = throughput.variants[v];
        json << "        \"" << var.name
             << "\": {\"min_seconds\": " << var.timing.minimum
             << ", \"median_seconds\": " << var.timing.median << "}"
             << (v + 1 < throughput.variants.size() ? "," : "") << "\n";
    }
    json << "      },\n";
    json << "      \"updates_per_sec_volatile\": "
         << throughput.updatesPerSec(0) << ",\n";
    json << "      \"updates_per_sec_durable\": "
         << throughput.updatesPerSec(1) << ",\n";
    json << "      \"updates_per_sec_fsync_each\": "
         << throughput.updatesPerSec(2) << ",\n";
    json << "      \"durable_vs_volatile\": "
         << (throughput.updatesPerSec(0) > 0.0
                 ? throughput.updatesPerSec(1) / throughput.updatesPerSec(0)
                 : 0.0)
         << ",\n";
    json << "      \"fsync_each_vs_volatile\": "
         << (throughput.updatesPerSec(0) > 0.0
                 ? throughput.updatesPerSec(2) / throughput.updatesPerSec(0)
                 : 0.0)
         << "\n";
    json << "    },\n";
    json << "    {\n";
    json << "      \"name\": \"" << recovery.name << "\",\n";
    json << "      \"records\": " << recovery.records << ",\n";
    json << "      \"ops_per_record\": " << recovery.opsPerRecord << ",\n";
    json << "      \"wal_bytes\": " << recovery.walBytes << ",\n";
    json << "      \"recovery_seconds\": " << recovery.recovery.minimum
         << ",\n";
    json << "      \"recovery_median_seconds\": "
         << recovery.recovery.median << ",\n";
    json << "      \"recovery_records_per_sec\": "
         << recovery.recordsPerSec() << "\n";
    json << "    }\n";
    json << "  ]\n";
    json << "}\n";

    std::ofstream out("BENCH_wal.json");
    out << json.str();
    std::cout << "\nwrote BENCH_wal.json\n";
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
    bench::printPlatformBanner("micro_wal");
    std::cout << "threads fixed to " << threads
              << (quick ? ", quick mode" : "") << "\n";

    const ThroughputReport throughput = measureThroughput();
    const RecoveryReport recovery = measureRecovery(quick);

    std::cout << "\n"
              << throughput.name << "  (n=" << throughput.nodes
              << ", m=" << throughput.edges << ", " << throughput.batches
              << "x" << throughput.opsPerBatch << " ops)\n";
    std::cout << "  volatile      " << throughput.updatesPerSec(0)
              << " updates/sec\n";
    std::cout << "  group commit  " << throughput.updatesPerSec(1)
              << " updates/sec ("
              << (throughput.updatesPerSec(0) > 0.0
                      ? throughput.updatesPerSec(1) /
                            throughput.updatesPerSec(0)
                      : 0.0)
              << "x volatile)\n";
    std::cout << "  fsync each    " << throughput.updatesPerSec(2)
              << " updates/sec\n";
    std::cout << recovery.name << "  (" << recovery.records
              << " records, " << recovery.walBytes << " WAL bytes)\n";
    std::cout << "  recovered in " << recovery.recovery.minimum << " s  ("
              << recovery.recordsPerSec() << " records/sec)\n";

    writeJson(throughput, recovery, threads, quick);
    return 0;
}
