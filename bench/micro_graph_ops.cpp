// Micro benchmarks (google-benchmark) for the graph substrate: the
// operations on PLM/PLP's critical path — neighborhood scans, edge
// iteration, builder assembly, coarsening — so regressions in the data
// structure are visible independently of whole-algorithm timings.

#include <benchmark/benchmark.h>

#include "coarsening/parallel_coarsening.hpp"
#include "community/plm.hpp"
#include "generators/rmat.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_builder.hpp"
#include "structures/partition.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

using namespace grapr;

namespace {

const Graph& testGraph() {
    static const Graph g = [] {
        Random::setSeed(1000);
        return RmatGenerator(15, 8).generate();
    }();
    return g;
}

} // namespace

static void BM_NeighborhoodScan(benchmark::State& state) {
    const Graph& g = testGraph();
    double total = 0.0;
    for (auto _ : state) {
        g.forNodes([&](node u) {
            g.forNeighborsOf(u, [&](node, edgeweight w) { total += w; });
        });
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * g.numberOfEdges()));
}
BENCHMARK(BM_NeighborhoodScan);

static void BM_ParallelEdgeSweep(benchmark::State& state) {
    const Graph& g = testGraph();
    for (auto _ : state) {
        std::atomic<double> total{0.0};
        g.parallelForEdges([&](node, node, edgeweight w) {
            double expected = total.load(std::memory_order_relaxed);
            while (!total.compare_exchange_weak(expected, expected + w)) {
            }
        });
        benchmark::DoNotOptimize(total.load());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(g.numberOfEdges()));
}
BENCHMARK(BM_ParallelEdgeSweep);

static void BM_DegreeLookup(benchmark::State& state) {
    const Graph& g = testGraph();
    count total = 0;
    for (auto _ : state) {
        for (node v = 0; v < g.upperNodeIdBound(); ++v) {
            total += g.degree(v);
        }
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_DegreeLookup);

static void BM_GraphBuilderAssembly(benchmark::State& state) {
    Random::setSeed(1001);
    const count n = 1 << 14;
    std::vector<std::pair<node, node>> edges;
    for (count i = 0; i < 8 * n; ++i) {
        edges.emplace_back(static_cast<node>(Random::integer(n)),
                           static_cast<node>(Random::integer(n)));
    }
    for (auto _ : state) {
        GraphBuilder builder(n, false);
        for (auto [u, v] : edges) builder.addEdge(u, v);
        Graph g = builder.build(/*dedup=*/true);
        benchmark::DoNotOptimize(g.numberOfEdges());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuilderAssembly);

/// The path PLM runs: CsrGraph to CsrGraph, on a PLM level-0 partition,
/// at Arg threads.
static void BM_CoarseningCsr(benchmark::State& state) {
    const int restore = Parallel::maxThreads();
    static const CsrGraph g(testGraph());
    static const Partition levelZero = [] {
        Parallel::setThreads(1);
        Random::setSeed(1003);
        Partition p(g.upperNodeIdBound());
        p.allToSingletons();
        Plm::movePhase(g, p, 1.0, PlmConfig{}.maxMoveIterations, nullptr);
        return p;
    }();
    Parallel::setThreads(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        const CsrCoarseningResult result =
            ParallelPartitionCoarsening(true).run(g, levelZero);
        benchmark::DoNotOptimize(result.coarseGraph.numberOfEdges());
    }
    Parallel::setThreads(restore);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(g.numberOfEdges()));
}
BENCHMARK(BM_CoarseningCsr)->Arg(1)->Arg(4);
