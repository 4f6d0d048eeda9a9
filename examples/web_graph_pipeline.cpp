// Web-graph batch pipeline — the paper's massive-data scenario ("networks
// with billions of edges should be processed in minutes rather than
// hours"): generate a web-scale-shaped R-MAT graph, persist it in the
// binary CSR format (GCSR), reload, detect communities with the fast path
// (PLP) and the quality path (PLM), and report the paper's headline
// metric: processed edges per second.
//
// Pass a scale exponent to size the instance (default 17 -> ~130k nodes):
//   build/examples/example_web_graph_pipeline [scale]

#include <cstdio>
#include <cstdlib>

#include "grapr.hpp"

using namespace grapr;

int main(int argc, char** argv) {
    const count scale = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 17;
    Random::setSeed(11);

    std::printf("=== generate (R-MAT scale %llu, web parameters) ===\n",
                static_cast<unsigned long long>(scale));
    Timer genTimer;
    Graph g = RmatGenerator(scale, 12, 0.60, 0.18, 0.18, 0.04).generate();
    std::printf("n=%llu m=%llu in %s\n",
                static_cast<unsigned long long>(g.numberOfNodes()),
                static_cast<unsigned long long>(g.numberOfEdges()),
                formatDuration(genTimer.elapsed()).c_str());

    std::printf("\n=== persist + reload (binary snapshot) ===\n");
    Timer ioTimer;
    io::writeBinaryCsr(CsrGraph(g), 0, "webgraph.gcsr");
    Graph reloaded = io::readBinaryCsr("webgraph.gcsr").graph.toGraph();
    std::printf("round trip in %s (structural check: %s)\n",
                formatDuration(ioTimer.elapsed()).c_str(),
                reloaded.numberOfEdges() == g.numberOfEdges() ? "ok"
                                                              : "MISMATCH");

    std::printf("\n=== fast path: PLP ===\n");
    Plp plp;
    Timer plpTimer;
    Partition fast = plp.run(reloaded);
    const double plpSeconds = plpTimer.elapsed();
    std::printf("%.0f edges/s, modularity %.4f, %llu communities, %llu "
                "iterations\n",
                static_cast<double>(g.numberOfEdges()) / plpSeconds,
                Modularity().getQuality(fast, reloaded),
                static_cast<unsigned long long>(fast.numberOfSubsets()),
                static_cast<unsigned long long>(plp.iterations()));

    std::printf("\n=== quality path: PLM ===\n");
    Plm plm;
    Timer plmTimer;
    Partition good = plm.run(reloaded);
    const double plmSeconds = plmTimer.elapsed();
    std::printf("%.0f edges/s, modularity %.4f, %llu communities, %zu "
                "hierarchy levels\n",
                static_cast<double>(g.numberOfEdges()) / plmSeconds,
                Modularity().getQuality(good, reloaded),
                static_cast<unsigned long long>(good.numberOfSubsets()),
                plm.levels().size());

    std::printf("\n=== agreement between the two solutions ===\n");
    std::printf("Jaccard index PLP vs PLM: %.3f\n", jaccardIndex(fast, good));
    std::remove("webgraph.gcsr");
    return 0;
}
