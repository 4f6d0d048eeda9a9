#include "io/dot_writer.hpp"

#include <cmath>
#include <fstream>

namespace grapr::io {

void writeDot(const Graph& g, const std::string& path) {
    std::ofstream out(path);
    if (!out) fail("writeDot: cannot open " + path);
    out << "graph G {\n";
    g.forEdges([&](node u, node v, edgeweight w) {
        out << "  " << u << " -- " << v;
        if (g.isWeighted()) out << " [label=\"" << w << "\"]";
        out << ";\n";
    });
    out << "}\n";
    if (!out) fail("writeDot: write error on " + path);
}

void writeCommunityGraphDot(const CsrGraph& communityGraph,
                            const std::vector<count>& communitySizes,
                            const std::string& path) {
    require(communitySizes.size() >= communityGraph.numberOfNodes(),
            "writeCommunityGraphDot: size array too small");
    std::ofstream out(path);
    if (!out) fail("writeCommunityGraphDot: cannot open " + path);
    out << "graph communities {\n"
        << "  node [shape=circle, style=filled, fillcolor=lightsteelblue];\n";
    communityGraph.forNodes([&](node c) {
        const double size = static_cast<double>(communitySizes[c]);
        const double width = 0.2 + 0.25 * std::log2(1.0 + size);
        out << "  " << c << " [label=\"" << communitySizes[c]
            << "\", width=" << width << "];\n";
    });
    communityGraph.forEdges([&](node a, node b, edgeweight w) {
        if (a == b) return; // intra-community weight not drawn
        const double penwidth = 0.5 + std::log2(1.0 + w) / 4.0;
        out << "  " << a << " -- " << b << " [penwidth=" << penwidth << "];\n";
    });
    out << "}\n";
    if (!out) fail("writeCommunityGraphDot: write error on " + path);
}

} // namespace grapr::io
