#include "io/gml_io.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "graph/graph_builder.hpp"

namespace grapr::io {

void writeGml(const Graph& g, const std::string& path,
              const Partition* communities) {
    std::ofstream out(path);
    if (!out) fail("writeGml: cannot open " + path);
    out << "graph [\n  directed 0\n";
    g.forNodes([&](node v) {
        out << "  node [\n    id " << v;
        if (communities && (*communities)[v] != none) {
            out << "\n    community " << (*communities)[v];
        }
        out << "\n  ]\n";
    });
    g.forEdges([&](node u, node v, edgeweight w) {
        out << "  edge [\n    source " << u << "\n    target " << v;
        if (g.isWeighted()) out << "\n    weight " << w;
        out << "\n  ]\n";
    });
    out << "]\n";
    if (!out) fail("writeGml: write error on " + path);
}

namespace {

/// Minimal GML tokenizer: keys, numbers, strings, brackets.
struct GmlParser {
    std::istringstream in;

    explicit GmlParser(std::string text) : in(std::move(text)) {}

    bool next(std::string& token) {
        char c;
        // skip whitespace
        while (in.get(c)) {
            if (!std::isspace(static_cast<unsigned char>(c))) break;
        }
        if (!in) return false;
        token.clear();
        if (c == '[' || c == ']') {
            token = c;
            return true;
        }
        if (c == '"') {
            while (in.get(c) && c != '"') token += c;
            return true;
        }
        token += c;
        while (in.get(c)) {
            if (std::isspace(static_cast<unsigned char>(c)) || c == '[' ||
                c == ']') {
                if (c == '[' || c == ']') in.unget();
                break;
            }
            token += c;
        }
        return true;
    }
};

} // namespace

Graph readGml(const std::string& path) {
    std::ifstream file(path);
    if (!file) fail("readGml: cannot open " + path);
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    GmlParser parser(std::move(text));

    std::unordered_map<long long, node> remap;
    struct RawEdge {
        long long source = -1;
        long long target = -1;
        double weight = 1.0;
    };
    std::vector<RawEdge> edges;
    bool anyWeight = false;

    std::string token;
    // State machine over node [...] / edge [...] blocks.
    while (parser.next(token)) {
        if (token == "node") {
            require(parser.next(token) && token == "[",
                    "readGml: expected [ after node");
            long long id = -1;
            int depth = 1;
            while (depth > 0 && parser.next(token)) {
                if (token == "[") {
                    ++depth;
                } else if (token == "]") {
                    --depth;
                } else if (token == "id" && depth == 1) {
                    require(parser.next(token), "readGml: missing node id");
                    id = std::stoll(token);
                }
            }
            require(id >= 0, "readGml: node without id");
            remap.emplace(id, static_cast<node>(remap.size()));
        } else if (token == "edge") {
            require(parser.next(token) && token == "[",
                    "readGml: expected [ after edge");
            RawEdge edge;
            int depth = 1;
            while (depth > 0 && parser.next(token)) {
                if (token == "[") {
                    ++depth;
                } else if (token == "]") {
                    --depth;
                } else if (depth == 1 &&
                           (token == "source" || token == "target" ||
                            token == "weight")) {
                    const std::string key = token;
                    require(parser.next(token), "readGml: missing value");
                    if (key == "source") {
                        edge.source = std::stoll(token);
                    } else if (key == "target") {
                        edge.target = std::stoll(token);
                    } else {
                        edge.weight = std::stod(token);
                        require(std::isfinite(edge.weight),
                                "readGml: non-finite edge weight");
                        anyWeight = true;
                    }
                }
            }
            require(edge.source >= 0 && edge.target >= 0,
                    "readGml: edge without endpoints");
            edges.push_back(edge);
        }
    }

    GraphBuilder builder(remap.size(), anyWeight);
    for (const auto& edge : edges) {
        const auto source = remap.find(edge.source);
        const auto target = remap.find(edge.target);
        require(source != remap.end() && target != remap.end(),
                "readGml: edge references undeclared node");
        builder.addEdge(source->second, target->second, edge.weight);
    }
    return builder.build();
}

} // namespace grapr::io
