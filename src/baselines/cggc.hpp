#pragma once
// CGGC and CGGCi — the Core Groups Graph Clusterer of Ovelgönne &
// Geyer-Schulz (DIMACS Pareto winner), rebuilt inside this framework:
// CGGC is one level of ensemble preprocessing with RG as both base and
// final algorithm (structurally the same scheme as EPP, §III-D); CGGCi
// iterates the preprocessing until the core-group quality stops improving.
// Both inherit RG's cost profile: highest modularity in the comparison,
// by far the largest running time (§V-E c).

#include "community/detector.hpp"

namespace grapr {

class Cggc final : public CommunityDetector {
public:
    explicit Cggc(count ensembleSize = 4, double gamma = 1.0);

    using CommunityDetector::run;
    Partition run(const CsrGraph& g) override;

    std::string toString() const override { return "CGGC"; }

private:
    count ensembleSize_;
    double gamma_;
};

class CggcIterated final : public CommunityDetector {
public:
    explicit CggcIterated(count ensembleSize = 4, double gamma = 1.0);

    using CommunityDetector::run;
    Partition run(const CsrGraph& g) override;

    std::string toString() const override { return "CGGCi"; }

private:
    count ensembleSize_;
    double gamma_;
};

} // namespace grapr
