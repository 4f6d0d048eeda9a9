#pragma once
// EPP — Ensemble Preprocessing (paper Algorithm 5, §III-D), the adaptation
// of Ovelgönne & Geyer-Schulz's Core Groups Graph Clusterer to this
// framework: run b base algorithms (classically PLP) on G, combine their
// solutions into core communities (consensus: together everywhere or
// split), coarsen G by the cores, run a strong final algorithm (PLM/PLMR)
// on the much smaller coarse graph, and prolong.
//
// EppIterated applies the scheme recursively on the coarsened graph until
// quality stops improving — the EML/CGGCi-style variant the paper examined
// and found unnecessary for its instances (§III-D); included for the
// comparison experiments (CGGCi proxy).

#include <functional>
#include <memory>

#include "community/detector.hpp"

namespace grapr {

/// Factory producing fresh detector instances; EPP owns one per ensemble
/// slot so concurrent base runs don't share mutable state.
using DetectorMaker = std::function<std::unique_ptr<CommunityDetector>()>;

class Epp final : public CommunityDetector {
public:
    /// Ensemble of `ensembleSize` base detectors plus one final detector.
    Epp(count ensembleSize, DetectorMaker makeBase, DetectorMaker makeFinal,
        std::string name = "EPP");

    using CommunityDetector::run;
    Partition run(const CsrGraph& g) override;

    std::string toString() const override;

private:
    count ensembleSize_;
    DetectorMaker makeBase_;
    DetectorMaker makeFinal_;
    std::string name_;
};

class EppIterated final : public CommunityDetector {
public:
    /// Iterate ensemble preprocessing until modularity stops improving by
    /// more than `minImprovement`, then run the final detector.
    EppIterated(count ensembleSize, DetectorMaker makeBase,
                DetectorMaker makeFinal, double minImprovement = 1e-4,
                count maxLevels = 16, std::string name = "EPPIterated");

    using CommunityDetector::run;
    Partition run(const CsrGraph& g) override;

    std::string toString() const override;

private:
    count ensembleSize_;
    DetectorMaker makeBase_;
    DetectorMaker makeFinal_;
    double minImprovement_;
    count maxLevels_;
    std::string name_;
};

} // namespace grapr
