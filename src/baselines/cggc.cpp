#include "baselines/cggc.hpp"

#include "baselines/rg.hpp"
#include "community/epp.hpp"

namespace grapr {

namespace {

DetectorMaker rgMaker(double gamma) {
    return [gamma]() -> std::unique_ptr<CommunityDetector> {
        return std::make_unique<RandomizedGreedy>(gamma);
    };
}

} // namespace

Cggc::Cggc(count ensembleSize, double gamma)
    : ensembleSize_(ensembleSize), gamma_(gamma) {}

Partition Cggc::run(const CsrGraph& g) {
    Epp scheme(ensembleSize_, rgMaker(gamma_), rgMaker(gamma_), "CGGC");
    return scheme.run(g);
}

CggcIterated::CggcIterated(count ensembleSize, double gamma)
    : ensembleSize_(ensembleSize), gamma_(gamma) {}

Partition CggcIterated::run(const CsrGraph& g) {
    EppIterated scheme(ensembleSize_, rgMaker(gamma_), rgMaker(gamma_),
                       /*minImprovement=*/1e-4, /*maxLevels=*/16, "CGGCi");
    return scheme.run(g);
}

} // namespace grapr
