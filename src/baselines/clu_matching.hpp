#pragma once
// Matching-based parallel agglomeration — in-framework stand-ins for the
// two parallel DIMACS competitors of §V-E(b):
//
//  * CLU_TBB (Fagginger Auer & Bisseling): weight every edge with the
//    modularity change of contracting it, compute a heavy matching of
//    positive-gain edges, contract, recurse; with an adaptation for
//    star-like structures (satellites of a hub that cannot all match the
//    hub are allowed to join the hub's group or each other) that prevents
//    tiny matchings on scale-free graphs.
//  * CEL (Riedy et al., community-el): the same principle without the
//    star adaptation.
//
// Matching is computed with the locally-dominant (handshake) scheme: each
// node points to its best positive neighbor, mutual pointers form matched
// pairs — fully parallel per round.

#include "community/detector.hpp"

namespace grapr {

class MatchingAgglomeration final : public CommunityDetector {
public:
    /// `starAdaptation` = true gives the CLU_TBB-like variant, false the
    /// CEL-like one.
    explicit MatchingAgglomeration(bool starAdaptation, double gamma = 1.0,
                                   count maxRounds = 64)
        : starAdaptation_(starAdaptation), gamma_(gamma),
          maxRounds_(maxRounds) {}

    using CommunityDetector::run;
    Partition run(const CsrGraph& g) override;

    std::string toString() const override {
        return starAdaptation_ ? "CLU_TBB-like" : "CEL-like";
    }

private:
    bool starAdaptation_;
    double gamma_;
    count maxRounds_;
};

} // namespace grapr
