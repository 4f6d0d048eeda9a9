#pragma once
// Base interface of all community detection algorithms, sequential and
// parallel alike: run() computes a Partition of the node set. The framework
// is deliberately uniform so ensembles (EPP) can be instantiated with any
// base/final algorithm and the benchmark harnesses can treat competitors
// and our algorithms identically.
//
// Every detector runs on the frozen CSR layout: run(const CsrGraph&) is
// the one virtual entry point. run(const Graph&) freezes its argument once
// and forwards; a concrete detector keeps it visible with
// `using CommunityDetector::run;`.

#include <memory>
#include <string>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "structures/partition.hpp"
#include "support/progress.hpp"

namespace grapr {

class CommunityDetector {
public:
    virtual ~CommunityDetector() = default;

    /// Compute communities for g. Must be callable repeatedly (each call is
    /// an independent run; randomized algorithms may return different
    /// solutions per call).
    virtual Partition run(const CsrGraph& g) = 0;

    /// Freeze g once and run on the frozen graph: the same partition as
    /// run(CsrGraph(g)).
    Partition run(const Graph& g) {
        const CsrGraph frozen(g);
        return run(frozen);
    }

    /// Human-readable algorithm label, e.g. "PLM(gamma=1)".
    virtual std::string toString() const = 0;

    /// Attach an iteration tracer (may be nullptr to detach). Algorithms
    /// that do not iterate ignore it.
    void setTracer(IterationTracer* tracer) { tracer_ = tracer; }

protected:
    IterationTracer* tracer_ = nullptr;
};

/// Factory type used by the ensemble scheme and the registry.
using DetectorFactory = std::unique_ptr<CommunityDetector> (*)();

} // namespace grapr
