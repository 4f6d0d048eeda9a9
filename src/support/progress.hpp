#pragma once
// Per-iteration tracing hooks used by the Figure-1 experiment (active and
// updated label counts per PLP iteration) and by long-running benches.

#include <functional>
#include <vector>

#include "support/common.hpp"

namespace grapr {

/// One record per algorithm iteration; semantics of the two counters are
/// algorithm-defined (PLP: active nodes entering the iteration / labels
/// updated in it; PLM move phase: nodes evaluated / nodes moved).
struct IterationRecord {
    count iteration = 0;
    count active = 0;
    count updated = 0;
};

/// Collects IterationRecords when attached to an algorithm. Algorithms hold
/// a non-owning pointer; a null tracer costs one branch per iteration.
class IterationTracer {
public:
    void record(count iteration, count active, count updated) {
        records_.push_back({iteration, active, updated});
    }

    const std::vector<IterationRecord>& records() const noexcept {
        return records_;
    }

    void clear() { records_.clear(); }

private:
    std::vector<IterationRecord> records_;
};

} // namespace grapr
