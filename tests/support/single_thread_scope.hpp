#pragma once
// RAII guard for tests that need the deterministic sequential schedule:
// pins Parallel to one OpenMP thread for its lifetime and restores the
// previous thread count on exit, also when a failed ASSERT returns early.

#include "support/parallel.hpp"

namespace grapr::testing {

class SingleThreadScope {
public:
    SingleThreadScope() { Parallel::setThreads(1); }
    ~SingleThreadScope() { Parallel::setThreads(restore_); }
    SingleThreadScope(const SingleThreadScope&) = delete;
    SingleThreadScope& operator=(const SingleThreadScope&) = delete;

private:
    const int restore_ = Parallel::maxThreads();
};

} // namespace grapr::testing
