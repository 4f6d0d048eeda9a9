#pragma once
// RAII guards for tests that pin the OpenMP thread count: Parallel runs with
// the given number of threads for the guard's lifetime, and the previous
// count comes back on exit, also when a failed ASSERT returns early.

#include "support/parallel.hpp"

namespace grapr::testing {

class ThreadCountScope {
public:
    explicit ThreadCountScope(int threads) { Parallel::setThreads(threads); }
    ~ThreadCountScope() { Parallel::setThreads(restore_); }
    ThreadCountScope(const ThreadCountScope&) = delete;
    ThreadCountScope& operator=(const ThreadCountScope&) = delete;

private:
    const int restore_ = Parallel::maxThreads();
};

/// The deterministic sequential schedule: one thread.
class SingleThreadScope : public ThreadCountScope {
public:
    SingleThreadScope() : ThreadCountScope(1) {}
};

} // namespace grapr::testing
