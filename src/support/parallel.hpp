#pragma once
// Thin OpenMP conveniences: thread-count control, parallel prefix sums and
// reductions, and a timestamped sparse accumulator used in the hot loops of
// PLP and PLM.
//
// The algorithms in src/community use `#pragma omp parallel for
// schedule(guided)` directly, as the paper prescribes for scale-free degree
// distributions; these helpers cover the supporting plumbing.

#include <atomic>
#include <cstddef>
#include <vector>

#include <omp.h>

#include "support/common.hpp"

namespace grapr {

namespace Parallel {

/// Rebuilds the join happens-before edge of a parallel region for
/// ThreadSanitizer. GCC ships libgomp uninstrumented, so TSan cannot see
/// the barrier at a region's end; plain stores made by workers and read by
/// the caller after the join are then (flakily) reported as races. One
/// release-RMW per thread at region end (`arrive`), acquired once after
/// the region (`join`), expresses the same edge in standard C++ atomics
/// that TSan does understand. A region that reads what earlier regions
/// wrote also needs the fork edge: one release by the caller before the
/// region (`open`), acquired by each thread at region start (`enter`).
/// Without both, every such read is a suppressed race report, and a
/// 4-thread PLM sweep over 40k nodes takes minutes under TSan instead of
/// seconds. Compiled to no-ops outside TSan builds.
class TsanJoinFence {
public:
#if defined(__SANITIZE_THREAD__)
    void open() noexcept { token_.fetch_add(1, std::memory_order_release); }
    void enter() noexcept { (void)token_.load(std::memory_order_acquire); }
    void arrive() noexcept { token_.fetch_add(1, std::memory_order_acq_rel); }
    void join() noexcept { (void)token_.load(std::memory_order_acquire); }

private:
    std::atomic<int> token_{0};
#else
    void open() noexcept {}
    void enter() noexcept {}
    void arrive() noexcept {}
    void join() noexcept {}
#endif
};

/// Number of threads OpenMP will use for the next parallel region.
int maxThreads();

/// Set the OpenMP thread count (also re-seeds nothing; callers who need
/// reproducibility should call Random::setSeed afterwards so the per-thread
/// RNG pool matches the new count).
void setThreads(int threads);

/// Exclusive prefix sum of `values` in place; returns the total.
/// Parallel two-pass algorithm for large inputs, sequential fallback below
/// a size threshold where the parallel version cannot win.
count prefixSum(std::vector<count>& values);

/// Sum of a vector<double> with per-thread partials (deterministic order
/// within a fixed thread count).
double sum(const std::vector<double>& values);

/// Maximum element of a vector<count>; 0 for empty input.
count max(const std::vector<count>& values);

} // namespace Parallel

/// Dense map from small-integer keys to double values with O(1) clear.
///
/// PLP and PLM repeatedly accumulate "edge weight from node u into each
/// neighboring community" and then discard the map. A std::map per node (the
/// paper's first implementation) was found to be the bottleneck; this is the
/// "recompute with fast scratch" strategy the paper settled on. Each thread
/// owns one accumulator sized to the key universe; clearing bumps a
/// generation stamp instead of touching memory.
class SparseAccumulator {
public:
    SparseAccumulator() = default;
    explicit SparseAccumulator(index keyUniverse) { resize(keyUniverse); }

    void resize(index keyUniverse) {
        values_.assign(keyUniverse, 0.0);
        stamp_.assign(keyUniverse, 0);
        touched_.clear();
        generation_ = 1;
    }

    index capacity() const noexcept { return values_.size(); }

    /// Add `delta` to key `k`, registering k on first touch this generation.
    void add(index k, double delta) {
        if (stamp_[k] != generation_) {
            stamp_[k] = generation_;
            values_[k] = 0.0;
            touched_.push_back(k);
        }
        values_[k] += delta;
    }

    /// Value of key `k` this generation (0 if untouched).
    double operator[](index k) const {
        return stamp_[k] == generation_ ? values_[k] : 0.0;
    }

    /// Hint that key `k` is about to be added to. Kernels that know their
    /// keys a few steps ahead (e.g. scans over a CSR row) use this to hide
    /// the random-access latency of the stamp/value arrays.
    void prefetch(index k) const {
        __builtin_prefetch(&stamp_[k], 1, 1);
        __builtin_prefetch(&values_[k], 1, 1);
    }

    /// Keys touched since the last clear, in first-touch order.
    const std::vector<index>& touched() const noexcept { return touched_; }

    /// O(touched) clear; O(1) amortized per subsequent add.
    void clear() {
        touched_.clear();
        ++generation_;
        if (generation_ == 0) { // stamp wraparound: full reset
            stamp_.assign(stamp_.size(), 0);
            generation_ = 1;
        }
    }

private:
    std::vector<double> values_;
    std::vector<std::uint32_t> stamp_;
    std::vector<index> touched_;
    std::uint32_t generation_ = 1;
};

/// Pool of per-thread scratch objects, one slot per thread OpenMP could
/// deliver to the next parallel region.
///
/// This is the single sanctioned idiom for per-thread kernel scratch —
/// it replaces both of the historical spellings (a bespoke ScratchPool
/// and hand-rolled `scratch[omp_get_thread_num()]` vectors), which made
/// the team-size assumptions implicit. The pool is sized at construction
/// to `omp_get_max_threads()`; OpenMP is free to deliver a *smaller* team
/// (num_threads is only a request), which is always safe here because
/// thread numbers of a team are dense in [0, teamSize). The converse —
/// the thread count being raised after construction, or `local()` being
/// called from a nested region with a larger cumulative team — would
/// index out of bounds, so `local()` bounds-checks and fails loudly
/// instead of corrupting memory.
///
/// Constructor arguments are forwarded to every slot's constructor.
template <typename T>
class ThreadLocalPool {
public:
    template <typename... Args>
    explicit ThreadLocalPool(const Args&... args) {
        const auto slots = static_cast<std::size_t>(omp_get_max_threads());
        slots_.reserve(slots);
        for (std::size_t t = 0; t < slots; ++t) slots_.emplace_back(args...);
    }

    /// The calling thread's slot. Valid from inside a parallel region or
    /// serial code (thread 0); aborts if the team outgrew the pool.
    T& local() {
        const auto t = static_cast<std::size_t>(omp_get_thread_num());
        require(t < slots_.size(),
                "ThreadLocalPool: thread id outside the pool — the OpenMP "
                "thread count was raised after construction (construct the "
                "pool after Parallel::setThreads)");
        return slots_[t];
    }

    /// Number of slots (the max team size the pool was built for).
    std::size_t size() const noexcept { return slots_.size(); }

    /// Slot access for sequential reductions over all potential threads
    /// (slots of threads that never ran are default/ctor-arg state).
    T& slot(std::size_t t) { return slots_[t]; }
    const T& slot(std::size_t t) const { return slots_[t]; }

private:
    std::vector<T> slots_;
};

/// Pool of per-thread SparseAccumulators sized to one key universe.
using ScratchPool = ThreadLocalPool<SparseAccumulator>;

} // namespace grapr
