#include "support/parallel.hpp"

#include <algorithm>

namespace grapr::Parallel {

int maxThreads() { return omp_get_max_threads(); }

void setThreads(int threads) {
    if (threads >= 1) omp_set_num_threads(threads);
}

count prefixSum(std::vector<count>& values) {
    const std::size_t n = values.size();
    constexpr std::size_t kParallelThreshold = 1u << 16;
    if (n < kParallelThreshold || maxThreads() == 1) {
        count running = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const count v = values[i];
            values[i] = running;
            running += v;
        }
        return running;
    }

    const int threads = maxThreads();
    std::vector<count> blockTotals(static_cast<std::size_t>(threads) + 1, 0);
    const std::size_t chunk = (n + static_cast<std::size_t>(threads) - 1) /
                              static_cast<std::size_t>(threads);

    // Blocks are distributed by worksharing loops, NOT by thread id: the
    // old scheme gave block t to team member t, so a team smaller than
    // `threads` (num_threads is only a request) would silently skip the
    // trailing blocks. The implicit barriers after each `omp for` and the
    // `single` give the three-phase scan its ordering.
    TsanJoinFence fence;
#pragma omp parallel default(none)                                           \
    shared(values, blockTotals, chunk, n, threads, fence)
    {
#pragma omp for schedule(static)
        for (int t = 0; t < threads; ++t) {
            const auto st = static_cast<std::size_t>(t);
            const std::size_t lo = std::min(st * chunk, n);
            const std::size_t hi = std::min(lo + chunk, n);
            count local = 0;
            for (std::size_t i = lo; i < hi; ++i) {
                const count v = values[i];
                // grapr:analyze-allow(shared-write-safety): barrier-phased
                // block ownership — i ranges over this iteration's [lo, hi)
                // only, a slice the derived-index rule cannot express.
                values[i] = local;
                local += v;
            }
            // grapr:analyze-allow(shared-write-safety): slot st+1 is owned
            // by this iteration; the single below reads it only after the
            // implicit barrier of this worksharing loop.
            blockTotals[st + 1] = local;
        }
#pragma omp single
        {
            for (std::size_t b = 1; b < blockTotals.size(); ++b) {
                // Inside `omp single`: exactly one thread runs this scan,
                // bracketed by the implicit barriers of single and the
                // loops.
                blockTotals[b] += blockTotals[b - 1];
            }
        }
#pragma omp for schedule(static)
        for (int t = 0; t < threads; ++t) {
            const auto st = static_cast<std::size_t>(t);
            const std::size_t lo = std::min(st * chunk, n);
            const std::size_t hi = std::min(lo + chunk, n);
            const count offset = blockTotals[st];
            if (offset != 0) {
                // grapr:analyze-allow(shared-write-safety): same
                // barrier-phased block ownership as the downsweep above.
                for (std::size_t i = lo; i < hi; ++i) values[i] += offset;
            }
        }
        fence.arrive();
    }
    fence.join();
    return blockTotals.back();
}

double sum(const std::vector<double>& values) {
    double total = 0.0;
    const auto n = static_cast<std::int64_t>(values.size());
#pragma omp parallel for default(none) shared(values, n)                     \
    reduction(+ : total) schedule(static)
    for (std::int64_t i = 0; i < n; ++i) total += values[static_cast<std::size_t>(i)];
    return total;
}

count max(const std::vector<count>& values) {
    count best = 0;
    const auto n = static_cast<std::int64_t>(values.size());
#pragma omp parallel for default(none) shared(values, n)                     \
    reduction(max : best) schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
        best = std::max(best, values[static_cast<std::size_t>(i)]);
    }
    return best;
}

} // namespace grapr::Parallel
