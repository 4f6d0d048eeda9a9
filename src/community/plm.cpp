#include "community/plm.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include <omp.h>

#include "coarsening/parallel_coarsening.hpp"
#include "coarsening/projector.hpp"
#include "community/vertex_following.hpp"
#include "quality/modularity.hpp"
#include "support/parallel.hpp"
#include "support/race_check.hpp"

namespace grapr {

namespace {

// Every move phase runs on the frozen CSR layout, where volume() is a
// precomputed O(1) read and neighbor scans stream over one contiguous
// arena. movePhaseImpl is the untuned reference kernel (the oracle).

count movePhaseImpl(const CsrGraph& g, Partition& zeta, double gamma,
                    count maxIterations, IterationTracer* tracer) {
    const count bound = g.upperNodeIdBound();
    const double omegaE = g.totalEdgeWeight();
    if (omegaE <= 0.0) return 0;

    const count communityBound =
        std::max<count>(zeta.upperBound(), bound);

    // Per-community volume, maintained under atomic updates (the only
    // shared interim value — see header).
    std::vector<double> communityVolume(communityBound, 0.0);
    std::vector<double> nodeVolume(bound, 0.0);
    g.parallelForNodes([&](node u) { nodeVolume[u] = g.volume(u); });
    g.forNodes([&](node u) { communityVolume[zeta[u]] += nodeVolume[u]; });

    ScratchPool scratch(communityBound);

    count totalMoves = 0;
    count iteration = 0;
    for (; iteration < maxIterations; ++iteration) {
        GRAPR_RACE_PHASE("plm.move");
        count movedThisRound = 0;
        const auto n = static_cast<std::int64_t>(bound);
#pragma omp parallel for default(none)                                       \
    shared(g, zeta, communityVolume, nodeVolume, scratch, omegaE, gamma, n)  \
    schedule(guided) reduction(+ : movedThisRound)
        for (std::int64_t su = 0; su < n; ++su) {
            const node u = static_cast<node>(su);
            if (!g.hasNode(u) || g.degree(u) == 0) continue;

            const node current = zeta[u];

            // Recompute the edge weight from u to every neighboring
            // community (the paper's chosen strategy over cached maps).
            SparseAccumulator& acc = scratch.local();
            acc.clear();
            g.forNeighborsOf(u, [&](node v, edgeweight w) {
                if (v != u) acc.add(zeta[v], w);
            });

            const double volU = nodeVolume[u];
            const double weightToCurrent = acc[current];
            // vol(C \ {u}): the community volume without u.
            // grapr:benign-race(communityVolume): stale snapshot tolerated
            // by design — concurrent movers may change the volume between
            // this read and the move (paper's asynchronous contract).
            double volCurrent;
#pragma omp atomic read
            volCurrent = communityVolume[current];
            volCurrent -= volU;

            node bestCommunity = current;
            double bestDelta = 0.0;
            for (index c : acc.touched()) {
                const node candidate = static_cast<node>(c);
                if (candidate == current) continue;
                // grapr:benign-race(communityVolume): stale candidate
                // volume tolerated by design (same contract as above).
                double volCandidate;
#pragma omp atomic read
                volCandidate = communityVolume[candidate];
                const double delta =
                    deltaModularity(omegaE, weightToCurrent, acc[c],
                                    volCurrent, volCandidate, volU, gamma);
                // Ties always resolve to the lowest community id — making
                // the selection independent of neighbor order, and with it
                // single-threaded runs reproducible across layouts and
                // schedules.
                if (delta > bestDelta ||
                    (delta == bestDelta && candidate < bestCommunity)) {
                    bestDelta = delta;
                    bestCommunity = candidate;
                }
            }

            if (bestCommunity != current && bestDelta > 0.0) {
#pragma omp atomic
                communityVolume[current] -= volU;
#pragma omp atomic
                communityVolume[bestCommunity] += volU;
                // grapr:benign-race(zeta): the new label is published
                // non-atomically; concurrent neighbor scans may read the
                // old or the new value (stale reads tolerated by design).
                // Each node is written by exactly one thread per round.
                zeta.set(u, bestCommunity);
                GRAPR_RACE_BENIGN_SITE("plm.move.zeta");
                ++movedThisRound;
            }
        }

        totalMoves += movedThisRound;
        if (tracer) {
            tracer->record(iteration + 1, g.numberOfNodes(), movedThisRound);
        }
        if (movedThisRound == 0) break;
    }
    return totalMoves;
}

// ---------------------------------------------------------------------------
// Tuned kernel. Same decisions as movePhaseImpl — enforced bit-for-bit by
// tests/test_csr.cpp and tests/test_move_kernels.cpp — but engineered around
// this kernel's actual costs: the random accesses of the per-community
// accumulation, the per-candidate Δmod arithmetic, and the sweep's load
// balance.
//
//  * Scoring is division-free: instead of Δ we compare the scaled value
//    2ω(E)²·Δ = 2ω(E)(ω(u,D\{u}) − ω(u,C\{u})) + γ·vol(u)(vol(C\{u}) − vol(D)),
//    a positive multiple of Δ, so argmax, ties, and the Δ > 0 gate are
//    unchanged. On integer-valued weights (every unweighted input, and
//    every coarse graph derived from one) these products are computed
//    EXACTLY in doubles (≪ 2^53), so equal-gain ties are detected exactly;
//    the reference formula's rounding error (~1e-21) is orders of magnitude
//    below the smallest nonzero scaled gap (~1/(2ω²)), so the two scorings
//    can never disagree on an ordering.
//  * The accumulator stores {value, stamp} fused in one cell — one random
//    cache line per add instead of two — and counts in 8-byte integer
//    cells when the graph is unweighted (counts ARE the exact sums of
//    1.0-weights, so values are identical).
//  * Community volumes live in one shared array under `omp atomic`, as in
//    movePhaseImpl. PlmKernelConfig selects the sweep schedule (flat guided
//    vs degree-bucketed) and an optional active-set frontier.
//  * A full sweep skips the row scan of a node that provably cannot move
//    (SkipBound below), so later sweeps cost what changed, not 2m.
// ---------------------------------------------------------------------------

/// Fused-cell accumulator over integer counts (unweighted rows).
class FrozenCountCells {
public:
    explicit FrozenCountCells(count universe) : cells_(universe, {0, 0}) {}
    void clear() {
        touched_.clear();
        if (++generation_ == 0) {
            cells_.assign(cells_.size(), {0, 0});
            generation_ = 1;
        }
    }
    void add(node k, edgeweight /*w — always defaultEdgeWeight*/) {
        Cell& c = cells_[k];
        if (c.stamp != generation_) {
            c.stamp = generation_;
            c.count = 1;
            touched_.push_back(k);
        } else {
            ++c.count;
        }
    }
    double get(node k) const {
        const Cell& c = cells_[k];
        return c.stamp == generation_ ? static_cast<double>(c.count) : 0.0;
    }
    const std::vector<node>& touched() const noexcept { return touched_; }

private:
    struct Cell {
        std::uint32_t count;
        std::uint32_t stamp;
    };
    std::vector<Cell> cells_;
    std::vector<node> touched_;
    std::uint32_t generation_ = 1;
};

/// Fused-cell accumulator over edge weights (weighted rows).
class FrozenWeightCells {
public:
    explicit FrozenWeightCells(count universe) : cells_(universe, {0.0, 0}) {}
    void clear() {
        touched_.clear();
        if (++generation_ == 0) {
            cells_.assign(cells_.size(), {0.0, 0});
            generation_ = 1;
        }
    }
    void add(node k, edgeweight w) {
        Cell& c = cells_[k];
        if (c.stamp != generation_) {
            c.stamp = generation_;
            c.value = w;
            touched_.push_back(k);
        } else {
            c.value += w;
        }
    }
    double get(node k) const {
        const Cell& c = cells_[k];
        return c.stamp == generation_ ? c.value : 0.0;
    }
    const std::vector<node>& touched() const noexcept { return touched_; }

private:
    struct Cell {
        double value;
        std::uint32_t stamp;
    };
    std::vector<Cell> cells_;
    std::vector<node> touched_;
    std::uint32_t generation_ = 1;
};

/// Per-thread state of the tuned kernel: the community-weight accumulator,
/// this thread's slice of the next frontier, and a full sweep's counters
/// for the current round (drift units moved, nodes evaluated). One pool
/// slot per potential thread (ThreadLocalPool), each on its own cache
/// lines: every evaluation writes its slot.
template <typename Cells>
struct alignas(64) MoveScratch {
    explicit MoveScratch(count universe) : acc(universe) {}
    Cells acc;
    std::vector<node> frontier;
    std::uint64_t movedUnits = 0;
    count evaluated = 0;
};

/// A full sweep evaluates every node each round, yet after the first few
/// rounds most nodes provably cannot move. When u is evaluated in round e
/// and stays, slack(u) = −max_D score(D) ≥ 0 (+∞ without a candidate).
/// While neither u nor a neighbor moves, every ω(u,·) stays as it was and
/// only community volumes drift: one move of x shifts vol(C) − vol(D) by
/// at most 2·vol(x), so no score has grown by more than 2γ·vol(u)·V, V the
/// volume moved since round e began. u is skipped while that bound cannot
/// reach its slack.
///
/// V is counted in integer drift units, so the per-round totals and their
/// differences are exact. On integer weights with γ = 1 and 2ω < 2^25,
/// every score term, volume and bound is an exact integer in a double: a
/// unit is one volume unit and the test is exact. Otherwise a unit is the
/// power of two just above 2ω·2^-33, each move adds one more unit (which
/// covers the rounding of its two community-volume updates), and a margin
/// of 2^-40 of the largest score term covers the rounding of the scores at
/// both evaluations, so a skip never overrules a full evaluation.
class SkipBound {
public:
    SkipBound() = default;
    SkipBound(const CsrGraph& g, double gamma, double twoOmega) {
        const edgeweight* w =
            g.isWeighted() ? g.weightArray().data() : nullptr;
        const index entries = g.offsets()[g.upperNodeIdBound()];
        const bool exact =
            gamma == 1.0 && twoOmega < 0x1p25 &&
            (w == nullptr || std::all_of(w, w + entries, [](edgeweight x) {
                 return x == std::floor(x);
             }));
        if (exact) return;
        // (Clamped so that 2^-unitExp stays finite on tiny weights.)
        const int unitExp = std::max(std::ilogb(twoOmega) - 32, -1000);
        perUnit_ = std::ldexp(1.0, -unitExp);
        slopUnits_ = 1;
        constexpr double pad = 0x1p-40;
        driftScale_ = 2.0 * gamma * std::ldexp(1.0, unitExp) * (1.0 + pad);
        margin_ = pad * std::max(1.0, gamma) * twoOmega;
    }

    /// Drift units charged for moving a node of volume `vol` (≥ vol; the
    /// scaling by a power of two is exact).
    std::uint64_t units(double vol) const {
        return static_cast<std::uint64_t>(std::ceil(vol * perUnit_)) +
               slopUnits_;
    }

    /// True if no score of a node of volume `volU` can have grown from
    /// −slack to above 0 while `drift` units moved.
    bool cannotMove(double volU, std::uint64_t drift, double slack) const {
        return volU * (static_cast<double>(drift) * driftScale_ + margin_) <=
               slack;
    }

private:
    double perUnit_ = 1.0;
    std::uint64_t slopUnits_ = 0;
    double driftScale_ = 2.0;
    double margin_ = 0.0;
};

/// Round stamps are 32-bit, and drift totals stay below 2^53 (exact case)
/// and 2^64 up to this many sweeps. A phase allowed more (the PlmConfig
/// default is 64) evaluates every node in every sweep.
constexpr count kMaxSkipSweeps = count{1} << 24;

/// Below this many work items a bucketed sweep loses: its three
/// worksharing loops pay two extra barriers per iteration plus the bucket
/// rebuild, which only the load imbalance of a LARGE skewed sweep repays.
/// Small levels (and late active-set frontiers) take the flat sweep.
constexpr std::size_t kBucketedMinWork = std::size_t{1} << 15;

/// Restriction of the tuned kernel to a seeded frontier — the streaming
/// engine's incremental re-detection mode (Plm::movePhaseSeeded). Instead
/// of sweeping all nodes, iteration 0 evaluates only `seed` (the nodes a
/// batch touched) and later iterations ride the active-set frontier
/// exactly as kernel.activeNodes does, so re-detection cost scales with
/// the perturbation, not the graph. `splitBase` additionally lets every
/// node u consider leaving for its own reserved empty community
/// (splitBase + u): after deletions a node's best move may be to no
/// existing neighbor community at all, which the static kernel never needs
/// (it starts from singletons) but a warm start from a converged partition
/// does.
struct SeededSweep {
    const std::vector<node>* seed = nullptr;
    node splitBase = none;
    count* evaluated = nullptr; ///< out: DISTINCT nodes evaluated (the
                                ///< re-activated set across iterations)
};

template <typename Cells>
count movePhaseTunedImpl(const CsrGraph& g, Partition& zeta, double gamma,
                         count maxIterations, IterationTracer* tracer,
                         const PlmKernelConfig& kernel,
                         const SeededSweep* seeded = nullptr) {
    const count bound = g.upperNodeIdBound();
    const double omegaE = g.totalEdgeWeight();
    if (omegaE <= 0.0) return 0;
    const double twoOmega = 2.0 * omegaE;
    const count communityBound = std::max<count>(zeta.upperBound(), bound);

    std::vector<double> nodeVolume(bound, 0.0);
    g.parallelForNodes([&](node u) { nodeVolume[u] = g.volume(u); });
    std::vector<double> communityVolume(communityBound, 0.0);
    g.forNodes([&](node u) { communityVolume[zeta[u]] += nodeVolume[u]; });

    const index* offsets = g.offsets().data();
    const node* neighbors = g.neighborArray().data();
    const edgeweight* weights =
        g.isWeighted() ? g.weightArray().data() : nullptr;

    ThreadLocalPool<MoveScratch<Cells>> scratch(communityBound);

    // A seeded sweep is frontier-driven by construction: iteration 0 is
    // the seed, later iterations the nodes whose neighborhood changed.
    const bool active = kernel.activeNodes || seeded != nullptr;
    const node splitBase = seeded ? seeded->splitBase : none;
    // Bucketing exists to fix multi-thread load imbalance; sequentially it
    // is pure overhead and would reorder the evaluation sweep, so a
    // one-thread run always takes the flat in-order path (this is what
    // keeps every config bit-identical to the reference single-threaded).
    const bool bucketed =
        kernel.schedule == PlmSweepSchedule::DegreeBucketed &&
        omp_get_max_threads() > 1;

    // The work list: nodes with non-empty rows, ascending (the reference
    // evaluation order). Under activeNodes it becomes the frontier after
    // the first iteration. A seeded sweep starts from the seed instead of
    // all nodes (sorted + deduplicated for a deterministic order).
    std::vector<node> work;
    if (seeded) {
        work.reserve(seeded->seed->size());
        for (const node u : *seeded->seed) {
            if (u < bound && offsets[u] != offsets[u + 1]) work.push_back(u);
        }
        std::sort(work.begin(), work.end());
        work.erase(std::unique(work.begin(), work.end()), work.end());
    } else {
        work.reserve(bound);
        for (node u = 0; u < bound; ++u) {
            if (offsets[u] != offsets[u + 1]) work.push_back(u);
        }
    }

    // Deduplication bitmap of the next frontier: a mover raises its
    // neighbors' flags with a relaxed exchange; whoever wins the exchange
    // appends the node to its thread's frontier slice.
    std::vector<std::atomic<std::uint8_t>> pending(active ? bound : 0);

    // SkipBound state, full sweeps only, 16 B per node: u's slack and the
    // round it was last evaluated in (written only at u's own turn), and
    // the last round in which u or a neighbor moved (written by movers).
    // Rounds count from 1; movedBefore[r] holds the drift units moved
    // before round r. The frontier and seeded sweeps allocate none of it
    // and skip its work on one predictable branch.
    const bool skipping = !active && maxIterations <= kMaxSkipSweeps;
    const SkipBound skipBound =
        skipping ? SkipBound(g, gamma, twoOmega) : SkipBound();
    std::vector<double> slack(skipping ? bound : 0);
    std::vector<std::uint32_t> evaluatedIn(skipping ? bound : 0, 0);
    std::vector<std::atomic<std::uint32_t>> touchedIn(skipping ? bound : 0);
    std::vector<std::uint64_t> movedBefore(skipping ? 2 : 0, 0);
    std::uint32_t round = 0;

    // The skip's per-node bookkeeping stays out of line: inlined into
    // processNode it made GCC compile the row scan and candidate loop of
    // every sweep, frontier and seeded ones included, about 1.5x slower.
    //
    // At u's turn: true if u's last evaluation proves it cannot move now,
    // else u is stamped as evaluated in this round. The drift counts every
    // round since u's last evaluation began, plus what this thread has
    // moved in this round; other threads' moves of this round show after
    // its barrier, so a round in which nothing moves is exact.
    auto provenStuck = [&](node u, MoveScratch<Cells>& sc)
        __attribute__((noinline)) {
        std::uint32_t lastEvaluated;
        // grapr:analyze-allow(shared-write-safety): u's own slot. A sweep
        // evaluates u once, and evaluatedIn[u] and slack[u] are written
        // only at u's turn; the sweeps' barriers order the rounds. The
        // read is atomic only because TSan cannot see libgomp's barriers,
        // and u comes from a work list, so the analysis cannot tie it to
        // the iteration.
#pragma omp atomic read
        lastEvaluated = evaluatedIn[u];
        if (touchedIn[u].load(std::memory_order_relaxed) < lastEvaluated) {
            double proven;
            // grapr:analyze-allow(shared-write-safety): u's own slot, as
            // for evaluatedIn[u] above.
#pragma omp atomic read
            proven = slack[u];
            const std::uint64_t drift = movedBefore[round] -
                                        movedBefore[lastEvaluated] +
                                        sc.movedUnits;
            if (skipBound.cannotMove(nodeVolume[u], drift, proven)) {
                return true;
            }
        }
#pragma omp atomic write
        evaluatedIn[u] = round;
        ++sc.evaluated;
        return false;
    };
    // u moved: charge its volume to this thread's drift and stamp u and
    // its neighbors with this round.
    auto recordMove = [&](node u, double volU, MoveScratch<Cells>& sc)
        __attribute__((noinline)) {
        sc.movedUnits += skipBound.units(volU);
        touchedIn[u].store(round, std::memory_order_relaxed);
        for (index i = offsets[u]; i < offsets[u + 1]; ++i) {
            touchedIn[neighbors[i]].store(round, std::memory_order_relaxed);
        }
    };

    // The per-node evaluation, hoisted out of the parallel regions so all
    // three bucket loops (and the flat loop) share one definition. `moved`
    // binds to the enclosing loop's reduction variable; `sc` is the calling
    // thread's scratch slot, resolved once per region (per-node thread-id
    // lookups measurably drag the sweep).
    auto processNode = [&](node u, count& moved, MoveScratch<Cells>& sc) {
        if (skipping && provenStuck(u, sc)) return;
        const index lo = offsets[u];
        const index hi = offsets[u + 1];
        const node current = zeta[u];
        Cells& acc = sc.acc;
        acc.clear();
        const node* zetaData = zeta.vector().data();
        // Split row scan: the main loop prefetches the label lookup a few
        // entries ahead with no per-iteration bounds branch; the short
        // tail (and every short row) runs the plain loop.
        const index pfEnd = hi - lo > 8 ? hi - 8 : lo;
        if (weights) {
            index i = lo;
            for (; i < pfEnd; ++i) {
                __builtin_prefetch(&zetaData[neighbors[i + 8]], 0, 1);
                const node v = neighbors[i];
                if (v != u) acc.add(zetaData[v], weights[i]);
            }
            for (; i < hi; ++i) {
                const node v = neighbors[i];
                if (v != u) acc.add(zetaData[v], weights[i]);
            }
        } else {
            index i = lo;
            for (; i < pfEnd; ++i) {
                __builtin_prefetch(&zetaData[neighbors[i + 8]], 0, 1);
                const node v = neighbors[i];
                if (v != u) acc.add(zetaData[v], 1.0);
            }
            for (; i < hi; ++i) {
                const node v = neighbors[i];
                if (v != u) acc.add(zetaData[v], 1.0);
            }
        }

        const double volU = nodeVolume[u];
        const double weightToCurrent = acc.get(current);
        // grapr:benign-race(communityVolume): stale snapshot tolerated by
        // design (see movePhaseImpl).
        double volCurrent;
#pragma omp atomic read
        volCurrent = communityVolume[current];
        volCurrent -= volU;

        // score(D) = 2ω·ω(u,D) − γ·vol(u)·vol(D) + base, where base folds
        // in the (candidate-independent) cost of leaving C.
        const double gammaVolU = gamma * volU;
        const double base = gammaVolU * volCurrent - twoOmega * weightToCurrent;
        node bestCommunity = current;
        double bestScore = 0.0;
        // When skipping: the max score over all candidates, whose negation
        // is the slack of a node that stays (+∞ without a candidate).
        double maxScore = -std::numeric_limits<double>::infinity();
        for (const node candidate : acc.touched()) {
            if (candidate == current) continue;
            // grapr:benign-race(communityVolume): stale candidate volume
            // tolerated by design (see movePhaseImpl).
            double volCandidate;
#pragma omp atomic read
            volCandidate = communityVolume[candidate];
            const double score = twoOmega * acc.get(candidate) -
                                 gammaVolU * volCandidate + base;
            if (skipping) maxScore = std::max(maxScore, score);
            // Lowest-id tie break, exactly as movePhaseImpl.
            if (score > bestScore ||
                (score == bestScore && candidate < bestCommunity)) {
                bestScore = score;
                bestCommunity = candidate;
            }
        }

        if (splitBase != none) {
            // Splitting off into u's reserved empty community scores
            // ω(u,D) = 0, vol(D) = 0 — i.e. exactly `base`. Strictly
            // greater only: on a tie, staying (or a real neighbor
            // community) always beats opening a new one.
            const node isolated = splitBase + u;
            if (current != isolated && base > bestScore) {
                bestScore = base;
                bestCommunity = isolated;
            }
        }

        if (bestCommunity != current && bestScore > 0.0) {
#pragma omp atomic
            communityVolume[current] -= volU;
#pragma omp atomic
            communityVolume[bestCommunity] += volU;
            // grapr:benign-race(zeta): non-atomic label publish; stale
            // reads tolerated, one writer per node per round (see
            // movePhaseImpl).
            zeta.set(u, bestCommunity);
            GRAPR_RACE_BENIGN_SITE("plm.moveTuned.zeta");
            ++moved;
            if (skipping) recordMove(u, volU, sc);
            if (active) {
                // u's move changes every neighbor's Δmod landscape: seed
                // them into the next frontier (first flag-raiser appends).
                for (index i = lo; i < hi; ++i) {
                    const node v = neighbors[i];
                    if (v == u) continue;
                    if (pending[v].load(std::memory_order_relaxed) == 0 &&
                        pending[v].exchange(1, std::memory_order_relaxed) ==
                            0) {
                        sc.frontier.push_back(v);
                    }
                }
            }
        } else if (skipping) {
#pragma omp atomic write
            slack[u] = -maxScore;
        }
    };

    std::vector<node> lowBucket;
    std::vector<node> midBucket;
    std::vector<node> hubBucket;
    // Each sweep reads what the previous ones wrote; the fence shows TSan
    // the fork and join edges libgomp provides (no-op in other builds).
    Parallel::TsanJoinFence fence;

    count totalMoves = 0;
    count evaluatedNodes = 0;
    // Seeded sweeps report the distinct re-activated set, not evaluation
    // work: a node revisited by five frontier rounds is still one node of
    // re-detection locality (the metric BENCH_stream.json reports).
    std::vector<std::uint8_t> everEvaluated;
    if (seeded) everEvaluated.assign(bound, 0);
    for (count iteration = 0;
         iteration < maxIterations && !work.empty(); ++iteration) {
        GRAPR_RACE_PHASE("plm.moveTuned");
        round = static_cast<std::uint32_t>(iteration + 1);
        if (seeded) {
            for (const node u : work) {
                if (!everEvaluated[u]) {
                    everEvaluated[u] = 1;
                    ++evaluatedNodes;
                }
            }
        } else {
            evaluatedNodes += work.size();
        }
        count movedThisRound = 0;
        if (bucketed && work.size() >= kBucketedMinWork) {
            // Split the sweep by row shape: short uniform rows get cheap
            // static chunks, the middle keeps the paper's guided schedule,
            // and hubs go through dynamic work-stealing one row at a time
            // so a million-entry row cannot serialize the iteration tail.
            lowBucket.clear();
            midBucket.clear();
            hubBucket.clear();
            for (const node u : work) {
                const count deg =
                    static_cast<count>(offsets[u + 1] - offsets[u]);
                if (deg < kernel.lowDegreeMax) {
                    lowBucket.push_back(u);
                } else if (deg >= kernel.hubDegreeMin) {
                    hubBucket.push_back(u);
                } else {
                    midBucket.push_back(u);
                }
            }
            const auto nLow = static_cast<std::int64_t>(lowBucket.size());
            const auto nMid = static_cast<std::int64_t>(midBucket.size());
            const auto nHub = static_cast<std::int64_t>(hubBucket.size());
            // One region, three worksharing loops (implicit barrier after
            // each keeps the bucket phases ordered without paying three
            // fork/joins); the scratch slot resolves once per thread.
            fence.open();
#pragma omp parallel default(none)                                           \
    shared(processNode, scratch, lowBucket, midBucket, hubBucket, nLow, nMid, \
               nHub, fence) reduction(+ : movedThisRound)
            {
                fence.enter();
                MoveScratch<Cells>& sc = scratch.local();
#pragma omp for schedule(static)
                for (std::int64_t i = 0; i < nLow; ++i) {
                    processNode(lowBucket[i], movedThisRound, sc);
                }
#pragma omp for schedule(guided)
                for (std::int64_t i = 0; i < nMid; ++i) {
                    processNode(midBucket[i], movedThisRound, sc);
                }
#pragma omp for schedule(dynamic, 1)
                for (std::int64_t i = 0; i < nHub; ++i) {
                    processNode(hubBucket[i], movedThisRound, sc);
                }
                fence.arrive();
            }
            fence.join();
        } else {
            const auto n = static_cast<std::int64_t>(work.size());
            fence.open();
#pragma omp parallel default(none)                                           \
    shared(processNode, scratch, work, n, fence) reduction(+ : movedThisRound)
            {
                fence.enter();
                MoveScratch<Cells>& sc = scratch.local();
#pragma omp for schedule(guided)
                for (std::int64_t i = 0; i < n; ++i) {
                    processNode(work[i], movedThisRound, sc);
                }
                fence.arrive();
            }
            fence.join();
        }

        totalMoves += movedThisRound;
        auto evaluatedThisRound = static_cast<count>(work.size());
        if (skipping) {
            // The round's barrier has passed: fold the per-thread counters
            // into the running drift total and the round's evaluations.
            std::uint64_t roundUnits = 0;
            evaluatedThisRound = 0;
            for (std::size_t t = 0; t < scratch.size(); ++t) {
                MoveScratch<Cells>& slot = scratch.slot(t);
                roundUnits += slot.movedUnits;
                evaluatedThisRound += slot.evaluated;
                slot.movedUnits = 0;
                slot.evaluated = 0;
            }
            movedBefore.push_back(movedBefore.back() + roundUnits);
        }
        if (tracer) {
            tracer->record(iteration + 1, evaluatedThisRound, movedThisRound);
        }
        if (movedThisRound == 0) break;

        if (active) {
            // Next sweep = the frontier: concatenate the per-thread slices,
            // sort for a deterministic evaluation order, drop the flags.
            work.clear();
            for (std::size_t t = 0; t < scratch.size(); ++t) {
                std::vector<node>& slice = scratch.slot(t).frontier;
                work.insert(work.end(), slice.begin(), slice.end());
                slice.clear();
            }
            std::sort(work.begin(), work.end());
            for (const node v : work) {
                pending[v].store(0, std::memory_order_relaxed);
            }
        }
    }
    if (seeded && seeded->evaluated) *seeded->evaluated = evaluatedNodes;
    return totalMoves;
}

count movePhaseTuned(const CsrGraph& g, Partition& zeta, double gamma,
                     count maxIterations, IterationTracer* tracer,
                     const PlmKernelConfig& kernel,
                     const SeededSweep* seeded = nullptr) {
    if (g.isWeighted()) {
        return movePhaseTunedImpl<FrozenWeightCells>(
            g, zeta, gamma, maxIterations, tracer, kernel, seeded);
    }
    return movePhaseTunedImpl<FrozenCountCells>(g, zeta, gamma, maxIterations,
                                                tracer, kernel, seeded);
}

count movePhaseCachedMapsImpl(const CsrGraph& g, Partition& zeta, double gamma,
                              count maxIterations) {
    const count bound = g.upperNodeIdBound();
    const double omegaE = g.totalEdgeWeight();
    if (omegaE <= 0.0) return 0;
    const count communityBound = std::max<count>(zeta.upperBound(), bound);

    std::vector<double> communityVolume(communityBound, 0.0);
    std::vector<double> nodeVolume(bound, 0.0);
    g.parallelForNodes([&](node u) { nodeVolume[u] = g.volume(u); });
    g.forNodes([&](node u) { communityVolume[zeta[u]] += nodeVolume[u]; });

    // The abandoned design: one weight-to-community map and one lock per
    // vertex. All reads and writes of a vertex's map go through its lock
    // (std::map/unordered_map are not thread-safe).
    std::vector<std::unordered_map<node, double>> weightTo(bound);
    std::vector<omp_lock_t> locks(bound);
    for (auto& lock : locks) omp_init_lock(&lock);
    g.parallelForNodes([&](node u) {
        auto& map = weightTo[u];
        g.forNeighborsOf(u, [&](node v, edgeweight w) {
            if (v != u) map[zeta[v]] += w;
        });
    });

    count totalMoves = 0;
    for (count iteration = 0; iteration < maxIterations; ++iteration) {
        GRAPR_RACE_PHASE("plm.moveCachedMaps");
        count movedThisRound = 0;
        const auto n = static_cast<std::int64_t>(bound);
#pragma omp parallel for default(none)                                       \
    shared(g, zeta, communityVolume, nodeVolume, weightTo, locks, omegaE,    \
               gamma, n)                                                     \
    schedule(guided) reduction(+ : movedThisRound)
        for (std::int64_t su = 0; su < n; ++su) {
            const node u = static_cast<node>(su);
            if (!g.hasNode(u) || g.degree(u) == 0) continue;
            const node current = zeta[u];
            const double volU = nodeVolume[u];

            node bestCommunity = current;
            double bestDelta = 0.0;
            {
                omp_set_lock(&locks[u]);
                const auto& map = weightTo[u];
                const auto itCurrent = map.find(current);
                const double weightToCurrent =
                    itCurrent == map.end() ? 0.0 : itCurrent->second;
                // grapr:benign-race(communityVolume): stale snapshot
                // tolerated by design (see movePhaseImpl).
                double volCurrent;
#pragma omp atomic read
                volCurrent = communityVolume[current];
                volCurrent -= volU;
                for (const auto& [candidate, weight] : map) {
                    if (candidate == current) continue;
                    // grapr:benign-race(communityVolume): stale candidate
                    // volume tolerated by design (see movePhaseImpl).
                    double volCandidate;
#pragma omp atomic read
                    volCandidate = communityVolume[candidate];
                    const double delta =
                        deltaModularity(omegaE, weightToCurrent, weight,
                                        volCurrent, volCandidate, volU,
                                        gamma);
                    // Lowest-id tie break (see movePhaseImpl) — essential
                    // here, where the map's iteration order is arbitrary.
                    if (delta > bestDelta ||
                        (delta == bestDelta && candidate < bestCommunity)) {
                        bestDelta = delta;
                        bestCommunity = candidate;
                    }
                }
                omp_unset_lock(&locks[u]);
            }

            if (bestCommunity != current && bestDelta > 0.0) {
#pragma omp atomic
                communityVolume[current] -= volU;
#pragma omp atomic
                communityVolume[bestCommunity] += volU;
                // No benign-race annotation here: unlike movePhaseImpl,
                // this region never reads zeta at a neighbor index —
                // labels come from the locked per-node cached maps — so
                // the one-writer-per-node zeta.set is a disjoint write,
                // not a tolerated race.
                zeta.set(u, bestCommunity);
                // Propagate the move into every neighbor's cached map.
                g.forNeighborsOf(u, [&](node v, edgeweight w) {
                    if (v == u) return;
                    omp_set_lock(&locks[v]);
                    auto& map = weightTo[v];
                    auto it = map.find(current);
                    if (it != map.end()) {
                        it->second -= w;
                        if (it->second <= 0.0) map.erase(it);
                    }
                    map[bestCommunity] += w;
                    omp_unset_lock(&locks[v]);
                });
                ++movedThisRound;
            }
        }
        totalMoves += movedThisRound;
        if (movedThisRound == 0) break;
    }
    for (auto& lock : locks) omp_destroy_lock(&lock);
    return totalMoves;
}

/// The move phase a PlmConfig selects: the tuned kernel, or the cached-maps
/// ablation (which takes no tracer).
count moveNodes(const CsrGraph& g, Partition& zeta, const PlmConfig& config,
                IterationTracer* tracer) {
    if (config.strategy == PlmWeightStrategy::CachedMaps) {
        return movePhaseCachedMapsImpl(g, zeta, config.gamma,
                                       config.maxMoveIterations);
    }
    return movePhaseTuned(g, zeta, config.gamma, config.maxMoveIterations,
                          tracer, config.kernel);
}

} // namespace

count Plm::movePhase(const CsrGraph& g, Partition& zeta, double gamma,
                     count maxIterations, IterationTracer* tracer,
                     const PlmKernelConfig& kernel) {
    return movePhaseTuned(g, zeta, gamma, maxIterations, tracer, kernel);
}

count Plm::movePhaseReference(const CsrGraph& g, Partition& zeta, double gamma,
                              count maxIterations, IterationTracer* tracer) {
    return movePhaseImpl(g, zeta, gamma, maxIterations, tracer);
}

count Plm::movePhaseSeeded(const CsrGraph& g, Partition& zeta, double gamma,
                           count maxIterations,
                           const std::vector<node>& seed, node splitBase,
                           count* evaluatedNodes) {
    if (splitBase != none) {
        require(static_cast<count>(splitBase) + g.upperNodeIdBound() <=
                    zeta.upperBound(),
                "movePhaseSeeded: zeta.upperBound() must cover the "
                "reserved split-off range [splitBase, splitBase + bound)");
    }
    const SeededSweep restriction{&seed, splitBase, evaluatedNodes};
    return movePhaseTuned(g, zeta, gamma, maxIterations, nullptr,
                          PlmKernelConfig{}, &restriction);
}

count Plm::movePhaseCachedMaps(const CsrGraph& g, Partition& zeta,
                               double gamma, count maxIterations) {
    return movePhaseCachedMapsImpl(g, zeta, gamma, maxIterations);
}

Partition Plm::runRecursive(const CsrGraph& g, count level,
                            CsrGraph* release) {
    Partition zeta(g.upperNodeIdBound());
    zeta.allToSingletons();

    levels_.push_back(PlmLevelInfo{g.numberOfNodes()});
    count moves = 0;
    if (tracer_) {
        IterationTracer moveTracer;
        moves = moveNodes(g, zeta, config_, &moveTracer);
        for (const auto& r : moveTracer.records()) {
            tracer_->record(level * 1000 + r.iteration, r.active, r.updated);
        }
    } else {
        moves = moveNodes(g, zeta, config_, nullptr);
    }

    if (moves == 0) return zeta; // ζ unchanged: recursion bottoms out

    // The coarse graph is built CSR-to-CSR (prefix-sum construction).
    auto coarse = ParallelPartitionCoarsening(config_.parallelCoarsening)
                      .run(g, zeta);

    // Guard against non-contraction (every community a singleton would
    // reproduce the same graph forever).
    if (coarse.coarseGraph.numberOfNodes() >= g.numberOfNodes()) return zeta;

    // Without refinement nothing below reads g: free it before the
    // coarser levels allocate theirs.
    if (release != nullptr && !config_.refine) *release = CsrGraph();

    const Partition coarseSolution =
        runRecursive(coarse.coarseGraph, level + 1, &coarse.coarseGraph);
    zeta = ClusteringProjector::projectBack(coarseSolution,
                                            coarse.fineToCoarse);

    if (config_.refine) {
        // PLMR: re-evaluate node assignments on this level in view of the
        // changes made on the coarser levels (Algorithm 4 line 7). Runs on
        // the same frozen view as the first move phase — the level is
        // frozen once, not per pass.
        zeta.setUpperBound(
            static_cast<node>(std::max<count>(zeta.upperBound(),
                                              g.upperNodeIdBound())));
        moveNodes(g, zeta, config_, nullptr);
    }
    return zeta;
}

Partition Plm::run(const CsrGraph& g) {
    levels_.clear();
    Partition zeta;
    VertexFollowingReduction reduction =
        config_.vertexFollowing ? VertexFollowing::reduce(g)
                                : VertexFollowingReduction{};
    if (reduction.collapsed > 0) {
        // Collapse degree-1 chains/pendants onto their anchors, detect on
        // the reduced graph, and prolong the labels back — every follower
        // lands exactly in its anchor's community by construction.
        const Partition reducedSolution =
            runRecursive(reduction.reduced, 0, &reduction.reduced);
        zeta = ClusteringProjector::projectBack(reducedSolution,
                                                reduction.fineToCoarse);
        // The reduction is one more coarsening level, so prolongation
        // gets the same treatment as every other level boundary: one
        // refinement sweep on the full graph. It starts from the
        // near-converged prolonged labels (few iterations to settle)
        // and is what keeps the VF path's quality no worse than the
        // uncollapsed run — the property the VF tests pin.
        zeta.setUpperBound(static_cast<node>(g.upperNodeIdBound()));
        moveNodes(g, zeta, config_, nullptr);
    } else {
        zeta = runRecursive(g, 0, nullptr);
    }
    zeta.setUpperBound(static_cast<node>(g.upperNodeIdBound()));
    zeta.compact();
    return zeta;
}

std::string Plm::toString() const {
    std::string name = config_.refine ? "PLMR" : "PLM";
    if (config_.gamma != 1.0) {
        name += "(gamma=" + std::to_string(config_.gamma) + ")";
    }
    if (!config_.parallelCoarsening) name += "+seqcoarse";
    if (config_.vertexFollowing) name += "+vf";
    if (config_.kernel.schedule == PlmSweepSchedule::Flat) name += "+flat";
    if (config_.kernel.activeNodes) name += "+active";
    return name;
}

} // namespace grapr
