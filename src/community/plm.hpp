#pragma once
// PLM — Parallel Louvain Method (paper Algorithms 2 & 3, §III-B), the first
// shared-memory parallelization of the Louvain community detection method
// for massive inputs, plus the refinement extension that turns it into
// PLMR (Algorithm 4, §III-C).
//
// Each level: a parallel local-move phase greedily relocates nodes to the
// neighboring community with the highest modularity gain until stable; the
// graph is then coarsened by the resulting communities (parallel scheme,
// see coarsening/) and the method recurses, finally prolonging the coarse
// solution and — for PLMR — re-running the move phase as refinement.
//
// Each sweep of the move phase visits all nodes in parallel and tolerates
// stale data: concurrent moves may invalidate a Δmod score between
// evaluation and application, occasionally producing a
// modularity-decreasing move, which later iterations correct (§III-B).
// After the first sweep it skips the row scan of every node that provably
// cannot move: its best score at its last evaluation lies further below
// zero than the community volumes moved since can lift it, and no neighbor
// has moved.
// Following the paper's engineering result, the implementation does NOT
// cache per-node neighbor-community weights (maps + locks proved slower);
// it recomputes them per evaluation in per-thread scratch arrays and only
// maintains per-community volumes, updated atomically on each move.

#include <vector>

#include "community/detector.hpp"
#include "graph/csr_graph.hpp"

namespace grapr {

/// Strategy for obtaining the edge weight from a node to its neighboring
/// communities inside the move phase — the paper's central engineering
/// trade-off (§III-B).
enum class PlmWeightStrategy {
    /// Recompute per evaluation in per-thread scratch arrays (the paper's
    /// final, faster choice; the default).
    Recompute,
    /// Maintain a per-node map of neighbor-community weights, protected by
    /// a per-node lock, updated on every move — the paper's *first*
    /// implementation, "later discovered to introduce too much overhead
    /// (map operations, locks)". Kept selectable so the ablation bench can
    /// measure that claim.
    CachedMaps,
};

/// How the tuned kernel schedules the node sweep.
enum class PlmSweepSchedule {
    /// One guided-schedule loop over all work items (the PR-1 scheme).
    Flat,
    /// Partition the work items into low-degree / mid / hub buckets and
    /// run each with the schedule that fits its row shape: static chunks
    /// for the uniform short rows, guided for the middle, dynamic
    /// work-stealing for the hubs so one thread stuck on a million-entry
    /// row cannot serialize the iteration. With a single thread this
    /// degenerates to the flat in-order sweep (bucketing exists to fix
    /// multi-thread load imbalance; sequentially it is pure overhead and
    /// would change the evaluation order the determinism tests pin).
    DegreeBucketed,
};

/// Tuning knobs of the move kernel. The defaults are the measured fast
/// path (bench/micro_plm_kernels.cpp is the evidence trail); every
/// combination is bit-identical to the reference kernel in single-threaded
/// runs EXCEPT activeNodes (see its comment).
struct PlmKernelConfig {
    PlmSweepSchedule schedule = PlmSweepSchedule::DegreeBucketed;
    /// Frontier-driven sweeps: after the first full iteration only nodes
    /// whose neighborhood changed (a neighbor moved, deduplicated through
    /// an atomic seen-bitmap) are re-evaluated, instead of rescanning all
    /// n nodes per iteration. This is a *semantic* option, not a pure
    /// scheduling one: a node can profit from a volume change in a
    /// community it merely neighbors, which a frontier sweep only
    /// discovers one iteration later (or not at all if the frontier
    /// empties first), so results are near-identical in quality but not
    /// bit-identical. Off by default; the tuned bench config enables it.
    bool activeNodes = false;
    /// Bucket thresholds: degree < lowDegreeMax → static bucket,
    /// degree >= hubDegreeMin → dynamic hub bucket, guided in between.
    count lowDegreeMax = 32;
    count hubDegreeMin = 256;
};

struct PlmConfig {
    /// Resolution parameter γ ∈ [0, 2m]: 1 = standard modularity, smaller
    /// coarser, larger finer (§III-B).
    double gamma = 1.0;
    /// Add the refinement move phase after every prolongation (PLMR).
    bool refine = false;
    /// Coarsen each level on all threads; false coarsens on one thread.
    /// The coarse graph is the same either way.
    bool parallelCoarsening = true;
    /// Safety cap on move-phase sweeps per level.
    count maxMoveIterations = 64;
    /// Neighbor-community weight strategy (see PlmWeightStrategy).
    PlmWeightStrategy strategy = PlmWeightStrategy::Recompute;
    /// Collapse degree-1 chains/pendants onto their anchors before the
    /// first level and project the labels back afterwards (vertex
    /// following, Lu & Halappanavar): a pendant's modularity-optimal
    /// community is its anchor's, so the sweep never needs to evaluate
    /// it. Changes results only on the collapsed nodes (they land exactly
    /// where the anchor lands); opt-in because the default config is the
    /// bit-reproducibility anchor of the test harness.
    bool vertexFollowing = false;
    /// Move-kernel tuning (sweep schedule, active-set frontier).
    PlmKernelConfig kernel = {};
};

/// Per-level record of a PLM run, for scaling analyses and tests.
struct PlmLevelInfo {
    count nodes = 0;
};

class Plm : public CommunityDetector {
public:
    explicit Plm(PlmConfig config = {}) : config_(config) {}

    using CommunityDetector::run;
    /// Every level is frozen: the input as given, the coarse levels as the
    /// coarsening builds them.
    Partition run(const CsrGraph& g) override;

    std::string toString() const override;

    /// Coarsening hierarchy of the last run, finest level first.
    const std::vector<PlmLevelInfo>& levels() const noexcept { return levels_; }

    /// The local move phase (Algorithm 2) — the tuned kernel — exposed for
    /// reuse by the refinement pass, tests, and ablation benches. Moves
    /// nodes of g between the communities of zeta until stable (or the
    /// iteration cap); returns the number of moves performed. zeta must be
    /// complete with ids < zeta.upperBound(). Equal-gain candidates resolve
    /// to the lowest community id, so single-threaded runs are
    /// deterministic and independent of neighbor order.
    ///
    /// Without kernel.activeNodes every sweep visits all nodes but skips
    /// the row scan of a node whose last evaluation proves it cannot move
    /// (no neighbor moved since, and the community volumes moved since
    /// cannot close its score gap). A skip never changes a decision, so a
    /// one-thread run stays bit-identical to movePhaseReference, and a
    /// phase that ends below the cap ends on a sweep in which no node
    /// could move, at any thread count. `tracer`, if non-null, gets one
    /// record per sweep: the nodes actually evaluated (skipped nodes and
    /// nodes without neighbors are not counted) and the nodes moved.
    static count movePhase(const CsrGraph& g, Partition& zeta, double gamma,
                           count maxIterations, IterationTracer* tracer,
                           const PlmKernelConfig& kernel = {});
    /// The untuned generic reference kernel on the frozen layout — the
    /// oracle every tuned variant is pinned against bit for bit
    /// (tests/test_move_kernels.cpp). Not a fast path.
    static count movePhaseReference(const CsrGraph& g, Partition& zeta,
                                    double gamma, count maxIterations,
                                    IterationTracer* tracer);

    /// Seeded restricted move phase — the incremental re-detection entry
    /// of the streaming engine (community/streaming_update.hpp), run by
    /// the tuned kernel with its default tuning. Iteration 0 evaluates
    /// only `seed` (the nodes a batch touched that have a row, in
    /// ascending order); later iterations ride the active-set frontier, so
    /// cost scales with the perturbation, not n. `zeta` must be complete
    /// over g with labels < zeta.upperBound(). When `splitBase != none`,
    /// node u may also split off into its own reserved empty community
    /// `splitBase + u` (required after deletions; zeta.upperBound() must
    /// cover splitBase + upperNodeIdBound()). `evaluatedNodes`, if non-null,
    /// receives the number of DISTINCT nodes evaluated across iterations —
    /// the re-activation metric BENCH_stream.json reports. A move is
    /// accepted on any positive Δmodularity, exactly as in movePhase: a
    /// single node's gain on a large graph is about vol(u)/ω, so an
    /// absolute floor would freeze the warm partition. Deterministic
    /// single-threaded for a fixed seed list.
    static count movePhaseSeeded(const CsrGraph& g, Partition& zeta,
                                 double gamma, count maxIterations,
                                 const std::vector<node>& seed,
                                 node splitBase, count* evaluatedNodes);

    /// The abandoned first implementation (per-node cached maps + locks),
    /// same contract as movePhase. Exposed for the strategy ablation.
    static count movePhaseCachedMaps(const CsrGraph& g, Partition& zeta,
                                     double gamma, count maxIterations);

protected:
    PlmConfig config_;
    std::vector<PlmLevelInfo> levels_;

private:
    /// One level of Algorithm 3. The coarse graphs are built CSR-to-CSR,
    /// so the input is frozen exactly once per run. `release` is g itself
    /// when nothing after this call reads g (a coarse level, or the
    /// vertex-following reduction): PLM then frees g as soon as its coarse
    /// graph exists, so the recursion holds two levels' graphs at a time
    /// instead of every level's. PLMR keeps g for its refinement sweep.
    Partition runRecursive(const CsrGraph& g, count level,
                           CsrGraph* release);
};

} // namespace grapr
