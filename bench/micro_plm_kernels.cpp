// Move-phase kernel micro benchmark (PR 6): the tuned frozen PLM kernel
// against the PR-1 CSR reference, with each optimization also measured in
// isolation so the headline number decomposes:
//   * baseline — movePhaseReference, the PR-1 kernel (one flat guided
//     sweep per iteration, full sweeps);
//   * bucketed — degree-bucketed scheduling alone;
//   * active   — active-set frontier alone (flat);
//   * tuned    — the library default plus the active-set frontier:
//     degree buckets and the frontier.
// Every variant runs the move phase TO CONVERGENCE (its own fixpoint,
// capped at kMoveIterations, the PlmConfig default) — the production
// regime. The variants do different amounts of work by design: bucketing
// settles hubs after their neighborhoods (fewer sweeps to the fixpoint)
// and the frontier skips untouched nodes, which is exactly the effect
// being sold. Quality is the fairness check: the full-run section below
// reports final modularity, which must stay flat across kernels.
// A second section times the FULL detector with and without vertex
// following (tuned_vf), since VF is a whole-run reduction, not a
// move-phase switch.
//
// Timing statistic: minimum and median over the rounds, with all
// variants interleaved round-robin after one untimed warmup round, so a
// slow phase of the machine penalizes every variant equally. A speedup is
// the median over rounds of the ratio of the two variants' times in the
// same round: the pair shares that round's machine state, so the ratio
// cancels it. kRepetitions rounds per section, except the rmat_s13
// anchor's move phase, which runs kAnchorMoveRounds: its 4-thread move
// phases take a few milliseconds, and per-round ratios spread by a third,
// so only many rounds pin the median to a few percent (the CI gate
// allows 15%).
//
// Emits BENCH_plm.json so the perf trajectory is recorded PR over PR;
// tools/check_perf_regression.py compares a fresh --quick run against the
// committed file in CI (rmat_s13 is measured in BOTH modes for exactly
// that reason — it is the shared anchor instance).
//
// Environment/flags: --quick or GRAPR_BENCH_QUICK=1 shrinks the instance
// list (CI smoke); GRAPR_BENCH_THREADS overrides the thread count
// (default 4).

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "community/plm.hpp"
#include "generators/barabasi_albert.hpp"
#include "generators/rmat.hpp"
#include "graph/csr_graph.hpp"
#include "quality/modularity.hpp"
#include "structures/partition.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

using namespace grapr;

namespace {

constexpr int kRepetitions = 7;
constexpr int kAnchorMoveRounds = 201;
/// Sweep cap, matching PlmConfig::maxMoveIterations — high enough that
/// every variant reaches its own fixpoint on the bench instances.
constexpr count kMoveIterations = 64;

struct Measurement {
    double minimum = 0.0;
    double median = 0.0;
};

struct Variant {
    std::string name;
    std::function<void()> run;
    Measurement timing;
    std::vector<double> rounds; // seconds per round, in round order
};

Measurement toMeasurement(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return {samples.front(), samples[samples.size() / 2]};
}

/// One untimed warmup round, then `rounds` rounds with the variants
/// back to back, so machine-load swings hit all of them alike.
void measureInterleaved(std::vector<Variant>& variants, int rounds) {
    for (auto& v : variants) v.run();
    for (int rep = 0; rep < rounds; ++rep) {
        for (auto& v : variants) {
            Timer t;
            v.run();
            v.rounds.push_back(t.elapsed());
        }
    }
    for (auto& v : variants) v.timing = toMeasurement(v.rounds);
}

/// Median over rounds of slow's time over fast's time in the same round.
double speedup(const Variant& slow, const Variant& fast) {
    std::vector<double> ratios;
    for (std::size_t r = 0; r < slow.rounds.size(); ++r) {
        if (fast.rounds[r] > 0.0) {
            ratios.push_back(slow.rounds[r] / fast.rounds[r]);
        }
    }
    if (ratios.empty()) return 0.0;
    std::sort(ratios.begin(), ratios.end());
    return ratios[ratios.size() / 2];
}

PlmKernelConfig kernelVariant(PlmSweepSchedule schedule, bool active) {
    PlmKernelConfig k;
    k.schedule = schedule;
    k.activeNodes = active;
    return k;
}

struct InstanceReport {
    std::string name;
    std::string recipe;
    count nodes = 0;
    count edges = 0;
    std::vector<Variant> movePhase;
    std::vector<Variant> fullRun;
    double modularityPlm = 0.0;
    double modularityVf = 0.0;

    int moveRounds = kRepetitions;

    double tunedSpeedup() const {
        // movePhase[0] is baseline, movePhase.back() is tuned by
        // construction below.
        return speedup(movePhase.front(), movePhase.back());
    }
    double vfSpeedup() const {
        return speedup(fullRun.front(), fullRun.back());
    }
};

InstanceReport measureInstance(const std::string& name,
                               const std::string& recipe, const Graph& g,
                               int moveRounds = kRepetitions) {
    InstanceReport report;
    report.name = name;
    report.recipe = recipe;
    report.moveRounds = moveRounds;
    report.nodes = g.numberOfNodes();
    report.edges = g.numberOfEdges();

    const CsrGraph csr(g);

    // --- Move phase, first level, from the singleton clustering: the hot
    // loop every optimization targets. Fixed seed per run so the label
    // dynamics (and hence the work) are comparable across variants.
    auto moveWith = [&csr](const PlmKernelConfig& kernel) {
        return [&csr, kernel] {
            Random::setSeed(901);
            Partition zeta(csr.upperNodeIdBound());
            zeta.allToSingletons();
            Plm::movePhase(csr, zeta, 1.0, kMoveIterations, nullptr, kernel);
        };
    };
    auto referenceMove = [&csr] {
        Random::setSeed(901);
        Partition zeta(csr.upperNodeIdBound());
        zeta.allToSingletons();
        Plm::movePhaseReference(csr, zeta, 1.0, kMoveIterations, nullptr);
    };
    using SS = PlmSweepSchedule;
    report.movePhase.push_back({"baseline", referenceMove, {}});
    report.movePhase.push_back(
        {"bucketed", moveWith(kernelVariant(SS::DegreeBucketed, false)), {}});
    report.movePhase.push_back(
        {"active", moveWith(kernelVariant(SS::Flat, true)), {}});
    report.movePhase.push_back(
        {"tuned", moveWith(kernelVariant(SS::DegreeBucketed, true)), {}});
    measureInterleaved(report.movePhase, moveRounds);

    // --- Full detector with and without vertex following (both on the
    // tuned kernel, so the delta isolates the reduction itself).
    PlmConfig plain;
    plain.kernel = kernelVariant(SS::DegreeBucketed, true);
    PlmConfig vf = plain;
    vf.vertexFollowing = true;
    Partition zetaPlm, zetaVf;
    report.fullRun.push_back({"plm_tuned",
                              [&csr, plain, &zetaPlm] {
                                  Random::setSeed(902);
                                  zetaPlm = Plm(plain).run(csr);
                              },
                              {}});
    report.fullRun.push_back({"plm_tuned_vf",
                              [&csr, vf, &zetaVf] {
                                  Random::setSeed(902);
                                  zetaVf = Plm(vf).run(csr);
                              },
                              {}});
    measureInterleaved(report.fullRun, kRepetitions);
    report.modularityPlm = Modularity().getQuality(zetaPlm, csr);
    report.modularityVf = Modularity().getQuality(zetaVf, csr);

    return report;
}

void emitVariants(std::ostringstream& json, const std::string& section,
                  const std::vector<Variant>& variants, bool trailingComma) {
    json << "      \"" << section << "\": {\n";
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const auto& v = variants[i];
        json << "        \"" << v.name
             << "\": {\"min_seconds\": " << v.timing.minimum
             << ", \"median_seconds\": " << v.timing.median << "}"
             << (i + 1 < variants.size() ? "," : "") << "\n";
    }
    json << "      }" << (trailingComma ? "," : "") << "\n";
}

void writeJson(const std::vector<InstanceReport>& reports, int threads,
               bool quick) {
    std::ostringstream json;
    json << "{\n";
    json << "  \"bench\": \"micro_plm_kernels\",\n";
    json << "  \"threads\": " << threads << ",\n";
    json << "  \"repetitions\": " << kRepetitions << ",\n";
    json << "  \"move_iterations\": " << kMoveIterations << ",\n";
    json << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    json << "  \"speedup_definition\": "
            "\"median over rounds of baseline seconds / tuned seconds in "
            "the same round\",\n";
    json << "  \"instances\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto& rep = reports[i];
        json << "    {\n";
        json << "      \"name\": \"" << rep.name << "\",\n";
        json << "      \"recipe\": \"" << rep.recipe << "\",\n";
        json << "      \"nodes\": " << rep.nodes << ",\n";
        json << "      \"edges\": " << rep.edges << ",\n";
        json << "      \"move_phase_rounds\": " << rep.moveRounds << ",\n";
        emitVariants(json, "move_phase", rep.movePhase, true);
        emitVariants(json, "full_run", rep.fullRun, true);
        json << "      \"modularity\": {\"plm_tuned\": " << rep.modularityPlm
             << ", \"plm_tuned_vf\": " << rep.modularityVf << "},\n";
        json << "      \"speedup_tuned_vs_baseline\": " << rep.tunedSpeedup()
             << ",\n";
        json << "      \"speedup_vf_full_run\": " << rep.vfSpeedup() << "\n";
        json << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    json << "  ]\n";
    json << "}\n";

    std::ofstream out("BENCH_plm.json");
    out << json.str();
    std::cout << "\nwrote BENCH_plm.json\n";
}

} // namespace

int main(int argc, char** argv) {
    bool quick = grapr::bench::quickMode();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    }

    int threads = 4;
    if (const char* env = std::getenv("GRAPR_BENCH_THREADS")) {
        threads = std::max(1, std::atoi(env));
    }
    Parallel::setThreads(threads);
    bench::printPlatformBanner("micro_plm_kernels");
    std::cout << "threads fixed to " << threads
              << (quick ? ", quick mode" : "") << "\n";

    // rmat_s13 is measured in BOTH quick and full mode: it is the anchor
    // instance the CI perf-smoke regression check compares across the
    // committed (full) and freshly measured (quick) JSON.
    std::vector<InstanceReport> reports;
    {
        Random::setSeed(6013);
        const Graph g = RmatGenerator(13, 8).generate();
        reports.push_back(measureInstance(
            "rmat_s13", "RMAT scale 13, edge factor 8", g,
            kAnchorMoveRounds));
    }
    if (!quick) {
        {
            Random::setSeed(6150);
            const Graph g = BarabasiAlbertGenerator(150000, 4).generate();
            reports.push_back(measureInstance(
                "ba_150000", "Barabasi-Albert n=150000, m=4", g));
        }
        {
            Random::setSeed(6018);
            const Graph g = RmatGenerator(18, 8).generate();
            reports.push_back(measureInstance(
                "rmat_s18", "RMAT scale 18, edge factor 8", g));
        }
    }

    std::cout << "\n";
    for (const auto& rep : reports) {
        std::cout << rep.name << "  (n=" << rep.nodes << ", m=" << rep.edges
                  << ")\n  move phase:";
        for (const auto& v : rep.movePhase) {
            std::cout << "  " << v.name << " "
                      << formatDuration(v.timing.minimum);
        }
        std::cout << "\n    tuned speedup " << rep.tunedSpeedup() << "x\n";
        std::cout << "  full run:";
        for (const auto& v : rep.fullRun) {
            std::cout << "  " << v.name << " "
                      << formatDuration(v.timing.minimum);
        }
        std::cout << "  (vf speedup " << rep.vfSpeedup()
                  << "x, modularity " << rep.modularityPlm << " vs "
                  << rep.modularityVf << ")\n";
    }

    writeJson(reports, threads, quick);
    return 0;
}
