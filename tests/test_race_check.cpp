// Tests for the GRAPR_RACE_CHECK shadow race checker (support/race_check).
//
// The deliberately racy fixture must abort the process, so it cannot run
// inside the gtest process: this binary has a custom main() that re-execs
// itself (via /proc/self/exe) with GRAPR_RACE_FIXTURE set, runs the named
// fixture instead of the test suite, and lets the parent assert on the
// child's exit status. gtest death tests are not used because they fork
// without exec, which is unreliable once libgomp has spawned its pool.
//
// Every test is a GTEST_SKIP no-op when the build does not define
// GRAPR_RACE_CHECK — the binary still builds and runs in plain builds.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <omp.h>

#include "community/plm.hpp"
#include "community/plp.hpp"
#include "generators/planted_partition.hpp"
#include "structures/partition.hpp"
#include "support/race_check.hpp"
#include "support/random.hpp"

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#define GRAPR_CAN_REEXEC 1
#else
#define GRAPR_CAN_REEXEC 0
#endif

namespace {

// Child exit codes for fixture runs (distinct from gtest's 0/1).
constexpr int kFixtureSurvived = 0;  // fixture ran to completion
constexpr int kFixtureSkipped = 77;  // preconditions absent (1 thread, ...)
constexpr int kFixtureUnknown = 98;  // unrecognised fixture name

// Two (or more) threads hammer the same Partition cell inside one parallel
// phase through the unannotated write path. The shadow checker must abort
// (GRAPR_RACE_CHECK builds); ThreadSanitizer must report the write-write
// race (GRAPR_SANITIZE=thread builds, run without the suppression file).
// Surviving to the return statement means detection failed.
int runRacyFixture() {
    if (omp_get_max_threads() < 2) return kFixtureSkipped;
    grapr::Partition p(8);
    p.setUpperBound(8);
    GRAPR_RACE_PHASE("fixture.racy");
#pragma omp parallel default(none) shared(p)
    {
        // Not a worksharing loop: every team member runs all iterations,
        // so cell 0 sees same-epoch writes from every thread id.
        // grapr:analyze-allow(shared-write-safety): deliberately racy —
        // this fixture exists to prove the shadow checker aborts on it.
        for (int i = 0; i < 100000; ++i) p.moveToSubset(0, 0);
    }
    return kFixtureSurvived;
}

// The annotated production paths: PLP's asynchronous label publishing and
// PLM's move phase both perform benign cross-thread-visible writes that
// carry GRAPR_RACE_WRITE_BENIGN / grapr:benign-race annotations. They must
// run to completion under the checker.
int runBenignFixture() {
    grapr::Random::setSeed(4242);
    grapr::Graph g =
        grapr::PlantedPartitionGenerator(400, 8, 0.25, 0.02).generate();
    (void)grapr::Plp().run(g);
    (void)grapr::Plm().run(g);
    return kFixtureSurvived;
}

int runFixture(const char* name) {
    if (std::strcmp(name, "racy") == 0) return runRacyFixture();
    if (std::strcmp(name, "benign") == 0) return runBenignFixture();
    return kFixtureUnknown;
}

#if GRAPR_CAN_REEXEC && (defined(GRAPR_RACE_CHECK) || defined(__SANITIZE_THREAD__))

struct ChildResult {
    bool spawned = false;
    bool signalled = false;
    int signal = 0;
    int exitCode = -1;
};

// Re-exec this binary with GRAPR_RACE_FIXTURE=<fixture>. The child's
// stderr goes to /dev/null: an *expected* abort report in passing-test
// output reads like a failure. `tsanOptions`, if given, replaces
// TSAN_OPTIONS in the child — ThreadSanitizer reads it at process start,
// so the exec'd child picks it up (used to drop the suppression file when
// the race is *supposed* to be reported).
ChildResult runSelfFixture(const char* fixture,
                           const char* tsanOptions = nullptr) {
    ChildResult result;
    char exe[4096];
    const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0) return result;
    exe[len] = '\0';

    const pid_t pid = ::fork();
    if (pid < 0) return result;
    if (pid == 0) {
        ::setenv("GRAPR_RACE_FIXTURE", fixture, 1);
        ::setenv("OMP_NUM_THREADS", "4", 1);
        if (tsanOptions != nullptr) ::setenv("TSAN_OPTIONS", tsanOptions, 1);
        if (!std::freopen("/dev/null", "w", stderr)) {
            // Keep going; noisy output is better than no test.
        }
        ::execl(exe, exe, static_cast<char*>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) return result;
    result.spawned = true;
    if (WIFSIGNALED(status)) {
        result.signalled = true;
        result.signal = WTERMSIG(status);
    } else if (WIFEXITED(status)) {
        result.exitCode = WEXITSTATUS(status);
    }
    return result;
}

#endif // GRAPR_CAN_REEXEC && GRAPR_RACE_CHECK

} // namespace

#ifndef GRAPR_RACE_CHECK

TEST(RaceCheck, RequiresInstrumentedBuild) {
    GTEST_SKIP() << "built without GRAPR_RACE_CHECK; configure with "
                    "-DGRAPR_RACE_CHECK=ON to run the race-checker tests";
}

#else // GRAPR_RACE_CHECK

TEST(RaceCheck, RacyFixtureAborts) {
#if !GRAPR_CAN_REEXEC
    GTEST_SKIP() << "re-exec harness needs /proc/self/exe";
#else
    const ChildResult child = runSelfFixture("racy");
    ASSERT_TRUE(child.spawned) << "could not re-exec the test binary";
    if (!child.signalled && child.exitCode == kFixtureSkipped) {
        GTEST_SKIP() << "single-threaded OpenMP runtime; the racy fixture "
                        "needs at least two threads";
    }
    EXPECT_TRUE(child.signalled)
        << "racy fixture ran to completion (exit " << child.exitCode
        << ") — the shadow checker failed to detect the cross-thread write";
    EXPECT_EQ(child.signal, SIGABRT);
#endif
}

TEST(RaceCheck, AnnotatedBenignPathsSurvive) {
#if !GRAPR_CAN_REEXEC
    GTEST_SKIP() << "re-exec harness needs /proc/self/exe";
#else
    const ChildResult child = runSelfFixture("benign");
    ASSERT_TRUE(child.spawned) << "could not re-exec the test binary";
    EXPECT_FALSE(child.signalled)
        << "PLP/PLM benign paths tripped the checker (signal "
        << child.signal << ")";
    EXPECT_EQ(child.exitCode, kFixtureSurvived);
#endif
}

TEST(RaceCheck, EpochAdvancesAtPhaseBoundaries) {
    const std::uint32_t before = grapr::race::currentEpoch();
    GRAPR_RACE_PHASE("test.epoch");
    EXPECT_EQ(grapr::race::currentEpoch(), before + 1);
}

TEST(RaceCheck, DisjointParallelWritesPass) {
    // The contract the checker enforces: each cell written by at most one
    // thread per phase. A worksharing loop satisfies it by construction;
    // reaching the assertions below means no abort fired.
    constexpr grapr::count n = 1 << 14;
    grapr::Partition p(n);
    p.setUpperBound(n);
    GRAPR_RACE_PHASE("test.disjoint");
    const auto sn = static_cast<std::int64_t>(n);
#pragma omp parallel for default(none) shared(p, sn) schedule(static)
    for (std::int64_t v = 0; v < sn; ++v) {
        p.set(static_cast<grapr::node>(v), 0);
    }
    EXPECT_EQ(p.numberOfSubsets(), 1u);
}

TEST(RaceCheck, PhaseBoundarySeparatesRewrites) {
    // The same cells rewritten by (potentially) different threads are fine
    // across a phase boundary — only same-epoch collisions count.
    constexpr grapr::count n = 1 << 14;
    grapr::Partition p(n);
    p.setUpperBound(n);
    const auto sn = static_cast<std::int64_t>(n);
    for (int round = 0; round < 3; ++round) {
        GRAPR_RACE_PHASE("test.round");
#pragma omp parallel for default(none) shared(p, sn, round) schedule(dynamic, 64)
        for (std::int64_t v = 0; v < sn; ++v) {
            p.set(static_cast<grapr::node>(v),
                  static_cast<grapr::node>(round % 2));
        }
    }
    EXPECT_EQ(p.numberOfSubsets(), 1u);
}

#ifdef GRAPR_BENIGN_RACE_MANIFEST

// Names of every runtime= token in tests/benign_races.txt. Row format:
//   <dir/file>:<var> tsan=<list|-> runtime=<list|->
// Comment and `infra` lines carry no runtime names.
std::set<std::string> manifestRuntimeNames(const char* path) {
    std::set<std::string> names;
    std::ifstream in(path);
    if (!in.is_open()) return names;
    std::string line;
    while (std::getline(in, line)) {
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#') continue;
        const auto pos = line.find(" runtime=");
        if (pos == std::string::npos) continue;
        std::string list = line.substr(pos + 9);
        const auto end = list.find_last_not_of(" \t\r");
        list = end == std::string::npos ? std::string() : list.substr(0, end + 1);
        if (list.empty() || list == "-") continue;
        std::size_t start = 0;
        while (start <= list.size()) {
            const auto comma = list.find(',', start);
            const std::string tok = list.substr(
                start, comma == std::string::npos ? std::string::npos
                                                  : comma - start);
            if (!tok.empty()) names.insert(tok);
            if (comma == std::string::npos) break;
            start = comma + 1;
        }
    }
    return names;
}

// The manifest round-trip: drive every algorithm whose benign writes are
// named by a runtime= list, then diff the executed-site trace against the
// manifest BOTH ways. grapr_analyze's benign-race-manifest check already
// ties runtime= names to GRAPR_RACE_BENIGN_SITE call sites statically;
// this test holds the manifest to what the code actually does.
TEST(RaceCheck, BenignRaceManifestMatchesTrace) {
    const std::set<std::string> manifest =
        manifestRuntimeNames(GRAPR_BENIGN_RACE_MANIFEST);
    ASSERT_FALSE(manifest.empty())
        << "no runtime= names parsed from " << GRAPR_BENIGN_RACE_MANIFEST;

    grapr::Random::setSeed(4243);
    grapr::Graph g =
        grapr::PlantedPartitionGenerator(600, 10, 0.3, 0.01).generate();
    // Default PLP: trackActiveNodes on, frontier off — exercises the label
    // publish and both active-flag sites.
    (void)grapr::Plp().run(g);
    // PLM's rounds run the tuned kernel; the reference kernel
    // (movePhaseImpl) publishes labels through its own site.
    (void)grapr::Plm().run(g);
    {
        const grapr::CsrGraph frozen(g);
        grapr::Partition zeta(frozen.upperNodeIdBound());
        zeta.allToSingletons();
        (void)grapr::Plm::movePhaseReference(frozen, zeta, 1.0, 64, nullptr);
    }

    const std::vector<std::string> trace = grapr::race::benignSitesExecuted();
    const std::set<std::string> executed(trace.begin(), trace.end());
    for (const std::string& name : executed) {
        EXPECT_TRUE(manifest.count(name) > 0)
            << "benign write site '" << name << "' executed but no "
            << "runtime= list in tests/benign_races.txt names it";
    }
    for (const std::string& name : manifest) {
        EXPECT_TRUE(executed.count(name) > 0)
            << "manifest runtime site '" << name << "' never executed — "
            << "the harness no longer drives it, or the "
            << "GRAPR_RACE_BENIGN_SITE instrumentation moved";
    }
}

#endif // GRAPR_BENIGN_RACE_MANIFEST

#endif // GRAPR_RACE_CHECK

#if defined(__SANITIZE_THREAD__)

// Acceptance leg for the sanitizer layer: the same racy fixture must be
// reported by ThreadSanitizer when the suppression file is out of the way
// (the suite itself runs WITH suppressions, since Partition::set is also
// the annotated-benign production path).
TEST(RaceCheckTsan, RacyFixtureFailsUnderTsan) {
#if !GRAPR_CAN_REEXEC
    GTEST_SKIP() << "re-exec harness needs /proc/self/exe";
#else
    const ChildResult child =
        runSelfFixture("racy", "halt_on_error=1 exitcode=66");
    ASSERT_TRUE(child.spawned) << "could not re-exec the test binary";
    if (!child.signalled && child.exitCode == kFixtureSkipped) {
        GTEST_SKIP() << "single-threaded OpenMP runtime; the racy fixture "
                        "needs at least two threads";
    }
    EXPECT_TRUE(child.signalled || child.exitCode == 66)
        << "racy fixture ran to completion (exit " << child.exitCode
        << ") — TSan failed to report the cross-thread write";
#endif
}

#endif // __SANITIZE_THREAD__

int main(int argc, char** argv) {
    if (const char* fixture = std::getenv("GRAPR_RACE_FIXTURE")) {
        return runFixture(fixture);
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
