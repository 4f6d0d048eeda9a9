#pragma once
// Deterministic fault injection for the durability paths (DESIGN.md
// "Durability, recovery, and fault injection").
//
// Production code marks the places where an I/O failure or a crash is
// *interesting* with a named site:
//
//     GRAPR_FAULT_POINT("wal.append.fsync");   // throws or kills here
//     if (GRAPR_FAULT_INJECT("io.write.edgelist")) out.setstate(badbit);
//
// Site names follow `<subsystem>.<operation>[.<step>]`, all lowercase
// (e.g. "wal.append.write", "checkpoint.rename", "engine.publish").
// Sites are FORBIDDEN inside OpenMP parallel regions, at any call depth
// — grapr_analyze check `fault-point-in-parallel` — because a trigger
// throws or kills and must fire on the single-threaded commit path only,
// never mid-team.
//
// Arming. Nothing fires unless a site is armed, either via the
// environment:
//
//     GRAPR_FAULT="<site>:<nth>[:throw|kill][,<site>:<nth>[:action]...]"
//
// (parsed once, on the first hit) or programmatically from tests via
// fault::configure(spec). A spec fires exactly once, on the nth time its
// site is hit process-wide:
//   throw (default) — the site raises fault::InjectedFault, exercising
//       the error-propagation / rollback path;
//   kill — the site calls ::_exit(fault::kKilledExitCode): a simulated
//       crash with no destructors, no stream flushes, no atexit handlers.
//       The crash-consistency harness (tests/test_crash_recovery.cpp)
//       re-execs itself with kill specs and recovers the durable
//       directory afterwards.
//
// GRAPR_FAULT_POINT(site) throws/kills on trigger. GRAPR_FAULT_INJECT
// (site) instead *returns true* on a throw-action trigger (kill still
// kills), so a call site can simulate the failure in-band — e.g. set
// badbit on a stream and let the production error path surface it.
//
// When the build does not define GRAPR_FAULT_INJECTION (cmake
// -DGRAPR_FAULT_INJECTION=OFF) both macros compile to no-ops and the
// whole framework disappears from the binary. When armed with nothing,
// the per-hit cost is one relaxed atomic load.

#ifdef GRAPR_FAULT_INJECTION

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace grapr::fault {

/// Exit code of a `kill`-action trigger — distinguishable from crashes
/// (signals) and from ordinary failures in the re-exec harness.
inline constexpr int kKilledExitCode = 87;

/// Thrown by a `throw`-action trigger.
class InjectedFault : public std::runtime_error {
public:
    explicit InjectedFault(const std::string& site)
        : std::runtime_error("injected fault at " + site), site_(site) {}
    const std::string& site() const noexcept { return site_; }

private:
    std::string site_;
};

/// Record a hit of `site`; returns true when an armed throw-action spec
/// triggers on this hit (a kill-action spec does not return).
bool inject(const char* site);

/// inject() + throw InjectedFault on trigger.
void hit(const char* site);

/// Replace the armed specs (same grammar as GRAPR_FAULT) and reset all
/// hit counters. Overrides the environment for the rest of the process.
void configure(const std::string& spec);

/// Disarm everything and reset hit counters (site capture is kept).
void clearConfiguration();

/// Start/stop recording every site hit (for enumeration by the crash
/// harness). Capture is off by default.
void captureSites(bool enabled);

/// (site name, hits observed while armed or capturing), sorted by name.
std::vector<std::pair<std::string, std::uint64_t>> sites();

} // namespace grapr::fault

#define GRAPR_FAULT_POINT(site) ::grapr::fault::hit(site)
#define GRAPR_FAULT_INJECT(site) ::grapr::fault::inject(site)

#else // !GRAPR_FAULT_INJECTION

#define GRAPR_FAULT_POINT(site) ((void)0)
#define GRAPR_FAULT_INJECT(site) false

#endif
