// An otherwise-clean parallel region containing a fault-injection site:
// fault-point-in-parallel must report both seeded sites (each carries a
// grapr:expect marker).
//
// Seeded violations, in order:
//   1. fault-point-in-parallel   GRAPR_FAULT_POINT inside a team
//   2. fault-point-in-parallel   GRAPR_FAULT_INJECT inside a team
//
// Why this is banned: a triggered fault point either throws (an exception
// cannot cross the OpenMP region boundary — the runtime aborts) or kills
// the process mid-team (tearing the other threads through arbitrary
// state). Fault sites belong on the single-threaded commit path only.
//
// This file is analyzed, never compiled.

#include <vector>

#define GRAPR_FAULT_POINT(site) ((void)0)
#define GRAPR_FAULT_INJECT(site) false

void fixtureFaultPointInRegion(std::vector<int>& data) {
#pragma omp parallel for default(none) shared(data)
    for (int i = 0; i < 100; ++i) {
        // (1) a triggered hit here throws across the region boundary
        GRAPR_FAULT_POINT("fixture.region.hit");  // grapr:expect(fault-point-in-parallel)
        data[i] = i;
    }
}

void fixtureFaultInjectInRegion(std::vector<int>& data) {
#pragma omp parallel for default(none) shared(data)
    for (int i = 0; i < 100; ++i) {
        // (2) even the in-band variant is banned: the counter bump is a
        // cross-thread ordering hazard and the simulated failure would
        // fire on an arbitrary worker thread
        if (GRAPR_FAULT_INJECT("fixture.region.inject")) continue;  // grapr:expect(fault-point-in-parallel)
        data[i] = i;
    }
}
