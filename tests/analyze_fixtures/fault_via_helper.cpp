// A fault site one call level below a parallel region: the site is NOT
// lexically inside the region's extent — it hides in a helper defined in
// this file. fault-point-in-parallel reports both the site inside the
// helper's extent and the call that reaches it (grapr:expect markers).
//
// This file is analyzed, never compiled.
#define GRAPR_FAULT_POINT(site) ((void)0)
#define GRAPR_FAULT_INJECT(site) false

// The helper the region calls: its body registers a fault site.
void logDurable(int value) {
    GRAPR_FAULT_POINT("fixture.helper.write");  // grapr:expect(fault-point-in-parallel)
    (void)value;
}

// A helper without a site: calling it in the region is fine.
void accumulate(int value) {
    (void)value;
}

void churnInParallel(int* data, int n) {
    // (1) the loop body reaches fixture.helper.write through logDurable.
#pragma omp parallel for default(none) shared(data) firstprivate(n)
    for (int i = 0; i < n; ++i) {
        accumulate(data[i]);
        logDurable(data[i]);  // grapr:expect(fault-point-in-parallel)
    }
}
