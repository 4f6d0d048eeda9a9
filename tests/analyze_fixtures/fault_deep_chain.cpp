// A fault-injection site reached from a parallel region through TWO
// same-file call levels: region -> outerHelper -> innerHelper -> site.
// fault-point-in-parallel's cross-TU fixed point reports the region's
// call and the helper's call that continues the chain (grapr:expect
// markers).
//
// This file is analyzed, never compiled.
#define GRAPR_FAULT_POINT(site) ((void)0)

void innerHelper() {
    GRAPR_FAULT_POINT("fixture.deep.site");
}

void outerHelper() {
    innerHelper();  // grapr:expect(fault-point-in-parallel)
}

void deepChain(long long n) {
#pragma omp parallel for default(none) shared(n)
    for (long long i = 0; i < n; ++i) {
        outerHelper();  // grapr:expect(fault-point-in-parallel)
    }
}
