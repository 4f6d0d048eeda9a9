// Seeded annotation-liveness violations for grapr_analyze (each finding
// carries a grapr:expect marker). An annotation that anchors nothing, or
// gives no reason, is a contract exception nobody can review — worse
// than none, because readers trust it.
//
// This file is analyzed, never compiled.

#include "structures/partition.hpp"

namespace grapr {

void updateLabels(Partition& zeta, node u, node target) {
    // (1) Stale benign-race annotation: `labels` is not touched anywhere
    // in the following lines (the code it excused was refactored away).
    // grapr:benign-race(labels): asynchronous label publish  grapr:expect(annotation-liveness)
    zeta.set(u, target);
}

// (2) Unused analyze-allow: nothing below narrows an index, so the
// suppression gates nothing.
void compactOnly(Partition& zeta) {
    // grapr:analyze-allow(index-width): ids fit in 32 bits  grapr:expect(annotation-liveness)
    zeta.compact();
}

// (3) analyze-allow naming a check that does not exist (typo'd id).
void typoAllow(Partition& zeta, node u) {
    // grapr:analyze-allow(index-witdh): bounded by construction  grapr:expect(annotation-liveness)
    zeta.set(u, 0);
}

// (4) analyze-allow without the `: <reason>` part: it still suppresses
// the narrowing below, but nobody can review why.
int reasonlessAllow(const Partition& zeta) {
    // grapr:analyze-allow(index-width)  grapr:expect(annotation-liveness)
    int n = zeta.numberOfElements();
    return n;
}

// Live annotation — must NOT be reported: the publish call is right
// below it.
void legalAnnotation(Partition& zeta, node u, node target) {
    // grapr:benign-race(zeta): label published non-atomically by design
    zeta.set(u, target);
}

// Live allow whose reason wraps onto the next comment line — must NOT be
// reported.
int legalWrappedAllow(const Partition& zeta) {
    // grapr:analyze-allow(index-width):
    // a partition of this size never exceeds 2^31 elements.
    int n = zeta.numberOfElements();
    return n;
}

} // namespace grapr
