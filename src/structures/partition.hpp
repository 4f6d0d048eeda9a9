#pragma once
// Partition of the node set into disjoint communities, represented exactly
// as the paper prescribes (§III): an array indexed by node id containing
// integer community ids. Community ids are not required to be consecutive
// until compact() is called.

#include <map>
#include <vector>

#include "support/common.hpp"
#include "support/race_check.hpp"

namespace grapr {

class Partition {
public:
    Partition() = default;

    /// Partition over ids [0, n), all nodes unassigned (none).
    explicit Partition(count n) : data_(n, none), upperId_(0) {
#ifdef GRAPR_RACE_CHECK
        shadow_.reset(n);
#endif
    }

    /// Number of node slots.
    count numberOfElements() const noexcept { return data_.size(); }

    /// ζ(v): community of node v (none if unassigned).
    node operator[](node v) const { return data_[v]; }

    /// Assign node v to community c. c must be < upperBound() unless the
    /// caller later calls setUpperBound/compact.
    ///
    /// Concurrency contract: parallel phases may call set() from many
    /// threads, but each node must be written by at most one thread per
    /// phase; concurrent *readers* of the label are tolerated (stale reads
    /// by design). Under GRAPR_RACE_CHECK the shadow log enforces the
    /// write half of that contract.
    void set(node v, node c) {
        GRAPR_RACE_WRITE(shadow_, v);
        data_[v] = c;
    }

    /// Move node v to community c — set() under its contract-facing name
    /// (the operation the shadow race checker is specified against).
    void moveToSubset(node v, node c) { set(v, c); }

    /// One community per node: ζ(v) = v (the singleton clustering that
    /// seeds label propagation and the Louvain method).
    void allToSingletons();

    /// All nodes into community 0.
    void allToOne();

    /// Upper bound for community ids (ids are < upperBound()).
    node upperBound() const noexcept { return upperId_; }
    void setUpperBound(node bound) { upperId_ = bound; }

    /// Merge the communities of a and b; returns the surviving id (the
    /// smaller of the two current ids). O(n) — intended for small cases and
    /// tests, not inner loops.
    node mergeSubsets(node a, node b);

    /// Relabel community ids to consecutive integers [0, k) in ascending
    /// old-id order; `none` entries stay `none`. Sets upperBound() to k and
    /// returns k. Ids at or above upperBound() are allowed, as set()
    /// promises. Marks the used ids in a dense table indexed by old id,
    /// numbers them in order and relabels: O(n + largest id) time and
    /// memory.
    count compact();

    /// Number of distinct communities among assigned nodes.
    count numberOfSubsets() const;

    /// Size of every community, indexed by community id (requires ids
    /// < upperBound()).
    std::vector<count> subsetSizes() const;

    /// Map community id -> member nodes (sparse; only non-empty entries).
    std::map<node, std::vector<node>> subsets() const;

    /// True if every node is assigned (no `none` entries).
    bool isComplete() const;

    /// True if ζ(u) == ζ(v).
    bool inSameSubset(node u, node v) const { return data_[u] == data_[v]; }

    /// Raw array access for hot loops. Writers that bypass set() through
    /// this reference must call GRAPR_RACE_WRITE(raceShadow(), v)
    /// themselves to stay visible to the shadow race checker.
    const std::vector<node>& vector() const noexcept { return data_; }
    std::vector<node>& vector() noexcept { return data_; }

    bool operator==(const Partition& other) const {
        return data_ == other.data_ && upperId_ == other.upperId_;
    }

#ifdef GRAPR_RACE_CHECK
    race::ShadowCells& raceShadow() const noexcept { return shadow_; }
#endif

private:
    std::vector<node> data_;
    node upperId_ = 0;
#ifdef GRAPR_RACE_CHECK
    mutable race::ShadowCells shadow_;
#endif
};

/// The numbering step of Partition::compact. On entry `ids[c] != none`
/// marks id c as used; on return `ids[c]` is c's rank among the used ids
/// in ascending order, and unused entries stay `none`. Returns the number
/// of used ids. O(ids.size()).
node rankUsedIds(std::vector<node>& ids);

} // namespace grapr
