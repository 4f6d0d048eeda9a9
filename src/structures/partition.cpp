#include "structures/partition.hpp"

#include <algorithm>

#include <omp.h>

namespace grapr {

void Partition::allToSingletons() {
    GRAPR_RACE_PHASE("Partition::allToSingletons");
    const auto n = static_cast<std::int64_t>(data_.size());
#pragma omp parallel for default(none) shared(n) schedule(static)
    for (std::int64_t v = 0; v < n; ++v) {
        GRAPR_RACE_WRITE(shadow_, static_cast<std::size_t>(v));
        data_[static_cast<std::size_t>(v)] = static_cast<node>(v);
    }
    upperId_ = static_cast<node>(data_.size());
}

void Partition::allToOne() {
    std::fill(data_.begin(), data_.end(), 0);
    upperId_ = data_.empty() ? 0 : 1;
}

node Partition::mergeSubsets(node a, node b) {
    if (a == b) return a;
    const node keep = std::min(a, b);
    const node drop = std::max(a, b);
    for (auto& c : data_) {
        if (c == drop) c = keep;
    }
    return keep;
}

count Partition::compact() {
    count tableSize = 0;
    for (const node c : data_) {
        if (c != none) tableSize = std::max<count>(tableSize, count{c} + 1);
    }
    std::vector<node> remap(tableSize, none);
    for (const node c : data_) {
        if (c != none) remap[c] = 0; // mark as used
    }
    const node k = rankUsedIds(remap);
    for (node& c : data_) {
        if (c != none) c = remap[c];
    }
    upperId_ = k;
    return k;
}

count Partition::numberOfSubsets() const {
    std::vector<node> ids;
    ids.reserve(data_.size());
    for (node c : data_) {
        if (c != none) ids.push_back(c);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids.size();
}

std::vector<count> Partition::subsetSizes() const {
    std::vector<count> sizes(upperId_, 0);
    for (node c : data_) {
        if (c != none) {
            require(c < upperId_, "subsetSizes: community id >= upperBound");
            ++sizes[c];
        }
    }
    return sizes;
}

std::map<node, std::vector<node>> Partition::subsets() const {
    std::map<node, std::vector<node>> result;
    for (node v = 0; v < data_.size(); ++v) {
        if (data_[v] != none) result[data_[v]].push_back(v);
    }
    return result;
}

bool Partition::isComplete() const {
    return std::none_of(data_.begin(), data_.end(),
                        [](node c) { return c == none; });
}

node rankUsedIds(std::vector<node>& ids) {
    node next = 0;
    for (node& id : ids) {
        if (id != none) id = next++;
    }
    return next;
}

} // namespace grapr
