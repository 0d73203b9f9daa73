#include "src/dse/pareto.h"

#include <algorithm>

namespace hida {

bool
ParetoArchive::insert(const ParetoSample& s)
{
    // First pass: is the newcomer strictly dominated, or a re-offer of
    // an already archived point? Exact objective ties between distinct
    // grid indices are kept: tied *designs* sit in different regions of
    // the grid, and a search driving its moves off the archive must see
    // every tied design's neighborhood, not just the first one found.
    // Along the front costs and values both increase, so a linear scan
    // over the (small) front is cheap and deterministic.
    for (const ParetoSample& f : front_) {
        if (dominates(f, s))
            return false;
        if (f.index == s.index && f.cost == s.cost &&
            f.value == s.value)
            return false;  // Same point offered twice.
    }
    // Second pass: prune everything the newcomer strictly dominates.
    front_.erase(std::remove_if(front_.begin(), front_.end(),
                                [&s](const ParetoSample& f) {
                                    return dominates(s, f);
                                }),
                 front_.end());
    // Total order (cost, value, index) keeps tied samples in a
    // deterministic relative position.
    front_.insert(std::upper_bound(
                      front_.begin(), front_.end(), s,
                      [](const ParetoSample& a, const ParetoSample& b) {
                          if (a.cost != b.cost)
                              return a.cost < b.cost;
                          if (a.value != b.value)
                              return a.value < b.value;
                          return a.index < b.index;
                      }),
                  s);
    return true;
}

bool
ParetoArchive::covers(const ParetoSample& s) const
{
    for (const ParetoSample& f : front_)
        if (f.cost <= s.cost && f.value >= s.value)
            return true;
    return false;
}

std::vector<ParetoSample>
paretoFrontOf(std::vector<ParetoSample> samples)
{
    std::vector<ParetoSample> front;
    for (size_t i = 0; i < samples.size(); ++i) {
        bool keep = true;
        for (size_t j = 0; j < samples.size() && keep; ++j) {
            if (j == i)
                continue;
            if (dominates(samples[j], samples[i]))
                keep = false;
            // Duplicate objectives: first occurrence represents them.
            if (j < i && samples[j].cost == samples[i].cost &&
                samples[j].value == samples[i].value)
                keep = false;
        }
        if (keep)
            front.push_back(samples[i]);
    }
    std::sort(front.begin(), front.end(),
              [](const ParetoSample& a, const ParetoSample& b) {
                  return a.cost < b.cost;
              });
    return front;
}

} // namespace hida
