#ifndef HIDA_DSE_PARETO_H
#define HIDA_DSE_PARETO_H

/**
 * @file
 * Pareto bookkeeping for the DSE strategy layer (src/dse/strategy.h):
 * two-objective samples (minimize cost, maximize value — the Figure 1
 * plane is cost = resource utilization, value = throughput), an
 * incrementally maintained non-dominated archive with dominated-point
 * pruning, and the coverage metric the sampling strategies are accepted
 * on (fraction of a reference front a search recovered).
 *
 * Thread-safety: everything in this header is plain value-semantics
 * state with no internal synchronization — strictly per-worker /
 * per-driver-thread in the ROADMAP "Threading model" sense. The
 * strategy executor only touches an archive from the serial driver
 * loop, never from sweep workers.
 */

#include <cstddef>
#include <vector>

namespace hida {

/**
 * One evaluated design point in objective space: its grid index plus
 * the two objectives (cost minimized, value maximized).
 */
struct ParetoSample {
    size_t index = 0;  ///< DesignPointGrid linear point index.
    double cost = 0.0;   ///< Minimized (e.g. max resource utilization).
    double value = 0.0;  ///< Maximized (e.g. throughput).
};

/**
 * True when @p a dominates @p b: no worse in both objectives and
 * strictly better in at least one. An exact duplicate (same cost and
 * value) dominates in neither direction.
 */
inline bool
dominates(const ParetoSample& a, const ParetoSample& b)
{
    return a.cost <= b.cost && a.value >= b.value &&
           (a.cost < b.cost || a.value > b.value);
}

/**
 * Incrementally maintained Pareto front: insert() keeps only
 * non-dominated samples and prunes every existing sample the newcomer
 * strictly dominates. Exact objective ties between distinct grid
 * indices are all kept — tied designs live in different regions of the
 * grid, and archive-guided searches need every tied neighborhood.
 * Coexisting samples tied in one objective are tied in the other too
 * (otherwise one would dominate), so samples() is deterministically
 * ordered by (cost, value, index).
 *
 * Thread-safety: not synchronized — confine one archive to one thread
 * (the strategy driver loop does).
 */
class ParetoArchive {
  public:
    /**
     * Offer @p s to the archive. Returns true when @p s joined the
     * front (pruning whatever it strictly dominates); false when an
     * archived sample strictly dominates it or the same grid index was
     * already archived. Exact objective ties between distinct indices
     * all join the front.
     */
    bool insert(const ParetoSample& s);

    /** True when some archived sample dominates or equals @p s. */
    bool covers(const ParetoSample& s) const;

    /** The current front, sorted by strictly increasing cost. */
    const std::vector<ParetoSample>& samples() const { return front_; }

    size_t size() const { return front_.size(); }
    bool empty() const { return front_.empty(); }
    void clear() { front_.clear(); }

  private:
    std::vector<ParetoSample> front_;  ///< Sorted by cost ascending.
};

/**
 * Brute-force Pareto front of @p samples: every sample not dominated by
 * any other, duplicates collapsed to their first occurrence, sorted by
 * cost. O(n^2) — the oracle the archive is tested against, and the
 * reference-front builder for coverage stats.
 */
std::vector<ParetoSample> paretoFrontOf(std::vector<ParetoSample> samples);

} // namespace hida

#endif // HIDA_DSE_PARETO_H
