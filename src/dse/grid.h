#ifndef HIDA_DSE_GRID_H
#define HIDA_DSE_GRID_H

/**
 * @file
 * Design-point grids for the DSE engine: named axes of enumerated factor
 * values, a deterministic row-major enumeration of every combination, and
 * the applyPoint directive writer that maps a point onto the IR. The grid
 * replaces the hand-rolled nested sweep loops of the Figure 1/10/11
 * benches with one shared representation the sharded executor
 * (src/dse/sweep.h) can split across worker threads while keeping the
 * serial enumeration order for result merging.
 *
 * Thread-safety: a DesignPointGrid has no internal synchronization.
 * Build it (addAxis/addDirectiveAxis) on one thread; afterwards every
 * const accessor (size/decode/pointFingerprint/contentHash/...) is
 * safe to call concurrently — sweep workers share one const grid by
 * design. applyPoint mutates the *module* it is given, never the
 * grid, so it follows the per-worker module rules (ROADMAP "Threading
 * model"): only ever aim it at the calling worker's own tree.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/ir/builtin_ops.h"
#include "src/ir/identifier.h"
#include "src/support/diagnostics.h"

namespace hida {

/**
 * One swept factor: a name and the values it enumerates. An axis may
 * additionally carry a *directive binding* (layerSeq/loopTag): applyPoint
 * then writes the axis value as the unroll factor of every tagged loop of
 * that layer, clamped to the loop's trip count — the Table 1 KPF/CPF
 * convention of the LeNet case study. Unbound axes (batch size, tile
 * size, ablation arms...) are interpreted by the sweep's evaluation
 * callback instead.
 */
struct GridAxis {
    std::string name;
    std::vector<int64_t> values;
    /** Directive binding: "layer_seq" value the target loops carry. */
    int64_t layerSeq = -1;
    /** Directive binding: tag attribute of the target loops. */
    Identifier loopTag;

    bool bound() const { return layerSeq >= 0 && bool(loopTag); }
};

/**
 * Enumeration orders over a grid's points.
 *
 *  - kRowMajor: the historical axis-0-slowest nesting order (grid index
 *    == enumeration position). Consecutive points usually step the
 *    fastest axis, but every "rollover" moves several axes at once.
 *  - kGrayCode: the mixed-radix reflected Gray code over the same axes:
 *    consecutive positions differ in *exactly one* axis, by exactly one
 *    value step, including across rollovers. A sweep walking this order
 *    mutates a single directive per point, so each step dirties the
 *    minimum number of IR subtrees (QorEstimator::cacheStats() shows
 *    strictly fewer hashRecomputes than row-major, ~2x on the fig1
 *    grid; pinned by tests/dse_strategy_test.cc).
 *
 * Either order is a bijection over [0, size()), and sweep results are
 * always merged by *grid index* — the enumeration order can never
 * change a sweep's output.
 */
enum class PointOrder : uint8_t { kRowMajor, kGrayCode };

/** Parse "row-major"|"gray" (nullopt on anything else). */
std::optional<PointOrder> parsePointOrder(std::string_view name);

/** Stable name of @p order (the HIDA_DSE_ORDER spelling). */
std::string_view pointOrderName(PointOrder order);

/**
 * Cartesian grid over named axes. Points are enumerated row-major with
 * axis 0 slowest (the nesting order of the serial loops the grid
 * replaces), so shard boundaries and result merging are deterministic at
 * any thread count. orderedIndex() layers alternative evaluation orders
 * on top without disturbing the canonical index space.
 */
class DesignPointGrid {
  public:
    /** Append an unbound axis. Returns *this for chaining. */
    DesignPointGrid& addAxis(std::string name, std::vector<int64_t> values);
    /** Append a directive-bound axis (see GridAxis). */
    DesignPointGrid& addDirectiveAxis(std::string name,
                                      std::vector<int64_t> values,
                                      int64_t layer_seq,
                                      std::string_view loop_tag);

    size_t numAxes() const { return axes_.size(); }
    const GridAxis& axis(size_t i) const { return axes_.at(i); }
    /** Index of the axis named @p name (asserts on unknown names). */
    size_t axisIndex(std::string_view name) const;

    /** Number of points (product of axis sizes; 1 for an empty grid). */
    size_t size() const;

    /**
     * Decode linear @p index into per-axis values (axis 0 slowest).
     * @p values is resized to numAxes().
     */
    void decode(size_t index, std::vector<int64_t>& values) const;
    /** Allocating convenience wrapper around decode(). */
    std::vector<int64_t> point(size_t index) const;

    /**
     * Decode linear @p index into per-axis *value indices* (positions
     * within each axis's value list, axis 0 slowest) — the coordinate
     * form the sampling strategies mutate (step a value index +/-1 to
     * reach a neighboring design point). @p out is resized to
     * numAxes().
     */
    void decodeValueIndices(size_t index, std::vector<size_t>& out) const;

    /**
     * Inverse of decodeValueIndices(): linear point index of the given
     * per-axis value indices (asserts each index is within its axis).
     */
    size_t encode(const std::vector<size_t>& value_indices) const;

    /**
     * Grid index of enumeration position @p pos under @p order: the
     * identity for kRowMajor, the mixed-radix reflected Gray code for
     * kGrayCode. A bijection over [0, size()) for any order, so a sweep
     * that walks positions and stores by the returned index visits
     * every point exactly once. Allocation-free.
     */
    size_t orderedIndex(size_t pos, PointOrder order) const;

    /**
     * Process-independent structural hash of the grid: axis names,
     * value lists and directive bindings (by tag *string*, not intern
     * id, so the hash is stable across runs). A sweep checkpoint is
     * opened with it as its QorStore content tag, so a resumed sweep
     * refuses records from a different grid.
     */
    uint64_t contentHash() const;

    /**
     * Process-independent fingerprint of one point's directive
     * assignment: contentHash() folded with the decoded axis values.
     * Sweep checkpoints key their records by it, so an index from a
     * reshaped grid can never be replayed as the wrong design point.
     */
    uint64_t pointFingerprint(size_t index) const;

  private:
    std::vector<GridAxis> axes_;
};

/**
 * Write the directive-bound axes of @p values into @p module: one walk
 * that sets, for every ForOp tagged with a bound axis's loopTag under the
 * axis's layer_seq, the unroll factor min(axis value, trip count).
 * Equivalent to (and replacing) the per-layer setLayerFactors helpers of
 * the serial benches, but a single traversal per point.
 */
void applyPoint(ModuleOp module, const DesignPointGrid& grid,
                const std::vector<int64_t>& values);

/**
 * Recoverable applyPoint: validates the point against the grid (axis
 * count, positive unroll factors on directive-bound axes) and returns a
 * kInvalidDirective Diagnostic instead of aborting. Validation runs
 * *before* any IR write, so a rejected point leaves the module
 * untouched. The per-point entry of the resilient sweep.
 */
std::optional<Diagnostic> applyPointChecked(ModuleOp module,
                                            const DesignPointGrid& grid,
                                            const std::vector<int64_t>& values);

} // namespace hida

#endif // HIDA_DSE_GRID_H
