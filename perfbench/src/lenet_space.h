#ifndef HIDA_PERFBENCH_LENET_SPACE_H
#define HIDA_PERFBENCH_LENET_SPACE_H

/**
 * @file
 * The Figure 1 / Table 1 LeNet design space shared by lenet_sweep and
 * service_mix: the factor grids, the sweep prototype recipe (the one the
 * fig1 bench and DseService::buildSession both use) and exact digests
 * of per-point results.
 */

#include <cstdint>
#include <vector>

#include "src/driver/driver.h"
#include "src/dse/grid.h"
#include "src/dse/sweep.h"

namespace perfbench {

/** The Table 1 factor grid: 4*1*5*4*6*5 = 2,400 points per prototype. */
hida::DesignPointGrid fullFactorGrid();

/** A 32-point slice of the same space (the service's exhaustive grid). */
hida::DesignPointGrid smallFactorGrid();

/** One lowered (dataflow, batch) sweep prototype. */
struct Prototype {
    bool dataflow = true;
    int64_t batch = 1;
    hida::OwnedModule module;
    hida::FlowOptions partitionOptions;
};

/**
 * Build and lower LeNet for a sweep: the flow's pipeline without tiling
 * or parallelization, verified; per-point partitioning then runs with
 * parallelization enabled. Returns false when verification rejects it.
 */
bool lowerPrototype(bool dataflow, int64_t batch,
                    const hida::TargetDevice& device, Prototype* out);

/** Per-point sweep result (the fig1 bench's Point without its tag). */
struct Point {
    double util = 0.0;        ///< max(BRAM%, DSP%, LUT%).
    double throughput = 0.0;  ///< images/s, batch-adjusted.
};

/** Map one estimate to its Point, as the fig1 bench and service do. */
Point pointOf(const hida::DesignQor& qor, const hida::TargetDevice& device,
              int64_t batch);

/** Exact digest of a sweep: completion bitmap and result bits, in grid
 * order. */
uint64_t sweepDigest(const std::vector<Point>& results,
                     const std::vector<uint8_t>& completed);

} // namespace perfbench

#endif // HIDA_PERFBENCH_LENET_SPACE_H
