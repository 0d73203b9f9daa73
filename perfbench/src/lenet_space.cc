#include "lenet_space.h"

#include "bench.h"
#include "src/models/dnn_models.h"
#include "src/support/utils.h"

namespace perfbench {

using namespace hida;

DesignPointGrid
fullFactorGrid()
{
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    return grid;
}

DesignPointGrid
smallFactorGrid()
{
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {2, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {2, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 16}, 3, "cpf_loop");
    return grid;
}

bool
lowerPrototype(bool dataflow, int64_t batch, const TargetDevice& device,
               Prototype* out)
{
    out->dataflow = dataflow;
    out->batch = batch;
    out->module = buildLeNet(batch);
    FlowOptions options = optionsFor(dataflow ? Flow::kHida : Flow::kVitis);
    options.enableTiling = false;  // LeNet fits on-chip (PYNQ)
    options.enableParallelization = false;
    compile(out->module.get(), options, device);
    out->partitionOptions = options;
    out->partitionOptions.enableParallelization = true;
    return !verifySweepPrototype(out->module.get()).has_value();
}

Point
pointOf(const DesignQor& qor, const TargetDevice& device, int64_t batch)
{
    Point point;
    point.util = qor.res.utilization(device);
    point.throughput = qor.throughput(device) * static_cast<double>(batch);
    return point;
}

uint64_t
sweepDigest(const std::vector<Point>& results,
            const std::vector<uint8_t>& completed)
{
    uint64_t h = hashMix(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
        h = hashCombine(h, completed[i]);
        if (!completed[i])
            continue;
        h = hashCombine(h, bitsOf(results[i].util));
        h = hashCombine(h, bitsOf(results[i].throughput));
    }
    return h;
}

} // namespace perfbench
