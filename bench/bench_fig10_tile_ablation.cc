/**
 * @file
 * Reproduces Figure 10: ResNet-18 ablation sweeping the maximum parallel
 * factor (1..256) against the tile size (2..32), reporting DSP count,
 * BRAM18K count and throughput per point. The paper's observations to
 * check: DSP/memory/throughput all grow with the parallel factor; tiny
 * tiles inflate DSP via address generation; throughput correlates
 * positively with tile size at large parallel factors.
 *
 * Each point is an independent full compile, run as an exhaustive
 * runStrategySweep: every worker builds and compiles its own modules,
 * and results are printed in grid order — identical output at any
 * HIDA_BENCH_THREADS (pinned by the bench_fig10_tile_ablation_golden_*
 * ctests). A point that fails to compile, or a worker that dies, fails
 * the bench (exit 1) instead of printing a partial figure.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/driver/driver.h"
#include "src/dse/strategy.h"
#include "src/models/dnn_models.h"

using namespace hida;

int
main()
{
    TargetDevice device = TargetDevice::vu9pSlr();
    DesignPointGrid grid;
    grid.addAxis("pf", {1, 4, 16, 64, 256});
    grid.addAxis("tile", {2, 4, 8, 16, 32});

    StrategyOptions exhaustive;  // Every point, in HIDA_DSE_ORDER order.
    exhaustive.order = sweepScheduleFromEnv().order;
    std::unique_ptr<SearchStrategy> strategy = makeStrategy(grid, exhaustive);
    StrategyOutcome<CompileResult> outcome = runStrategySweep<CompileResult>(
        grid, *strategy,
        [&]() {
            ResilientWorker<CompileResult> worker;
            worker.evaluate = [&device](size_t,
                                        const std::vector<int64_t>& vals)
                -> Result<CompileResult> {
                OwnedModule module = buildDnnModel("ResNet-18", nullptr);
                FlowOptions options = optionsFor(Flow::kHida);
                options.maxParallelFactor = vals[0];
                options.tileSize = vals[1];
                return compile(module.get(), options, device);
            };
            return worker;
        },
        [](size_t index, const CompileResult& result) {
            return ParetoSample{index, result.overload,
                                result.effectiveThroughput};
        },
        dseThreadCount());
    // A failed point or a dead worker leaves a default CompileResult
    // behind (its diagnostics are already on stderr): fail instead of
    // printing a row of zeros.
    if (!outcome.allCompleted()) {
        size_t missing = static_cast<size_t>(std::count(
            outcome.completed.begin(), outcome.completed.end(), 0));
        emitDiagnostic(Diagnostic(
            ErrorCode::kGenericError,
            strCat(missing, " of ", grid.size(),
                   " points did not complete (", outcome.failures.size(),
                   " failed, ", outcome.stats.workerFailures.size(),
                   " worker(s) lost); no figure printed"),
            "bench_fig10_tile_ablation"));
        return 1;
    }
    const std::vector<CompileResult>& results = outcome.results;

    std::printf("Figure 10: ResNet-18 parallel factor x tile size ablation "
                "(VU9P one SLR)\n");
    std::printf("%8s %6s %8s %8s %12s\n", "PF", "Tile", "DSP", "BRAM",
                "Thr(smp/s)");
    std::vector<int64_t> vals;
    for (size_t i = 0; i < grid.size(); ++i) {
        grid.decode(i, vals);
        const CompileResult& result = results[i];
        std::printf("%8ld %6ld %8ld %8ld %12.2f\n", vals[0], vals[1],
                    result.qor.res.dsp, result.qor.res.bram18k,
                    result.qor.throughput(device));
    }
    return 0;
}
