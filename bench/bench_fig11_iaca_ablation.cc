/**
 * @file
 * Reproduces Figure 11: the IA/CA parallelization ablation on ResNet-18.
 * Four arms (IA+CA, IA-only, CA-only, naive) swept over the maximum
 * parallel factor; reports DSP, BRAM and effective throughput. The paper's
 * headline: only IA+CA keeps scaling — at PF 64 the other arms fall back
 * to flawed (over-subscribed, misaligned) designs; where all arms work,
 * IA+CA spends several-fold less DSP/BRAM for the same throughput.
 *
 * Points are independent full compiles, run as an exhaustive
 * runStrategySweep over the (arm, PF) grid and printed in grid order, so
 * the output is identical at any HIDA_BENCH_THREADS (pinned by the
 * bench_fig11_iaca_ablation_golden_* ctests). A point that fails to
 * compile, or a worker that dies, fails the bench (exit 1) instead of
 * printing a partial figure.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <iterator>

#include "src/driver/driver.h"
#include "src/dse/strategy.h"
#include "src/models/dnn_models.h"
#include "src/support/diagnostics.h"

using namespace hida;

int
main()
{
    TargetDevice device = TargetDevice::vu9pSlr();
    struct Arm {
        const char* name;
        bool ia, ca;
    };
    const Arm arms[] = {{"IA+CA", true, true},
                        {"IA", true, false},
                        {"CA", false, true},
                        {"Naive", false, false}};
    DesignPointGrid grid;
    grid.addAxis("arm", {0, 1, 2, 3});
    grid.addAxis("pf", {1, 4, 16, 64, 256});
    // The arm axis indexes arms[]; keep the two in lockstep.
    HIDA_ASSERT(grid.axis(0).values.size() == std::size(arms),
                "arm axis and arms[] diverged");

    StrategyOptions exhaustive;  // Every point, in HIDA_DSE_ORDER order.
    exhaustive.order = sweepScheduleFromEnv().order;
    std::unique_ptr<SearchStrategy> strategy = makeStrategy(grid, exhaustive);
    StrategyOutcome<CompileResult> outcome = runStrategySweep<CompileResult>(
        grid, *strategy,
        [&]() {
            ResilientWorker<CompileResult> worker;
            worker.evaluate = [&device, &arms](
                                  size_t, const std::vector<int64_t>& vals)
                -> Result<CompileResult> {
                OwnedModule module = buildDnnModel("ResNet-18", nullptr);
                FlowOptions options = optionsFor(Flow::kHida);
                options.maxParallelFactor = vals[1];
                const Arm& arm = arms[vals[0]];
                options.strategy = {arm.ia, arm.ca};
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
            "bench_fig11_iaca_ablation"));
        return 1;
    }
    const std::vector<CompileResult>& results = outcome.results;

    std::printf("Figure 11: ResNet-18 IA/CA ablation (VU9P one SLR)\n");
    std::printf("%-7s %6s %8s %8s %14s %10s\n", "Arm", "PF", "DSP", "BRAM",
                "EffThr(smp/s)", "Overload");
    std::vector<int64_t> vals;
    for (size_t i = 0; i < grid.size(); ++i) {
        grid.decode(i, vals);
        const Arm& arm = arms[vals[0]];
        const CompileResult& result = results[i];
        std::printf("%-7s %6ld %8ld %8ld %14.2f %9.2fx\n", arm.name, vals[1],
                    result.qor.res.dsp, result.qor.res.bram18k,
                    result.effectiveThroughput, result.overload);
        if (vals[1] == 256)
            std::printf("\n");
    }
    return 0;
}
