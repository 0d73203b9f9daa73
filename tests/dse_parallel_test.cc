/**
 * @file
 * Concurrency tests for the thread-safe IR core and the DSE sweep
 * engine (src/dse/, runStrategySweep).
 *
 *  - Grid mechanics: deterministic row-major enumeration and decode,
 *    and the Gray visit order as a single-step bijection.
 *  - Work distribution: every point is claimed exactly once at any
 *    worker count, also when one worker dies in its init.
 *  - Parallel-vs-serial equivalence: a Gray-order LeNet factor sweep
 *    run at 1/2/4/8 workers must produce *identical* per-point QoR
 *    (latency, interval, every resource column) and identical Pareto
 *    fronts to a plain serial loop in grid-index order — the invariant
 *    behind the benches' stable output_sha256 at any
 *    HIDA_BENCH_THREADS.
 *  - Interner / type-uniquer hammers: N threads interning overlapping
 *    key sets and building overlapping types, then cross-thread
 *    agreement checks (same string -> same id, same structure -> same
 *    uniqued storage, isa<> dispatch and hash equality across threads).
 *  - Per-module structure epochs: one tree's mutations never move
 *    another tree's epoch.
 *
 * Run under -DHIDA_SANITIZE=thread in CI: TSan turns any latent data
 * race in the shared tables into a hard failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/dialect/affine/affine_ops.h"
#include "src/driver/driver.h"
#include "src/dse/grid.h"
#include "src/dse/strategy.h"
#include "src/estimator/qor.h"
#include "src/models/dnn_models.h"
#include "src/transforms/passes.h"

namespace hida {
namespace {

//===----------------------------------------------------------------------===//
// DesignPointGrid
//===----------------------------------------------------------------------===//

TEST(GridTest, RowMajorEnumerationMatchesNestedLoops)
{
    DesignPointGrid grid;
    grid.addAxis("a", {1, 2});
    grid.addAxis("b", {10, 20, 30});
    grid.addAxis("c", {7});
    ASSERT_EQ(grid.size(), 6u);
    ASSERT_EQ(grid.numAxes(), 3u);

    // Axis 0 slowest — exactly the order of `for a { for b { for c }}`.
    std::vector<std::vector<int64_t>> expected;
    for (int64_t a : {1, 2})
        for (int64_t b : {10, 20, 30})
            expected.push_back({a, b, 7});
    std::vector<int64_t> values;
    for (size_t i = 0; i < grid.size(); ++i) {
        grid.decode(i, values);
        EXPECT_EQ(values, expected[i]) << "point " << i;
    }
}

TEST(GridTest, GrayCodeOrderIsASingleStepBijection)
{
    // Mixed radices, including a degenerate axis: the reflected Gray
    // code must visit every index exactly once, and consecutive
    // positions must differ in exactly one axis by exactly one value
    // step — rollovers included (a grid-index walk fails this at
    // every rollover).
    DesignPointGrid grid;
    grid.addAxis("a", {1, 2});
    grid.addAxis("b", {10, 20, 30});
    grid.addAxis("c", {7});  // Degenerate: never steps.
    grid.addAxis("d", {0, 1, 2, 3});

    std::vector<uint8_t> seen(grid.size(), 0);
    std::vector<size_t> prev, cur;
    for (size_t pos = 0; pos < grid.size(); ++pos) {
        size_t index = grid.grayIndex(pos);
        ASSERT_LT(index, grid.size());
        EXPECT_FALSE(seen[index]) << "index " << index << " repeated";
        seen[index] = 1;

        grid.decodeValueIndices(index, cur);
        if (pos > 0) {
            size_t moved_axes = 0;
            size_t step = 0;
            for (size_t a = 0; a < grid.numAxes(); ++a)
                if (cur[a] != prev[a]) {
                    ++moved_axes;
                    step = std::max(cur[a], prev[a]) -
                           std::min(cur[a], prev[a]);
                }
            EXPECT_EQ(moved_axes, 1u) << "position " << pos;
            EXPECT_EQ(step, 1u) << "position " << pos;
        }
        prev = cur;
    }
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_TRUE(seen[i]) << "index " << i << " never visited";
}

//===----------------------------------------------------------------------===//
// Sweep engine: work distribution and parallel == serial
//===----------------------------------------------------------------------===//

/** Exhaustive runStrategySweep of @p grid (the Gray walk). */
template <typename R>
StrategyOutcome<R>
exhaustiveSweep(const DesignPointGrid& grid,
                const std::function<ResilientWorker<R>()>& factory,
                unsigned threads)
{
    std::unique_ptr<SearchStrategy> strategy =
        makeStrategy(grid, StrategyOptions());
    return runStrategySweep<R>(
        grid, *strategy, factory,
        [](size_t index, const R&) { return ParetoSample{index, 0.0, 0.0}; },
        threads);
}

TEST(SweepEngineTest, EveryPointIsClaimedExactlyOnce)
{
    // The pool's work queue must partition the batch exactly, for any
    // worker count — also when one worker's init throws and the
    // survivors have to drain its slice.
    DesignPointGrid grid;
    std::vector<int64_t> xs(101);
    std::iota(xs.begin(), xs.end(), 0);
    grid.addAxis("x", xs);
    for (int fatal_init : {0, 2}) {
        for (unsigned threads : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 13u}) {
            if (fatal_init != 0 && threads == 1)
                continue;  // A lone dead worker has no one to rescue it.
            std::vector<std::atomic<int>> seen(grid.size());
            std::atomic<int> inits{0};
            StrategyOutcome<int64_t> outcome = exhaustiveSweep<int64_t>(
                grid,
                [&]() {
                    if (inits.fetch_add(1) + 1 == fatal_init)
                        throw std::runtime_error("worker init blew up");
                    ResilientWorker<int64_t> worker;
                    worker.evaluate =
                        [&seen](size_t index,
                                const std::vector<int64_t>& vals)
                        -> Result<int64_t> {
                        seen[index].fetch_add(1);
                        return vals[0];
                    };
                    return worker;
                },
                threads);
            EXPECT_EQ(outcome.stats.workerFailures.size(),
                      fatal_init != 0 ? 1u : 0u)
                << "threads=" << threads;
            EXPECT_TRUE(outcome.allCompleted()) << "threads=" << threads;
            EXPECT_TRUE(outcome.failures.empty());
            for (size_t i = 0; i < seen.size(); ++i) {
                EXPECT_EQ(seen[i].load(), 1)
                    << "point " << i << " threads=" << threads
                    << " fatal_init=" << fatal_init;
                EXPECT_EQ(outcome.results[i], static_cast<int64_t>(i));
            }
        }
    }
}

bool
qorEq(const DesignQor& a, const DesignQor& b)
{
    return a.latencyCycles == b.latencyCycles &&
           a.intervalCycles == b.intervalCycles && a.res.dsp == b.res.dsp &&
           a.res.bram18k == b.res.bram18k && a.res.lut == b.res.lut &&
           a.res.ff == b.res.ff;
}

/** Pareto front over (utilization, throughput), as in the fig1 bench. */
std::vector<size_t>
paretoFront(const std::vector<DesignQor>& qors, const TargetDevice& device)
{
    std::vector<size_t> order(qors.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return qors[a].res.utilization(device) <
               qors[b].res.utilization(device);
    });
    std::vector<size_t> front;
    double best = 0.0;
    for (size_t i : order) {
        if (qors[i].throughput(device) > best) {
            best = qors[i].throughput(device);
            front.push_back(i);
        }
    }
    return front;
}

TEST(SweepEngineTest, ThreadCountNeverChangesResults)
{
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype = buildLeNet(1);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableTiling = false;
    options.enableParallelization = false;
    compile(prototype.get(), options, device);
    FlowOptions partition_options = options;
    partition_options.enableParallelization = true;

    // A 48-point sub-grid of the Table 1 factors: big enough that every
    // worker both warms and reuses its estimator caches.
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 3}, 1, "kpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 4, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {2, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 16}, 3, "cpf_loop");
    ASSERT_EQ(grid.size(), 48u);

    // The reference: a plain serial loop over one CloneSweepWorker, in
    // grid order.
    std::vector<DesignQor> serial;
    {
        CloneSweepWorker worker(prototype.get(),
                                createArrayPartitionPass(partition_options),
                                device);
        std::vector<int64_t> vals;
        for (size_t i = 0; i < grid.size(); ++i) {
            grid.decode(i, vals);
            Result<DesignQor> qor = worker.evaluateChecked(grid, vals);
            ASSERT_TRUE(qor.ok()) << "point " << i;
            serial.push_back(qor.value());
        }
    }

    // Every Gray sweep, at any thread count (the same CloneSweepWorker
    // recipe the fig1 bench runs), must reproduce it exactly: results
    // merge by grid index, so neither the visit order nor which worker
    // lands on a point may leak into the output.
    std::function<ResilientWorker<DesignQor>()> factory = [&]() {
        auto w = std::make_shared<CloneSweepWorker>(
            prototype.get(), createArrayPartitionPass(partition_options),
            device);
        ResilientWorker<DesignQor> worker;
        worker.evaluate = [w, &grid](size_t, const std::vector<int64_t>& vals)
            -> Result<DesignQor> { return w->evaluateChecked(grid, vals); };
        worker.recover = [w]() { w->rebuild(); };
        return worker;
    };
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        StrategyOutcome<DesignQor> outcome =
            exhaustiveSweep<DesignQor>(grid, factory, threads);
        ASSERT_TRUE(outcome.allCompleted());
        for (size_t i = 0; i < serial.size(); ++i)
            EXPECT_TRUE(qorEq(serial[i], outcome.results[i]))
                << "point " << i << " diverged at threads=" << threads;
        EXPECT_EQ(paretoFront(serial, device),
                  paretoFront(outcome.results, device))
            << "Pareto front diverged at threads=" << threads;
    }
}

TEST(SweepEngineTest, IndependentCompilesPerWorker)
{
    // fig10/fig11-style sweep: each point is a full compile on a module
    // the worker builds itself. Serial and parallel runs must agree on
    // every reported metric.
    TargetDevice device = TargetDevice::vu9pSlr();
    DesignPointGrid grid;
    grid.addAxis("pf", {1, 16});
    grid.addAxis("tile", {4, 32});

    auto sweep = [&](unsigned threads) {
        StrategyOutcome<CompileResult> outcome =
            exhaustiveSweep<CompileResult>(
                grid,
                [&]() {
                    ResilientWorker<CompileResult> worker;
                    worker.evaluate =
                        [&device](size_t, const std::vector<int64_t>& vals)
                        -> Result<CompileResult> {
                        OwnedModule module =
                            buildDnnModel("ResNet-18", nullptr);
                        FlowOptions options = optionsFor(Flow::kHida);
                        options.maxParallelFactor = vals[0];
                        options.tileSize = vals[1];
                        return compile(module.get(), options, device);
                    };
                    return worker;
                },
                threads);
        EXPECT_TRUE(outcome.allCompleted()) << "threads=" << threads;
        return outcome.results;
    };

    std::vector<CompileResult> serial = sweep(1);
    std::vector<CompileResult> parallel = sweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(qorEq(serial[i].qor, parallel[i].qor)) << "point " << i;
        EXPECT_EQ(serial[i].overload, parallel[i].overload) << "point " << i;
        EXPECT_EQ(serial[i].effectiveThroughput,
                  parallel[i].effectiveThroughput)
            << "point " << i;
    }
}

//===----------------------------------------------------------------------===//
// Interner / type-uniquer hammers
//===----------------------------------------------------------------------===//

TEST(ConcurrencyHammerTest, InternerAgreesAcrossThreads)
{
    constexpr int kThreads = 8;
    constexpr int kKeys = 512;
    // Overlapping key sets: every thread interns the shared range plus a
    // thread-specific slice, in a thread-dependent order.
    std::vector<std::vector<Identifier>> ids(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t, &ids]() {
            std::vector<Identifier>& mine = ids[t];
            mine.resize(kKeys);
            for (int i = 0; i < kKeys; ++i) {
                int k = (t % 2) ? (kKeys - 1 - i) : i;
                mine[k] = Identifier::get("hammer" + std::to_string(t % 4) +
                                          ".key" + std::to_string(k));
            }
        });
    }
    for (std::thread& t : pool)
        t.join();

    for (int t = 0; t < kThreads; ++t) {
        for (int k = 0; k < kKeys; ++k) {
            // Same string -> same id, across every thread and vs. a fresh
            // main-thread intern; str() round-trips; dialect precomputed.
            std::string key = "hammer" + std::to_string(t % 4) + ".key" +
                              std::to_string(k);
            EXPECT_EQ(ids[t][k], Identifier::get(key));
            EXPECT_EQ(ids[t][k], ids[(t + 4) % kThreads][k]);
            EXPECT_EQ(ids[t][k].str(), key);
            EXPECT_EQ(ids[t][k].dialect(),
                      Identifier::get("hammer" + std::to_string(t % 4)));
        }
    }
}

TEST(ConcurrencyHammerTest, TypeUniquingAgreesAcrossThreads)
{
    constexpr int kThreads = 8;
    constexpr int kShapes = 64;
    std::vector<std::vector<Type>> types(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t, &types]() {
            std::vector<Type>& mine = types[t];
            for (int i = 0; i < kShapes; ++i) {
                int64_t dim = 1 + (i % 16);
                mine.push_back(Type::memref(
                    {dim, 64}, (i % 2) ? Type::i8() : Type::f32(),
                    (i % 3) ? MemorySpace::kOnChip : MemorySpace::kExternal));
                mine.push_back(Type::stream(Type::i32(), dim));
            }
        });
    }
    for (std::thread& t : pool)
        t.join();

    for (int t = 1; t < kThreads; ++t) {
        ASSERT_EQ(types[t].size(), types[0].size());
        for (size_t i = 0; i < types[t].size(); ++i) {
            // Structural equality, hash equality, and — because storage
            // is uniqued — pointer-identical backing storage.
            EXPECT_TRUE(types[t][i] == types[0][i]);
            EXPECT_EQ(types[t][i].hash(), types[0][i].hash());
            EXPECT_EQ(types[t][i].storage(), types[0][i].storage());
        }
    }
}

TEST(ConcurrencyHammerTest, CrossThreadIsaDispatch)
{
    // Each thread builds its own module and walks it with isa<> — the
    // opNameId<OpT>() caches and the registry are the shared state.
    constexpr int kThreads = 8;
    std::vector<int> for_counts(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t, &for_counts]() {
            OwnedModule module = buildLeNet(1);
            int count = 0;
            module.get().op()->walk([&](Operation* op) {
                if (isa<ForOp>(op) && !dynCast<ForOp>(op).isPipelined())
                    ++count;
            });
            for_counts[t] = count;
        });
    }
    for (std::thread& t : pool)
        t.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(for_counts[t], for_counts[0]);
}

//===----------------------------------------------------------------------===//
// Per-module structure epochs
//===----------------------------------------------------------------------===//

TEST(StructureEpochTest, ModulesAreIsolated)
{
    OwnedModule a = buildLeNet(1);
    OwnedModule b = buildLeNet(1);
    uint64_t epoch_b = b.get().op()->structureEpoch();

    // Structural mutation in tree A: A's epoch moves, B's does not —
    // the property that keeps one worker's mutations from invalidating
    // another worker's schedule caches.
    uint64_t epoch_a = a.get().op()->structureEpoch();
    Operation* first = a.get().body()->front();
    OpBuilder builder;
    builder.setInsertionPointBefore(first);
    builder.create("test.epoch_probe");
    EXPECT_NE(a.get().op()->structureEpoch(), epoch_a);
    EXPECT_EQ(b.get().op()->structureEpoch(), epoch_b);

    // A clone is its own tree: mutating it leaves the prototype alone.
    OwnedModule c = OwnedModule::clone(b.get());
    uint64_t epoch_c = c.get().op()->structureEpoch();
    OpBuilder cb;
    cb.setInsertionPointBefore(c.get().body()->front());
    cb.create("test.epoch_probe");
    EXPECT_NE(c.get().op()->structureEpoch(), epoch_c);
    EXPECT_EQ(b.get().op()->structureEpoch(), epoch_b);
}

TEST(StructureEpochTest, CloneEstimatesMatchPrototype)
{
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype = buildLeNet(1);
    FlowOptions options = optionsFor(Flow::kHida);
    options.enableTiling = false;
    compile(prototype.get(), options, device);

    OwnedModule clone = OwnedModule::clone(prototype.get());
    QorEstimator proto_est(device), clone_est(device);
    DesignQor proto_qor = proto_est.estimateFunc(topFunc(prototype.get()));
    DesignQor clone_qor = clone_est.estimateFunc(topFunc(clone.get()));
    EXPECT_TRUE(qorEq(proto_qor, clone_qor));
}

} // namespace
} // namespace hida
