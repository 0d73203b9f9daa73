/**
 * @file
 * Tests for the DSE strategy layer (src/dse/strategy.h, src/dse/pareto.h):
 *
 *  - ParetoArchive vs the brute-force oracle: the incrementally
 *    maintained front must contain exactly the non-dominated samples
 *    (exact objective ties between distinct indices all kept).
 *  - LHS axis coverage: every value of every multi-valued axis appears
 *    in the sample, proportionally often.
 *  - Seed determinism: a fixed HIDA_DSE_SEED reproduces the identical
 *    evolve search — same proposals, same results — at 1, 2 and 4
 *    workers (randomness is keyed on (seed, iteration, counter), never
 *    a thread id or completion order).
 *  - Exhaustive equivalence: the exhaustive strategy through
 *    runStrategySweep at 1/2/4/8 workers produces bit-identical
 *    per-point results to a plain serial loop over
 *    CloneSweepWorker::evaluateChecked (the reference implementation)
 *    — the invariant behind the benches' stable output_sha256.
 *  - Evolve acceptance: on the full fig1 LeNet factor grid (2400
 *    points per mode/batch config), evolve at the default pinned seed
 *    recovers >= 95% of the exhaustive Pareto front spending <= 10% of
 *    the points, and its neighbor-stepping proposals hit the warm
 *    node/schedule caches measurably more often than uniform random
 *    sampling (QorEstimator::cacheStats()).
 *  - Env parsing: an unknown HIDA_DSE_STRATEGY is a user error —
 *    exit kFatalExitCode (65), never a silent exhaustive fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/driver/driver.h"
#include "src/dse/pareto.h"
#include "src/dse/strategy.h"
#include "src/estimator/qor.h"
#include "src/models/dnn_models.h"
#include "src/transforms/passes.h"

namespace hida {
namespace {

//===----------------------------------------------------------------------===//
// ParetoArchive
//===----------------------------------------------------------------------===//

/** Deterministic pseudo-random doubles for archive stress inputs. */
double
pseudo(uint64_t& state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((state >> 33) % 1000) / 100.0;
}

TEST(ParetoArchiveTest, MatchesBruteForceOracle)
{
    uint64_t state = 12345;
    std::vector<ParetoSample> samples;
    for (size_t i = 0; i < 400; ++i)
        // Coarse objective lattice so duplicates and ties occur often.
        samples.push_back({i, pseudo(state), pseudo(state)});

    ParetoArchive archive;
    for (const ParetoSample& s : samples)
        archive.insert(s);

    // Oracle: every sample no other sample dominates.
    std::vector<ParetoSample> oracle;
    for (const ParetoSample& s : samples) {
        bool dominated = false;
        for (const ParetoSample& o : samples)
            if (dominates(o, s)) {
                dominated = true;
                break;
            }
        if (!dominated)
            oracle.push_back(s);
    }

    // The archive holds exactly the non-dominated samples: exact
    // objective ties between distinct indices are all kept.
    ASSERT_EQ(archive.size(), oracle.size());
    std::set<size_t> archived;
    for (const ParetoSample& s : archive.samples())
        archived.insert(s.index);
    for (const ParetoSample& s : oracle)
        EXPECT_TRUE(archived.count(s.index))
            << "oracle front index " << s.index << " missing";

    // samples() is sorted by (cost, value, index) — deterministic
    // regardless of insertion order.
    for (size_t i = 1; i < archive.samples().size(); ++i) {
        const ParetoSample& a = archive.samples()[i - 1];
        const ParetoSample& b = archive.samples()[i];
        EXPECT_TRUE(a.cost < b.cost ||
                    (a.cost == b.cost && a.value < b.value) ||
                    (a.cost == b.cost && a.value == b.value &&
                     a.index < b.index));
    }

    // paretoFrontOf collapses exact duplicate objectives to the first
    // occurrence, so it is never larger than the tie-keeping archive.
    std::vector<ParetoSample> collapsed = paretoFrontOf(samples);
    EXPECT_LE(collapsed.size(), archive.size());
    for (const ParetoSample& s : collapsed)
        EXPECT_TRUE(archive.covers(s));
}

TEST(ParetoArchiveTest, TiesKeptDuplicatesRejectedDominatedPruned)
{
    ParetoArchive archive;
    EXPECT_TRUE(archive.insert({0, 1.0, 1.0}));
    // Exact objective tie at a distinct index joins the front.
    EXPECT_TRUE(archive.insert({1, 1.0, 1.0}));
    // Re-offering an archived point is rejected.
    EXPECT_FALSE(archive.insert({0, 1.0, 1.0}));
    EXPECT_EQ(archive.size(), 2u);
    // A strictly dominating newcomer prunes the whole tie group.
    EXPECT_TRUE(archive.insert({2, 0.5, 2.0}));
    ASSERT_EQ(archive.size(), 1u);
    EXPECT_EQ(archive.samples()[0].index, 2u);
    // A dominated offer never joins.
    EXPECT_FALSE(archive.insert({3, 0.6, 1.5}));
    // Incomparable points coexist.
    EXPECT_TRUE(archive.insert({4, 0.4, 1.0}));
    EXPECT_EQ(archive.size(), 2u);
    EXPECT_TRUE(archive.covers({5, 0.5, 2.0}));
    EXPECT_FALSE(archive.covers({5, 0.3, 2.0}));
}

//===----------------------------------------------------------------------===//
// Sampling strategies on a synthetic grid (no compiler in the loop)
//===----------------------------------------------------------------------===//

DesignPointGrid
syntheticGrid()
{
    DesignPointGrid grid;
    grid.addAxis("a", {1, 2, 3, 4});
    grid.addAxis("b", {1});  // Degenerate axis: nothing to stratify.
    grid.addAxis("c", {10, 20, 30});
    grid.addAxis("d", {0, 1, 2, 3, 4, 5});
    return grid;
}

/** Drain @p strategy without feedback; returns all proposed indices. */
std::vector<size_t>
drain(SearchStrategy& strategy)
{
    std::vector<size_t> all, batch;
    for (;;) {
        batch.clear();
        strategy.propose(batch);
        if (batch.empty())
            break;
        std::vector<StrategyResult> feedback;
        for (size_t i : batch)
            feedback.push_back({i, false, 0.0, 0.0});
        strategy.consume(feedback);
        all.insert(all.end(), batch.begin(), batch.end());
    }
    return all;
}

TEST(LhsTest, CoversEveryAxisValueProportionally)
{
    DesignPointGrid grid = syntheticGrid();
    StrategyOptions options;
    options.kind = StrategyKind::kLhs;
    options.seed = 9;
    options.budget = 36;  // A multiple of every axis size (4, 3, 6).
    std::unique_ptr<SearchStrategy> lhs = makeStrategy(grid, options);
    std::vector<size_t> proposed = drain(*lhs);
    ASSERT_EQ(proposed.size(), options.budget);

    // No repeats.
    std::set<size_t> unique(proposed.begin(), proposed.end());
    EXPECT_EQ(unique.size(), proposed.size());

    // Latin-hypercube stratification: over 36 rows every value of a
    // 4-value axis is drawn 9 times, of a 3-value axis 12 times, of a
    // 6-value axis 6 times. Collisions with already-visited points are
    // re-drawn uniformly, so allow a generous tolerance — the property
    // that matters is "no axis value is starved or flooded".
    std::vector<int64_t> vals;
    for (size_t axis = 0; axis < grid.numAxes(); ++axis) {
        const std::vector<int64_t>& values = grid.axis(axis).values;
        if (values.size() < 2)
            continue;
        std::map<int64_t, size_t> counts;
        for (size_t idx : proposed) {
            grid.decode(idx, vals);
            ++counts[vals[axis]];
        }
        const size_t expect = options.budget / values.size();
        for (int64_t v : values) {
            ASSERT_TRUE(counts.count(v))
                << "axis " << axis << " value " << v << " never sampled";
            EXPECT_GE(counts[v], expect / 2);
            EXPECT_LE(counts[v], expect * 2);
        }
    }
}

TEST(RandomTest, BudgetedUniqueInRange)
{
    DesignPointGrid grid = syntheticGrid();
    StrategyOptions options;
    options.kind = StrategyKind::kRandom;
    options.seed = 4;
    options.budget = 30;
    std::unique_ptr<SearchStrategy> random = makeStrategy(grid, options);
    std::vector<size_t> proposed = drain(*random);
    ASSERT_EQ(proposed.size(), 30u);
    std::set<size_t> unique(proposed.begin(), proposed.end());
    EXPECT_EQ(unique.size(), 30u);
    for (size_t i : proposed)
        EXPECT_LT(i, grid.size());

    // Same seed, same draw; different seed, different draw.
    std::unique_ptr<SearchStrategy> again = makeStrategy(grid, options);
    EXPECT_EQ(drain(*again), proposed);
    options.seed = 5;
    std::unique_ptr<SearchStrategy> other = makeStrategy(grid, options);
    EXPECT_NE(drain(*other), proposed);
}

TEST(ExhaustiveTest, ProposesWholeGridOnce)
{
    DesignPointGrid grid = syntheticGrid();
    StrategyOptions options;  // Defaults to exhaustive, gray order.
    std::unique_ptr<SearchStrategy> exhaustive = makeStrategy(grid, options);
    std::vector<size_t> proposed = drain(*exhaustive);
    ASSERT_EQ(proposed.size(), grid.size());
    for (size_t pos = 0; pos < proposed.size(); ++pos)
        EXPECT_EQ(proposed[pos],
                  grid.orderedIndex(pos, PointOrder::kGrayCode));

    // Explicit row-major reproduces the historical identity order.
    options.order = PointOrder::kRowMajor;
    std::unique_ptr<SearchStrategy> row_major = makeStrategy(grid, options);
    std::vector<size_t> row_proposed = drain(*row_major);
    ASSERT_EQ(row_proposed.size(), grid.size());
    for (size_t i = 0; i < row_proposed.size(); ++i)
        EXPECT_EQ(row_proposed[i], i);  // Grid order: shard-compatible.
}

//===----------------------------------------------------------------------===//
// Strategy sweeps through the real estimator pipeline
//===----------------------------------------------------------------------===//

/** One compiled LeNet prototype + small factor grid for sweep tests. */
struct LeNetStrategySweep {
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype;
    FlowOptions partitionOptions;
    DesignPointGrid grid;

    LeNetStrategySweep() : prototype(buildLeNet(1))
    {
        FlowOptions options = optionsFor(Flow::kHida);
        options.enableTiling = false;
        options.enableParallelization = false;
        compile(prototype.get(), options, device);
        partitionOptions = options;
        partitionOptions.enableParallelization = true;

        grid.addDirectiveAxis("kpf1", {1, 3}, 1, "kpf_loop");
        grid.addDirectiveAxis("kpf2", {1, 4, 16}, 2, "kpf_loop");
        grid.addDirectiveAxis("cpf2", {1, 6}, 2, "cpf_loop");
        grid.addDirectiveAxis("kpf3", {2, 8}, 3, "kpf_loop");
        grid.addDirectiveAxis("cpf3", {1, 16}, 3, "cpf_loop");
    }

    std::function<ResilientWorker<DesignQor>()>
    factory()
    {
        return [this]() {
            auto w = std::make_shared<CloneSweepWorker>(
                prototype.get(), createArrayPartitionPass(partitionOptions),
                device);
            ResilientWorker<DesignQor> worker;
            worker.evaluate =
                [w, this](size_t, const std::vector<int64_t>& vals)
                -> Result<DesignQor> {
                return w->evaluateChecked(grid, vals);
            };
            worker.recover = [w]() { w->rebuild(); };
            worker.cacheStats = [w]() { return w->estimator.cacheStats(); };
            return worker;
        };
    }

    StrategyOutcome<DesignQor>
    run(StrategyKind kind, unsigned threads, uint64_t seed = 42,
        size_t budget = 0)
    {
        StrategyOptions options;
        options.kind = kind;
        options.seed = seed;
        options.budget = budget;
        options.costLimit = 1.05;
        std::unique_ptr<SearchStrategy> strategy =
            makeStrategy(grid, options);
        return runStrategySweep<DesignQor>(
            grid, *strategy, factory(),
            [this](size_t, const DesignQor& q) {
                return ParetoSample{0, q.res.utilization(device),
                                    q.throughput(device)};
            },
            threads);
    }
};

/** One compile for the whole suite; tests only read it. */
LeNetStrategySweep&
lenet()
{
    static LeNetStrategySweep sweep;
    return sweep;
}

/** The evaluated-point fingerprint a determinism check compares. */
std::vector<std::pair<size_t, double>>
completedLatencies(const StrategyOutcome<DesignQor>& outcome)
{
    std::vector<std::pair<size_t, double>> out;
    for (size_t i = 0; i < outcome.results.size(); ++i)
        if (outcome.completed[i])
            out.emplace_back(i, outcome.results[i].intervalCycles);
    return out;
}

TEST(StrategySweepTest, EvolveSeedDeterministicAcrossThreadCounts)
{
    StrategyOutcome<DesignQor> t1 =
        lenet().run(StrategyKind::kEvolve, 1, 7, 20);
    StrategyOutcome<DesignQor> t2 =
        lenet().run(StrategyKind::kEvolve, 2, 7, 20);
    StrategyOutcome<DesignQor> t4 =
        lenet().run(StrategyKind::kEvolve, 4, 7, 20);

    EXPECT_EQ(t1.stats.proposed, 20u);
    // Same seed at any worker count: identical points evaluated,
    // identical results (warm == cold, per the differential fuzzer).
    EXPECT_EQ(completedLatencies(t1), completedLatencies(t2));
    EXPECT_EQ(completedLatencies(t1), completedLatencies(t4));
    EXPECT_EQ(t1.completed, t2.completed);
    EXPECT_EQ(t1.completed, t4.completed);

    // A different seed explores a different trajectory.
    StrategyOutcome<DesignQor> other =
        lenet().run(StrategyKind::kEvolve, 2, 8, 20);
    EXPECT_NE(completedLatencies(t1), completedLatencies(other));
}

TEST(StrategySweepTest, ExhaustiveMatchesSerialLoop)
{
    // The reference implementation: one CloneSweepWorker, grid order.
    LeNetStrategySweep& s = lenet();
    std::vector<DesignQor> serial;
    {
        CloneSweepWorker worker(s.prototype.get(),
                                createArrayPartitionPass(s.partitionOptions),
                                s.device);
        std::vector<int64_t> vals;
        for (size_t i = 0; i < s.grid.size(); ++i) {
            s.grid.decode(i, vals);
            Result<DesignQor> qor = worker.evaluateChecked(s.grid, vals);
            ASSERT_TRUE(qor.ok()) << "point " << i;
            serial.push_back(qor.value());
        }
    }

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        StrategyOutcome<DesignQor> strategic =
            s.run(StrategyKind::kExhaustive, threads);
        ASSERT_EQ(strategic.results.size(), serial.size());
        ASSERT_TRUE(strategic.allCompleted()) << "threads=" << threads;
        for (size_t i = 0; i < serial.size(); ++i)
            // Bit-identical QoR per point — the output_sha256 invariant.
            EXPECT_EQ(std::memcmp(&strategic.results[i], &serial[i],
                                  sizeof(DesignQor)),
                      0)
                << "point " << i << " diverged at threads=" << threads;
        EXPECT_EQ(strategic.stats.proposed, s.grid.size());
        EXPECT_EQ(strategic.stats.batches, 1u);
        EXPECT_TRUE(strategic.failures.empty());
    }
}

//===----------------------------------------------------------------------===//
// Evolve acceptance on the full fig1 grid
//===----------------------------------------------------------------------===//

TEST(EvolveAcceptanceTest, RecoversLenetParetoFrontAtTenPercentBudget)
{
    // The full fig1 LeNet factor grid (2400 points), batch 1, no
    // dataflow — the widest reference front of the bench's ten
    // (mode, batch) configs.
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype = buildLeNet(1);
    FlowOptions options = optionsFor(Flow::kVitis);
    options.enableTiling = false;
    options.enableParallelization = false;
    compile(prototype.get(), options, device);
    FlowOptions partition = options;
    partition.enableParallelization = true;

    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    ASSERT_EQ(grid.size(), 2400u);

    auto factory = [&]() -> ResilientWorker<DesignQor> {
        auto w = std::make_shared<CloneSweepWorker>(
            prototype.get(), createArrayPartitionPass(partition), device);
        ResilientWorker<DesignQor> worker;
        worker.evaluate = [w, &grid](size_t, const std::vector<int64_t>& vals)
            -> Result<DesignQor> { return w->evaluateChecked(grid, vals); };
        worker.recover = [w]() { w->rebuild(); };
        worker.cacheStats = [w]() { return w->estimator.cacheStats(); };
        return worker;
    };
    auto objective = [&](size_t index, const DesignQor& q) {
        return ParetoSample{index, q.res.utilization(device),
                            q.throughput(device)};
    };

    // Exhaustive reference front (feasible points only).
    std::unique_ptr<SearchStrategy> exhaustive =
        makeStrategy(grid, StrategyOptions());
    StrategyOutcome<DesignQor> reference = runStrategySweep<DesignQor>(
        grid, *exhaustive, factory, objective, 4);
    std::vector<ParetoSample> feasible;
    for (size_t i = 0; i < reference.results.size(); ++i) {
        if (!reference.completed[i])
            continue;
        ParetoSample s = objective(i, reference.results[i]);
        if (s.cost <= 1.05)
            feasible.push_back(s);
    }
    std::vector<ParetoSample> front = paretoFrontOf(std::move(feasible));
    ASSERT_GE(front.size(), 10u);

    auto sample = [&](StrategyKind kind) {
        StrategyOptions so;
        so.kind = kind;  // Pinned default seed 42, default 10% budget.
        so.costLimit = 1.05;
        std::unique_ptr<SearchStrategy> strategy = makeStrategy(grid, so);
        // One worker: the memo-hit comparison below needs a
        // deterministic point-to-worker assignment — with several
        // stealing workers the assignment (and so each worker's cache
        // history) depends on timing. Results would be identical either
        // way; the cache *counters* would not be stable.
        return runStrategySweep<DesignQor>(grid, *strategy, factory,
                                           objective, 1);
    };
    StrategyOutcome<DesignQor> evolve = sample(StrategyKind::kEvolve);

    // <= 10% of the grid spent.
    EXPECT_LE(evolve.stats.proposed, grid.size() / 10);

    // >= 95% of the exhaustive front recovered (dominated-or-equaled).
    ParetoArchive found;
    for (size_t i = 0; i < evolve.results.size(); ++i) {
        if (!evolve.completed[i])
            continue;
        ParetoSample s = objective(i, evolve.results[i]);
        if (s.cost <= 1.05)
            found.insert(s);
    }
    size_t covered = 0;
    for (const ParetoSample& s : front)
        covered += found.covers(s) ? 1 : 0;
    EXPECT_GE(covered * 100, front.size() * 95)
        << "covered " << covered << " of " << front.size();

    // Warm-cache proof: evolve steps to grid neighbors, so consecutive
    // points share most directive fingerprints and hit the estimator's
    // memo caches more often than uniform random sampling of the same
    // budget (both runs are deterministic, so strict inequality is
    // stable).
    StrategyOutcome<DesignQor> random = sample(StrategyKind::kRandom);
    EXPECT_EQ(random.stats.proposed, evolve.stats.proposed);
    EXPECT_GT(evolve.stats.cache.memoHitRate(),
              random.stats.cache.memoHitRate());
}

//===----------------------------------------------------------------------===//
// Gray-code ordering vs row-major on the full fig1 grid
//===----------------------------------------------------------------------===//

TEST(OrderingTest, GrayCodeOrderingCutsRehashTrafficOverRowMajor)
{
    // The full fig1 LeNet factor grid (2400 points), batch 1, no
    // dataflow — the grid the tentpole claim is about: a Gray-code walk
    // mutates exactly one directive per step, so each point dirties
    // (and re-hashes) strictly fewer subtrees than the row-major walk,
    // whose axis rollovers rewrite several directives at once.
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype = buildLeNet(1);
    FlowOptions options = optionsFor(Flow::kVitis);
    options.enableTiling = false;
    options.enableParallelization = false;
    compile(prototype.get(), options, device);
    FlowOptions partition = options;
    partition.enableParallelization = true;

    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
    grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
    grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3, "kpf_loop");
    grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    ASSERT_EQ(grid.size(), 2400u);

    auto factory = [&]() -> ResilientWorker<DesignQor> {
        auto w = std::make_shared<CloneSweepWorker>(
            prototype.get(), createArrayPartitionPass(partition), device);
        ResilientWorker<DesignQor> worker;
        worker.evaluate = [w, &grid](size_t, const std::vector<int64_t>& vals)
            -> Result<DesignQor> { return w->evaluateChecked(grid, vals); };
        worker.recover = [w]() { w->rebuild(); };
        worker.cacheStats = [w]() { return w->estimator.cacheStats(); };
        return worker;
    };
    auto objective = [&](size_t index, const DesignQor& q) {
        return ParetoSample{index, q.res.utilization(device),
                            q.throughput(device)};
    };

    // Serial exhaustive sweeps: one worker walking the whole grid in
    // each order, so the cache counters measure the ordering alone
    // (point-to-worker assignment and timing play no part).
    auto sweep = [&](PointOrder order) {
        StrategyOptions so;
        so.order = order;
        std::unique_ptr<SearchStrategy> strategy = makeStrategy(grid, so);
        return runStrategySweep<DesignQor>(grid, *strategy, factory,
                                           objective, 1);
    };
    StrategyOutcome<DesignQor> gray = sweep(PointOrder::kGrayCode);
    StrategyOutcome<DesignQor> row = sweep(PointOrder::kRowMajor);

    // The ordering never changes the output: every point completed and
    // bit-identical QoR per grid index.
    ASSERT_EQ(gray.completed, row.completed);
    EXPECT_TRUE(gray.failures.empty());
    for (size_t i = 0; i < grid.size(); ++i) {
        ASSERT_TRUE(gray.completed[i]);
        ASSERT_EQ(std::memcmp(&gray.results[i], &row.results[i],
                              sizeof(DesignQor)),
                  0)
            << "point " << i << " diverged between orderings";
    }

    // The tentpole claim. The node-estimate memo never evicts, so its
    // hit *count* is order-independent (hits = lookups - distinct
    // subtree fingerprints) — assert that equality as the output-
    // invariance witness. Where the ordering pays off is invalidation
    // traffic: a Gray step rewrites exactly one directive, so strictly
    // fewer subtrees are dirtied and re-hashed than under row-major's
    // multi-axis rollovers (both sweeps are deterministic, so strict
    // inequality is stable).
    EXPECT_EQ(gray.stats.cache.hits + gray.stats.cache.misses,
              row.stats.cache.hits + row.stats.cache.misses);
    EXPECT_EQ(gray.stats.cache.hits, row.stats.cache.hits);
    EXPECT_LT(gray.stats.cache.hashRecomputes,
              row.stats.cache.hashRecomputes);
}

//===----------------------------------------------------------------------===//
// Environment parsing
//===----------------------------------------------------------------------===//

TEST(StrategyEnvTest, ParsesKindSeedAndBudget)
{
    EXPECT_EQ(parseStrategyKind("exhaustive"), StrategyKind::kExhaustive);
    EXPECT_EQ(parseStrategyKind("random"), StrategyKind::kRandom);
    EXPECT_EQ(parseStrategyKind("lhs"), StrategyKind::kLhs);
    EXPECT_EQ(parseStrategyKind("evolve"), StrategyKind::kEvolve);
    EXPECT_EQ(parseStrategyKind("anneal"), std::nullopt);
    EXPECT_EQ(strategyKindName(StrategyKind::kEvolve), "evolve");

    setenv("HIDA_DSE_STRATEGY", "lhs", 1);
    setenv("HIDA_DSE_SEED", "7", 1);
    setenv("HIDA_DSE_BUDGET", "123", 1);
    StrategyOptions options = strategyOptionsFromEnv();
    EXPECT_EQ(options.kind, StrategyKind::kLhs);
    EXPECT_EQ(options.seed, 7u);
    EXPECT_EQ(options.budget, 123u);
    unsetenv("HIDA_DSE_STRATEGY");
    unsetenv("HIDA_DSE_SEED");
    unsetenv("HIDA_DSE_BUDGET");

    // Defaults: exhaustive, seed 42, budget 0 (= 10% of the grid),
    // gray order.
    StrategyOptions defaults = strategyOptionsFromEnv();
    EXPECT_EQ(defaults.kind, StrategyKind::kExhaustive);
    EXPECT_EQ(defaults.seed, 42u);
    EXPECT_EQ(defaults.budget, 0u);
    EXPECT_EQ(defaults.order, PointOrder::kGrayCode);

    // HIDA_DSE_ORDER reaches the exhaustive strategy's options.
    setenv("HIDA_DSE_ORDER", "row-major", 1);
    EXPECT_EQ(strategyOptionsFromEnv().order, PointOrder::kRowMajor);
    unsetenv("HIDA_DSE_ORDER");
}

TEST(StrategyEnvTest, UnknownStrategyIsFatalUserError)
{
    setenv("HIDA_DSE_STRATEGY", "simulated-annealing", 1);
    EXPECT_EXIT(strategyOptionsFromEnv(),
                ::testing::ExitedWithCode(kFatalExitCode),
                "unknown HIDA_DSE_STRATEGY");
    unsetenv("HIDA_DSE_STRATEGY");
}

} // namespace
} // namespace hida
