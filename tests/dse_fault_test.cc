/**
 * @file
 * Robustness tests for the DSE sweep engine (runStrategySweep with the
 * exhaustive strategy): fault isolation, deterministic fault injection,
 * worker-boundary exceptions, stop conditions (deadline / cancel /
 * point budget) and checkpoint resume.
 *
 * The pinned contracts:
 *  - Injected failures land at the exact same grid points at 1, 2 or 4
 *    workers, and surviving points are bit-identical to a clean run —
 *    the fault key is the grid index, never a thread or a clock.
 *  - Failures surface as PointFailure records in grid order; the sweep
 *    itself never dies.
 *  - An interrupted sweep (point budget here; wall-clock deadline in the
 *    benches) resumed from its checkpoint (a QorStore keyed by point
 *    fingerprint) reproduces the clean run's results byte-exactly,
 *    including across a truncated checkpoint tail, a flipped byte
 *    inside it, and under store fault injection.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/driver/driver.h"
#include "src/dse/grid.h"
#include "src/dse/qor_store.h"
#include "src/dse/strategy.h"
#include "src/estimator/qor.h"
#include "src/models/dnn_models.h"
#include "src/support/fault_inject.h"
#include "src/transforms/passes.h"

namespace hida {
namespace {

bool
qorEq(const DesignQor& a, const DesignQor& b)
{
    return a.latencyCycles == b.latencyCycles &&
           a.intervalCycles == b.intervalCycles && a.res.dsp == b.res.dsp &&
           a.res.bram18k == b.res.bram18k && a.res.lut == b.res.lut &&
           a.res.ff == b.res.ff;
}

/** Exhaustive runStrategySweep of @p grid in @p order. */
StrategyOutcome<DesignQor>
exhaustiveSweep(const DesignPointGrid& grid,
                const std::function<ResilientWorker<DesignQor>()>& factory,
                unsigned threads, const SweepLimits& limits = SweepLimits(),
                PointOrder order = PointOrder::kGrayCode)
{
    StrategyOptions options;
    options.order = order;
    std::unique_ptr<SearchStrategy> strategy = makeStrategy(grid, options);
    return runStrategySweep<DesignQor>(
        grid, *strategy, factory,
        [](size_t index, const DesignQor&) {
            return ParetoSample{index, 0.0, 0.0};
        },
        threads, limits);
}

/**
 * Shared LeNet sweep setup (one compile for the whole suite): the same
 * prototype + 48-point Table 1 sub-grid as dse_parallel_test, evaluated
 * through the CloneSweepWorker recipe of the fig1 bench.
 */
struct LeNetSweep {
    TargetDevice device = TargetDevice::pynqZ2();
    OwnedModule prototype;
    FlowOptions partitionOptions;
    DesignPointGrid grid;
    /// Reference results: a plain serial loop over one CloneSweepWorker.
    std::vector<DesignQor> clean;

    LeNetSweep() : prototype(buildLeNet(1))
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

        CloneSweepWorker worker(prototype.get(),
                                createArrayPartitionPass(partitionOptions),
                                device);
        std::vector<int64_t> vals;
        for (size_t i = 0; i < grid.size(); ++i) {
            grid.decode(i, vals);
            clean.push_back(worker.evaluateChecked(grid, vals).value());
        }
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
                [w, this](size_t,
                          const std::vector<int64_t>& vals)
                -> Result<DesignQor> {
                return w->evaluateChecked(grid, vals);
            };
            worker.recover = [w]() { w->rebuild(); };
            return worker;
        };
    }

    StrategyOutcome<DesignQor>
    run(unsigned threads, const SweepLimits& limits = SweepLimits(),
        PointOrder order = PointOrder::kGrayCode)
    {
        return exhaustiveSweep(grid, factory(), threads, limits, order);
    }
};

/** One compile for the whole suite; tests only read it. */
LeNetSweep&
lenet()
{
    static LeNetSweep sweep;
    return sweep;
}

/** Resets the process-wide fault config so tests cannot leak faults. */
class DseFaultTest : public ::testing::Test {
  protected:
    void TearDown() override { setFaultConfig(FaultConfig()); }
};

std::string
tempCheckpointPath(const std::string& name)
{
    std::string path = ::testing::TempDir() + "hida_" + name + ".jrnl";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    return path;
}

/** Open @p checkpoint the way a sweep needs it: tagged with the grid's
 * content hash, one DesignQor per record. */
std::optional<Diagnostic>
openCheckpoint(QorStore& checkpoint, const std::string& path,
               const DesignPointGrid& grid, size_t batch_records = 64)
{
    return checkpoint.open(path, grid.contentHash(), sizeof(DesignQor),
                           batch_records);
}

//===----------------------------------------------------------------------===//
// Fault isolation and determinism
//===----------------------------------------------------------------------===//

TEST_F(DseFaultTest, CleanRunMatchesSerialLoop)
{
    LeNetSweep& s = lenet();
    StrategyOutcome<DesignQor> outcome = s.run(4);
    ASSERT_EQ(outcome.results.size(), s.grid.size());
    EXPECT_TRUE(outcome.allCompleted());
    EXPECT_TRUE(outcome.failures.empty());
    EXPECT_FALSE(outcome.stats.stopped);
    EXPECT_EQ(outcome.stats.evaluated, s.grid.size());
    EXPECT_EQ(outcome.stats.restored, 0u);
    for (size_t i = 0; i < s.grid.size(); ++i)
        EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i])) << "point " << i;
}

TEST_F(DseFaultTest, InjectedFailuresIdenticalAtAnyThreadCount)
{
    LeNetSweep& s = lenet();
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kEstimator);
    config.seed = 42;
    config.rate = 0.25;
    setFaultConfig(config);

    std::vector<size_t> reference;
    for (unsigned threads : {1u, 2u, 4u}) {
        StrategyOutcome<DesignQor> outcome = s.run(threads);
        EXPECT_FALSE(outcome.stats.stopped);

        // (b) failures arrive in grid order as structured records.
        std::vector<size_t> failed;
        for (size_t f = 0; f < outcome.failures.size(); ++f) {
            const PointFailure& failure = outcome.failures[f];
            if (f > 0)
                EXPECT_LT(outcome.failures[f - 1].index, failure.index);
            EXPECT_EQ(failure.diag.code, ErrorCode::kFaultInjected);
            EXPECT_FALSE(outcome.completed[failure.index]);
            failed.push_back(failure.index);
        }
        ASSERT_FALSE(failed.empty()) << "seed injected nothing";
        ASSERT_LT(failed.size(), s.grid.size()) << "seed killed every point";

        // Failure *set* is a function of (seed, site, index) only.
        if (threads == 1)
            reference = failed;
        else
            EXPECT_EQ(failed, reference) << "threads=" << threads;

        // (a) survivors are bit-identical to the clean run.
        size_t survivors = 0;
        for (size_t i = 0; i < s.grid.size(); ++i) {
            if (!outcome.completed[i])
                continue;
            ++survivors;
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "surviving point " << i << " diverged at threads="
                << threads;
        }
        EXPECT_EQ(survivors + failed.size(), s.grid.size());
    }
}

TEST_F(DseFaultTest, WorkerRecoversAfterMidPipelineFault)
{
    // Pass-site faults fire *after* applyPoint touched the worker's
    // clone: the recover hook (rebuild from the prototype) is what keeps
    // later points on that worker bit-identical to a clean run.
    LeNetSweep& s = lenet();
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kPass);
    config.seed = 7;
    config.rate = 0.2;
    setFaultConfig(config);

    StrategyOutcome<DesignQor> outcome = s.run(2);
    ASSERT_FALSE(outcome.failures.empty());
    for (const PointFailure& failure : outcome.failures)
        EXPECT_EQ(failure.diag.code, ErrorCode::kFaultInjected);
    for (size_t i = 0; i < s.grid.size(); ++i)
        if (outcome.completed[i])
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i << " after a recovery";
}

TEST_F(DseFaultTest, PrototypeVerifierFaultSurfacesBeforeTheSweep)
{
    LeNetSweep& s = lenet();
    EXPECT_FALSE(verifySweepPrototype(s.prototype.get()).has_value());

    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kVerifier);
    config.seed = 1;
    config.rate = 1.0;
    setFaultConfig(config);
    auto diag = verifySweepPrototype(s.prototype.get());
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kFaultInjected);
}

TEST_F(DseFaultTest, InvalidDirectiveFailsThePointNotTheSweep)
{
    LeNetSweep& s = lenet();
    // A bound axis with a non-positive factor: applyPointChecked rejects
    // those points before any IR write; the rest of the grid proceeds.
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {0, 3}, 1, "kpf_loop");
    grid.addDirectiveAxis("kpf3", {2, 8}, 3, "kpf_loop");
    ASSERT_EQ(grid.size(), 4u);

    StrategyOutcome<DesignQor> outcome = exhaustiveSweep(
        grid,
        [&]() {
            auto w = std::make_shared<CloneSweepWorker>(
                s.prototype.get(),
                createArrayPartitionPass(s.partitionOptions), s.device);
            ResilientWorker<DesignQor> worker;
            worker.evaluate =
                [w, &grid](size_t, const std::vector<int64_t>& vals)
                -> Result<DesignQor> {
                return w->evaluateChecked(grid, vals);
            };
            worker.recover = [w]() { w->rebuild(); };
            return worker;
        },
        2);

    // Points 0 and 1 carry kpf1 = 0.
    ASSERT_EQ(outcome.failures.size(), 2u);
    EXPECT_EQ(outcome.failures[0].index, 0u);
    EXPECT_EQ(outcome.failures[1].index, 1u);
    for (const PointFailure& failure : outcome.failures)
        EXPECT_EQ(failure.diag.code, ErrorCode::kInvalidDirective);
    EXPECT_TRUE(outcome.completed[2]);
    EXPECT_TRUE(outcome.completed[3]);
    EXPECT_FALSE(outcome.stats.stopped);
}

//===----------------------------------------------------------------------===//
// Worker-boundary exceptions
//===----------------------------------------------------------------------===//

/**
 * A LeNetSweep factory whose Nth invocation throws — the "worker dies
 * during setup" scenario. Calls are counted process-wide; which OS
 * thread draws the short straw is scheduling-dependent, so tests only
 * assert sweep-level outcomes, never which worker was lost.
 */
std::function<ResilientWorker<DesignQor>()>
throwingFactory(LeNetSweep& s, std::shared_ptr<std::atomic<int>> calls,
                int fatal_call)
{
    auto inner = s.factory();
    return [inner, calls, fatal_call]() {
        if (calls->fetch_add(1) + 1 == fatal_call)
            throw std::runtime_error("worker init blew up");
        return inner();
    };
}

TEST_F(DseFaultTest, StealingRescuesADeadWorkersShard)
{
    // Two workers, one factory throws: the sweep must survive, report
    // the dead worker as a kWorkerFailed Diagnostic (not a crash, not
    // `stopped`, not a point failure), and the survivor drains the dead
    // worker's slot — the failure costs coverage nothing.
    LeNetSweep& s = lenet();
    auto calls = std::make_shared<std::atomic<int>>(0);
    StrategyOutcome<DesignQor> outcome =
        exhaustiveSweep(s.grid, throwingFactory(s, calls, 2), 2);

    ASSERT_EQ(outcome.stats.workerFailures.size(), 1u);
    EXPECT_EQ(outcome.stats.workerFailures[0].code, ErrorCode::kWorkerFailed);
    EXPECT_FALSE(outcome.stats.stopped);
    EXPECT_TRUE(outcome.failures.empty());
    EXPECT_TRUE(outcome.allCompleted());
    for (size_t i = 0; i < s.grid.size(); ++i)
        EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i])) << "point " << i;
}

TEST_F(DseFaultTest, EvaluatorExceptionBecomesPointFailure)
{
    // An exception escaping worker.evaluate is a *per-point* failure:
    // the worker recovers and keeps evaluating; only the throwing point
    // is lost, as a structured kWorkerFailed record.
    LeNetSweep& s = lenet();
    constexpr size_t kBadIndex = 7;
    auto inner = s.factory();
    StrategyOutcome<DesignQor> outcome = exhaustiveSweep(
        s.grid,
        [&]() {
            ResilientWorker<DesignQor> worker = inner();
            auto evaluate = worker.evaluate;
            worker.evaluate = [evaluate](size_t index,
                                         const std::vector<int64_t>& vals)
                -> Result<DesignQor> {
                if (index == kBadIndex)
                    throw std::runtime_error("estimator exploded");
                return evaluate(index, vals);
            };
            return worker;
        },
        2);

    EXPECT_TRUE(outcome.stats.workerFailures.empty());
    EXPECT_FALSE(outcome.stats.stopped);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, kBadIndex);
    EXPECT_EQ(outcome.failures[0].diag.code, ErrorCode::kWorkerFailed);
    EXPECT_FALSE(outcome.completed[kBadIndex]);
    for (size_t i = 0; i < s.grid.size(); ++i)
        if (i != kBadIndex) {
            ASSERT_TRUE(outcome.completed[i]) << "point " << i;
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i;
        }
}

//===----------------------------------------------------------------------===//
// Stop conditions
//===----------------------------------------------------------------------===//

TEST_F(DseFaultTest, ExpiredDeadlineStopsBetweenPoints)
{
    LeNetSweep& s = lenet();
    SweepLimits limits;
    limits.deadlineSeconds = 1e-9;  // expired by the first check
    StrategyOutcome<DesignQor> outcome = s.run(2, limits);
    EXPECT_TRUE(outcome.stats.stopped);
    ASSERT_TRUE(outcome.stats.stopReason.has_value());
    EXPECT_EQ(outcome.stats.stopReason->code, ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(outcome.stats.evaluated, 0u);
    EXPECT_FALSE(outcome.allCompleted());
    EXPECT_TRUE(outcome.failures.empty());
}

TEST_F(DseFaultTest, CancelTokenStopsAllWorkers)
{
    LeNetSweep& s = lenet();
    CancelToken cancel;
    cancel.cancel();
    SweepLimits limits;
    limits.cancel = &cancel;
    StrategyOutcome<DesignQor> outcome = s.run(2, limits);
    EXPECT_TRUE(outcome.stats.stopped);
    ASSERT_TRUE(outcome.stats.stopReason.has_value());
    EXPECT_EQ(outcome.stats.stopReason->code, ErrorCode::kCancelled);
    EXPECT_EQ(outcome.stats.evaluated, 0u);
}

//===----------------------------------------------------------------------===//
// Checkpoint / resume
//===----------------------------------------------------------------------===//

TEST_F(DseFaultTest, InterruptedSweepResumesFromJournalByteExactly)
{
    LeNetSweep& s = lenet();
    std::string path = tempCheckpointPath("resume");

    // Leg 1: one worker, hard point budget — a deterministic "kill" 12
    // points in. The engine flushes the checkpoint on the way out.
    {
        QorStore checkpoint;
        ASSERT_FALSE(openCheckpoint(checkpoint, path, s.grid));
        SweepLimits limits;
        limits.pointBudget = 12;
        limits.checkpoint = &checkpoint;
        StrategyOutcome<DesignQor> outcome = s.run(1, limits);
        EXPECT_TRUE(outcome.stats.stopped);
        ASSERT_TRUE(outcome.stats.stopReason.has_value());
        EXPECT_EQ(outcome.stats.stopReason->code, ErrorCode::kCancelled);
        EXPECT_EQ(outcome.stats.evaluated, 12u);
        EXPECT_FALSE(outcome.allCompleted());
    }

    // Leg 2: a fresh process would open the checkpoint anew; 4 workers.
    // batch_records = 1 makes every insert due for a flush, so the four
    // workers race maybeFlush() against each other and the closing
    // flush() on every point (the TSan leg checks the store's locks).
    {
        QorStore checkpoint;
        ASSERT_FALSE(openCheckpoint(checkpoint, path, s.grid,
                                    /*batch_records=*/1));
        EXPECT_EQ(checkpoint.size(), 12u);
        SweepLimits limits;
        limits.checkpoint = &checkpoint;
        StrategyOutcome<DesignQor> outcome = s.run(4, limits);
        EXPECT_TRUE(outcome.allCompleted());
        EXPECT_FALSE(outcome.stats.stopped);
        EXPECT_EQ(outcome.stats.restored, 12u);
        EXPECT_EQ(outcome.stats.evaluated, s.grid.size() - 12u);
        // The resumed run's merged results are the clean run's results —
        // restored points byte-exactly, re-evaluated points by the
        // engine's determinism. This is the output_sha256 guarantee.
        for (size_t i = 0; i < s.grid.size(); ++i)
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i;
    }

    // Whatever order the racing flushes landed in, the last snapshot on
    // disk holds every point.
    {
        QorStore checkpoint;
        ASSERT_FALSE(openCheckpoint(checkpoint, path, s.grid));
        EXPECT_EQ(checkpoint.stats().restored, s.grid.size());
    }
    std::remove(path.c_str());
}

TEST_F(DseFaultTest, GrayStealingResumeIsByteExactToo)
{
    // The checkpoint contract is order- and timing-agnostic: a sweep
    // interrupted under {gray, 2 stealing workers} — where *which* 12
    // points got checkpointed is timing-dependent — still resumes to the
    // clean run's exact results, because records key on the point
    // fingerprint (grid hash + index), never on enumeration position.
    LeNetSweep& s = lenet();
    std::string path = tempCheckpointPath("gray_steal_resume");

    {
        QorStore checkpoint;
        ASSERT_FALSE(openCheckpoint(checkpoint, path, s.grid));
        SweepLimits limits;
        limits.pointBudget = 12;
        limits.checkpoint = &checkpoint;
        StrategyOutcome<DesignQor> outcome = s.run(2, limits, PointOrder::kGrayCode);
        EXPECT_TRUE(outcome.stats.stopped);
        // The budget is exact even with workers racing for points.
        EXPECT_EQ(outcome.stats.evaluated, 12u);
        EXPECT_FALSE(outcome.allCompleted());
    }
    {
        QorStore checkpoint;
        ASSERT_FALSE(openCheckpoint(checkpoint, path, s.grid));
        EXPECT_EQ(checkpoint.size(), 12u);
        SweepLimits limits;
        limits.checkpoint = &checkpoint;
        StrategyOutcome<DesignQor> outcome = s.run(4, limits, PointOrder::kGrayCode);
        EXPECT_TRUE(outcome.allCompleted());
        EXPECT_FALSE(outcome.stats.stopped);
        EXPECT_EQ(outcome.stats.restored, 12u);
        EXPECT_EQ(outcome.stats.evaluated, s.grid.size() - 12u);
        for (size_t i = 0; i < s.grid.size(); ++i)
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i;
    }
    std::remove(path.c_str());
}

TEST_F(DseFaultTest, CorruptedJournalTailIsDroppedAndResumeStillMatches)
{
    // Two corruptions of a 12-record checkpoint: the last 5 bytes chopped
    // off (a torn write) drops the last record; one flipped payload byte
    // in record 3 (bit rot) drops records 3 and up. Either way the
    // resumed sweep restores the intact prefix and reproduces the clean
    // run.
    LeNetSweep& s = lenet();
    // 24-byte header; each record is (key, payload, checksum) with
    // 8-byte fields around the payload.
    const size_t record = 8 + sizeof(DesignQor) + 8;
    struct Corruption {
        const char* name;
        bool truncate;    ///< Chop the tail, else flip a byte.
        size_t restored;  ///< Intact records left after the damage.
    };
    for (const Corruption& c : {Corruption{"truncated_tail", true, 11},
                                Corruption{"flipped_byte", false, 3}}) {
        SCOPED_TRACE(c.name);
        std::string path = tempCheckpointPath(c.name);
        {
            QorStore checkpoint;
            ASSERT_FALSE(openCheckpoint(checkpoint, path, s.grid));
            SweepLimits limits;
            limits.pointBudget = 12;
            limits.checkpoint = &checkpoint;
            s.run(1, limits);
        }

        std::string bytes;
        {
            std::ifstream in(path, std::ios::binary);
            ASSERT_TRUE(in.good());
            bytes.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
        }
        ASSERT_EQ(bytes.size(), 24 + 12 * record);
        if (c.truncate) {
            bytes.resize(bytes.size() - 5);
        } else {
            const size_t target = 24 + 3 * record + 8;
            bytes[target] = static_cast<char>(bytes[target] ^ 0x5a);
        }
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        }

        QorStore checkpoint;
        auto diag = openCheckpoint(checkpoint, path, s.grid);
        ASSERT_TRUE(diag.has_value());
        EXPECT_EQ(diag->code, ErrorCode::kStoreCorrupt);
        EXPECT_EQ(checkpoint.stats().restored, c.restored);
        EXPECT_EQ(checkpoint.stats().droppedCorrupt, 1u);

        SweepLimits limits;
        limits.checkpoint = &checkpoint;
        StrategyOutcome<DesignQor> outcome = s.run(2, limits);
        EXPECT_TRUE(outcome.allCompleted());
        EXPECT_EQ(outcome.stats.restored, c.restored);
        EXPECT_EQ(outcome.stats.evaluated, s.grid.size() - c.restored);
        for (size_t i = 0; i < s.grid.size(); ++i)
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i;
        std::remove(path.c_str());
    }
}

TEST_F(DseFaultTest, ResumeIsNeverAStoreFaultSite)
{
    // Every kStore lookup under an active FaultScope misses at rate 1.0.
    // The sweep looks its checkpoint up *before* entering the point's
    // scope, so all 12 checkpointed points still restore, at 1 and at 4
    // workers, and the resumed results equal the clean run.
    LeNetSweep& s = lenet();
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        std::string path =
            tempCheckpointPath(strCat("store_fault_resume_t", threads));
        {
            QorStore checkpoint;
            ASSERT_FALSE(openCheckpoint(checkpoint, path, s.grid));
            SweepLimits limits;
            limits.pointBudget = 12;
            limits.checkpoint = &checkpoint;
            s.run(1, limits);
        }

        FaultConfig config;
        config.enabled = true;
        config.siteMask = faultSiteBit(FaultSite::kStore);
        config.seed = 7;
        config.rate = 1.0;
        setFaultConfig(config);

        QorStore checkpoint;
        ASSERT_FALSE(openCheckpoint(checkpoint, path, s.grid));
        SweepLimits limits;
        limits.checkpoint = &checkpoint;
        StrategyOutcome<DesignQor> outcome = s.run(threads, limits);
        setFaultConfig(FaultConfig());

        EXPECT_TRUE(outcome.allCompleted());
        EXPECT_TRUE(outcome.failures.empty());
        EXPECT_EQ(outcome.stats.restored, 12u);
        EXPECT_EQ(outcome.stats.evaluated, s.grid.size() - 12u);
        EXPECT_EQ(checkpoint.stats().hits, 12u);
        EXPECT_EQ(checkpoint.stats().injectedMisses, 0u);
        for (size_t i = 0; i < s.grid.size(); ++i)
            EXPECT_TRUE(qorEq(outcome.results[i], s.clean[i]))
                << "point " << i;
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace hida
